"""A tour of the geometry driving the 4x4 construction.

The matrices t0*I + t1*A + t2*A* that drop rank form a quartic curve in
the projective plane of [t0 : t1 : t2].  Each such point carries a
one-dimensional kernel; the kernel vectors sweep out a curve of points
[v] where {v, Av, A*v} is linearly dependent.  The solver's flag points
are the finitely many kernel vectors whose enlarged spans
span(v,Av,A*v) + A*span(...) and ... + A**span(...) coincide.
"""

import numpy as np

from tridiag4 import Pencil, make_matrix, section_zeros
from tridiag4.pencil import pencil_matrix

np.set_printoptions(precision=4, suppress=True)

a = make_matrix("gaussian", 4, seed=7)
pencil = Pencil(a)

# --- the fiber over one base direction [1 : mu] -----------------------------
# over the base the curve points are [-lam : 1 : mu] with lam an eigenvalue
# of N = A + mu*A*, and the kernel vector there is its eigenvector v
mu = 0.6 - 0.3j
lam, vecs = np.linalg.eig(a + mu * pencil.astar)
print(f"fiber over base [1 : {mu}]: four curve points (one per eigenvalue of A + mu*A*)")
for k in range(4):
    m = pencil_matrix(pencil, [-lam[k], 1.0, mu])
    v = vecs[:, k]
    s = np.linalg.svd(np.column_stack([v, a @ v, pencil.astar @ v]), compute_uv=False)
    print(
        f"  sheet {k}: |det| = {abs(np.linalg.det(m)):.2e},"
        f"  ||pencil @ v|| = {np.linalg.norm(m @ v):.2e},"
        f"  sigma3/sigma1 of [v, Av, A*v] = {s[2] / s[0]:.2e}"
    )

# --- the two residuals that mark a flag point -----------------------------
# h = det[v, Av, A^2 v, A*^2 v] over its column norms, and sigma4 = the fourth
# singular value, over the first, of the seven columns
# [v, Av, A*v, A^2 v, AA*v, A*Av, A*^2 v]: both vanish at a flag point
print("\nresidual pair (span determinant, rank gap sigma4) along the fiber:")
for k in range(4):
    v = vecs[:, k]
    av, asv = a @ v, pencil.astar @ v
    seven = np.column_stack([v, av, asv, a @ av, a @ asv, pencil.astar @ av, pencil.astar @ asv])
    span = seven[:, [0, 1, 3, 6]]
    h = np.linalg.det(span) / np.prod(np.linalg.norm(span, axis=0))
    s = np.linalg.svd(seven, compute_uv=False)
    print(f"  sheet {k}: |h| = {abs(h):.3e},  sigma4 = {s[3] / s[0]:.3e}")

# --- all flag points -------------------------------------------------------
# the bases [1 : mu] of the flag points are the 12 roots of one dodecic; a
# point counts when its flag passes the solver's gate, and when a root is
# rejected the count refines all twelve together on the dodecic and gates the
# rejected ones again, as one stack
zeros = section_zeros(pencil)
print(f"\nflag points whose flags pass the gate: {len(zeros)} (the roots of a dodecic: 12 for generic A)")
far = np.abs(np.subtract.outer(np.arange(4), np.arange(4))) >= 2
for z in zeros:
    t = np.conj(z.basis).T @ a @ z.basis  # U A U* for the point's flag U* = basis
    print(f"  t = {np.round(z.t, 4)}  sigma4 = {z.sigma4:.1e}  off-band = {np.abs(t[far]).max() / np.linalg.norm(a, 2):.1e}")
