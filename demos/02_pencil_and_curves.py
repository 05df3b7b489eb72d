"""A tour of the geometry driving the 4x4 construction.

The matrices t0*I + t1*A + t2*A* that drop rank form a quartic curve in
the projective plane of [t0 : t1 : t2].  Each such point carries a
one-dimensional kernel; the kernel vectors sweep out a curve of points
[v] where {v, Av, A*v} is linearly dependent.  The solver's flag points
are the finitely many kernel vectors whose enlarged spans
span(v,Av,A*v) + A*span(...) and ... + A**span(...) coincide.
"""

import numpy as np

from tridiag4 import (
    Pencil,
    curve_residual,
    fiber_points,
    make_matrix,
    pencil_matrix,
    section_residual,
    section_zeros,
)

np.set_printoptions(precision=4, suppress=True)

a = make_matrix("gaussian", 4, seed=7)
pencil = Pencil(a)

# --- the fiber over one base direction [t1 : t2] --------------------------
base = [1.0, 0.6 - 0.3j]
print(f"fiber over base {base}: four curve points (one per eigenvalue)")
for pt in fiber_points(pencil, base):
    m = pencil_matrix(pencil, pt.t)
    print(
        f"  sheet {pt.sheet}: |det| = {abs(np.linalg.det(m)):.2e},"
        f"  ||pencil @ v|| = {np.linalg.norm(m @ pt.v):.2e},"
        f"  dependence residual = {curve_residual(pencil, pt.v):.2e}"
    )

# --- the two residuals that mark a flag point -----------------------------
print("\nresidual pair (span determinant, rank gap sigma4) along the fiber:")
for pt in fiber_points(pencil, base):
    h, sigma4 = section_residual(pencil, pt.v)
    print(f"  sheet {pt.sheet}: |h| = {abs(h):.3e},  sigma4 = {sigma4:.3e}")

# --- all flag points -------------------------------------------------------
# the bases [1 : mu] of the flag points are the 12 roots of one dodecic;
# each is certified, and a rejected root is refined on the dodecic and certified again
zeros = section_zeros(pencil)
print(f"\ncertified flag points: {len(zeros)} (the roots of a dodecic: 12 for generic A)")
for z in zeros:
    print(f"  t = {np.round(z.point.t, 4)}  sigma4 = {z.sigma4:.1e}")
