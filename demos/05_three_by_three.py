"""The 3x3 case: one Hermitian eigenvector instead of a curve hunt.

For a 3x3 matrix, det[v, Av, A*v] is a single cubic form on projective
2-space, and every eigenvector v of the Hermitian A + A* is a zero of
it, since Av + A*v = lam*v.  Such a zero either is a common eigenvector
of A and A* (then its orthocomplement is invariant for both and the
result is block-diagonal), or it starts a flag directly.
"""

import numpy as np

from tridiag4 import make_matrix, tridiagonalize

np.set_printoptions(precision=4, suppress=True)

a = make_matrix("gaussian", 3, seed=31)
result = tridiagonalize(a, seed=31)
print("A =")
print(a)
print("\nT = U A U* =")
print(np.round(result.t, 10))
print(f"\noff-residual {result.off_residual:.2e}, unitarity {result.unitarity_residual:.2e}")

# on a Hermitian input every eigenvector of A + A* is one of A and A*:
# the flag splits off a common eigenvector
h = make_matrix("hermitian", 3, seed=32)
result = tridiagonalize(h, seed=32)
print("\nhermitian input: T =")
print(np.round(result.t, 10))
print(f"off-residual {result.off_residual:.2e}")
