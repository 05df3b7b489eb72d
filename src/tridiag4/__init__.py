"""Unitary tridiagonalization of complex matrices of size up to 4.

For any complex n x n matrix A with n <= 4 this package computes a
unitary U such that U A U* is tridiagonal.  The 4x4 case runs through a
constructive reduction: a plane quartic curve attached to the pencil
t0*I + t1*A + t2*A*, its kernel map into projective 3-space, and the
finitely many points on that curve where an associated subspace
condition closes up into a full flag.  The package also ships the
counting experiments for the curves involved: the counts 4, 6 and 12
are certified points of one eigen-solve each (a line's 4x4 eigenproblem,
a hyperplane's Krylov sextic, and the flag-point dodecic).
"""

from .errors import ParseError, Unsolved, UnstableCountWarning
from .pencil import Pencil, section_zeros
from .genericity import classify
from .tridiagonalize import TridiagResult, tridiagonalize, verify
from .degrees import degree_of_det_curve, degree_of_kernel_curve, run_experiments
from .generate import make_matrix

__version__ = "0.1.0"

__all__ = [
    "tridiagonalize",
    "verify",
    "TridiagResult",
    "make_matrix",
    "Pencil",
    "section_zeros",
    "classify",
    "degree_of_det_curve",
    "degree_of_kernel_curve",
    "run_experiments",
    "Unsolved",
    "ParseError",
    "UnstableCountWarning",
    "__version__",
]
