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

from .errors import (
    ConvergenceFailure,
    NoSectionZero,
    ParseError,
    RankDeficientPencil,
    SolverError,
    Unsolved,
    UnstableCountWarning,
)
from .pencil import (
    Pencil,
    PencilPoint,
    SectionCandidate,
    curve_residual,
    fiber_points,
    kernel_vector,
    pencil_matrix,
    section_residual,
    section_zeros,
)
from .genericity import (
    GenericityReport,
    check_distinct_eigenvalues,
    check_nonsingular,
    check_pencil_rank,
    classify,
    common_eigenvectors,
)
from .tridiagonalize import (
    Flag,
    Options,
    TridiagResult,
    VerifyReport,
    build_flag,
    deflate_common_eigenvector,
    flag_to_unitary,
    perturb_and_retry,
    tridiagonalize,
    tridiagonalize3,
    verify,
)
from .degrees import (
    DegreeReport,
    degree_of_det_curve,
    degree_of_kernel_curve,
    run_experiments,
    section_zero_count,
)
from .generate import make_matrix

__version__ = "0.1.0"

__all__ = [
    "ConvergenceFailure",
    "NoSectionZero",
    "ParseError",
    "RankDeficientPencil",
    "SolverError",
    "Unsolved",
    "UnstableCountWarning",
    "Pencil",
    "PencilPoint",
    "SectionCandidate",
    "curve_residual",
    "fiber_points",
    "kernel_vector",
    "pencil_matrix",
    "section_residual",
    "section_zeros",
    "GenericityReport",
    "check_distinct_eigenvalues",
    "check_nonsingular",
    "check_pencil_rank",
    "classify",
    "common_eigenvectors",
    "Flag",
    "Options",
    "TridiagResult",
    "VerifyReport",
    "build_flag",
    "deflate_common_eigenvector",
    "flag_to_unitary",
    "perturb_and_retry",
    "tridiagonalize",
    "tridiagonalize3",
    "verify",
    "DegreeReport",
    "degree_of_det_curve",
    "degree_of_kernel_curve",
    "run_experiments",
    "section_zero_count",
    "make_matrix",
    "__version__",
]
