"""Independent output checks for the benchmark.

Every check recomputes what it needs from the benchmark's own copy of
the input with plain numpy; nothing here calls into ``tridiag4``.  A
check returns ``None`` when the output is acceptable and a short reason
string otherwise.
"""

from __future__ import annotations

import numpy as np

OFF_TOL = 1e-8  # max |(U A U*)_ij|, |i-j| >= 2, relative to ||A||_2
UNITARITY_TOL = 1e-10  # ||U U* - I||_2
SPECTRUM_TOL = 1e-8  # verify()'s spectrum gap, relative to ||A||_2
# A 2x2 Jordan block's eigenvalue moves by ~sqrt(rounding error): an exact
# unitary similarity of the defective inputs already shows gaps near 1e-8,
# so those inputs are held to 1e-6 instead.
DEFECTIVE_SPECTRUM_TOL = 1e-6
EXPECTED_COUNTS = (4, 6, 12)  # (deg D, deg C, flag points) on generic input


def check_reduction(a, u) -> str | None:
    """``U`` must be unitary and ``U A U*`` tridiagonal."""
    a = np.asarray(a, dtype=complex)
    u = np.asarray(u, dtype=complex)
    n = a.shape[0]
    if u.shape != (n, n) or not np.all(np.isfinite(u)):
        return "U has the wrong shape or non-finite entries"
    scale = float(np.linalg.norm(a, 2))
    t = u @ a @ np.conj(u).T
    far = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) >= 2
    off = float(np.max(np.abs(t[far]))) if n > 2 else 0.0
    if off > OFF_TOL * scale:
        return f"off-tridiagonal {off / scale:.1e} x ||A||"
    unit = float(np.linalg.norm(u @ np.conj(u).T - np.eye(n), 2))
    if unit > UNITARITY_TOL:
        return f"unitarity {unit:.1e}"
    return None


def check_spectrum_gap(a, gap, tol: float = SPECTRUM_TOL) -> str | None:
    """The spectrum gap reported by ``verify`` must be small relative to ||A||."""
    scale = float(np.linalg.norm(np.asarray(a, dtype=complex), 2))
    if not np.isfinite(gap) or gap > tol * scale:
        return f"spectrum gap {gap / scale:.1e} x ||A||"
    return None


def check_det_degree(degree) -> str | None:
    """The determinant curve must have degree 4."""
    if degree != EXPECTED_COUNTS[0]:
        return f"det curve degree {degree}"
    return None


def check_counts(skipped: bool, counts) -> str | None:
    """A counting run must not skip and must reproduce (4, 6, 12)."""
    if skipped:
        return "skipped as non-generic"
    if tuple(counts) != EXPECTED_COUNTS:
        return "counts " + "/".join(str(c) for c in counts)
    return None


def self_test() -> None:
    """Raise ``RuntimeError`` unless the checks reject known-bad outputs.

    An identity ``U`` on a Gaussian 4x4, a flag count of 11 and a det
    curve degree of 3 must be flagged; an identity ``U`` on an exactly
    tridiagonal matrix and the expected counts must pass.
    """
    rng = np.random.default_rng(20010)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    tri = a * (np.abs(np.subtract.outer(np.arange(4), np.arange(4))) <= 1)
    problems = []
    if check_reduction(a, np.eye(4)) is None:
        problems.append("identity U on a Gaussian 4x4 passed")
    if check_counts(False, (4, 6, 11)) is None:
        problems.append("flag count 11 passed")
    if check_det_degree(3) is None:
        problems.append("det curve degree 3 passed")
    if check_reduction(tri, np.eye(4)) is not None:
        problems.append("identity U on a tridiagonal 4x4 failed")
    if check_counts(False, EXPECTED_COUNTS) is not None:
        problems.append("counts (4, 6, 12) failed")
    if check_det_degree(4) is not None:
        problems.append("det curve degree 4 failed")
    if problems:
        raise RuntimeError("output checks failed their self-test: " + "; ".join(problems))
