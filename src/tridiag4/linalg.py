"""Dense complex linear algebra kernels for the small matrices of the solver (n <= 4).

Input validation (of matrices and integer arguments), the adjoint and
the spectral norm, eigenvalues with right and left eigenvectors from
one SVD stack, the canonical representative of projective points, and
the JSON form of complex arrays.  Everything here is a pure function of
its inputs.  Matrices are plain ``numpy.ndarray`` of dtype complex128;
rank decisions are always made relative to the largest singular value.
"""

from __future__ import annotations

import numpy as np

from .errors import Unsolved

#: A coordinate below this (relative) threshold counts as zero when picking
#: the phase-fixing coordinate of a projective representative.
PHASE_TOL = 1e-12


def as_matrix(m) -> np.ndarray:
    """Validate and convert to a complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_integer(name: str, value, least: int) -> int:
    """``value`` as an ``int`` when it is a Python or numpy integer other than a ``bool`` and at least ``least``; ``ValueError`` naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose.  An involution: adjoint(adjoint(m)) == m."""
    return np.conj(np.asarray(m, dtype=complex)).T.copy()


def matrix_norm(m) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[0])


def eigen(m):
    """Eigenvalues with right and left eigenvectors of a square matrix with n <= 4.

    Returns ``(lam, right, left)``: the eigenvalues sorted by (real, imag),
    repeated ones with their multiplicity, and two matrices whose column
    ``k`` is a unit eigenvector of ``m`` for ``lam[k]`` (``right``) and of
    ``m*`` for ``conj(lam[k])`` (``left``).  Both come from one stacked SVD
    of ``m - lam_k*I``: the smallest right and left singular vectors, whose
    common residual is the smallest singular value.  That keeps the
    residuals tiny even for defective eigenvalues: ``eigvals`` is backward
    stable, so each ``lam_k`` is an exact eigenvalue of a matrix within a
    small multiple of roundoff of ``m``, and the residual is no larger.
    A LAPACK failure of ``eigvals`` raises :class:`Unsolved`.
    """
    a = as_matrix(m)
    n = a.shape[0]
    try:
        values = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails at n <= 4
        raise Unsolved(f"eigenvalue iteration failed: {exc}") from exc
    values = values[np.lexsort((values.imag, values.real))]
    u, _, vh = np.linalg.svd(a - values[:, None, None] * np.eye(n))
    return values, np.conj(vh[:, -1, :]).T, u[:, :, -1].T


def phase_fixed(x: np.ndarray) -> np.ndarray:
    """Unit rows ``x`` (k, n), each turned so that its first coordinate above ``PHASE_TOL`` is real positive."""
    lead = x[np.arange(len(x)), np.argmax(np.abs(x) > PHASE_TOL, axis=1)]
    return x * (np.conj(lead) / np.abs(lead))[:, None]


def canonical_projective(v) -> np.ndarray:
    """Canonical representative of a projective point, or of each row of a (k, n) stack of them.

    Unit norm, and the first coordinate with ``|coord| > 1e-12 * norm``
    is rotated to be real positive (:func:`phase_fixed`).  This makes the
    representation unique and point deduplication deterministic.  A row
    of a stack comes out as it would alone, to the bit: its norm is the
    ``dot`` of its real and of its imaginary part that ``np.linalg.norm`` takes.
    """
    a = np.asarray(v, dtype=complex)
    if a.ndim not in (1, 2) or not np.all(np.isfinite(a)):
        raise ValueError("projective points must be finite vectors, or a stack of them as rows")
    rows = a.reshape(-1, a.shape[-1])
    norm = np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))
    if not np.all(norm > 0.0):
        raise ValueError("projective point must be nonzero")
    return phase_fixed(rows / norm[:, None]).reshape(a.shape)


def complex_pairs(x) -> list:
    """The JSON form of a complex array of any shape: nested lists with each entry a ``[re, im]`` pair of floats."""
    x = np.asarray(x, dtype=complex)
    return np.stack([x.real, x.imag], axis=-1).tolist()
