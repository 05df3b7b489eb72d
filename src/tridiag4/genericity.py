"""Classify whether a 4x4 matrix admits the direct curve construction.

The direct path needs three open conditions: the matrix is nonsingular,
its eigenvalues are distinct, and the pencil ``t0*I + t1*A + t2*A*``
never drops to rank <= 2 for nonzero t.  The rank condition is decided
on the base line ``[t1 : t2]``: the candidate bases are the roots of one
Krylov sextic and three fixed or closed-form bases (see
:func:`check_pencil_rank`), and all of their points are certified by
one stacked SVD of the pencil.  The rank screen, the eigenvalue gap and
the common eigenvector test all run on the centred and normalized
matrix of :func:`pencil._centred`, so :func:`classify` gives the same
answer for ``c*A + b*I`` as for ``A``, except for nonsingularity, which
a shift changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConvergenceFailure
from .pencil import _PAIRS, Pencil, _centred, _coefficients, _unscale_point, pencil_matrix

RANK_CERT_TOL = 1e-8


@dataclass
class GenericityReport:
    nonsingular: bool
    distinct_eigenvalues: bool
    pencil_rank_ok: bool
    common_eigenvectors: list = field(default_factory=list)
    details: str = ""
    witness: np.ndarray | None = None

    @property
    def in_generic_set(self) -> bool:
        return self.nonsingular and self.distinct_eigenvalues and self.pencil_rank_ok

    def as_dict(self):
        return {
            "s1": self.nonsingular,
            "s2": self.distinct_eigenvalues,
            "s3": self.pencil_rank_ok,
            "common_eigenvectors": [
                [[z.real, z.imag] for z in v] for v in self.common_eigenvectors
            ],
            "witness": None
            if self.witness is None
            else [[z.real, z.imag] for z in self.witness],
            "details": self.details,
        }


def check_nonsingular(a, tol: float = 1e-10) -> bool:
    """True iff sigma_min > tol * sigma_max."""
    m = linalg.as_matrix(a)
    s = np.linalg.svd(m, compute_uv=False)
    return bool(s[0] > 0 and s[-1] > tol * s[0])


def check_distinct_eigenvalues(a, tol: float = 1e-8) -> bool:
    """True iff the smallest pairwise eigenvalue gap exceeds ``tol * ||A - tr(A)/n*I||``.

    Measured on the matrix of :func:`pencil._centred`, so a shift of ``A``
    changes nothing; a scalar ``A`` has no distinct eigenvalues.
    """
    return _gaps_exceed(np.linalg.eigvals(_centred(linalg.as_matrix(a))[0]), tol)


def _gaps_exceed(lam: np.ndarray, tol: float) -> bool:
    """True iff every pairwise gap of the eigenvalues ``lam``, in any order, exceeds ``tol``."""
    gaps = np.abs(lam[:, None] - lam[None, :])[np.triu_indices(lam.size, 1)]
    return bool(gaps.size == 0 or gaps.min() > tol)


def _krylov_roots(p: np.ndarray, q: np.ndarray, x: np.ndarray):
    """The Krylov sextic ``K(mu) = det[x, Nx, N^2 x, N^3 x]``, ``N = p + mu*q``.

    ``K`` vanishes exactly where ``x`` is not a cyclic vector of ``N``.
    Returns its trimmed coefficients, from 7 samples on ``|mu| = 1`` taken
    by one stacked ``det``, and its roots, taken from the companion matrix
    as simple roots; a ``K`` that is constant or not finite has none.
    """
    n = p + np.exp(2j * np.pi * np.arange(7) / 7)[:, None, None] * q
    cols = [np.broadcast_to(x, (7, 4))]
    for _ in range(3):
        cols.append(np.einsum("kij,kj->ki", n, cols[-1]))
    k = _coefficients(np.linalg.det(np.stack(cols, axis=-1)))
    if k.size <= 1 or not np.all(np.isfinite(k)):
        return k, np.empty(0, dtype=complex)
    return k, np.roots(k[::-1])


def check_pencil_rank(a, tol: float = RANK_CERT_TOL, seed: int = 0):
    """Decide whether the pencil keeps rank >= 3 away from t = 0.

    Over a base point ``[t1 : t2]`` the pencil drops to rank <= 2 exactly
    where ``N = t1*A + t2*A*`` is derogatory (an eigenvalue with two
    independent eigenvectors), and a derogatory ``N`` has no cyclic
    vector.  So for a random ``x`` every such base is a root of the
    Krylov sextic ``K(mu) = det[x, Nx, N^2 x, N^3 x]`` with
    ``N = A + mu*A*``, or the base ``[0 : 1]`` where its degree drops.
    When ``K`` vanishes identically ``N`` is derogatory on the whole base
    line, in particular at ``[1 : 1]``, where ``A + A*`` is Hermitian and
    a repeated eigenvalue is semisimple.  Beside the roots of ``K``, the
    candidates are always ``[0 : 1]``, ``[1 : 1]`` and the base
    ``[z : -1]`` that minimizes ``||z*A - A*||``: a rank-0 point
    (``A* = z*A`` once ``A`` is trace-free) sits there exactly, while the
    computed 6-fold root of ``K`` can miss it by more than the ``1e-14``
    floor of the certificate.

    The rank of the pencil does not change under ``A -> A + c*I`` (only
    t0 moves), so ``A`` is centred by ``tr(A)/4`` and divided by the
    spectral norm of the rest first: the decision does not depend on the
    scale of ``A``, and a near-scalar ``A`` keeps a well-resolved ``K``.

    Returns ``(ok, witness)``; on failure the witness is a projective
    point where the pencil has rank <= 2, certified by the singular
    values there, so there are no false witnesses: the first failing
    point, by base in the order above and by eigenvalue within a base.
    """
    c, scale, shift = _centred(linalg.as_matrix(a))
    return _pencil_rank(Pencil(c), scale, shift, tol, seed)


def _pencil_rank(pencil: Pencil, scale: float, shift: complex, tol: float, seed: int):
    """:func:`check_pencil_rank` on the pencil of ``C = (A - shift*I)/scale``, its witness mapped to ``A``."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x /= np.linalg.norm(x)

    z = np.vdot(pencil.a, pencil.astar) / max(np.vdot(pencil.a, pencil.a).real, 1e-300)
    bases = [np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.array([z, -1.0])]
    bases += [np.array([1.0, mu]) for mu in _krylov_roots(pencil.a, pencil.astar, x)[1]]

    b = np.array([b / np.linalg.norm(b) for b in bases])
    lam = np.linalg.eigvals(b[:, 0, None, None] * pencil.a + b[:, 1, None, None] * pencil.astar).reshape(-1)
    t = np.column_stack([-lam, np.repeat(b, 4, axis=0)]) / np.sqrt(lam.real**2 + 1.0 + lam.imag**2)[:, None]
    s = np.linalg.svd(pencil_matrix(pencil, t), compute_uv=False)
    fail = (s[:, 0] <= 1e-14) | (s[:, 2] <= tol * s[:, 0])
    if np.any(fail):
        return False, _unscale_point(t[np.argmax(fail)], scale, shift)
    return True, None


def common_eigenvectors(a, tol: float = 1e-8):
    """Eigenvectors of A that are simultaneously eigenvectors of A*.

    Tests ``||C* v - mu v|| <= tol`` with ``mu = v* C* v`` for every
    eigenvector v of ``C``, the matrix of :func:`pencil._centred` (``A``
    and ``C`` share their eigenvectors and those of their adjoints), so
    the answer depends on neither the scale nor the shift of ``A``;
    duplicates (from repeated eigenvalues) are removed projectively.
    """
    m = _centred(linalg.as_matrix(a))[0]
    try:
        vectors = linalg.eigen(m)[1]
    except ConvergenceFailure:
        return []
    return _common(vectors, linalg.adjoint(m), tol)


def _common(vectors: np.ndarray, astar: np.ndarray, tol: float = 1e-8):
    """The columns of ``vectors``, eigenvectors of ``C``, that are eigenvectors of ``astar = C*`` too."""
    found: list[np.ndarray] = []
    for v in vectors.T:
        w = astar @ v
        mu = np.vdot(v, w)
        if np.linalg.norm(w - mu * v) <= tol:
            cv = linalg.canonical_projective(v)
            if all(linalg.projective_distance(cv, u) > 1e-8 for u in found):
                found.append(cv)
    return found


def classify(a, tol_rank: float = 1e-10, tol_gap: float = 1e-8, seed: int = 0) -> GenericityReport:
    """Run every genericity test and assemble the report.

    ``A`` is centred once (:func:`pencil._centred`): the eigenvalue gap,
    the rank screen and the common eigenvector test read one ``Pencil``
    of ``C`` and its one eigen-decomposition, and decide exactly as
    :func:`check_distinct_eigenvalues`, :func:`check_pencil_rank` and
    :func:`common_eigenvectors` do.
    """
    m = linalg.as_matrix(a)
    c, scale, shift = _centred(m)
    pencil = Pencil(c)
    eig = pencil.eigen
    s1 = check_nonsingular(m, tol_rank)
    s2 = _gaps_exceed(np.linalg.eigvals(c) if eig is None else eig[0], tol_gap)
    s3, witness = _pencil_rank(pencil, scale, shift, RANK_CERT_TOL, seed)
    common = [] if eig is None else _common(eig[1], pencil.astar)

    notes = []
    if not s1:
        sv = np.linalg.svd(m, compute_uv=False)
        notes.append(f"singular: sigma_min/sigma_max = {sv[-1] / max(sv[0], 1e-300):.2e}")
    if not s2:
        lam = np.linalg.eigvals(m)
        gaps = np.abs(lam[_PAIRS[0]] - lam[_PAIRS[1]])
        notes.append(f"repeated eigenvalues: min gap = {np.min(gaps):.2e}")
    if not s3 and witness is not None:
        # formed directly, since a Pencil of a huge A overflows its A^2
        t0, t1, t2 = witness
        sv = np.linalg.svd(t0 * np.eye(4) + t1 * m + t2 * linalg.adjoint(m), compute_uv=False)
        notes.append(
            f"pencil rank <= 2 at t = {np.round(witness, 6)} "
            f"(sigma3/sigma1 = {sv[2] / max(sv[0], 1e-300):.2e})"
        )
    if common:
        notes.append(f"{len(common)} common eigenvector(s) of A and A*")
    return GenericityReport(
        nonsingular=s1,
        distinct_eigenvalues=s2,
        pencil_rank_ok=s3,
        common_eigenvectors=common,
        details="; ".join(notes) if notes else "all genericity tests passed",
        witness=witness,
    )
