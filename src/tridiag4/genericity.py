"""The genericity screen :func:`classify` of the direct curve construction.

The direct 4x4 path needs three open conditions: the matrix is
nonsingular, its eigenvalues are distinct, and the pencil ``t0*I + t1*A
+ t2*A*`` never drops to rank <= 2 for nonzero t; a common eigenvector
of ``A`` and ``A*`` splits off a deflation.  The rank condition is
decided on the base line ``[t1 : t2]`` (see :func:`_pencil_rank`), which
this module only asks questions of: the curve points over its bases
(:func:`pencil._base_points`), the Krylov sextic
(:func:`pencil._krylov_roots`) and its circle grid (``pencil._CIRCLE``)
all come from :mod:`tridiag4.pencil`.  All
but nonsingularity are decided on the centred and normalized matrix of
:attr:`pencil.Pencil.centred`, so :func:`classify` gives the same answer
for ``c*A + b*I`` as for ``A``, except for nonsingularity, which a shift
changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .pencil import CERT_TOL, Pencil, _base_points, _cofactor_bound, _krylov_roots, _unscale_point, pencil_matrix


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
            "common_eigenvectors": [linalg.complex_pairs(v) for v in self.common_eigenvectors],
            "witness": None if self.witness is None else linalg.complex_pairs(self.witness),
            "details": self.details,
        }


def _pencil_rank(pencil: Pencil, seed: int):
    """Decide whether the pencil keeps rank >= 3 away from t = 0.

    Over a base point ``[t1 : t2]`` the pencil drops to rank <= 2 exactly
    where ``N = t1*A + t2*A*`` is derogatory (an eigenvalue with two
    independent eigenvectors), and a derogatory ``N`` has no cyclic
    vector.  So for a random ``x`` every such base is a root of the
    Krylov sextic ``K(mu) = det[x, Nx, N^2 x, N^3 x]`` with
    ``N = A + mu*A*`` (:func:`pencil._krylov_roots`), or the base
    ``[0 : 1]`` where its degree drops.
    When ``K`` vanishes identically ``N`` is derogatory on the whole base
    line, in particular at ``[1 : 1]``, where ``A + A*`` is Hermitian and
    a repeated eigenvalue is semisimple.  Beside the roots of ``K``, the
    candidates are always ``[0 : 1]``, ``[1 : 1]`` and the base
    ``[z : -1]`` that minimizes ``||z*A - A*||``: a rank-0 point
    (``A* = z*A`` once ``A`` is trace-free) sits there exactly, while the
    computed 6-fold root of ``K`` can miss it by more than the ``1e-14``
    floor of the certificate.  The candidate points over all bases are
    those of :func:`pencil._base_points`, with every base made unit.

    The rank of the pencil does not change under ``A -> A + c*I`` (only
    t0 moves), so the test runs on :attr:`pencil.Pencil.unit`, the pencil
    of ``C = (A - shift*I)/scale`` from :attr:`pencil.Pencil.centred` of the
    request's ``pencil``: the decision does not depend on the scale of
    ``A``, and a near-scalar ``A`` keeps a well-resolved ``K``.

    Returns ``(ok, witness, quote)``; on failure the witness is a
    projective point where the pencil of ``A`` has rank <= 2, certified by
    the singular values there, so there are no false witnesses: the first
    failing point, by base in the order above and by eigenvalue within a
    base.  ``quote`` gives the ratio that failed there on the pencil of
    ``C``: ``sigma1`` if it fired, otherwise ``sigma3/sigma1``.

    A point fails when ``sigma1 <= 1e-14`` or ``sigma3 <= CERT_TOL*sigma1``.
    The cofactor bound (:func:`pencil._cofactor_bound`) passes the points
    where it proves ``sigma3 > 2*CERT_TOL*sigma1`` and ``sigma1 > 2e-14``,
    and one SVD, none when it would be empty, takes the others: a point
    the bound passes cannot fail, so the first failing point, its witness
    and its quote are those of the SVD of every point.  On a Gaussian the
    bound passes them all.
    """
    _, scale, shift = pencil.centred
    unit = pencil.unit
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x /= np.linalg.norm(x)

    z = np.vdot(unit.a, unit.astar) / max(np.vdot(unit.a, unit.a).real, 1e-300)
    mu = _krylov_roots(unit.a, unit.astar, x)[1]
    bases = np.vstack([[[0.0, 1.0], [1.0, 1.0], [z, -1.0]], np.column_stack([np.ones_like(mu), mu])])
    t = _base_points(unit, bases, vectors=False)[0].reshape(-1, 3)
    t /= np.sqrt(t[:, 0].real ** 2 + 1.0 + t[:, 0].imag ** 2)[:, None]  # unit rows, since every base is unit
    m = pencil_matrix(unit, t)
    low, rank3, _ = _cofactor_bound(m)
    rows = np.flatnonzero(~(rank3 & (low > 2e-14)))
    s = np.linalg.svd(m[rows], compute_uv=False) if rows.size else np.empty((0, 4))
    vanishes = s[:, 0] <= 1e-14
    fail = vanishes | (s[:, 2] <= CERT_TOL * s[:, 0])
    if not np.any(fail):
        return True, None, None
    i = np.argmax(fail)
    quote = f"sigma1 = {s[i, 0]:.2e}" if vanishes[i] else f"sigma3/sigma1 = {s[i, 2] / s[i, 0]:.2e}"
    return False, _unscale_point(t[rows[[i]]], scale, shift)[0], quote


def classify(a, seed: int = 0) -> GenericityReport:
    """Decide each genericity test once for a square ``A`` with ``n <= 4``; ``ValueError`` on other shapes.

    ``s1`` is ``sigma_min > 1e-10 * sigma_max`` from one SVD of ``A``;
    ``s2`` is the smallest eigenvalue gap of the centred ``C`` above
    ``CERT_TOL``, from one ``eigvals`` of ``C``.  For ``n = 4`` the rank
    screen (:func:`_pencil_rank`) and the common eigenvector test read the
    ``Pencil`` of ``C`` (:attr:`Pencil.unit`) and its common eigenvectors
    (:attr:`Pencil.common`), whose commutator bound clears a generic ``C``
    without an eigen-decomposition; for ``n < 4`` ``s3`` is True,
    with no common eigenvectors and no witness.  ``details`` quotes the
    number that decided each failed test.  ``seed``, which draws the rank
    screen's vector, is a Python or numpy integer (not ``bool``) of at
    least 0, for every ``n``; ``ValueError`` otherwise.
    """
    return _classify(Pencil(a), seed)


def _classify(pencil: Pencil, seed: int) -> GenericityReport:
    """:func:`classify` of a pencil, reading its centred ``C`` and, for n = 4, :attr:`Pencil.unit`."""
    seed = linalg.as_integer("seed", seed, 0)
    n = pencil.a.shape[0]
    sv = np.linalg.svd(pencil.a, compute_uv=False)
    s1 = bool(sv[0] > 0 and sv[-1] > 1e-10 * sv[0])
    s3, witness, quote = _pencil_rank(pencil, seed) if n == 4 else (True, None, None)
    common = list(pencil.unit.common) if n == 4 else []
    lam = np.linalg.eigvals(pencil.centred[0])
    gaps = np.abs(lam[:, None] - lam[None, :])[np.triu_indices(n, 1)]
    gap = gaps.min() if gaps.size else np.inf
    s2 = bool(gap > CERT_TOL)

    notes = []
    if not s1:
        notes.append(f"singular: sigma_min/sigma_max = {sv[-1] / max(sv[0], 1e-300):.2e}")
    if not s2:
        notes.append(f"repeated eigenvalues: min gap = {gap:.2e} on the centred, normalized A")
    if not s3:
        notes.append(f"pencil rank <= 2 at t = {np.round(witness, 6)} ({quote})")
    if common:
        notes.append(f"{len(common)} common eigenvector(s) of A and A*")
    if n < 4:
        notes.append("pencil rank test applies to n = 4 only")
    return GenericityReport(
        nonsingular=s1,
        distinct_eigenvalues=s2,
        pencil_rank_ok=s3,
        common_eigenvectors=common,
        details="; ".join(notes) if notes else "all genericity tests passed",
        witness=witness,
    )
