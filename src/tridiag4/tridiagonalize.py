"""End-to-end unitary tridiagonalization for n <= 4.

n <= 2 and exactly tridiagonal inputs are trivial.  Every other input
is centred (``C = A - tr(A)/n * I``) and divided by ``||C||_2``; then
one loop in :func:`_solve` runs over a lazy stream of candidate
unitaries, those of :func:`_direct` and then of the perturbation ladder
(:func:`_ladder`), each with its provenance.  It measures each on ``A``
(:func:`pencil._measure`), once, and returns the first that passes the
gate on both of its residuals (:func:`pencil._passes`, the gate the flag
points are counted by as well) as the only :class:`TridiagResult` it
builds.  Every flag basis is grown from its first vector by one stacked
builder (:func:`pencil._flag_bases`), and its conjugate is ``U``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import linalg
from .errors import Unsolved
from .pencil import _EYE, _FAR, Pencil, _best_sheets, _flag_bases, _flag_points, _frozen, _measure, _off_max, _passes

#: Step budget of the Gauss-Newton refinement of ``U`` (:func:`_refine_unitary`).
REFINE_STEPS = 40

#: The perturbation sizes ``eps`` of :func:`_ladder`, relative to ``||C||_2``.
LADDER = (1e-4, 1e-6, 1e-8)


def _hermitian_basis(n: int) -> np.ndarray:
    """A Frobenius-orthonormal basis of the n x n Hermitian matrices, as an (n*n, n, n) stack."""
    e = np.einsum("ja,kb->jkab", np.eye(n), np.eye(n))
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    real = [(e[j, k] + e[k, j]) / (2.0 if j == k else np.sqrt(2.0)) for j, k in pairs]
    imag = [1j * (e[j, k] - e[k, j]) / np.sqrt(2.0) for j, k in pairs if j < k]
    return np.array(real + imag)


# the generators H_k of the refinement's steps exp(iH)
_GENERATORS = _frozen(_hermitian_basis(4))


@dataclass
class TridiagResult:
    u: np.ndarray
    t: np.ndarray
    off_residual: float
    unitarity_residual: float
    provenance: str
    perturbation_used: float = 0.0
    diagnostics: dict = field(default_factory=dict)


@dataclass
class VerifyReport:
    off_residual: float
    unitarity_residual: float
    spectrum_gap: float
    recompute_gap: float
    matching: list


# ---------------------------------------------------------------------------
# flag construction


def _flag3(b) -> np.ndarray:
    """Flag basis of a 3x3 ``B`` grown from one point of its cubic dependence locus.

    ``F(v) = det[v, Bv, B*v]`` vanishes at every eigenvector ``v`` of the
    Hermitian ``B + B*``, since ``Bv + B*v = lam*v`` there; the flag is
    grown from the first one ``eigh`` returns.
    """
    bstar = linalg.adjoint(b)
    return _flag_bases(b, bstar, np.linalg.eigh(b + bstar)[1][:, 0][None])[0]


# ---------------------------------------------------------------------------
# the candidate flags


def _direct(pencil: Pencil, tol: float):
    """The candidate unitaries of a pencil's centred ``C``, each with its provenance, lazily, in order.

    Each ``U`` is the conjugate of a flag basis (``U* e_i`` is column i),
    unmeasured: the caller measures it (:func:`pencil._measure`).
    n = 3 yields the :func:`_flag3` flag.  A 4x4 ``C`` reads the pencil's
    :attr:`Pencil.unit`, whose one eigen-decomposition (:attr:`Pencil.eigen`)
    the common eigenvector test (:attr:`Pencil.common`) and the eigenvector
    points of the flag search share; a generic ``C`` forms none, since the
    commutator bound of :attr:`Pencil.common` clears it and the first flag
    of :func:`_flag_points` comes from the dodecic.  A common eigenvector
    ``v`` comes first: its flag is ``v``, then ``W`` times the 3x3 flag of
    ``W* C W`` for the orthonormal basis ``W`` of its complement that one
    SVD of the row ``v*`` gives.  Then come the flags that
    :func:`_flag_points` carries, already gated at ``CERT_TOL`` on ``C``.
    Last, Gauss-Newton (:func:`_refine_unitary`) starts from the flags of
    the best sheets over all the dodecic's roots (:func:`pencil._best_sheets`
    of :attr:`Pencil._roots`, grown as one stack), smallest off-band
    residual on ``C`` first, and each start that converges to ``1e-2 *
    tol`` is yielded as ``refined``.  Near normal inputs these flags are
    near flags that pass, where a Schur basis makes ``T`` diagonal and the
    Jacobian loses rank.
    """
    c = pencil.centred[0]
    if c.shape[0] == 3:
        yield np.conj(_flag3(c)).T, "cubic_curve_3x3"
        return
    common = pencil.unit.common
    if common:
        w = np.conj(np.linalg.svd(np.conj(common[0])[None])[2][1:]).T
        basis = np.column_stack([common[0], w @ _flag3(np.conj(w).T @ c @ w)])
        yield np.conj(basis).T, "common_eigenvector_deflation"
    unit = pencil.unit
    for cand in _flag_points(unit):
        yield np.conj(cand.basis).T, "shortcut_dimW3" if cand.shortcut else "section_zero"
    starts = np.conj(_flag_bases(unit.a, unit.astar, _best_sheets(unit, unit._roots)[1])).swapaxes(1, 2)
    for i in np.argsort(_measure(unit.a, starts)[1]):
        u = _refine_unitary(c, starts[i], tol)
        if u is not None:
            yield u, "refined"


def _refine_unitary(a, u, tol: float):
    """Gauss-Newton on the unitary group: ``U <- exp(iH) U`` until ``U A U*`` is tridiagonal.

    The residual is the six entries of ``T = U A U*`` with ``|i - j| >= 2``
    (12 real values); the Jacobian's columns are those entries of
    ``i[H_k, T]`` over an orthonormal basis ``H_k`` of the 4x4 Hermitian
    matrices, and each step takes the minimum-norm least-squares ``H``,
    exponentiated through ``eigh`` so that ``U`` stays unitary.  Returns
    the refined ``U`` once the largest far entry is at most ``1e-2 * tol``,
    or None after ``REFINE_STEPS`` steps.  Both callers pass a centred ``A``
    with ``||A||_2 = 1`` (or ``A = 0``), so that goal is relative.
    """
    goal = 1e-2 * tol
    for _ in range(REFINE_STEPS):
        t = u @ a @ np.conj(u).T
        off = t[_FAR[4]]
        if np.max(np.abs(off)) <= goal:
            return u
        cols = 1j * (_GENERATORS @ t - t @ _GENERATORS)[:, _FAR[4]]
        jac = np.concatenate([cols.real, cols.imag], axis=1).T
        x = np.linalg.lstsq(jac, -np.concatenate([off.real, off.imag]), rcond=None)[0]
        w, q = np.linalg.eigh(np.tensordot(x, _GENERATORS, axes=1))
        u = (q * np.exp(1j * w)) @ np.conj(q).T @ u
    return u if _off_max(u @ a @ np.conj(u).T) <= goal else None


def _ladder(c, tol: float, seed: int):
    """The perturbation ladder of a centred 4x4 ``C``: at most one candidate unitary per ``eps`` in ``LADDER``, as ``(U, "perturbed", eps)``.

    It takes the first candidate of :func:`_direct` on the centred
    ``C' = C + eps * G`` (normalized again), for a seeded Gaussian ``G``
    with ``||G||_2 = 1``, the norm of ``C`` (unless ``C = 0``), that passes
    the gate relaxed to ``max(tol, 1e-6)`` on ``C'``, norm 1, since it only
    has to give a unitary worth refining, and yields that unitary when
    :func:`_refine_unitary` pulls it back onto ``C`` to ``1e-2 * tol``.
    """
    rng = np.random.default_rng([seed, 17])
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g = g / linalg.matrix_norm(g)
    relaxed = max(tol, 1e-6)
    for eps in LADDER:
        perturbed = Pencil(c + eps * g)
        for u, _ in _direct(perturbed, relaxed):
            _, off, unitarity = _measure(perturbed.centred[0], u)
            if _passes(off, unitarity, relaxed):
                u = _refine_unitary(c, u, tol)
                if u is not None:
                    yield u, "perturbed", eps
                break


def tridiagonalize(a, *, tol: float = 1e-8, seed: int = 42, force_path: str | None = None) -> TridiagResult:
    """Unitary U and tridiagonal T = U A U* for any complex matrix, n <= 4.

    ``seed`` seeds the perturbation ladder's direction.  ``ValueError``
    on an ``A`` that :class:`Pencil` rejects (not finite, not square, or
    n outside 1..4), on a ``tol`` that is not positive and finite, on a
    ``seed`` that is not a Python or numpy integer of at least 0 (or is a
    ``bool``), whichever path the input takes, and
    on a ``force_path`` other than None and ``"perturb"``.  The returned
    result always satisfies ``off_residual <= tol`` (relative to ||A||);
    :class:`Unsolved` is raised only when no candidate flag, the ladder's
    included, does, which indicates a bug rather than an expected outcome.

    ``A`` is centred and normalized once, at entry: the flags are sought
    for ``C = (A - tau*I)/s`` with ``tau = tr(A)/n`` and
    ``s = ||A - tau*I||_2``, which has the same tridiagonalizing
    unitaries, so the outcome depends on neither the scale nor the shift
    of ``A``.  Each candidate unitary is measured and gated once, on
    ``A``: ``T = U A U*``, its off-band residual against ``||A||_2``,
    taken once, and ``||UU* - I||_2``.  ``force_path="perturb"`` tries
    the ladder alone; n = 3 has no ladder.
    """
    return _solve(Pencil(a), tol=tol, seed=seed, force_path=force_path)


def _solve(pencil: Pencil, *, tol: float, seed: int, force_path: str | None = None) -> TridiagResult:
    """:func:`tridiagonalize` of a pencil, with every check and gate, reading its centred ``C`` and :attr:`Pencil.unit`.

    The one place a candidate is measured on ``A`` (:func:`pencil._measure`),
    gated and made a :class:`TridiagResult`.
    """
    a = pencil.a
    n = a.shape[0]
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    seed = linalg.as_integer("seed", seed, 0)
    if force_path not in (None, "perturb"):
        raise ValueError(f"force_path must be None or 'perturb', got {force_path!r}")

    if n <= 2 or (force_path is None and _off_max(a) == 0.0):
        # nothing is off the band, so the residual is 0 without an SVD for ||A||
        norm, candidates = 1.0, [(np.conj(_EYE[n]), "trivial")]
    else:
        c, scale, _ = pencil.centred
        norm = linalg.matrix_norm(a)
        # C is solved to a tolerance that makes the gate on ||A|| hold, and ||A|| can be as small as ||A - shift*I||/2
        inner = tol * min(1.0, norm / scale)
        direct = () if n == 4 and force_path == "perturb" else _direct(pencil, inner)
        candidates = chain(direct, _ladder(c, inner, seed) if n == 4 else ())
    # a ladder candidate is (U, provenance, eps), and eps is the result's perturbation_used
    for u, provenance, *eps in candidates:
        t, off, unitarity = _measure(a, u)
        off = float(off) / max(norm, 1e-300)
        if _passes(off, unitarity, tol):
            return TridiagResult(u, t, off, float(unitarity), provenance, *eps)
    raise Unsolved(f"no candidate flag, the ladder {LADDER} included, met the gate tol={tol:.1e}")


def _match(lam_a: np.ndarray, lam_t: np.ndarray):
    """Greedy nearest-neighbour pairs of two spectra, sorted by (real, imag), and the largest distance of a pair.

    Each ``lam_a[i]`` in turn takes the nearest ``lam_t`` not yet taken,
    the first of equally near ones, all read from one distance matrix.
    Its entries are ``hypot``, the modulus Python's ``abs`` takes of one
    difference, to the bit (the vectorized ``np.abs`` of a complex array
    can differ in the last one).
    """
    diff = lam_a[:, None] - lam_t
    dist = np.hypot(diff.real, diff.imag)
    free = dist.copy()
    cols = []
    for row in free:
        cols.append(int(np.argmin(row)))
        free[:, cols[-1]] = np.inf
    pairs = [(complex(la), complex(lt)) for la, lt in zip(lam_a, lam_t[cols])]
    return pairs, float(dist[np.arange(len(cols)), cols].max(initial=0.0))


def verify(result: TridiagResult, a) -> VerifyReport:
    """Recompute all residuals of a result from scratch.

    Includes the spectrum check: the eigenvalues of A and of T, from one
    stacked ``eigvals``, are matched greedily (:func:`_match`) and the
    largest matched gap reported.  ``ValueError`` on an ``A`` that
    :class:`Pencil` rejects, as :func:`tridiagonalize` does.
    """
    a = Pencil(a).a
    scale = max(linalg.matrix_norm(a), 1e-300)
    recomputed, off, unitarity = _measure(a, result.u)
    recompute_gap = float(np.max(np.abs(recomputed - result.t))) / scale

    lam_a, lam_t = (lam[np.lexsort((lam.imag, lam.real))] for lam in np.linalg.eigvals(np.stack([a, result.t])))
    matching, gap = _match(lam_a, lam_t)
    return VerifyReport(
        off_residual=float(off) / scale,
        unitarity_residual=float(unitarity),
        spectrum_gap=gap,
        recompute_gap=recompute_gap,
        matching=matching,
    )
