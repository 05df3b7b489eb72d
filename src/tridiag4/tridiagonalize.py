"""End-to-end unitary tridiagonalization for n <= 4.

Dispatch: n <= 2 and exactly tridiagonal inputs are trivial; every
other input is centred (``C = A - tr(A)/n * I``), divided by
``||C||_2``, solved, and its result rebuilt on the original matrix.
Every route ends in a flag basis, whose conjugate is ``U``
(:func:`_result_from_flag`), grown from its first vector by one builder
(:func:`_flag_from_vector`).  n = 3 takes that vector from an
eigenvector of the Hermitian ``A + A*``, a point of the cubic dependence
locus (:func:`_flag3`).  n = 4 with a common eigenvector ``v`` of A and
A* takes ``v`` and the 3x3 flag of A compressed to its complement, and
otherwise the first certified flag point of the pencil (the eigenvector
points, then the roots of the flag-point dodecic) whose flag passes the
gate.  When none does, one Gauss-Newton refinement of the unitary
itself, started from the Schur basis, solves the input
(:func:`_refine_unitary`), and a seeded perturbation ladder, refined
back on the original matrix, is the last resort.  Every result passes
one gate on both of its residuals (:func:`_passes`), on ``A``, in
:func:`tridiagonalize`; :func:`tridiagonalize3` is its 3x3 case.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .errors import NoSectionZero, Unsolved
from .genericity import _common
from .pencil import Pencil, SectionCandidate, _centred, _flag_points, _unscale_candidate

#: The unitarity gate ``||UU* - I||_2`` that every returned result meets.
UNITARITY_TOL = 1e-10

#: Step budget of the Gauss-Newton refinement of ``U`` (:func:`_refine_unitary`).
REFINE_STEPS = 40

#: The perturbation sizes ``eps`` of :func:`perturb_and_retry`, relative to ``||A||_2``.
LADDER = (1e-4, 1e-6, 1e-8)


def _hermitian_basis(n: int) -> np.ndarray:
    """A Frobenius-orthonormal basis of the n x n Hermitian matrices, as an (n*n, n, n) stack."""
    e = np.einsum("ja,kb->jkab", np.eye(n), np.eye(n))
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    real = [(e[j, k] + e[k, j]) / (2.0 if j == k else np.sqrt(2.0)) for j, k in pairs]
    imag = [1j * (e[j, k] - e[k, j]) / np.sqrt(2.0) for j, k in pairs if j < k]
    return np.array(real + imag)


# the entries of a 4x4 matrix that a tridiagonal one leaves zero, and the
# generators H_k of the refinement's steps exp(iH)
_FAR = np.abs(np.subtract.outer(np.arange(4), np.arange(4))) >= 2
_GENERATORS = _hermitian_basis(4)


@dataclass
class Options:
    tol: float = 1e-8
    seed: int = 42
    force_path: str | None = None  # None | 'section' | 'perturb'


@dataclass
class TridiagResult:
    u: np.ndarray
    t: np.ndarray
    off_residual: float
    unitarity_residual: float
    provenance: str
    perturbation_used: float = 0.0
    seed: int = 0
    candidate: SectionCandidate | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass
class VerifyReport:
    off_residual: float
    unitarity_residual: float
    spectrum_gap: float
    recompute_gap: float
    matching: list


def _off_max(t: np.ndarray) -> float:
    n = t.shape[0]
    if n <= 2:
        return 0.0
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) >= 2
    return float(np.max(np.abs(t[mask])))


def flag_residuals(a, basis):
    """Residuals of the two flag characterizations, relative to ||A||.

    First value: how far A W_i (and A* W_i) sticks out of W_{i+1}.
    Second: how far A maps the orthocomplement of W_{i+1} outside the
    orthocomplement of W_i.  Both vanish exactly on a tridiagonalizing
    flag.
    """
    a = linalg.as_matrix(a)
    f = np.asarray(basis, dtype=complex)
    n = a.shape[0]
    astar = linalg.adjoint(a)
    scale = max(linalg.matrix_norm(a), 1e-300)
    eye = np.eye(n)
    r_contain = 0.0
    r_perp = 0.0
    for i in range(1, n):
        fi = f[:, :i]
        fip = f[:, : i + 1]
        proj_next = fip @ np.conj(fip).T
        q_next = eye - proj_next
        r_contain = max(r_contain, float(np.linalg.norm(q_next @ (a @ fi), 2)))
        r_contain = max(r_contain, float(np.linalg.norm(q_next @ (astar @ fi), 2)))
        proj_i = fi @ np.conj(fi).T
        r_perp = max(r_perp, float(np.linalg.norm(proj_i @ a @ q_next, 2)))
    return r_contain / scale, r_perp / scale


def _completion(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthocomplement of the given columns."""
    return linalg.nullspace(np.conj(cols).T)


def _passes(result: TridiagResult, tol: float) -> bool:
    """The gate of every returned result: both of its measured residuals."""
    return result.off_residual <= tol and result.unitarity_residual <= UNITARITY_TOL


def _unitarity(u: np.ndarray) -> float:
    """``||UU* - I||_2``, taken as the largest ``|eigenvalue|`` of that Hermitian matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(u @ np.conj(u).T - np.eye(u.shape[0])))))


def _result_from_flag(a, basis, provenance, seed, eps=0.0, candidate=None, norm=None) -> TridiagResult:
    """The result for a flag basis, with both residuals measured from its unitary.

    ``U`` is the conjugated basis (``U* e_i`` is column i); ``norm`` is
    ``||A||_2`` when the caller already has it, otherwise it is measured.
    """
    u = np.conj(basis).T
    t = u @ a @ np.conj(u).T
    scale = max(linalg.matrix_norm(a) if norm is None else norm, 1e-300)
    return TridiagResult(
        u=u,
        t=t,
        off_residual=_off_max(t) / scale,
        unitarity_residual=_unitarity(u),
        provenance=provenance,
        perturbation_used=eps,
        seed=seed,
        candidate=candidate,
    )


# ---------------------------------------------------------------------------
# flag construction


def _flag_from_vector(a, astar, v) -> np.ndarray:
    """Orthonormal flag basis grown from ``v``: ``W_{k+1} = W_k + A W_k + A* W_k``.

    Each step normalizes every column of ``A Q`` and ``A* Q`` for the basis
    ``Q`` so far, projects it out of ``span(Q)`` twice (one pass leaves a
    vector that sticks out little visibly non-orthogonal), and appends the
    one with the largest residual.  When that residual is at roundoff the
    span is invariant under both A and A*, and any completion works.  For
    n = 3 and n = 4 alike, ``U A U*`` is tridiagonal exactly when each
    ``W_{k+1}`` has dimension at most ``k + 1``; the result's gate measures
    that, so nothing is checked here.
    """
    n = a.shape[0]
    q = linalg.canonical_projective(v)[:, None]
    while q.shape[1] < n - 1:
        x = np.concatenate([a @ q, astar @ q], axis=1)
        x = x / np.maximum(np.linalg.norm(x, axis=0), 1e-300)
        for _ in range(2):
            x = x - q @ (np.conj(q).T @ x)
        r = np.linalg.norm(x, axis=0)
        k = int(np.argmax(r))
        if r[k] <= 1e-13:
            break
        q = np.column_stack([q, x[:, k] / r[k]])
    return np.column_stack([q, _completion(q)])


def _flag3(b) -> np.ndarray:
    """Flag basis of a 3x3 ``B`` grown from one point of its cubic dependence locus.

    ``F(v) = det[v, Bv, B*v]`` vanishes at every eigenvector ``v`` of the
    Hermitian ``B + B*``, since ``Bv + B*v = lam*v`` there; the flag is
    grown from the first one ``eigh`` returns.
    """
    bstar = linalg.adjoint(b)
    return _flag_from_vector(b, bstar, np.linalg.eigh(b + bstar)[1][:, 0])


# ---------------------------------------------------------------------------
# 4x4 paths


def _section_path(a, opts: Options, pencil: Pencil | None = None) -> TridiagResult:
    """The flag of the first certified flag point that passes the gate.

    When none does, the unitary is refined from the Schur basis of ``A``
    (the ``qr`` of ``eig``'s eigenvector matrix) instead.  ``A`` has
    ``||A||_2 = 1``, which every residual is measured against; ``pencil``
    is its pencil when the caller has built it.
    """
    pencil = pencil or Pencil(a)
    for cand in _flag_points(pencil):
        basis = _flag_from_vector(a, pencil.astar, cand.point.v)
        provenance = "shortcut_dimW3" if cand.shortcut else "section_zero"
        result = _result_from_flag(a, basis, provenance, opts.seed, candidate=cand, norm=1.0)
        if _passes(result, opts.tol):
            return result
    q = np.linalg.qr(np.linalg.eig(a)[1])[0]
    u = _refine_unitary(a, np.conj(q).T, 1e-2 * opts.tol)
    if u is not None:
        result = _result_from_flag(a, np.conj(u).T, "refined", opts.seed, norm=1.0)
        if _passes(result, opts.tol):
            return result
    raise NoSectionZero("neither a certified flag point nor the refinement met the gate")


def _refine_unitary(a, u, goal: float):
    """Gauss-Newton on the unitary group: ``U <- exp(iH) U`` until ``U A U*`` is tridiagonal.

    The residual is the six entries of ``T = U A U*`` with ``|i - j| >= 2``
    (12 real values); the Jacobian's columns are those entries of
    ``i[H_k, T]`` over an orthonormal basis ``H_k`` of the 4x4 Hermitian
    matrices, and each step takes the minimum-norm least-squares ``H``,
    exponentiated through ``eigh`` so that ``U`` stays unitary.  Returns
    the refined ``U`` once the largest far entry is at most ``goal`` (the
    callers take ``1e-2 * tol * ||A||_2``), or None after ``REFINE_STEPS``
    steps.
    """
    for _ in range(REFINE_STEPS):
        t = u @ a @ np.conj(u).T
        off = t[_FAR]
        if np.max(np.abs(off)) <= goal:
            return u
        cols = 1j * (_GENERATORS @ t - t @ _GENERATORS)[:, _FAR]
        jac = np.concatenate([cols.real, cols.imag], axis=1).T
        x = np.linalg.lstsq(jac, -np.concatenate([off.real, off.imag]), rcond=None)[0]
        w, q = np.linalg.eigh(np.tensordot(x, _GENERATORS, axes=1))
        u = (q * np.exp(1j * w)) @ np.conj(q).T @ u
    return u if _off_max(u @ a @ np.conj(u).T) <= goal else None


def perturb_and_retry(a, opts: Options | None = None) -> TridiagResult:
    """Perturbation ladder for inputs the direct construction rejects.

    Solves ``A + eps * G`` for a fixed seeded Gaussian direction G with
    ``||G|| = ||A||`` over eps in ``LADDER``, then pulls the solution
    back to the original A by refining its unitary on A
    (:func:`_refine_unitary`).  The first rung whose refined result
    passes the gate on the *original* A wins; the eps used is recorded.
    """
    if opts is None:
        opts = Options()
    a = linalg.as_matrix(a)
    scale = max(linalg.matrix_norm(a), 1e-300)
    rng = np.random.default_rng([opts.seed, 17])
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g = g / linalg.matrix_norm(g) * scale
    # the sub-solve, the flag search of the centred A + eps*G, only has to
    # give a unitary worth refining, so its own gate is relaxed; the strict
    # gate applies on the original matrix
    sub_opts = replace(opts, tol=max(opts.tol, 1e-6))
    for eps in LADDER:
        try:
            sub = _section_path(_centred(a + eps * g)[0], sub_opts)
        except NoSectionZero:
            continue
        u = _refine_unitary(a, sub.u, 1e-2 * opts.tol * scale)
        if u is not None:
            result = _result_from_flag(a, np.conj(u).T, "perturbed", opts.seed, eps, norm=scale)
            if _passes(result, opts.tol):
                return result
    raise Unsolved(f"perturbation ladder {LADDER} exhausted")


def tridiagonalize(a, opts: Options | None = None, **kwargs) -> TridiagResult:
    """Unitary U and tridiagonal T = U A U* for any complex matrix, n <= 4.

    Keyword arguments override :class:`Options` fields.  The returned
    result always satisfies ``off_residual <= opts.tol`` (relative to
    ||A||); :class:`Unsolved` is raised only when every path including
    the perturbation ladder fails, which indicates a bug rather than an
    expected outcome.

    ``A`` is centred and normalized once, at entry: the solve runs on
    ``C = (A - tau*I)/s`` with ``tau = tr(A)/n`` and ``s = ||A - tau*I||_2``,
    which has the same tridiagonalizing unitaries, so the outcome depends
    on neither the scale nor the shift of ``A``.  ``T`` and the off-band
    residual are then rebuilt on ``A`` itself, against ``||A||_2``, taken
    once; ``U``, and so its unitarity residual, stay as they are; the
    point of ``candidate`` is mapped back to the pencil of ``A``.
    """
    if opts is None:
        opts = Options()
    if kwargs:
        opts = replace(opts, **kwargs)
    a = linalg.as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError("tridiagonalize expects a square matrix")
    if n > 4:
        raise ValueError("no algorithm exists for n >= 5; this solver stops at 4")

    if n <= 2 or (opts.force_path is None and _off_max(a) == 0.0):
        return _result_from_flag(a, np.eye(n, dtype=complex), "trivial", opts.seed)
    c, scale, shift = _centred(a)
    norm = linalg.matrix_norm(a)
    # the gate is relative to ||A||, which can be as small as ||A - shift*I||/2
    inner = replace(opts, tol=opts.tol * min(1.0, norm / scale))
    result = _dispatch(c, inner)
    cand = result.candidate
    if cand is not None:
        cand = _unscale_candidate(cand, scale, shift)
    t = result.u @ a @ np.conj(result.u).T
    result = replace(result, t=t, off_residual=_off_max(t) / max(norm, 1e-300), candidate=cand)
    if not _passes(result, opts.tol):
        raise Unsolved(
            f"the result misses the gate on A: off_residual {result.off_residual:.2e}, "
            f"unitarity {result.unitarity_residual:.2e}"
        )
    return result


def tridiagonalize3(a, tol: float = 1e-8, seed: int = 42) -> TridiagResult:
    """The 3x3 case of :func:`tridiagonalize`; ``ValueError`` on any other shape.

    ``A`` is centred and normalized like any input, its flag is grown by
    :func:`_flag3`, and :class:`Unsolved` is raised when the result misses
    the gate ``tol``.
    """
    if linalg.as_matrix(a).shape != (3, 3):
        raise ValueError("tridiagonalize3 expects a 3x3 matrix")
    return tridiagonalize(a, tol=tol, seed=seed)


def _dispatch(a, opts: Options) -> TridiagResult:
    """The solve of a 3x3 or 4x4 ``A`` with ``||A||_2 = 1`` and ``tr(A) = 0``.

    A 4x4 ``A`` gets one ``Pencil`` and one eigen-decomposition
    (:attr:`Pencil.eigen`), which the common eigenvector test and the
    eigenvector points of the flag search share.  A common eigenvector
    ``v`` deflates: the flag is ``v``, then ``W`` times the 3x3 flag of
    ``W* A W`` for an orthonormal basis ``W`` of its complement.
    """
    if a.shape[0] == 3:
        return _result_from_flag(a, _flag3(a), "cubic_curve_3x3", opts.seed, norm=1.0)

    if opts.force_path == "perturb":
        return perturb_and_retry(a, opts)

    pencil = Pencil(a)
    if opts.force_path != "section" and pencil.eigen is not None:
        common = _common(pencil.eigen[1], pencil.astar)
        if common:
            w = _completion(common[0][:, None])
            basis = np.column_stack([common[0], w @ _flag3(np.conj(w).T @ a @ w)])
            result = _result_from_flag(a, basis, "common_eigenvector_deflation", opts.seed, norm=1.0)
            if _passes(result, opts.tol):
                return result

    try:
        return _section_path(a, opts, pencil)
    except NoSectionZero:
        return perturb_and_retry(a, opts)


def verify(result: TridiagResult, a) -> VerifyReport:
    """Recompute all residuals of a result from scratch.

    Includes the spectrum check: eigenvalues of T and of A are matched
    greedily (sorted by real part, nearest-neighbour pairing) and the
    largest matched gap reported.
    """
    a = linalg.as_matrix(a)
    scale = max(linalg.matrix_norm(a), 1e-300)
    u = result.u
    recomputed = u @ a @ np.conj(u).T
    off = _off_max(recomputed) / scale
    unit = _unitarity(u)
    recompute_gap = float(np.max(np.abs(recomputed - result.t))) / scale

    lam_a = np.linalg.eigvals(a)
    lam_t = np.linalg.eigvals(result.t)
    lam_a = lam_a[np.lexsort((lam_a.imag, lam_a.real))]
    lam_t = list(lam_t[np.lexsort((lam_t.imag, lam_t.real))])
    matching = []
    gap = 0.0
    for la in lam_a:
        j = int(np.argmin([abs(la - lt) for lt in lam_t]))
        lt = lam_t.pop(j)
        matching.append((complex(la), complex(lt)))
        gap = max(gap, abs(la - lt))
    return VerifyReport(
        off_residual=off,
        unitarity_residual=unit,
        spectrum_gap=float(gap),
        recompute_gap=recompute_gap,
        matching=matching,
    )
