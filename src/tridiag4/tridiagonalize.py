"""End-to-end unitary tridiagonalization for n <= 4.

Dispatch: n <= 2 and exactly tridiagonal inputs are trivial; every
other input is divided by its spectral norm, solved, and its result
rebuilt on the original matrix.  n = 3 takes its flag from an
eigenvector of the Hermitian ``A + A*``, a point of the cubic dependence
locus; n = 4 deflates on a common eigenvector of A and A* when one exists,
otherwise takes the first certified flag point of the pencil (the
eigenvector points, then the roots of the flag-point dodecic) whose
flag passes the residual gate, and falls back to a seeded perturbation
ladder (with Newton polish back on the original matrix) for degenerate
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .errors import (
    ConvergenceFailure,
    FlagDegenerate,
    NoSectionZero,
    RankDeficientPencil,
    SingularJacobian,
    Unsolved,
)
from .genericity import common_eigenvectors
from .pencil import (
    NEWTON_STEPS,
    NEWTON_TOL,
    Pencil,
    SectionCandidate,
    _certify,
    _chart_setup,
    _distinguished_seeds,
    _flag_points,
    _polish,
    _unscale_candidate,
    kernel_vector,
)
from .linalg import projective_distance
from .polyroots import newton_system


@dataclass
class Flag:
    """Orthonormal flag basis; column i spans the new direction of W_{i+1}."""

    basis: np.ndarray
    provenance: str = "section_zero"

    @property
    def n(self) -> int:
        return self.basis.shape[1]


@dataclass
class Options:
    tol: float = 1e-8
    seed: int = 42
    force_path: str | None = None  # None | 'section' | 'perturb'
    ladder: tuple = (1e-4, 1e-6, 1e-8)
    allow_perturbation: bool = True


@dataclass
class TridiagResult:
    u: np.ndarray
    t: np.ndarray
    off_residual: float
    unitarity_residual: float
    provenance: str
    perturbation_used: float = 0.0
    flag: Flag | None = None
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


def flag_to_unitary(flag: Flag) -> np.ndarray:
    """Unitary whose rows are the conjugated flag vectors (U* e_i = f_i)."""
    return np.conj(flag.basis).T.copy()


def _completion(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthocomplement of the given columns."""
    return linalg.nullspace(np.conj(cols).T)


def _result_from_flag(a, basis, provenance, seed, eps=0.0, candidate=None) -> TridiagResult:
    """The result for a flag basis, with both residuals measured from its unitary."""
    flag = Flag(basis=basis, provenance=provenance)
    u = flag_to_unitary(flag)
    t = u @ a @ np.conj(u).T
    scale = max(linalg.matrix_norm(a), 1e-300)
    return TridiagResult(
        u=u,
        t=t,
        off_residual=_off_max(t) / scale,
        unitarity_residual=float(np.linalg.norm(u @ np.conj(u).T - np.eye(a.shape[0]), 2)),
        provenance=provenance,
        perturbation_used=eps,
        flag=flag,
        seed=seed,
        candidate=candidate,
    )


# ---------------------------------------------------------------------------
# flag construction


def _flag_basis_from_vector(a, astar, v, prefer_forward=True) -> np.ndarray:
    """Orthonormal flag basis seeded by a dependence-curve point v (n = 4).

    Second vector from Av (or A*v when v is an A-eigenvector); third from
    the first of A^2 v, A*^2 v, A A* v, A* A v that sticks out of the
    plane, falling back to the largest post-projection residual.  When
    nothing sticks out the plane is invariant under both A and A* and
    any completion works.
    """
    v = linalg.canonical_projective(v)
    av = a @ v
    asv = astar @ v

    def rel_residual(x, cols):
        nx = np.linalg.norm(x)
        if nx <= 1e-300:
            return 0.0, None
        y = x / nx
        for c in cols:
            y = y - np.vdot(c, y) * c
        return float(np.linalg.norm(y)), y

    r_av, _ = rel_residual(av, [v])
    r_asv, _ = rel_residual(asv, [v])
    if max(r_av, r_asv) <= 1e-10:
        raise FlagDegenerate("v is a common eigenvector; deflation should handle this input")
    x2 = av if r_av > 1e-8 else asv
    r2, y2 = rel_residual(x2, [v])
    f2 = y2 / np.linalg.norm(y2)

    third = [a @ av, astar @ asv, a @ asv, astar @ av]
    residuals = []
    units = []
    for x in third:
        r, y = rel_residual(x, [v, f2])
        residuals.append(r)
        units.append(y)
    if prefer_forward and residuals[0] > 1e-6:
        pick = 0
    else:
        pick = int(np.argmax(residuals))
    if residuals[pick] > 1e-6:
        f3 = units[pick] / np.linalg.norm(units[pick])
        partial = np.column_stack([v, f2, f3])
        f4 = _completion(partial)[:, 0]
        return np.column_stack([v, f2, f3, f4])
    # plane invariant under both: complete arbitrarily
    rest = _completion(np.column_stack([v, f2]))
    return np.column_stack([v, f2, rest])


def build_flag(a, candidate: SectionCandidate) -> Flag:
    """Flag for a certified candidate, with the containments asserted.

    Raises :class:`FlagDegenerate` when the construction cannot meet the
    flag conditions (signals the candidate needs re-dispatch).
    """
    a = linalg.as_matrix(a)
    astar = linalg.adjoint(a)
    basis = _flag_basis_from_vector(a, astar, candidate.point.v)
    r_contain, _ = flag_residuals(a, basis)
    if r_contain > 1e-5:
        raise FlagDegenerate(f"flag containment residual {r_contain:.2e} too large")
    provenance = "shortcut_dimW3" if candidate.shortcut else "section_zero"
    return Flag(basis=basis, provenance=provenance)


# ---------------------------------------------------------------------------
# 3x3: cubic curve route


def _flag3(a, astar, v):
    """Flag basis for a 3x3 dependence point; handles both case splits.

    The second vector is taken from whichever of ``Av``, ``A*v`` sticks
    out of ``span(v)`` more, projected against ``v`` twice, since one
    pass leaves it visibly non-orthogonal when it sticks out little.
    Only at roundoff level is ``v`` taken as a common eigenvector.
    """
    v = linalg.canonical_projective(v)
    av = a @ v
    asv = astar @ v

    def rel(x):
        nx = np.linalg.norm(x)
        if nx <= 1e-300:
            return 0.0
        y = x / nx
        return float(np.linalg.norm(y - np.vdot(v, y) * v))

    r_av, r_asv = rel(av), rel(asv)
    if max(r_av, r_asv) <= 1e-13:
        # common eigenvector: the orthocomplement is invariant under both
        w = _completion(v[:, None])
        return np.column_stack([w, v])
    f2 = av if r_av >= r_asv else asv
    for _ in range(2):
        f2 = f2 - np.vdot(v, f2) * v
    f2 = f2 / np.linalg.norm(f2)
    f3 = _completion(np.column_stack([v, f2]))[:, 0]
    return np.column_stack([v, f2, f3])


def tridiagonalize3(a, tol: float = 1e-8, seed: int = 42) -> TridiagResult:
    """Tridiagonalize a 3x3 matrix from one point of the cubic dependence locus.

    ``F(v) = det[v, Av, A*v]`` vanishes at every eigenvector ``v`` of the
    Hermitian ``A + A*``, since ``Av + A*v = lam*v`` there.  The flag is
    built from the first such eigenvector, on ``A/||A||_2``, and measured
    on ``A`` itself, so the outcome does not depend on the scale.  ``seed``
    is only recorded in the result.  Raises :class:`Unsolved` when the
    flag misses the residual gate ``tol``.
    """
    a = linalg.as_matrix(a)
    if a.shape != (3, 3):
        raise ValueError("tridiagonalize3 expects a 3x3 matrix")
    if _off_max(a) == 0.0:
        return _result_from_flag(a, np.eye(3, dtype=complex), "trivial", seed)
    b = a / linalg.matrix_norm(a)
    bstar = linalg.adjoint(b)
    v = np.linalg.eigh(b + bstar)[1][:, 0]
    result = _result_from_flag(a, _flag3(b, bstar, v), "cubic_curve_3x3", seed)
    if result.off_residual > tol:
        raise Unsolved(f"3x3 flag off_residual {result.off_residual:.2e} exceeds tol={tol:.1e}")
    return result


# ---------------------------------------------------------------------------
# 4x4 paths


def deflate_common_eigenvector(a, v, tol: float = 1e-8, seed: int = 42) -> TridiagResult:
    """Reduce along a common eigenvector of A and A* and recurse at 3x3."""
    a = linalg.as_matrix(a)
    if a.shape != (4, 4):
        raise ValueError("deflate_common_eigenvector expects a 4x4 matrix")
    v = linalg.canonical_projective(v)
    w = _completion(v[:, None])
    q = np.column_stack([v, w])
    b = np.conj(w).T @ a @ w
    sub = tridiagonalize3(b, tol=tol, seed=seed)
    u = np.block(
        [[np.ones((1, 1), dtype=complex), np.zeros((1, 3))], [np.zeros((3, 1)), sub.u]]
    ) @ np.conj(q).T
    return _result_from_flag(a, np.conj(u).T, "common_eigenvector_deflation", seed)


def _section_path(a, opts: Options) -> TridiagResult:
    """The flag of the first certified flag point that passes the residual gate."""
    last_exc = None
    for cand in _flag_points(Pencil(a)):
        try:
            flag = build_flag(a, cand)
        except FlagDegenerate as exc:
            last_exc = exc
            continue
        result = _result_from_flag(a, flag.basis, flag.provenance, opts.seed, candidate=cand)
        if result.off_residual <= opts.tol:
            return result
    raise NoSectionZero(f"no certified flag point met the final residual gate ({last_exc})")


def _polish_curve_only(pencil: Pencil, t_seed):
    """1-D Newton back onto the determinant curve, largest-slope chart axis."""
    t_seed = np.asarray(t_seed, dtype=complex)
    k, free, s0, pk, pa, pb = _chart_setup(pencil, t_seed)
    m0 = pk + s0[0] * pa + s0[1] * pb
    sv = np.linalg.svd(m0, compute_uv=False)
    g_scale = max(sv[0] ** 4, 1e-300)
    adj0 = linalg.adjugate(m0)
    slopes = [abs(np.trace(adj0 @ pa)), abs(np.trace(adj0 @ pb))]
    move = int(np.argmax(slopes))
    frozen = s0[1 - move]
    gens = (pa, pb)

    def build(sm):
        s = np.empty(2, dtype=complex)
        s[move] = sm[0]
        s[1 - move] = frozen
        return pk + s[0] * pa + s[1] * pb, s

    def f(sm):
        m, _ = build(sm)
        adj = linalg.adjugate(m)
        return np.array([np.trace(m @ adj) / 4.0 / g_scale])

    def jac(sm):
        m, _ = build(sm)
        adj = linalg.adjugate(m)
        return np.array([[np.trace(adj @ gens[move]) / g_scale]])

    try:
        s_star, _ = newton_system(f, jac, np.array([s0[move]]), tol=NEWTON_TOL, max_steps=NEWTON_STEPS)
    except (ConvergenceFailure, SingularJacobian):
        return None
    t = np.empty(3, dtype=complex)
    t[k] = 1.0
    s_full = np.empty(2, dtype=complex)
    s_full[move] = s_star[0]
    s_full[1 - move] = frozen
    t[free[0]] = s_full[0]
    t[free[1]] = s_full[1]
    return linalg.canonical_projective(t)


def _pullback_common_eigenvector(a, v_seed, tol: float, seed: int):
    """Sharpen a near-common eigenvector on the original matrix and deflate.

    A few Rayleigh/inverse-iteration steps converge the seed to an exact
    eigenvector of A; if it is also an eigenvector of A* within
    tolerance, the deflation route applies to the original matrix.
    Returns None when the seed does not lead to a common eigenvector.
    """
    a = linalg.as_matrix(a)
    astar = linalg.adjoint(a)
    scale = max(linalg.matrix_norm(a), 1e-300)
    v = linalg.canonical_projective(v_seed)
    eye = np.eye(4)
    for _ in range(3):
        mu = np.vdot(v, a @ v)
        try:
            w = np.linalg.solve(a - mu * eye, v)
        except np.linalg.LinAlgError:
            break
        norm = np.linalg.norm(w)
        if not np.isfinite(norm) or norm <= 1e-300:
            break
        v = w / norm
    v = linalg.canonical_projective(v)
    lam = np.vdot(v, a @ v)
    nu = np.vdot(v, astar @ v)
    if np.linalg.norm(a @ v - lam * v) > 1e-8 * scale:
        return None
    if np.linalg.norm(astar @ v - nu * v) > 1e-8 * scale:
        return None
    try:
        return deflate_common_eigenvector(a, v, tol=tol, seed=seed)
    except Unsolved:
        return None


def perturb_and_retry(a, opts: Options | None = None) -> TridiagResult:
    """Perturbation ladder for inputs the direct construction rejects.

    Solves ``A + eps * G`` for a fixed seeded Gaussian direction G with
    ``||G|| = ||A||`` over eps in the ladder, then pulls the solution
    back to the original A: first a full Newton polish of the pencil
    point on A's own system, then a curve-only polish, and finally the
    perturbed unitary applied to A as-is.  The first attempt whose
    off-tridiagonal residual on the *original* A meets the tolerance
    wins; the eps used is recorded.
    """
    if opts is None:
        opts = Options()
    a = linalg.as_matrix(a)
    scale = max(linalg.matrix_norm(a), 1e-300)
    rng = np.random.default_rng([opts.seed, 17])
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g = g / linalg.matrix_norm(g) * scale

    pencil = Pencil(a)
    astar = linalg.adjoint(a)
    best: TridiagResult | None = None

    def gate(result: TridiagResult, eps: float):
        nonlocal best
        result.perturbation_used = eps
        result.provenance = "perturbed"
        if result.flag is not None:
            result.flag.provenance = "perturbed"
        if best is None or result.off_residual < best.off_residual:
            best = result
        return result if result.off_residual <= opts.tol else None

    for eps in opts.ladder:
        # the sub-solve only has to produce a pencil point worth pulling
        # back, so its own gate is relaxed; the strict gate applies to the
        # final result on the original matrix
        sub_opts = replace(
            opts,
            tol=max(opts.tol, 1e-6),
            allow_perturbation=False,
            force_path=None,
        )
        try:
            sub = tridiagonalize(a + eps * g, sub_opts)
        except (Unsolved, NoSectionZero, RankDeficientPencil, ConvergenceFailure):
            continue

        if sub.candidate is not None:
            t_seed = sub.candidate.point.t
            t_pol = _polish(pencil, t_seed)
            if t_pol is not None:
                cand = _certify(pencil, t_pol)
                if cand is not None:
                    try:
                        flag = build_flag(a, cand)
                        out = gate(
                            _result_from_flag(a, flag.basis, "perturbed", opts.seed, eps, cand),
                            eps,
                        )
                        if out is not None:
                            return out
                    except FlagDegenerate:
                        pass
            t_pol = _polish_curve_only(pencil, t_seed)
            if t_pol is not None:
                try:
                    v = kernel_vector(pencil, t_pol)
                    basis = _flag_basis_from_vector(a, astar, v)
                    out = gate(_result_from_flag(a, basis, "perturbed", opts.seed, eps), eps)
                    if out is not None:
                        return out
                except (RankDeficientPencil, FlagDegenerate):
                    pass
            # degenerate inputs collapse their zeros onto eigenvector points;
            # when the perturbed candidate sits near one, its exact structure
            # on the original matrix often certifies directly
            for t_dist, _ in _distinguished_seeds(pencil):
                if projective_distance(t_dist, t_seed) > 0.15:
                    continue
                cand = _certify(pencil, t_dist)
                if cand is None:
                    continue
                try:
                    flag = build_flag(a, cand)
                except FlagDegenerate:
                    continue
                out = gate(
                    _result_from_flag(a, flag.basis, "perturbed", opts.seed, eps, cand), eps
                )
                if out is not None:
                    return out

        if sub.candidate is None and sub.flag is not None:
            # the sub-solve deflated: pull its leading flag vector back to
            # an exact common eigenvector of the original, if there is one
            pulled = _pullback_common_eigenvector(a, sub.flag.basis[:, 0], opts.tol, opts.seed)
            if pulled is not None:
                out = gate(pulled, eps)
                if out is not None:
                    return out

        # last resort on this rung: the perturbed unitary as-is
        out = gate(_result_from_flag(a, np.conj(sub.u).T, "perturbed", opts.seed, eps), eps)
        if out is not None:
            return out

    detail = "" if best is None else f"; best off_residual {best.off_residual:.2e}"
    raise Unsolved(f"perturbation ladder {opts.ladder} exhausted{detail}")


def tridiagonalize(a, opts: Options | None = None, **kwargs) -> TridiagResult:
    """Unitary U and tridiagonal T = U A U* for any complex matrix, n <= 4.

    Keyword arguments override :class:`Options` fields.  The returned
    result always satisfies ``off_residual <= opts.tol`` (relative to
    ||A||); :class:`Unsolved` is raised only when every path including
    the perturbation ladder fails, which indicates a bug rather than an
    expected outcome.

    ``A`` is divided by its spectral norm once, at entry, so the outcome
    does not depend on its scale.  ``U``, ``T`` and both residuals are
    then rebuilt on ``A`` itself, and the point of ``candidate`` is mapped
    back to the pencil of ``A``.
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
    scale = linalg.matrix_norm(a) or 1.0
    result = _dispatch(a / scale, opts)
    cand = result.candidate
    if cand is not None:
        cand = _unscale_candidate(cand, scale)
    return _result_from_flag(
        a, result.flag.basis, result.provenance, result.seed, result.perturbation_used, cand
    )


def _dispatch(a, opts: Options) -> TridiagResult:
    """The solve of a 3x3 or 4x4 ``A`` with ``||A||_2 = 1``."""
    if a.shape[0] == 3:
        return tridiagonalize3(a, tol=opts.tol, seed=opts.seed)

    if opts.force_path == "perturb":
        return perturb_and_retry(a, opts)

    if opts.force_path != "section":
        common = common_eigenvectors(a)
        if common:
            try:
                result = deflate_common_eigenvector(a, common[0], tol=opts.tol, seed=opts.seed)
                if result.off_residual <= opts.tol:
                    return result
            except Unsolved:
                pass

    try:
        return _section_path(a, opts)
    except (NoSectionZero, RankDeficientPencil, ConvergenceFailure):
        if not opts.allow_perturbation:
            raise
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
    unit = float(np.linalg.norm(u @ np.conj(u).T - np.eye(a.shape[0]), 2))
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
