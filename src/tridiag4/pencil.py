"""The pencil t0*I + t1*A + t2*A*, its determinant curve, and the kernel map.

For a 4x4 complex matrix A, the locus ``D = {det(t0 I + t1 A + t2 A*) = 0}``
is a plane quartic.  At every point of ``D`` the pencil has a
one-dimensional kernel (for suitably generic A), and the kernel vector
``v`` traces out the curve of points in projective 3-space where
``{v, Av, A*v}`` is linearly dependent.  A tridiagonalizing flag comes
from the finitely many points where the two enlarged spans
``span(v, Av, A*v) + A span(...)`` and ``... + A* span(...)`` coincide;
that coincidence is what :func:`section_residual` measures.

The flag points are the roots of one polynomial on the base line
``[1 : mu]``: over a base the curve points are the eigenvectors of
``N = A + mu*A*``, and the product of ``det[v, Av, A^2 v, A*^2 v]`` over
them, made scale-free, is a polynomial of degree 20 whose factor
``mu^8`` comes from the eigenvectors of A.  The rest is a dodecic, and
its 12 roots are the bases of the paper's 12 flag points (see
:func:`_dodecic_roots`).  Each root is Newton-polished and certified by
:func:`_certify`, the only acceptance gate; :func:`_flag_points` yields
the certified points to the solver and to :func:`section_zeros`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, polyroots
from .errors import ConvergenceFailure, NoSectionZero, RankDeficientPencil, SingularJacobian
from .linalg import adjugate, canonical_projective, projective_distance
from .polyroots import newton_system

#: Relative threshold below which the pencil counts as rank-deficient (<= 2).
RANK_TOL = 1e-8

#: Relative threshold for "this point lies on the determinant curve".
ON_CURVE_TOL = 1e-8

#: Certification tolerance: the dependence residual, sigma4, the span and
#: closure ranks and the hyperplane value are all tested against it.
CERT_TOL = 1e-8

#: Projective distance below which two certified points count as one.
DEDUPE_TOL = 1e-6

#: Relative eigenvalue gap below which a fiber point is near a branch point.
GAP_TOL = 1e-6

#: Stopping tolerance and step budget of every Newton polish run.
NEWTON_TOL = 1e-11
NEWTON_STEPS = 50


@dataclass(frozen=True)
class Pencil:
    """A 4x4 matrix together with its cached adjoint and spectral norm."""

    a: np.ndarray
    astar: np.ndarray = field(init=False)
    norm: float = field(init=False)

    def __post_init__(self):
        a = linalg.as_matrix(self.a)
        if a.shape != (4, 4):
            raise ValueError("Pencil expects a 4x4 matrix")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "astar", linalg.adjoint(a))
        object.__setattr__(self, "norm", linalg.matrix_norm(a))

    @property
    def generators(self):
        return np.eye(4, dtype=complex), self.a, self.astar


@dataclass
class PencilPoint:
    """A point of the determinant curve with its kernel vector.

    ``t`` is the canonical projective triple, ``v`` the canonical kernel
    vector, ``base`` the image ``[t1 : t2]`` under the projection to the
    base line, ``sheet`` the index of this point within its fiber, and
    ``near_branch`` flags eigenvalue collisions that make sheet tracking
    unreliable nearby.  Only :func:`fiber_points` fills ``base``,
    ``sheet`` and ``near_branch``; certified zeros leave the defaults.
    """

    t: np.ndarray
    v: np.ndarray
    sheet: int = 0
    base: np.ndarray | None = None
    near_branch: bool = False


@dataclass
class SectionCandidate:
    """A certified zero.

    ``span_det`` is the scale-normalized determinant of
    ``[v, Av, A^2 v, A*^2 v]`` (the holomorphic proxy that Newton
    polishes) and ``sigma4`` the normalized fourth singular value of the
    seven-column matrix ``[v, Av, A*v, A^2 v, A A* v, A* A v, A*^2 v]``
    (the rank condition that actually certifies acceptance).
    """

    point: PencilPoint
    span_det: complex
    sigma4: float
    shortcut: bool = False


def pencil_matrix(pencil: Pencil, t) -> np.ndarray:
    """The 4x4 matrix ``t0*I + t1*A + t2*A*``."""
    t = linalg.as_vector(t)
    if t.size != 3:
        raise ValueError("pencil parameter must have 3 coordinates")
    return t[0] * np.eye(4, dtype=complex) + t[1] * pencil.a + t[2] * pencil.astar


def kernel_vector(pencil: Pencil, t, tol: float = RANK_TOL) -> np.ndarray:
    """Unit kernel vector of the pencil at a point of the determinant curve.

    Takes the right singular vector for the smallest singular value.
    Raises :class:`RankDeficientPencil` when the second-smallest singular
    value is also below ``tol * sigma_max`` (rank <= 2, which the generic
    construction excludes and the caller must handle).
    """
    m = pencil_matrix(pencil, t)
    _, s, vh = np.linalg.svd(m)
    if s[0] == 0.0 or s[2] <= tol * s[0]:
        raise RankDeficientPencil(
            f"pencil rank <= 2 at t={np.round(t, 6)} (sigma3/sigma1 = "
            f"{0.0 if s[0] == 0 else s[2] / s[0]:.2e})"
        )
    return canonical_projective(np.conj(vh[-1]))


def fiber_points(pencil: Pencil, base):
    """The four points of the determinant curve over a base point [t1 : t2].

    Over the base the curve is cut out by ``-t0`` running through the
    eigenvalues of ``N = t1*A + t2*A*``, listed by (real, imag) with
    multiplicity; each contributes one point ``t`` with the pencil's
    kernel vector ``v`` there.  ``near_branch`` is set on a point when
    its eigenvalue sits within ``GAP_TOL * ||N||`` of another one.

    Raises :class:`RankDeficientPencil` at rank-deficient points.
    """
    b = canonical_projective(linalg.as_vector(base))
    if b.size != 2:
        raise ValueError("base point must have 2 coordinates")
    n = b[0] * pencil.a + b[1] * pencil.astar
    lam = np.linalg.eigvals(n)
    lam = lam[np.lexsort((lam.imag, lam.real))]
    gaps = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(4, np.inf))
    near_branch = gaps.min(axis=1) < GAP_TOL * np.linalg.norm(n)
    points = []
    for k in range(4):
        t = np.array([-lam[k], b[0], b[1]])
        t /= np.linalg.norm(t)
        _, s, vh = np.linalg.svd(pencil_matrix(pencil, t))
        if s[2] <= RANK_TOL * s[0]:
            raise RankDeficientPencil(f"pencil rank <= 2 at t={np.round(t, 6)}")
        points.append(
            PencilPoint(
                t=canonical_projective(t),
                v=canonical_projective(np.conj(vh[-1])),
                sheet=k,
                base=b,
                near_branch=bool(near_branch[k]),
            )
        )
    return points


def curve_residual(pencil: Pencil, v) -> float:
    """Scale-invariant distance of [v] from the dependence locus.

    Largest 3x3 minor of the 3x4 matrix with rows ``v, Av, A*v``,
    normalized by the product of the row norms.  At or below tolerance
    exactly when ``{v, Av, A*v}`` is numerically dependent.
    """
    v = linalg.as_vector(v)
    rows = np.stack([v, pencil.a @ v, pencil.astar @ v])
    norms = np.linalg.norm(rows, axis=1)
    if np.min(norms) <= 1e-300:
        return 0.0
    cols = np.stack([rows[:, [j for j in range(4) if j != k]] for k in range(4)])
    minors = np.abs(np.linalg.det(cols))
    return float(np.max(minors) / np.prod(norms))


def _seven_columns(pencil: Pencil, v: np.ndarray) -> np.ndarray:
    """``[v, Av, A*v, A^2 v, A A* v, A* A v, A*^2 v]`` for kernel vectors v (k, 4).

    Returns the (k, 4, 7) stack of seven-column matrices.
    """
    a_t, astar_t = pencil.a.T, pencil.astar.T
    av = v @ a_t
    asv = v @ astar_t
    return np.stack([v, av, asv, av @ a_t, asv @ a_t, av @ astar_t, asv @ astar_t], axis=2)


def _span_residuals(seven: np.ndarray):
    """``(h, sigma4)`` of :func:`section_residual` from the seven columns."""
    cols = seven[:, [0, 1, 3, 6]]  # v, Av, A^2 v, A*^2 v
    norms = np.linalg.norm(cols, axis=0)
    if np.min(norms) <= 1e-300:
        h = 0j
    else:
        h = complex(np.linalg.det(cols) / np.prod(norms))
    s = np.linalg.svd(seven, compute_uv=False)
    sigma4 = float(s[3] / s[0]) if s[0] > 0 else 0.0
    return h, sigma4


def section_residual(pencil: Pencil, v):
    """The two residuals whose simultaneous vanishing marks a flag point.

    Returns ``(h, sigma4)`` where ``h = det[v, Av, A^2 v, A*^2 v]``
    normalized by the column norms (holomorphic in v up to that fixed
    scaling) and ``sigma4`` is the fourth singular value of the
    seven-column matrix, normalized by its largest.  On the open part of
    the dependence curve where v is not an eigenvector of A, ``h = 0``
    is equivalent to the two enlarged spans agreeing, but ``sigma4`` is
    the authoritative certificate: it also rejects the degenerate zeros
    of ``h`` at eigenvectors.
    """
    return _span_residuals(_seven_columns(pencil, linalg.as_vector(v)[None, :])[0])


def _section_score(pencil: Pencil, v: np.ndarray) -> np.ndarray:
    """``sigma4`` of :func:`section_residual` for kernel vectors ``v`` (k, 4)."""
    s7 = np.linalg.svd(_seven_columns(pencil, v), compute_uv=False)
    return s7[:, 3] / np.maximum(s7[:, 0], 1e-300)


def _certify_on_curve(pencil: Pencil, t):
    """Membership test for the determinant curve at rank 3.

    Returns ``(canonical t, kernel vector)`` or None when t is off the
    curve or the pencil drops below rank 3 there.
    """
    try:
        t = canonical_projective(t)
    except ValueError:
        return None
    _, s, vh = np.linalg.svd(pencil_matrix(pencil, t))
    if s[0] == 0.0 or s[2] <= RANK_TOL * s[0] or s[3] > ON_CURVE_TOL * s[0]:
        return None
    return t, canonical_projective(np.conj(vh[-1]))


def _certify(pencil: Pencil, t):
    """Re-derive every acceptance quantity at ``t`` and certify or reject."""
    on_curve = _certify_on_curve(pencil, t)
    if on_curve is None:
        return None
    t, v = on_curve
    if curve_residual(pencil, v) > CERT_TOL:
        return None

    seven = _seven_columns(pencil, v[None, :])[0]
    sw = np.linalg.svd(seven[:, :3], compute_uv=False)
    if sw[1] <= CERT_TOL * sw[0] or sw[2] > CERT_TOL * sw[0]:
        return None  # span(v, Av, A*v) is not 2-dimensional
    h, sigma4 = _span_residuals(seven)

    sa = np.linalg.svd(seven[:, [0, 1, 2, 3, 4]], compute_uv=False)
    sb = np.linalg.svd(seven[:, [0, 1, 2, 6, 5]], compute_uv=False)
    shortcut_a = sa[2] <= CERT_TOL * sa[0]
    shortcut_b = sb[2] <= CERT_TOL * sb[0]
    dims_ok = (shortcut_a or sa[3] <= CERT_TOL * sa[0]) and (shortcut_b or sb[3] <= CERT_TOL * sb[0])
    if not (sigma4 <= CERT_TOL and dims_ok):
        return None

    return SectionCandidate(
        point=PencilPoint(t=t, v=v),
        span_det=h,
        sigma4=float(sigma4),
        shortcut=bool(shortcut_a or shortcut_b),
    )


def _polish(pencil: Pencil, t_seed):
    """Newton-polish a seed on (det curve, span determinant) in a local chart.

    The second equation is ``det[v, Av, A^2 v, A*^2 v]`` on the
    holomorphic kernel representative ``v = adj(M) w``, scaled by its
    column norms at the seed.  Returns the polished projective point or
    None when the run fails.
    """
    t_seed = np.asarray(t_seed, dtype=complex)
    k = int(np.argmax(np.abs(t_seed)))
    free = [i for i in range(3) if i != k]
    s0 = t_seed[free] / t_seed[k]
    gens = pencil.generators
    pk, pa, pb = gens[k], gens[free[0]], gens[free[1]]
    m0 = pk + s0[0] * pa + s0[1] * pb
    u, sv, _ = np.linalg.svd(m0)
    if sv[0] == 0.0 or sv[2] <= RANK_TOL * sv[0]:
        return None
    w = np.conj(u[:, -1])
    g_scale = sv[0] ** 4

    a = pencil.a
    a2, astar2 = a @ a, pencil.astar @ pencil.astar

    def build(v):
        return np.column_stack([v, a @ v, a2 @ v, astar2 @ v])

    h_scale = float(np.prod(np.linalg.norm(build(adjugate(m0) @ w), axis=0)))
    if not np.isfinite(h_scale) or h_scale <= 1e-280:
        return None

    last = {}

    def assemble(s):
        m = pk + s[0] * pa + s[1] * pb
        adj, m2, stats = linalg._adj4(m)
        detm = (m * adj.T).sum() / 4.0
        v = adj @ w
        return m, adj, m2, stats, detm, v

    def f(s):
        m, adj, m2, stats, detm, v = assemble(s)
        last["s"] = s.copy()
        last["data"] = (m, adj, m2, stats, v)
        return np.array([detm / g_scale, complex(np.linalg.det(build(v)) / h_scale)], dtype=complex)

    def jac(s):
        if last.get("s") is not None and np.array_equal(last["s"], s):
            m, adj, m2, stats, v = last["data"]
        else:
            m, adj, m2, stats, _, v = assemble(s)
        dv_a = linalg._adj4_dir(m, m2, stats, pa) @ w
        dv_b = linalg._adj4_dir(m, m2, stats, pb) @ w
        adj_v = linalg._adj4(build(v))[0]
        return np.array(
            [
                [(adj * pa.T).sum() / g_scale, (adj * pb.T).sum() / g_scale],
                [
                    complex((adj_v * build(dv_a).T).sum() / h_scale),
                    complex((adj_v * build(dv_b).T).sum() / h_scale),
                ],
            ],
            dtype=complex,
        )

    try:
        s_star, _ = newton_system(f, jac, s0, tol=NEWTON_TOL, max_steps=NEWTON_STEPS)
    except (ConvergenceFailure, SingularJacobian):
        return None
    if np.max(np.abs(s_star)) > 6.0:
        return None  # escaped the chart; the seed was bad
    t = np.empty(3, dtype=complex)
    t[k] = 1.0
    t[free[0]] = s_star[0]
    t[free[1]] = s_star[1]
    return canonical_projective(t)


def _distinguished_seeds(pencil: Pencil):
    """Pencil points carried by eigenvectors of A and of A*, as ``(t, v)`` pairs.

    An eigenvector of A with eigenvalue lam corresponds to the point
    [-lam : 1 : 0]; an eigenvector of A* with eigenvalue nu to
    [-nu : 0 : 1].  These always lie on the dependence curve; they are
    the bases ``mu = 0`` and ``mu = oo`` that the dodecic leaves out, and
    they carry the flag points of structured inputs (nilpotent blocks,
    invariant planes) where the dodecic vanishes identically.  ``v`` is
    the unit eigenvector from :func:`linalg.eigen`, the smallest right
    singular vector of ``A - lam*I``: the pencil's kernel vector at ``t``.
    """
    seeds = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            for lam, v in linalg.eigen(pencil.a):
                seeds.append((np.array([-lam, 1.0, 0.0], dtype=complex), v))
            for nu, v in linalg.eigen(pencil.astar):
                seeds.append((np.array([-nu, 0.0, 1.0], dtype=complex), v))
        except ConvergenceFailure:
            pass
    return seeds


def _dodecic_roots(pencil: Pencil) -> np.ndarray:
    """The bases ``mu`` of the flag points: the 12 roots of a dodecic.

    Over ``[1 : mu]`` the four curve points are the eigenvectors ``v_k``
    (the columns of ``V``) of ``N = A + mu*A*``, with eigenvalues
    ``lam_k``.  With ``h(v) = det[v, Av, A^2 v, A*^2 v]``,

        P(mu) = prod_{i<j} (lam_i - lam_j)^4 * prod_k h(v_k) / det(V)^4

    does not depend on the scaling or the order of the ``v_k``, and it has
    no poles (it is ``K(mu)^4 * prod_k h(v_k) / (l . v_k)^4`` for the
    Krylov sextic ``K`` of any ``l``), so it is a polynomial, of degree
    20.  ``h`` vanishes to second order at the eigenvectors of A, which
    gives ``P`` an 8-fold zero at ``mu = 0``; those of A* sit at
    ``mu = oo``.  So ``R = P / mu^8`` is a dodecic, recovered on
    ``A/||A||_2`` from 13 samples on ``|mu| = 1``.  The samples are taken
    at once: one ``eig`` of the (13, 4, 4) stack ``A + mu*A*`` and one
    ``det`` of the (13, 4, 4, 4) stack of span matrices.

    The roots come from the companion matrix as 12 simple roots, since
    the flag points are generically distinct.  Returns no roots when
    ``R`` is not finite or vanishes identically.
    """
    scale = pencil.norm or 1.0
    a, astar = pencil.a / scale, pencil.astar / scale
    a2, astar2 = a @ a, astar @ astar

    mu = np.exp(2j * np.pi * np.arange(13) / 13)
    lam, vecs = np.linalg.eig(a + mu[:, None, None] * astar)
    # [v, Av, A^2 v, A*^2 v] for every sample (axis 0) and sheet (axis 1)
    h = np.linalg.det(np.stack([vecs, a @ vecs, a2 @ vecs, astar2 @ vecs], axis=-1).swapaxes(1, 2))
    i, j = np.triu_indices(4, 1)
    gaps = lam[:, i] - lam[:, j]
    values = np.prod(gaps, axis=1) ** 4 * np.prod(h, axis=1) / np.linalg.det(vecs) ** 4 / mu**8
    # samples at the 13th roots of unity form an inverse DFT of the
    # coefficients, as in polyroots.restrict_to_line
    r = polyroots.trim(np.fft.fft(values) / 13)
    if r.size <= 1 or not np.all(np.isfinite(r)):
        return np.empty(0, dtype=complex)
    return np.roots(r[::-1])


def _flag_points(pencil: Pencil):
    """The certified flag-point candidates, one at a time.

    First the eigenvector points of A and A* that certify as they are,
    then the roots of the dodecic: over each root the sheet with the
    smallest ``sigma4`` is Newton-polished and certified, best sheet
    first.  The eigenvector points are screened by one batched ``sigma4``
    of their kernel vectors, and only those at or below
    ``sqrt(CERT_TOL)`` go on to :func:`_certify`, which would reject the
    others anyway.  Deterministic, and lazy: the dodecic is formed only
    when the eigenvector points have been consumed.
    """
    seeds = _distinguished_seeds(pencil)
    if seeds:
        score = _section_score(pencil, np.array([v for _, v in seeds]))
        for (t, _), s in zip(seeds, score):
            cand = _certify(pencil, t) if s <= np.sqrt(CERT_TOL) else None
            if cand is not None:
                yield cand
    mu = _dodecic_roots(pencil)
    if mu.size == 0:
        return
    bases = np.column_stack([np.ones_like(mu), mu])
    bases /= np.linalg.norm(bases, axis=1, keepdims=True)
    lam, vecs = np.linalg.eig(bases[:, 0, None, None] * pencil.a + bases[:, 1, None, None] * pencil.astar)
    score = _section_score(pencil, vecs.transpose(0, 2, 1).reshape(-1, 4)).reshape(-1, 4)
    sheet = np.argmin(score, axis=1)
    for i in np.argsort(score[np.arange(mu.size), sheet]):
        t_pol = _polish(pencil, np.array([-lam[i, sheet[i]], *bases[i]]))
        cand = _certify(pencil, t_pol) if t_pol is not None else None
        if cand is not None:
            yield cand


def _unscale_point(t, scale: float, shift: complex = 0.0) -> np.ndarray:
    """A point ``[t0 : t1 : t2]`` on the pencil of ``(A - shift*I)/scale``, moved to the pencil of ``A``.

    It is ``[scale*t0 - shift*t1 - conj(shift)*t2 : t1 : t2]`` there,
    formed with every coefficient divided by ``max(scale, |shift|, 1)``
    so that no term can overflow.
    """
    m = max(scale, abs(shift), 1.0)
    w = [(scale / m) * t[0] - (shift / m) * t[1] - (np.conj(shift) / m) * t[2], t[1] / m, t[2] / m]
    return canonical_projective(w)


def _unscale_candidate(cand: SectionCandidate, scale: float, shift: complex = 0.0) -> SectionCandidate:
    """:func:`_unscale_point` on a candidate; its kernel vector and residuals do not change."""
    return replace(cand, point=PencilPoint(t=_unscale_point(cand.point.t, scale, shift), v=cand.point.v))


def section_zeros(pencil: Pencil):
    """All certified flag points of the pencil, sorted by their sigma4.

    Collects :func:`_flag_points`: the eigenvector points of A and A*
    that certify, and the polished roots of the dodecic, each kept only
    when it passes the full certification (on-curve, dependence
    residual, 2-dimensional span, rank-3 closures, ``sigma4`` below
    ``CERT_TOL``).  Points within projective distance ``DEDUPE_TOL`` of
    each other count once, with the smaller ``sigma4``.  On a generic
    matrix the result has exactly 12 entries.  The points are found on
    ``A/||A||_2`` and mapped back to the pencil of ``A``, so the count
    does not depend on the scale of ``A``.

    Raises
    ------
    NoSectionZero
        When no candidate passes certification; degenerate inputs land
        here, and the solver refines a unitary from the Schur basis
        instead.
    """
    scale = pencil.norm or 1.0
    zeros: list[SectionCandidate] = []
    for cand in _flag_points(Pencil(pencil.a / scale)):
        for i, other in enumerate(zeros):
            if projective_distance(cand.point.t, other.point.t) < DEDUPE_TOL:
                if cand.sigma4 < other.sigma4:
                    zeros[i] = cand
                break
        else:
            zeros.append(cand)
    if not zeros:
        raise NoSectionZero(
            f"no certified flag point among the eigenvector points and the dodecic's roots (tol={CERT_TOL:.1e})"
        )
    zeros.sort(key=lambda c: (c.sigma4, tuple(np.round(c.point.t, 9).view(float))))
    return [_unscale_candidate(c, scale) for c in zeros]
