"""The pencil t0*I + t1*A + t2*A*, its determinant curve, and the kernel map.

For a 4x4 complex matrix A, the locus ``D = {det(t0 I + t1 A + t2 A*) = 0}``
is a plane quartic.  At every point of ``D`` the pencil has a
one-dimensional kernel (for suitably generic A), and the kernel vector
``v`` traces out the curve of points in projective 3-space where
``{v, Av, A*v}`` is linearly dependent.  A tridiagonalizing flag comes
from the finitely many points where the two enlarged spans
``span(v, Av, A*v) + A span(...)`` and ``... + A* span(...)`` coincide;
that coincidence is what :func:`section_residual` measures.

The flag points are found by one curve search.  :func:`_fibers`
evaluates the curve over a batch of base points ``[t1 : t2]``, and
:func:`_search` sweeps the base line, descends to the pits of
``sigma4``, Newton-polishes them on ``det[v, Av, A^2 v, A*^2 v]`` and
certifies what it finds; :func:`section_zeros` is its one caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
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

#: Base points per fiber batch when the search stops at its first zero.
QUICK_CHUNK = 240

_RING_ANGLES = 60

#: Seed refinement: probe rings per seed, and the first ring's radius in
#: the base coordinate (each ring shrinks by a factor 0.33).
_REFINE_ROUNDS = 4
_REFINE_RADIUS = 0.08


@dataclass(frozen=True)
class Pencil:
    """A 4x4 matrix together with its cached adjoint and derived products."""

    a: np.ndarray
    astar: np.ndarray = field(init=False)
    a2: np.ndarray = field(init=False)
    astar2: np.ndarray = field(init=False)
    norm: float = field(init=False)

    def __post_init__(self):
        a = linalg.as_matrix(self.a)
        if a.shape != (4, 4):
            raise ValueError("Pencil expects a 4x4 matrix")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "astar", linalg.adjoint(a))
        object.__setattr__(self, "a2", a @ a)
        object.__setattr__(self, "astar2", self.astar @ self.astar)
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


@dataclass
class SectionOptions:
    """Knobs for the curve search behind :func:`section_zeros`.

    ``samples`` base points are swept, half on rings and half uniform,
    and ``restarts`` random bases are tried after the sweep.
    ``stop_after_first`` returns at the first certified point (the
    solver's quick pass); ``stop_on_shortcut`` returns at the first point
    whose forward closure already closes up.  ``max_seeds``,
    ``stagnation`` and ``max_zeros`` bound the polish runs.
    """

    samples: int = 720
    restarts: int = 16
    seed: int = 0
    stop_after_first: bool = False
    stop_on_shortcut: bool = True
    max_seeds: int = 900
    stagnation: int = 120
    max_zeros: int = 60


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
    construction excludes and the caller must escalate).
    """
    m = pencil_matrix(pencil, t)
    _, s, vh = np.linalg.svd(m)
    if s[0] == 0.0 or s[2] <= tol * s[0]:
        raise RankDeficientPencil(
            f"pencil rank <= 2 at t={np.round(t, 6)} (sigma3/sigma1 = "
            f"{0.0 if s[0] == 0 else s[2] / s[0]:.2e})"
        )
    return canonical_projective(np.conj(vh[-1]))


def _fibers(pencil: Pencil, bases: np.ndarray):
    """The curve over a batch of base points: the search engine's evaluator.

    Over a base ``[t1 : t2]`` the curve is cut out by ``-t0`` running
    through the eigenvalues of ``N = t1*A + t2*A*``, listed by (real,
    imag) with multiplicity.  Returns ``(t, v, s, near_branch)`` with row
    ``4*i + k`` for sheet ``k`` over base ``i``: the unit point ``t``, the
    kernel vector ``v`` and the singular values ``s`` of the pencil there,
    and whether its eigenvalue is within ``GAP_TOL * ||N||`` of another.
    """
    t1 = bases[:, 0]
    t2 = bases[:, 1]
    n = t1[:, None, None] * pencil.a + t2[:, None, None] * pencil.astar
    lam = np.linalg.eigvals(n)
    order = np.lexsort((lam.imag, lam.real), axis=1)
    lam = np.take_along_axis(lam, order, axis=1)

    diff = np.abs(lam[:, :, None] - lam[:, None, :])
    diff[:, np.arange(4), np.arange(4)] = np.inf
    near_branch = diff.min(axis=2) < GAP_TOL * np.linalg.norm(n, axis=(1, 2))[:, None]

    t = np.empty((bases.shape[0], 4, 3), dtype=complex)
    t[:, :, 0] = -lam
    t[:, :, 1] = t1[:, None]
    t[:, :, 2] = t2[:, None]
    t /= np.linalg.norm(t, axis=2, keepdims=True)
    t = t.reshape(-1, 3)
    pm = (
        t[:, 0, None, None] * np.eye(4, dtype=complex)
        + t[:, 1, None, None] * pencil.a
        + t[:, 2, None, None] * pencil.astar
    )
    _, s, vh = np.linalg.svd(pm)
    return t, np.conj(vh[:, -1, :]), s, near_branch.reshape(-1)


def fiber_points(pencil: Pencil, base):
    """The four points of the determinant curve over a base point [t1 : t2].

    Over the base the curve is cut out by ``-t0`` running through the
    eigenvalues of ``t1*A + t2*A*``; each eigenvalue contributes one
    point (repeated eigenvalues are listed with multiplicity).
    ``near_branch`` is set on a point when its eigenvalue sits within
    ``GAP_TOL * ||t1*A + t2*A*||`` of another one.

    Raises :class:`RankDeficientPencil` at rank-deficient points.
    """
    b = canonical_projective(linalg.as_vector(base))
    if b.size != 2:
        raise ValueError("base point must have 2 coordinates")
    t, v, s, near_branch = _fibers(pencil, b[None, :])
    for k in range(4):
        if s[k, 2] <= RANK_TOL * s[k, 0]:
            raise RankDeficientPencil(f"pencil rank <= 2 at t={np.round(t[k], 6)}")
    return [
        PencilPoint(
            t=canonical_projective(t[k]),
            v=canonical_projective(v[k]),
            sheet=k,
            base=b,
            near_branch=bool(near_branch[k]),
        )
        for k in range(4)
    ]


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


def _section_score(pencil: Pencil, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The flag-point search score: ``sigma4`` of kernel vectors ``v`` (k, 4).

    ``inf`` where the pencil singular values ``s`` (k, 4) show rank <= 2.
    """
    s7 = np.linalg.svd(_seven_columns(pencil, v), compute_uv=False)
    return np.where(s[:, 2] <= RANK_TOL * s[:, 0], np.inf, s7[:, 3] / np.maximum(s7[:, 0], 1e-300))


def _closure_shortcuts(pencil: Pencil, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Points whose forward closure is 2-dimensional, at rank-3 pencils.

    The closure ``[v, Av, A*v, A^2 v, A A* v]`` (or its mirror
    ``[v, Av, A*v, A*^2 v, A* A v]``) of rank 2 means the point yields a
    flag without any zero-finding.
    """
    seven = _seven_columns(pencil, v)
    sa = np.linalg.svd(seven[:, :, [0, 1, 2, 3, 4]], compute_uv=False)
    sb = np.linalg.svd(seven[:, :, [0, 1, 2, 6, 5]], compute_uv=False)
    short_a = sa[:, 2] / np.maximum(sa[:, 0], 1e-300)
    short_b = sb[:, 2] / np.maximum(sb[:, 0], 1e-300)
    return (s[:, 2] > RANK_TOL * s[:, 0]) & ((short_a <= CERT_TOL) | (short_b <= CERT_TOL))


# ---------------------------------------------------------------------------
# the curve search


def _sweep_bases(samples: int, rng: np.random.Generator):
    """Base points for a sweep: rings of 60 angles, then uniform random ones.

    Half of ``samples`` go on rings ``t2/t1 = r e^{i phi}`` with radii
    log-spaced over [1e-2, 1e2], the rest are drawn from ``rng``.
    Returns the unit bases (m, 2) and the number of rings.
    """
    n_rings = max(1, samples // 2 // _RING_ANGLES)
    radii = np.logspace(-2.0, 2.0, n_rings)
    angles = np.exp(2j * np.pi * np.arange(_RING_ANGLES) / _RING_ANGLES)
    t2 = (radii[:, None] * angles[None, :]).reshape(-1)
    ring = np.column_stack([np.ones_like(t2), t2])
    ring /= np.linalg.norm(ring, axis=1, keepdims=True)
    rand = _random_bases(max(0, samples - ring.shape[0]), rng)
    return np.vstack([ring, rand]), n_rings


def _random_bases(n: int, rng: np.random.Generator):
    # complex Gaussian pairs normalize to the uniform measure on the base line
    z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _refine_seeds(pencil: Pencil, t_seeds: np.ndarray):
    """Batched local score descent on the curve before Newton.

    Zooms each seed's base coordinate toward the nearest score minimum
    over a shrinking probe ring; Newton basins around paired zeros are
    smaller than any affordable global grid, so this bridges the gap.
    All seeds advance together so the fiber evaluations stay vectorized.
    Returns the refined points (k, 3) and the score values reached.
    """
    k = t_seeds.shape[0]
    if k == 0:
        return t_seeds.copy(), np.empty(0)
    b = t_seeds[:, 1:]
    nb = np.linalg.norm(b, axis=1)
    ok = nb > 1e-14
    flip = np.abs(b[:, 0]) < np.abs(b[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.where(flip, b[:, 0] / b[:, 1], b[:, 1] / b[:, 0])
    mu = np.where(ok, mu, 0.0)

    best_t = t_seeds.copy()
    best_s = np.full(k, np.inf)
    r = _REFINE_RADIUS
    for _ in range(_REFINE_ROUNDS):
        offs = np.concatenate([[0.0], r * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)])
        mus = mu[:, None] + offs[None, :]  # (k, 9)
        flat_mu = mus.reshape(-1)
        ones = np.ones_like(flat_mu)
        flipped = np.repeat(flip, offs.size)
        probes = np.where(flipped[:, None], np.column_stack([flat_mu, ones]), np.column_stack([ones, flat_mu]))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        flat_t, v, s, _ = _fibers(pencil, probes)
        sig = _section_score(pencil, v, s).reshape(k, offs.size * 4)
        idx = np.argmin(sig, axis=1)
        val = sig[np.arange(k), idx]
        better = ok & (val < best_s)
        if np.any(better):
            rows = np.nonzero(better)[0]
            best_s[rows] = val[rows]
            best_t[rows] = flat_t.reshape(k, offs.size * 4, 3)[rows, idx[rows]]
            mu[rows] = mus.reshape(k, -1)[rows, idx[rows] // 4]
        r *= 0.33
    return best_t, best_s


def _dedupe_pits(refined: np.ndarray, s_ref: np.ndarray, known: list, radius: float = 2e-3):
    """Distinct refined pits ordered by depth, excluding known zeros.

    Vectorized: pits are unit vectors, so proximity is an inner-product
    threshold.  Returns at most the distinct representatives, deepest
    (smallest score) first.
    """
    mask = np.isfinite(s_ref) & (s_ref < 1e-1)
    if not np.any(mask):
        return []
    pts = refined[mask]
    vals = s_ref[mask]
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    pts = pts / np.where(norms > 0, norms, 1.0)
    thresh = 1.0 - radius**2
    if known:
        ka = np.asarray(known, dtype=complex)
        ip = np.abs(pts @ np.conj(ka).T) ** 2
        keep = ~(ip > thresh).any(axis=1)
        pts, vals = pts[keep], vals[keep]
    order = np.argsort(vals)
    out: list[np.ndarray] = []
    blocked = np.zeros(pts.shape[0], dtype=bool)
    for i in order:
        if blocked[i]:
            continue
        out.append(pts[i])
        blocked |= np.abs(pts @ np.conj(pts[i])) ** 2 > thresh
    return out


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


def _chart_setup(pencil: Pencil, t_seed: np.ndarray):
    k = int(np.argmax(np.abs(t_seed)))
    ts = t_seed / t_seed[k]
    free = [i for i in range(3) if i != k]
    gens = pencil.generators
    return k, free, ts[free].copy(), gens[k], gens[free[0]], gens[free[1]]


def _polish(pencil: Pencil, t_seed):
    """Newton-polish a seed on (det curve, span determinant) in a local chart.

    The second equation is ``det[v, Av, A^2 v, A*^2 v]`` on the
    holomorphic kernel representative ``v = adj(M) w``, scaled by its
    column norms at the seed.  Returns the polished projective point or
    None when the run fails.
    """
    t_seed = np.asarray(t_seed, dtype=complex)
    k, free, s0, pk, pa, pb = _chart_setup(pencil, t_seed)
    m0 = pk + s0[0] * pa + s0[1] * pb
    u, sv, _ = np.linalg.svd(m0)
    if sv[0] == 0.0 or sv[2] <= RANK_TOL * sv[0]:
        return None
    w = np.conj(u[:, -1])
    g_scale = sv[0] ** 4

    a, a2, astar2 = pencil.a, pencil.a2, pencil.astar2

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
    """Pencil points carried by eigenvectors of A and of A*.

    An eigenvector of A with eigenvalue lam corresponds to the point
    [-lam : 1 : 0]; an eigenvector of A* with eigenvalue nu to
    [-nu : 0 : 1].  These always lie on the dependence curve and cover
    the structured inputs (nilpotent blocks, near-invariant subspaces)
    that the random sweep handles poorly.
    """
    import warnings as _warnings

    seeds = []
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        try:
            for lam, _ in linalg.eigen(pencil.a):
                seeds.append(np.array([-lam, 1.0, 0.0], dtype=complex))
            for nu, _ in linalg.eigen(pencil.astar):
                seeds.append(np.array([-nu, 0.0, 1.0], dtype=complex))
        except ConvergenceFailure:
            pass
    return seeds


class _Dedupe:
    """Accepted-candidate store with projective deduplication on t."""

    def __init__(self):
        self.items: list[SectionCandidate] = []

    def add(self, cand: SectionCandidate) -> bool:
        for i, other in enumerate(self.items):
            if projective_distance(cand.point.t, other.point.t) < DEDUPE_TOL:
                if cand.sigma4 < other.sigma4:
                    self.items[i] = cand
                return False
        self.items.append(cand)
        return True

    def sorted(self):
        return sorted(
            self.items,
            key=lambda c: (c.sigma4, tuple(np.round(c.point.t, 9).view(float))),
        )


def _seed_order(score: np.ndarray, bases: np.ndarray, max_seeds: int, extra: list[int] | None = None):
    """Flattened fiber points ordered for polishing, in coverage tiers.

    The first tier picks the best-scoring seed per coarse spatial region
    (spacing 0.3 in projective distance on the base), then finer tiers at
    0.1 and 0.02 fill in, so spatial coverage comes before greed.
    ``extra`` indices (e.g. ring-local minima) are appended afterwards.
    """
    order = np.argsort(score)
    order = order[np.isfinite(score[order])]
    bases = np.repeat(bases, 4, axis=0)

    chosen: list[int] = []
    taken = np.zeros(score.size, dtype=bool)
    for tier_spacing in (0.3, 0.1, 0.02):
        # unit base vectors: distance < s  <=>  |<b1, b2>|^2 > 1 - s^2
        thresh = 1.0 - tier_spacing**2
        if chosen:
            ip = np.abs(bases @ np.conj(bases[chosen]).T) ** 2
            blocked = (ip > thresh).any(axis=1)
        else:
            blocked = np.zeros(score.size, dtype=bool)
        for idx in order:
            if len(chosen) >= max_seeds:
                break
            if taken[idx] or blocked[idx]:
                continue
            chosen.append(int(idx))
            taken[idx] = True
            blocked |= np.abs(bases @ np.conj(bases[idx])) ** 2 > thresh
        if len(chosen) >= max_seeds:
            break
    for idx in extra or []:
        if np.isfinite(score[idx]) and not taken[idx]:
            chosen.append(int(idx))
            taken[idx] = True
    return chosen


def _ring_minima(score: np.ndarray, n_rings: int):
    """Per-ring, per-sheet local minima of the score (flattened indices).

    Rings are closed circles, so the comparison wraps around.  Only the
    first ``n_rings`` rings of base points of the sweep are ring samples.
    """
    score = score[: 4 * n_rings * _RING_ANGLES].reshape(n_rings, _RING_ANGLES, 4)
    left = np.roll(score, 1, axis=1)
    right = np.roll(score, -1, axis=1)
    mask = (score < left) & (score < right) & np.isfinite(score) & (score < 1e-1)
    rows, angs, sheets = np.nonzero(mask)
    return [int((r * _RING_ANGLES + a) * 4 + s) for r, a, s in zip(rows, angs, sheets)]


def _search(pencil: Pencil, opts: SectionOptions) -> list:
    """The certified flag points on the curve, best first.

    Tries the eigenvector points of A and A*, then sweeps the base line
    (rings plus uniform random bases) and orders the fiber points by
    ``sigma4`` in coverage tiers.  Under ``opts.stop_on_shortcut`` a
    sweep point whose forward closure closes up is certified at once.
    With ``opts.stop_after_first`` it polishes the seeds in that order and
    stops at the first certified zero.  Otherwise it descends every seed
    to its ``sigma4`` pit and polishes distinct pits deepest first, until
    ``opts.stagnation`` runs in a row bring nothing new.  Random restarts
    follow the sweep, and the exhaustive search ends with a cluster pass
    that rings every accepted zero, since zeros come in clusters whose
    Newton basins are smaller than any affordable global grid.
    """
    rng = np.random.default_rng(opts.seed)
    store = _Dedupe()

    def certify(t):
        """(candidate or None, whether it is a new zero)."""
        cand = _certify(pencil, t)
        return cand, cand is not None and store.add(cand)

    def polish(t):
        t_pol = _polish(pencil, t)
        return certify(t_pol) if t_pol is not None else (None, False)

    def polish_seeds(seed_ts):
        """Polish from the seeds; True when the search is done.

        The quick search polishes the seeds in order and is done at its
        first zero; the exhaustive one polishes the distinct pits below
        the seeds, deepest first, and is done at ``opts.max_zeros``.
        """
        if opts.stop_after_first:
            return any(polish(t_seed)[0] is not None for t_seed in seed_ts)
        refined, s_ref = _refine_seeds(pencil, seed_ts)
        stagnant = 0
        for tcur in _dedupe_pits(refined, s_ref, [z.point.t for z in store.items]):
            if len(store.items) >= opts.max_zeros:
                return True
            if any(projective_distance(tcur, z.point.t) < 2e-3 for z in store.items):
                continue
            if polish(tcur)[1]:
                stagnant = 0
            else:
                stagnant += 1
                if stagnant >= opts.stagnation and store.items:
                    break
        return False

    for t_seed in _distinguished_seeds(pencil):
        cand, _ = certify(t_seed)
        if cand is not None and (opts.stop_after_first or (cand.shortcut and opts.stop_on_shortcut)):
            return store.sorted()

    bases, n_rings = _sweep_bases(opts.samples, rng)
    chunk = QUICK_CHUNK if opts.stop_after_first else bases.shape[0]
    for lo in range(0, bases.shape[0], chunk):
        part = bases[lo : lo + chunk]
        t, v, s, near_branch = _fibers(pencil, part)
        score = _section_score(pencil, v, s)
        if opts.stop_on_shortcut:
            for idx in np.flatnonzero(_closure_shortcuts(pencil, v, s)):
                cand, _ = certify(t[idx])
                if cand is not None and cand.shortcut:
                    return store.sorted()
        score = np.where(near_branch, np.inf, score)
        extra = _ring_minima(score, n_rings) if lo == 0 and not opts.stop_after_first else None
        if polish_seeds(t[_seed_order(score, part, opts.max_seeds, extra)]):
            return store.sorted()

    if opts.restarts > 0 and not (opts.stop_after_first and store.items):
        t, v, s, _ = _fibers(pencil, _random_bases(opts.restarts, rng))
        score = _section_score(pencil, v, s).reshape(-1, 4)
        picks = [
            t[4 * row + k]
            for row in range(score.shape[0])
            for k in np.argsort(score[row])[:2]
            if np.isfinite(score[row, k])
        ]
        if picks and polish_seeds(np.asarray(picks)):
            return store.sorted()

    if not opts.stop_after_first and store.items and len(store.items) < opts.max_zeros:
        frontier = list(store.items)
        for _ in range(3):
            new_items = []
            for cand in frontier:
                if len(store.items) >= opts.max_zeros:
                    break
                tc = cand.point.t
                k = int(np.argmax(np.abs(tc)))
                ts = tc / tc[k]
                free = [i for i in range(3) if i != k]
                for radius in (0.05, 0.11, 0.18):
                    for j in range(6):
                        phase = np.exp(2j * np.pi * (j + 0.3) / 6)
                        d = np.zeros(3, dtype=complex)
                        d[free[0]] = radius * phase
                        d[free[1]] = radius * np.conj(phase) * (1j) ** j
                        t_start = ts + d
                        got, is_new = polish(t_start / np.linalg.norm(t_start))
                        if is_new:
                            new_items.append(got)
            if not new_items or len(store.items) >= opts.max_zeros:
                break
            frontier = new_items
    return store.sorted()


def section_zeros(pencil: Pencil, opts: SectionOptions | None = None):
    """All certified flag points of the pencil, sorted by their sigma4.

    Runs the curve search on the pair (det curve, span determinant):
    sweeps the base line (``opts.samples`` base points), scores every
    sheet by ``sigma4``, Newton-polishes the most promising seeds in a
    local chart, and keeps only candidates that pass the full
    certification: on-curve, dependence residual, 2-dimensional span,
    rank-3 closures, and ``sigma4`` below ``CERT_TOL``.  Zeros are
    deduplicated at projective distance ``DEDUPE_TOL``.  Eigenvector
    points of A and A* are tried before the sweep.

    A point whose forward closure is only 2-dimensional short-circuits
    the search when ``opts.stop_on_shortcut`` is set: such a point
    already produces a flag without any zero-finding.

    For matrices inside the generic regime the result has at most 12
    entries.  Near-degenerate inputs can certify a near-continuum of
    points; the search cuts off at ``opts.max_zeros`` accepted zeros to
    stay bounded there.

    Raises
    ------
    NoSectionZero
        When no candidate passes certification; degenerate inputs land
        here and the caller escalates to the perturbation path.
    """
    if opts is None:
        opts = SectionOptions()
    zeros = _search(pencil, opts)
    if not zeros:
        raise NoSectionZero(
            f"no certified zero after sweeping {opts.samples} base points and "
            f"{opts.restarts} restarts (tol={CERT_TOL:.1e})"
        )
    return zeros
