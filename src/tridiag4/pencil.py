"""The pencil t0*I + t1*A + t2*A*, its determinant curve, and the kernel map.

For a 4x4 complex matrix A, the locus ``D = {det(t0 I + t1 A + t2 A*) = 0}``
is a plane quartic.  At every point of ``D`` the pencil has a
one-dimensional kernel (for suitably generic A), and the kernel vector
``v`` traces out the curve of points in projective 3-space where
``{v, Av, A*v}`` is linearly dependent.  A tridiagonalizing flag comes
from the finitely many points where the two enlarged spans
``span(v, Av, A*v) + A span(...)`` and ``... + A* span(...)`` coincide;
that coincidence is the rank condition ``sigma4`` (see :func:`_section_score`).

The flag points are the roots of one polynomial on the base line
``[1 : mu]``: over a base the curve points are the eigenvectors of
``N = A + mu*A*``, and the product of ``det[v, Av, A^2 v, A*^2 v]`` over
them, made scale-free, is a polynomial of degree 20 whose factor
``mu^8`` comes from the eigenvectors of A.  The rest is a dodecic, and
its 12 roots are the bases of the paper's 12 flag points (see
:func:`_dodecic_roots`), ordered best-conditioned first.  The solver's
first candidate is the best sheet over the three best-conditioned roots;
the sheets over the other nine are formed only when more candidates are
asked for.  Points are certified in stacks by :func:`_certify`, the only
acceptance gate; one that it rejects is refined on the dodecic itself
(:func:`_refine_root`) and certified again; :func:`_flag_points` yields
the certified points to the solver and to :func:`section_zeros`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import linalg
from .errors import ConvergenceFailure
from .linalg import canonical_projective

#: The one relative singular-value tolerance: the pencil's rank drop (``sigma3``,
#: in ``_certify_on_curve`` and ``classify``), its on-curve ``sigma4``, the span
#: rank, the flag point's ``sigma4``, the closure ranks behind ``shortcut`` and
#: the hyperplane value are all tested against it.
CERT_TOL = 1e-8

#: Projective distance below which two certified points count as one.
DEDUPE_TOL = 1e-6

#: Step cap of the secant refinement of a dodecic root (a close pair needs ~12).
SECANT_STEPS = 12

#: Best-conditioned roots the first candidate is chosen from (one alone let a Gaussian's ``off_residual`` reach 1.5e-9).
_FIRST_ROOTS = 3

#: The index pairs ``i < j`` of four eigenvalues.
_PAIRS = np.triu_indices(4, 1)


@dataclass(frozen=True)
class Pencil:
    """A 4x4 matrix together with its cached adjoint and eigen-decomposition."""

    a: np.ndarray
    astar: np.ndarray = field(init=False)

    def __post_init__(self):
        a = linalg.as_matrix(self.a)
        if a.shape != (4, 4):
            raise ValueError("Pencil expects a 4x4 matrix")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "astar", linalg.adjoint(a))

    @cached_property
    def eigen(self):
        """:func:`linalg.eigen` of ``A``, taken on first use and kept; None when it fails.

        The eigenvector points of the flag search, the common eigenvector
        test and the eigenvalue gap of :func:`genericity.classify` all read
        this one decomposition.
        """
        try:
            return linalg.eigen(self.a)
        except ConvergenceFailure:
            return None


@dataclass
class PencilPoint:
    """A point of the determinant curve: the canonical triple ``t`` and its canonical kernel vector ``v``."""

    t: np.ndarray
    v: np.ndarray


@dataclass
class SectionCandidate:
    """A certified flag point, its ``sigma4`` (:func:`_section_score`) and whether a closure has rank 2."""

    point: PencilPoint
    sigma4: float
    shortcut: bool = False


def pencil_matrix(pencil: Pencil, t) -> np.ndarray:
    """The 4x4 matrix ``t0*I + t1*A + t2*A*``; a (k, 3) stack of ``t`` gives the (k, 4, 4) stack."""
    t = np.asarray(t, dtype=complex)
    if t.shape[-1:] != (3,) or t.ndim > 2 or not np.all(np.isfinite(t)):
        raise ValueError("pencil parameter must have 3 finite coordinates, or be a stack of such rows")
    t0, t1, t2 = t.T[..., None, None]
    return t0 * np.eye(4, dtype=complex) + t1 * pencil.a + t2 * pencil.astar


def _seven_columns(pencil: Pencil, v: np.ndarray) -> np.ndarray:
    """The (k, 4, 7) stack ``[v, Av, A*v, A^2 v, A A* v, A* A v, A*^2 v]`` for kernel vectors v (k, 4)."""
    a_t, astar_t = pencil.a.T, pencil.astar.T
    av = v @ a_t
    asv = v @ astar_t
    return np.stack([v, av, asv, av @ a_t, asv @ a_t, av @ astar_t, asv @ astar_t], axis=2)


def _section_score(pencil: Pencil, v: np.ndarray) -> np.ndarray:
    """``sigma4`` for kernel vectors ``v`` (k, 4): the fourth singular value of :func:`_seven_columns`, normalized.

    Away from the eigenvectors of A the spans agree exactly where the
    dodecic's factor ``h = det[v, Av, A^2 v, A*^2 v]`` vanishes, but
    ``sigma4``, not ``h``, is the certificate: it also rejects the
    degenerate zeros of ``h`` at eigenvectors.
    """
    s7 = np.linalg.svd(_seven_columns(pencil, v), compute_uv=False)
    return s7[:, 3] / np.maximum(s7[:, 0], 1e-300)


def _certify_on_curve(pencil: Pencil, t, kernel: bool = False):
    """Membership test for the determinant curve at rank 3, for a (k, 3) stack of points.

    One stacked SVD decides every row: it fails when it is zero or not
    finite, ``sigma1 = 0``, ``sigma3 <= CERT_TOL*sigma1`` or ``sigma4 >
    CERT_TOL*sigma1``.  Returns ``(ok, t, v)``: the mask, the canonical
    rows and, with ``kernel=True`` only, their canonical kernel vectors.
    A failed row holds a placeholder.  Each row is divided by its largest
    modulus before its norm is taken, so nothing overflows.
    """
    t = np.asarray(t, dtype=complex)
    big = np.abs(t).max(axis=1)  # inf or nan on a row that is not finite
    ok = np.isfinite(big) & (big > 0)
    t = np.where(ok[:, None], t, 1.0) / np.where(ok, big, 1.0)[:, None]
    t = linalg.phase_fixed(t / np.sqrt(np.sum(t.real**2 + t.imag**2, axis=1))[:, None])
    svd = np.linalg.svd(pencil_matrix(pencil, t), compute_uv=kernel)
    s, v = (svd.S, linalg.phase_fixed(np.conj(svd.Vh[:, -1]))) if kernel else (svd, None)
    ok &= (s[:, 0] > 0) & (s[:, 2] > CERT_TOL * s[:, 0]) & (s[:, 3] <= CERT_TOL * s[:, 0])
    return ok, t, v


def _certify(pencil: Pencil, t) -> list[SectionCandidate | None]:
    """The flag-point certificate of each row of a (k, 3) stack: a :class:`SectionCandidate`, or None.

    A row certifies when it passes :func:`_certify_on_curve`, its kernel
    vector ``v`` spans a 2-dimensional ``span(v, Av, A*v)``, and the seven
    columns of :func:`_seven_columns` have ``sigma4 <= CERT_TOL``: the
    paper's rank condition.  ``shortcut`` marks a row where one of the two
    five-column closures already has rank 2.  Each test is one stacked SVD
    over the rows; an empty stack gives ``[]``.
    """
    ok, t, v = _certify_on_curve(pencil, t, kernel=True)
    seven = _seven_columns(pencil, v)
    sw = np.linalg.svd(seven[:, :, :3], compute_uv=False)
    ok &= (sw[:, 1] > CERT_TOL * sw[:, 0]) & (sw[:, 2] <= CERT_TOL * sw[:, 0])
    s = np.linalg.svd(seven, compute_uv=False)
    sigma4 = s[:, 3] / s[:, 0]
    ok &= sigma4 <= CERT_TOL
    closures = np.linalg.svd(seven[:, :, [[0, 1, 2, 3, 4], [0, 1, 2, 6, 5]]].transpose(0, 2, 1, 3), compute_uv=False)
    shortcut = np.any(closures[:, :, 2] <= CERT_TOL * closures[:, :, 0], axis=1)
    return [
        SectionCandidate(PencilPoint(t[i], v[i]), float(sigma4[i]), bool(shortcut[i])) if ok[i] else None
        for i in range(len(t))
    ]


def _distinguished_seeds(pencil: Pencil):
    """Pencil points carried by eigenvectors of A and of A*, as ``(t, v)`` pairs.

    An eigenvector of A with eigenvalue lam corresponds to the point
    [-lam : 1 : 0]; an eigenvector of A* with eigenvalue nu to
    [-nu : 0 : 1].  These always lie on the dependence curve; they are
    the bases ``mu = 0`` and ``mu = oo`` that the dodecic leaves out, and
    they carry the flag points of structured inputs (nilpotent blocks,
    invariant planes) where the dodecic vanishes identically.  Both halves
    come from the pencil's one eigen-decomposition (:attr:`Pencil.eigen`):
    ``v`` is the smallest right singular vector of ``A - lam*I`` for the
    points of A, and its smallest left singular vector, at ``nu =
    conj(lam)``, for those of A*; either way it is the pencil's kernel
    vector at ``t``.  The points of A come sorted by ``lam``, those of A*
    by ``nu``.
    """
    if pencil.eigen is None:
        return []
    lam, right, left = pencil.eigen
    nu = np.conj(lam)
    seeds = [(np.array([-lam[k], 1.0, 0.0]), right[:, k]) for k in range(len(lam))]
    seeds += [(np.array([-nu[k], 0.0, 1.0]), left[:, k]) for k in np.lexsort((nu.imag, nu.real))]
    return seeds


def _dodecic_values(pencil: Pencil, mu: np.ndarray) -> np.ndarray:
    """The dodecic ``R(mu)`` of :func:`_dodecic_roots` at each entry of ``mu``.

    One ``eig`` of the stack ``A + mu*A*`` and one ``det`` of the stack of
    span matrices ``[v, Av, A^2 v, A*^2 v]`` over every base (axis 0) and
    sheet (axis 1).
    """
    a, astar = pencil.a, pencil.astar
    lam, vecs = np.linalg.eig(a + mu[:, None, None] * astar)
    h = np.linalg.det(np.stack([vecs, a @ vecs, a @ a @ vecs, astar @ astar @ vecs], axis=-1).swapaxes(1, 2))
    gaps = lam[:, _PAIRS[0]] - lam[:, _PAIRS[1]]
    return np.prod(gaps, axis=1) ** 4 * np.prod(h, axis=1) / np.linalg.det(vecs) ** 4 / mu**8


def _coefficients(values: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the polynomial of degree below ``n`` with these ``n`` values at the roots of unity.

    The values at ``exp(2j*pi*k/n)``, ``k = 0..n-1``, are an inverse DFT of
    the coefficients.  Leading coefficients with ``|c| <= 1e-14 * max|c|``
    are dropped, and a polynomial that vanishes identically gives ``[0]``.
    """
    c = np.fft.fft(values) / len(values)
    top = np.max(np.abs(c))
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    d = c.size - 1
    while d > 0 and abs(c[d]) <= 1e-14 * top:
        d -= 1
    return c[: d + 1]


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
    ``mu = oo``.  So ``R = P / mu^8`` is a dodecic, recovered from 13
    samples on ``|mu| = 1``, all taken by one call of
    :func:`_dodecic_values`.  ``pencil`` must be that of a
    :func:`_centred` matrix (``tr A = 0``, ``||A||_2 = 1``), on which the
    samples are well scaled; the solver and :func:`section_zeros` pass
    one.

    The roots come from the companion matrix as 12 simple roots, since
    the flag points are generically distinct, and are returned
    best-conditioned first: by decreasing ``|R'(mu)| / sum_k |c_k||mu|^k``
    over the coefficients ``c_k`` of ``mu^k`` in ``R``, the inverse of the
    relative condition number of the root, with a stable sort.  A root
    where that sum is 0 or not finite (``mu = 0`` when ``c_0 = 0``) sorts
    last.
    Returns no roots when ``R`` is not finite or vanishes identically.
    """
    r = _coefficients(_dodecic_values(pencil, np.exp(2j * np.pi * np.arange(13) / 13)))
    if r.size <= 1 or not np.all(np.isfinite(r)):
        return np.empty(0, dtype=complex)
    mu = np.roots(r[::-1])
    k = np.arange(r.size)
    with np.errstate(all="ignore"):
        size = np.abs(mu)[:, None] ** k @ np.abs(r)
        proxy = np.abs(mu[:, None] ** k[:-1] @ (k[1:] * r[1:])) / size
    proxy[~((size > 0) & np.isfinite(size) & np.isfinite(proxy))] = -np.inf
    return mu[np.argsort(-proxy, kind="stable")]


def _refine_root(pencil: Pencil, mu: complex) -> complex:
    """A root of the dodecic, refined by secant steps on its direct values.

    :func:`_dodecic_values` is accurate to roundoff at any ``mu``, where
    the coefficients the root came from are not.  Starts from
    ``(mu*(1 + 1e-6), mu)``, takes at most ``SECANT_STEPS`` steps and
    returns the iterate with the smallest ``|R|``: once the iteration
    has converged, its further steps are roundoff noise.  Like
    :func:`_dodecic_roots`, it expects the pencil of a :func:`_centred`
    matrix.
    """
    x0, x1 = mu * (1 + 1e-6), mu
    f0, f1 = _dodecic_values(pencil, np.array([x0, x1]))
    best, best_f = (x1, abs(f1)) if abs(f1) <= abs(f0) else (x0, abs(f0))
    for _ in range(SECANT_STEPS):
        if f1 == f0 or not np.isfinite(f1):
            break
        x0, x1 = x1, x1 - f1 * (x1 - x0) / (f1 - f0)
        if not np.isfinite(x1):
            break
        f0, f1 = f1, _dodecic_values(pencil, np.array([x1]))[0]
        if abs(f1) < best_f:
            best, best_f = x1, abs(f1)
    return complex(best)


def _best_sheets(pencil: Pencil, mu: np.ndarray):
    """Over each base ``[1 : mu]`` the curve point with the smallest ``sigma4``.

    Returns the points ``[-lam : 1 : mu]``, normalized, as rows, and
    their ``sigma4``.
    """
    bases = np.column_stack([np.ones_like(mu), mu])
    bases /= np.linalg.norm(bases, axis=1, keepdims=True)
    lam, vecs = np.linalg.eig(bases[:, 0, None, None] * pencil.a + bases[:, 1, None, None] * pencil.astar)
    score = _section_score(pencil, vecs.transpose(0, 2, 1).reshape(-1, 4)).reshape(-1, 4)
    rows = np.arange(mu.size)
    sheet = np.argmin(score, axis=1)
    return np.column_stack([-lam[rows, sheet], bases]), score[rows, sheet]


def _flag_points(pencil: Pencil):
    """The certified flag-point candidates, one at a time.

    First the eigenvector points of A and A* that certify as they are,
    then the roots of the dodecic: over each root the sheet with the
    smallest ``sigma4`` goes to :func:`_certify` as it is.  Only when that
    rejects it is the root refined on the dodecic (:func:`_refine_root`;
    a root at ``mu = 0`` is not) and the best sheet over the refined root
    certified instead.  The eigenvector points are screened by one
    batched ``sigma4`` of their kernel vectors, and only those at or below
    ``sqrt(CERT_TOL)`` go on, as one stack, to :func:`_certify`, which
    would reject the others anyway.  Of the three best-conditioned roots
    (the first three of :func:`_dodecic_roots`) the one whose best sheet
    has the smallest ``sigma4`` is certified alone; the other 11 follow
    as one stack, sorted by ``sigma4``.  Deterministic, and lazy: the
    dodecic is formed only when the eigenvector points have been
    consumed, and the sheets over the other nine roots only when the
    first root has.  ``pencil`` is that of a :func:`_centred` matrix, as
    :func:`_dodecic_roots` requires.
    """
    seeds = _distinguished_seeds(pencil)
    if seeds:
        score = _section_score(pencil, np.array([v for _, v in seeds]))
        screened = [t for (t, _), s in zip(seeds, score) if s <= np.sqrt(CERT_TOL)]
        if screened:
            yield from (cand for cand in _certify(pencil, np.array(screened)) if cand is not None)
    mu = _dodecic_roots(pencil)
    if mu.size == 0:
        return
    points, score = _best_sheets(pencil, mu[:_FIRST_ROOTS])
    best = int(np.argmin(score))
    yield from _certified_roots(pencil, mu[[best]], points[[best]])
    more_points, more_score = _best_sheets(pencil, mu[_FIRST_ROOTS:])
    points, score = np.concatenate([points, more_points]), np.concatenate([score, more_score])
    order = np.argsort(score)
    order = order[order != best]
    yield from _certified_roots(pencil, mu[order], points[order])


def _certified_roots(pencil: Pencil, mu: np.ndarray, points: np.ndarray):
    """The certified points among the best sheets ``points`` over the roots ``mu``, certified as one stack.

    A rejected root is refined on the dodecic (:func:`_refine_root`; a
    root at ``mu = 0`` is not) and the best sheet over the refined root
    certified instead.
    """
    for m, cand in zip(mu, _certify(pencil, points)):
        if cand is None and m != 0:
            refined, _ = _best_sheets(pencil, np.array([_refine_root(pencil, m)]))
            (cand,) = _certify(pencil, refined)
        if cand is not None:
            yield cand


def _centred(a: np.ndarray):
    """``(C, scale, shift)``: ``C = (A - shift*I)/scale``, ``shift = tr(A)/n``, ``||C||_2 = 1``.

    ``C`` has the tridiagonalizing unitaries, curves, flag points and rank
    drops of ``A`` (points with ``t0`` moved, see :func:`_unscale_point`).
    """
    n = a.shape[0]
    shift = np.sum(np.diag(a) / n)
    c = a - shift * np.eye(n)
    scale = linalg.matrix_norm(c) or 1.0
    return c / scale, scale, shift


def _unscale_point(t, scale: float, shift: complex = 0.0) -> np.ndarray:
    """A point ``[t0 : t1 : t2]`` on the pencil of ``(A - shift*I)/scale``, moved to the pencil of ``A``.

    It is ``[scale*t0 - shift*t1 - conj(shift)*t2 : t1 : t2]`` there,
    formed with every coefficient divided by ``max(scale, |shift|, 1)``
    so that no term can overflow, and then brought to largest modulus 1
    so that its norm cannot underflow.
    """
    m = max(scale, abs(shift), 1.0)
    w = np.array([(scale / m) * t[0] - (shift / m) * t[1] - (np.conj(shift) / m) * t[2], t[1] / m, t[2] / m])
    return canonical_projective(w / np.max(np.abs(w)))


def section_zeros(pencil: Pencil):
    """All certified flag points of the pencil, sorted by their sigma4.

    Collects :func:`_flag_points`: the eigenvector points of A and A*
    that certify, and the roots of the dodecic, each kept only when it
    passes :func:`_certify` (on-curve, 2-dimensional span, ``sigma4``
    below ``CERT_TOL``).  Points within projective distance
    ``DEDUPE_TOL`` of each other count once, with the smaller
    ``sigma4``: in that order, one Gram matrix of the points decides
    whether a point is near one kept before it.  On a generic matrix the
    result has exactly 12 entries.  The points are found on
    the matrix of :func:`_centred` and mapped back to the pencil of ``A``,
    so the count depends on neither the scale nor the shift of ``A``.
    The result is empty when nothing certifies, as on degenerate inputs.
    """
    c, scale, shift = _centred(pencil.a)
    cands = sorted(_flag_points(Pencil(c)), key=lambda z: (z.sigma4, tuple(np.round(z.point.t, 9).view(float))))
    t = np.array([z.point.t for z in cands]).reshape(-1, 3)
    near = np.abs(t @ np.conj(t).T) ** 2 > 1 - DEDUPE_TOL**2
    kept: list[int] = []
    for i in range(len(cands)):
        if not near[i, kept].any():
            kept.append(i)
    # only t moves to the pencil of A: v and the residuals stay
    kept_cands = [cands[i] for i in kept]
    return [replace(z, point=replace(z.point, t=_unscale_point(z.point.t, scale, shift))) for z in kept_cands]
