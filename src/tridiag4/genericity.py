"""Classify whether a 4x4 matrix admits the direct curve construction.

The direct path needs three open conditions: the matrix is nonsingular,
its eigenvalues are distinct, and the pencil ``t0*I + t1*A + t2*A*``
never drops to rank <= 2 for nonzero t.  The rank condition is decided
by enumerating the finitely many candidate points where both the
pencil determinant and the trace of its third exterior power vanish
(rank <= 2 forces both), then certifying each candidate with an SVD.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg, polyroots
from .errors import ConvergenceFailure, DegenerateResultant
from .pencil import Pencil, _fibers, _refine_seeds, _sweep_bases, pencil_matrix

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
    """True iff the smallest pairwise eigenvalue gap exceeds tol * ||a||."""
    m = linalg.as_matrix(a)
    lam = np.linalg.eigvals(m)
    scale = max(linalg.matrix_norm(m), 1e-300)
    gaps = [
        abs(lam[i] - lam[j]) for i in range(lam.size) for j in range(i + 1, lam.size)
    ]
    return bool(min(gaps) > tol * scale) if gaps else True


# ---------------------------------------------------------------------------
# homogeneous forms of the pencil, expanded exactly by multilinearity


def _det_form(pencil: Pencil) -> dict:
    """Coefficients of det(t0 I + t1 A + t2 A*) as {(i,j,k): coeff}."""
    gens = pencil.generators
    mats = []
    expos = []
    for choice in itertools.product(range(3), repeat=4):
        cols = [gens[c][:, j] for j, c in enumerate(choice)]
        mats.append(np.column_stack(cols))
        expos.append(tuple(choice.count(var) for var in range(3)))
    dets = np.linalg.det(np.stack(mats))
    form: dict = {}
    for e, d in zip(expos, dets):
        form[e] = form.get(e, 0j) + d
    return form


def _wedge3_trace_form(pencil: Pencil) -> dict:
    """Coefficients of the sum of principal 3x3 minors of the pencil."""
    gens = pencil.generators
    form: dict = {}
    for subset in itertools.combinations(range(4), 3):
        idx = np.array(subset)
        subgens = [g[np.ix_(idx, idx)] for g in gens]
        mats = []
        expos = []
        for choice in itertools.product(range(3), repeat=3):
            cols = [subgens[c][:, j] for j, c in enumerate(choice)]
            mats.append(np.column_stack(cols))
            expos.append(tuple(choice.count(var) for var in range(3)))
        dets = np.linalg.det(np.stack(mats))
        for e, d in zip(expos, dets):
            form[e] = form.get(e, 0j) + d
    return form


def _chart_restrict(form: dict, chart: int) -> np.ndarray:
    """Bivariate coefficient array of the form with t[chart] = 1."""
    rest = [i for i in range(3) if i != chart]
    degree = sum(next(iter(form)))
    out = np.zeros((degree + 1, degree + 1), dtype=complex)
    for expo, coeff in form.items():
        out[expo[rest[0]], expo[rest[1]]] += coeff
    return out


def _univariate_in_x(c: np.ndarray, y: complex) -> np.ndarray:
    yp = y ** np.arange(c.shape[1])
    return polyroots.trim(c @ yp)


def _chart_candidates(p: np.ndarray, q: np.ndarray, match_tol: float = 1e-6):
    """Common zeros (x, y) of two chart polynomials via resultant elimination.

    Eliminates x by the Sylvester resultant, roots the result in y, and
    matches the x-roots of both polynomials over each y.  Degenerate
    resultants (shared components) propagate to the caller.
    """
    res = polyroots.resultant(p, q, eliminate=0)
    if res.size <= 1:
        return []
    out = []
    scale_p = max(1.0, float(np.max(np.abs(p))))
    scale_q = max(1.0, float(np.max(np.abs(q))))
    for y_star, _ in polyroots.roots(res):
        px = _univariate_in_x(p, y_star)
        qx = _univariate_in_x(q, y_star)
        px_zero = px.size == 1 and abs(px[0]) <= 1e-9 * scale_p
        qx_zero = qx.size == 1 and abs(qx[0]) <= 1e-9 * scale_q
        if px_zero and qx_zero:
            continue  # shared line through y_star; certified elsewhere
        if px_zero or qx_zero:
            lone = qx if px_zero else px
            if lone.size > 1:
                out.extend((r, y_star) for r, _ in polyroots.roots(lone))
            continue
        if px.size <= 1 or qx.size <= 1:
            continue
        rq = [r for r, _ in polyroots.roots(qx)]
        for xp, _ in polyroots.roots(px):
            if any(abs(xp - xq) <= match_tol * (1.0 + abs(xp)) for xq in rq):
                out.append((xp, y_star))
    return out


def _grid_fallback(pencil: Pencil, seed: int = 0):
    """Heuristic minimum of sigma3/sigma1 over the determinant curve.

    Used when the resultant route degenerates (the two forms share a
    whole component, e.g. for normal matrices with repeated
    eigenvalues).  Samples the curve through its base-line fibration,
    the two coordinate axes included, and descends from the best sample
    with the curve search's seed refinement.
    """
    floor = max(pencil.norm, 1.0)

    def ratio(v, s):
        r = s[:, 2] / np.maximum(s[:, 0], 1e-300 * floor)
        return np.where(s[:, 0] <= 1e-14 * floor, 0.0, r)

    bases, _ = _sweep_bases(1024, np.random.default_rng(seed))
    t, v, s, _ = _fibers(pencil, np.vstack([bases, np.eye(2, dtype=complex)]))
    best = int(np.argmin(ratio(v, s)))
    t_best, r_best = _refine_seeds(pencil, t[best : best + 1], ratio, rounds=30, radius=0.3)
    return float(r_best[0]), linalg.canonical_projective(t_best[0])


def check_pencil_rank(a, tol: float = RANK_CERT_TOL, seed: int = 0):
    """Decide whether the pencil keeps rank >= 3 away from t = 0.

    Returns ``(ok, witness)``; on failure the witness is a projective
    point where the pencil has rank <= 2 (certified by its singular
    values, so there are no false witnesses).
    """
    pencil = Pencil(linalg.as_matrix(a))
    det_form = _det_form(pencil)
    trace_form = _wedge3_trace_form(pencil)

    candidates: list[np.ndarray] = []
    degenerate = False
    for chart in range(3):
        p = _chart_restrict(det_form, chart)
        q = _chart_restrict(trace_form, chart)
        try:
            for pt in _chart_candidates(p, q):
                t = np.ones(3, dtype=complex)
                rest = [i for i in range(3) if i != chart]
                t[rest[0]], t[rest[1]] = pt
                candidates.append(linalg.canonical_projective(t))
        except (DegenerateResultant, ConvergenceFailure):
            degenerate = True
            break

    if degenerate:
        ratio, witness = _grid_fallback(pencil, seed)
        if ratio <= tol:
            return False, witness
        return True, None

    for t in candidates:
        s = np.linalg.svd(pencil_matrix(pencil, t), compute_uv=False)
        if s[0] <= 1e-14 * max(pencil.norm, 1.0) or s[2] <= tol * s[0]:
            return False, t
    return True, None


def common_eigenvectors(a, tol: float = 1e-8):
    """Eigenvectors of A that are simultaneously eigenvectors of A*.

    Tests ``||A* v - mu v|| <= tol * ||A||`` with ``mu = v* A* v`` for
    every eigenvector v of A; duplicates (from repeated eigenvalues) are
    removed projectively.
    """
    m = linalg.as_matrix(a)
    astar = linalg.adjoint(m)
    scale = max(linalg.matrix_norm(m), 1e-300)
    found: list[np.ndarray] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            pairs = linalg.eigen(m)
        except ConvergenceFailure:
            return []
    for _, v in pairs:
        mu = np.vdot(v, astar @ v)
        if np.linalg.norm(astar @ v - mu * v) <= tol * scale:
            cv = linalg.canonical_projective(v)
            if all(linalg.projective_distance(cv, u) > 1e-8 for u in found):
                found.append(cv)
    return found


def classify(a, tol_rank: float = 1e-10, tol_gap: float = 1e-8, seed: int = 0) -> GenericityReport:
    """Run every genericity test and assemble the report."""
    m = linalg.as_matrix(a)
    s1 = check_nonsingular(m, tol_rank)
    s2 = check_distinct_eigenvalues(m, tol_gap)
    s3, witness = check_pencil_rank(m, seed=seed)
    common = common_eigenvectors(m)

    notes = []
    if not s1:
        sv = np.linalg.svd(m, compute_uv=False)
        notes.append(f"singular: sigma_min/sigma_max = {sv[-1] / max(sv[0], 1e-300):.2e}")
    if not s2:
        lam = np.linalg.eigvals(m)
        gaps = [abs(lam[i] - lam[j]) for i in range(4) for j in range(i + 1, 4)]
        notes.append(f"repeated eigenvalues: min gap = {min(gaps):.2e}")
    if not s3 and witness is not None:
        sv = np.linalg.svd(pencil_matrix(Pencil(m), witness), compute_uv=False)
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
