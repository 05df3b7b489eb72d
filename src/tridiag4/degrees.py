"""Counting experiments for the curves behind the construction.

Three counts are reproduced numerically: a random projective line meets
the determinant curve in 4 points (its degree), a random hyperplane
meets the kernel curve in 6 points, and the certified flag points are
at most 12 in number.  The last two counts come from the one curve
search the solver uses (``pencil._search``), with the hyperplane value
or the flag-point certificate as its objective, so they double as an
end-to-end stress test.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import linalg, polyroots
from .errors import RankDeficientPencil, UnstableCountWarning
from .genericity import classify
from .pencil import (
    CERT_TOL,
    RANK_TOL,
    Pencil,
    PencilPoint,
    SectionCandidate,
    SectionOptions,
    _certify_on_curve,
    _chart_setup,
    _Objective,
    _search,
    curve_residual,
    pencil_matrix,
    section_zeros,
)
from .linalg import adjugate


@dataclass
class DegreeReport:
    deg_det_curve: int | None
    deg_kernel_curve: int | None
    section_zero_count: int | None
    trials: int
    per_trial_detail: list = field(default_factory=list)
    skipped: bool = False
    notice: str = ""

    def as_dict(self):
        return {
            "deg_D": self.deg_det_curve,
            "deg_C": self.deg_kernel_curve,
            "section_zeros": self.section_zero_count,
            "trials": self.trials,
            "per_trial_detail": self.per_trial_detail,
            "skipped": self.skipped,
            "notice": self.notice,
        }


def degree_of_det_curve(pencil: Pencil, lines: int = 10, seed: int = 0) -> int:
    """Intersection count of the determinant curve with random lines.

    Substitutes a random line ``t(s) = p + s q`` into the quartic
    ``det(t0 I + t1 A + t2 A*)`` and counts roots with multiplicity
    (the trimmed degree of the restriction).  Reports the modal count
    over the lines and warns when they disagree.
    """
    rng = np.random.default_rng([seed, 11])
    counts = []
    for _ in range(lines):
        p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p /= np.linalg.norm(p)
        q /= np.linalg.norm(q)

        def det_at(t):
            return np.linalg.det(pencil_matrix(pencil, t))

        coeffs = polyroots.trim(polyroots.restrict_to_line(det_at, p, q, 4))
        count = sum(mult for _, mult in polyroots.roots(coeffs)) if coeffs.size > 1 else 0
        counts.append(count)
    values, freq = np.unique(counts, return_counts=True)
    modal = int(max(zip(freq, values))[1])  # ties resolve to the larger count
    if len(values) > 1:
        warnings.warn(
            f"line counts disagree: {dict(zip(values.tolist(), freq.tolist()))}",
            UnstableCountWarning,
            stacklevel=2,
        )
    return modal


def _hyperplane_second(ell: np.ndarray):
    """Second Newton equation for hyperplane sections of the kernel curve."""

    def make(m0, w):
        v0 = adjugate(m0) @ w
        scale = float(np.linalg.norm(v0) * np.linalg.norm(ell))
        if not np.isfinite(scale) or scale <= 1e-280:
            return None, None, False

        def value(v):
            return complex(np.dot(ell, v) / scale)

        def row(v, dv_a, dv_b):
            return complex(np.dot(ell, dv_a) / scale), complex(np.dot(ell, dv_b) / scale)

        return value, row, True

    return make


def _tangent_multiplicity(pencil: Pencil, t, ell, tol: float = 1e-6) -> int:
    """2 when the hyperplane meets the curve tangentially at t, else 1.

    The derivative of the hyperplane value along the curve's tangent
    direction (the kernel of the determinant gradient in the chart)
    vanishes at a tangential intersection.
    """
    t = np.asarray(t, dtype=complex)
    k, free, s0, pk, pa, pb = _chart_setup(pencil, t)
    m = pk + s0[0] * pa + s0[1] * pb
    adj = adjugate(m)
    u, sv, _ = np.linalg.svd(m)
    if sv[2] <= 1e-8 * sv[0]:
        return 1
    w = np.conj(u[:, -1])
    grad = np.array([np.trace(adj @ pa), np.trace(adj @ pb)])
    gn = np.linalg.norm(grad)
    if gn <= 1e-300:
        return 1
    tau = np.array([-grad[1], grad[0]]) / gn
    dv = (linalg.adjugate_directional(m, tau[0] * pa + tau[1] * pb)) @ w
    num = abs(np.dot(ell, dv))
    den = np.linalg.norm(ell) * np.linalg.norm(dv)
    if den <= 1e-300:
        return 1
    return 2 if num / den <= tol else 1


def _kernel_curve_zeros(pencil: Pencil, ell: np.ndarray, opts: SectionOptions):
    """Certified intersection points of the kernel curve with a hyperplane.

    Runs the flag-point search engine with the hyperplane value
    ``ell . v`` as its objective.  Returns ``(t, v, multiplicity)`` per
    intersection point.
    """
    ell_norm = np.linalg.norm(ell)

    def score(v, s):
        rank_bad = s[:, 2] <= RANK_TOL * s[:, 0]
        return np.where(rank_bad, np.inf, np.abs(v @ ell) / ell_norm)

    def certify(t):
        on_curve = _certify_on_curve(pencil, t)
        if on_curve is None:
            return None
        t_c, v = on_curve
        value = complex(np.dot(ell, v) / ell_norm)
        if curve_residual(pencil, v) > CERT_TOL or abs(value) > CERT_TOL:
            return None
        return SectionCandidate(point=PencilPoint(t=t_c, v=v), span_det=value, sigma4=abs(value))

    found = _search(pencil, _Objective(score, _hyperplane_second(ell), certify), opts)
    return [(c.point.t, c.point.v, _tangent_multiplicity(pencil, c.point.t, ell)) for c in found]


def degree_of_kernel_curve(
    pencil: Pencil,
    hyperplane=None,
    opts: SectionOptions | None = None,
    seed: int = 0,
    retries: int = 1,
) -> int:
    """Intersection count of the kernel curve with a hyperplane.

    Runs the curve search on ``(det curve, hyperplane value)``
    and counts certified intersection points, with tangential contacts
    counted twice.  With ``hyperplane=None`` a random one is drawn per
    retry; disagreeing retries raise an :class:`UnstableCountWarning`
    and the modal count is returned.
    """
    if opts is None:
        opts = SectionOptions(samples=1440, restarts=48, seed=seed)
    rng = np.random.default_rng([seed, 13])
    counts = []
    for r in range(retries if hyperplane is None else 1):
        if hyperplane is None:
            ell = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            ell /= np.linalg.norm(ell)
        else:
            ell = np.asarray(hyperplane, dtype=complex).reshape(4)
        zeros = _kernel_curve_zeros(pencil, ell, opts)
        counts.append(sum(m for _, _, m in zeros))
    values, freq = np.unique(counts, return_counts=True)
    modal = int(max(zip(freq, values))[1])  # ties resolve to the larger count
    if len(values) > 1:
        warnings.warn(
            f"hyperplane counts disagree: {dict(zip(values.tolist(), freq.tolist()))}",
            UnstableCountWarning,
            stacklevel=2,
        )
    return modal


def section_zero_count(pencil: Pencil, opts: SectionOptions | None = None) -> int:
    """Number of certified flag points under exhaustive sweep settings."""
    if opts is None:
        opts = SectionOptions(
            samples=2880,
            restarts=64,
            stop_after_first=False,
            stop_on_shortcut=False,
        )
    try:
        return len(section_zeros(pencil, opts))
    except RankDeficientPencil:
        return 0


def _worker_count(trials: int) -> int:
    env = os.environ.get("TRIDIAG_THREADS", "1")
    try:
        cap = max(1, int(env))
    except ValueError:
        cap = 1
    return min(cap, trials)


def run_experiments(a, trials: int = 1, seed: int = 42, screen: bool = True) -> DegreeReport:
    """All three counting experiments for one matrix.

    Each trial redraws the random lines and hyperplane.  With
    ``screen=True`` matrices outside the generic regime (common
    eigenvectors, rank-deficient pencil) skip the experiments with a
    notice, since the counts are only meaningful on the generic set.
    The ``TRIDIAG_THREADS`` environment variable caps the worker threads
    used across trials.
    """
    a = linalg.as_matrix(a)
    pencil = Pencil(a)
    if screen:
        report = classify(a, seed=seed)
        if report.common_eigenvectors or not report.in_generic_set:
            return DegreeReport(
                deg_det_curve=None,
                deg_kernel_curve=None,
                section_zero_count=None,
                trials=0,
                skipped=True,
                notice=f"input outside the generic regime, experiments skipped ({report.details})",
            )

    def one_trial(k: int):
        deg_d = degree_of_det_curve(pencil, lines=10, seed=seed + 1000 * k)
        deg_c = degree_of_kernel_curve(pencil, seed=seed + 1000 * k)
        return {"trial": k, "deg_D": deg_d, "deg_C": deg_c}

    workers = _worker_count(trials)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            detail = list(pool.map(one_trial, range(trials)))
    else:
        detail = [one_trial(k) for k in range(trials)]

    zeros = section_zero_count(pencil)
    for d in detail:
        d["section_zeros"] = zeros

    d_counts = [d["deg_D"] for d in detail]
    c_counts = [d["deg_C"] for d in detail]
    values_d, freq_d = np.unique(d_counts, return_counts=True)
    values_c, freq_c = np.unique(c_counts, return_counts=True)
    return DegreeReport(
        deg_det_curve=int(max(zip(freq_d, values_d))[1]),
        deg_kernel_curve=int(max(zip(freq_c, values_c))[1]),
        section_zero_count=zeros,
        trials=trials,
        per_trial_detail=detail,
    )
