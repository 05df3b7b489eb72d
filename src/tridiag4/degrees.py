"""Counting experiments for the curves behind the construction.

Three counts are reproduced numerically: a random projective line meets
the determinant curve in 4 points (its degree), a random hyperplane
meets the kernel curve in 6 points, and the certified flag points are
12 in number.  Each count is of points found by one eigen-solve and
certified one by one: the eigenvalues of a 4x4 eigenproblem per line,
the roots of the hyperplane's Krylov sextic over the base line, and the
roots of the flag-point dodecic there (the roots the solver takes its
flags from, see :mod:`tridiag4.pencil`).  All run on ``A/||A||_2``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NoSectionZero, UnstableCountWarning
from .genericity import _krylov_roots, classify
from .pencil import (
    CERT_TOL,
    Pencil,
    _certify_on_curve,
    _unscale_point,
    curve_residual,
    pencil_matrix,
    section_zeros,
)


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


def _modal(counts):
    """The most frequent count (ties to the larger) and the tally ``{count: frequency}``."""
    values, freq = np.unique(counts, return_counts=True)
    tally = dict(zip(values.tolist(), freq.tolist()))
    return max(tally, key=lambda c: (tally[c], c)), tally


def degree_of_det_curve(pencil: Pencil, lines: int = 10, seed: int = 0) -> int:
    """Intersection count of the determinant curve with random lines.

    A random line ``t(s) = p + s q`` meets the curve where
    ``det(P + s Q) = 0``, with ``P`` and ``Q`` the pencil matrices at ``p``
    and ``q``: at the eigenvalues of ``-Q^{-1} P``.  The count of a line is
    the number of those points that pass the on-curve certificate, taken
    on ``A/||A||_2`` so that it does not depend on the scale of ``A``.
    Reports the modal count over the lines and warns when they disagree.
    """
    unit = Pencil(pencil.a / (pencil.norm or 1.0))
    rng = np.random.default_rng([seed, 11])
    counts = []
    for _ in range(lines):
        p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p /= np.linalg.norm(p)
        q /= np.linalg.norm(q)
        s = np.linalg.eigvals(np.linalg.solve(pencil_matrix(unit, q), -pencil_matrix(unit, p)))
        counts.append(sum(_certify_on_curve(unit, p + sk * q) is not None for sk in s))
    modal, tally = _modal(counts)
    if len(tally) > 1:
        warnings.warn(f"line counts disagree: {tally}", UnstableCountWarning, stacklevel=2)
    return modal


def _hyperplane_points(pencil: Pencil, ell: np.ndarray):
    """Certified points of the kernel curve on the hyperplane ``ell . v = 0``.

    Over a base ``[1 : mu]`` the curve's points are the eigenvectors of
    ``N = A + mu*A*``, and one of them lies on the hyperplane exactly when
    ``ell`` is not a cyclic vector of ``N^T``: a root of the Krylov sextic
    of ``ell`` under ``N^T = A^T + mu*conj(A)``.  A degree drop of the
    sextic puts the missing roots, with that multiplicity, at the base
    ``[0 : 1]``.  A root counts only when an eigenvector ``v`` of ``N``
    there passes the on-curve certificate with
    ``curve_residual <= CERT_TOL`` and ``|ell . v| <= CERT_TOL``.  All of
    this runs on ``A/||A||_2``, and each point is mapped back to the
    pencil of ``A``.

    Returns ``(t, v, multiplicity)`` per certified base, ``ell`` unit.
    """
    scale = pencil.norm or 1.0
    unit = Pencil(pencil.a / scale)
    k, mus = _krylov_roots(unit.a.T, np.conj(unit.a), ell)
    bases = [(np.array([1.0, mu]) / np.linalg.norm([1.0, mu]), 1) for mu in mus]
    if k.size < 7:
        bases.append((np.array([0.0, 1.0]), 7 - k.size))
    points = []
    for b, mult in bases:
        passing = []
        for lam in np.linalg.eigvals(b[0] * unit.a + b[1] * unit.astar):
            on_curve = _certify_on_curve(unit, np.array([-lam, b[0], b[1]]))
            if on_curve is not None and curve_residual(unit, on_curve[1]) <= CERT_TOL:
                passing.append((abs(np.dot(ell, on_curve[1])), *on_curve))
        value, t, v = min(passing, key=lambda p: p[0], default=(np.inf, None, None))
        if value <= CERT_TOL:
            points.append((_unscale_point(t, scale), v, mult))
    return points


def degree_of_kernel_curve(pencil: Pencil, hyperplane=None, seed: int = 0) -> int:
    """Intersection count of the kernel curve with a hyperplane.

    Counts the certified roots of the hyperplane's Krylov sextic (see
    :func:`_hyperplane_points`); a tangential contact is a double root,
    which the companion matrix returns as two roots, so it counts twice.
    With ``hyperplane=None`` a random one is drawn from ``seed``.
    """
    if hyperplane is None:
        rng = np.random.default_rng([seed, 13])
        ell = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    else:
        ell = np.asarray(hyperplane, dtype=complex).reshape(4)
    ell = ell / np.linalg.norm(ell)
    return sum(m for _, _, m in _hyperplane_points(pencil, ell))


def section_zero_count(pencil: Pencil) -> int:
    """Number of certified flag points: the certified roots of the dodecic.

    Counts what :func:`pencil.section_zeros` returns, 0 when nothing
    certifies.
    """
    try:
        return len(section_zeros(pencil))
    except NoSectionZero:
        return 0


def run_experiments(a, trials: int = 1, seed: int = 42, screen: bool = True) -> DegreeReport:
    """All three counting experiments for one matrix.

    Each trial redraws the random lines and hyperplane.  With
    ``screen=True`` matrices outside the generic regime (common
    eigenvectors, rank-deficient pencil) skip the experiments with a
    notice, since the counts are only meaningful on the generic set.
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

    zeros = section_zero_count(pencil)
    detail = [
        {
            "trial": k,
            "deg_D": degree_of_det_curve(pencil, lines=10, seed=seed + 1000 * k),
            "deg_C": degree_of_kernel_curve(pencil, seed=seed + 1000 * k),
            "section_zeros": zeros,
        }
        for k in range(trials)
    ]
    return DegreeReport(
        deg_det_curve=_modal([d["deg_D"] for d in detail])[0],
        deg_kernel_curve=_modal([d["deg_C"] for d in detail])[0],
        section_zero_count=zeros,
        trials=trials,
        per_trial_detail=detail,
    )
