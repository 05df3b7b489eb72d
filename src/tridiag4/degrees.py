"""Counting experiments for the curves behind the construction.

Three counts are reproduced numerically: a random projective line meets
the determinant curve in 4 points (its degree), a random hyperplane
meets the kernel curve in 6 points, and the flag points whose flags
pass the solver's gate are 12 in number.  Each count is of points
found by one eigen-solve: the eigenvalues of a 4x4 eigenproblem per
line, the roots of the hyperplane's Krylov sextic over the base line,
and the roots of the flag-point dodecic there.  The base line lives in
:mod:`tridiag4.pencil`: the sextic (:func:`pencil._krylov_roots`,
sampled on ``pencil._CIRCLE``) and the curve points over its roots
(:func:`pencil._base_points`) come from there, and this module imports
only ``_classify`` from :mod:`tridiag4.genericity`.  The first two
certify all of their points as one stack: the determinant-curve count
by the cofactor bound of :func:`pencil._cofactor_bound`, with an SVD
only of the points it leaves open, the kernel-curve count by one
stacked SVD, whose kernel vectors it reads.  All read the caller's
centred and normalized ``A`` (:attr:`Pencil.unit`), so no count depends
on its scale or shift.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import UnstableCountWarning
from .genericity import _classify
from .pencil import (
    CERT_TOL,
    Pencil,
    _base_points,
    _certify_on_curve,
    _krylov_roots,
    _unscale_point,
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
    """The most frequent count (ties to the larger) and the ascending tally ``{count: frequency}``."""
    tally = {c: f for c, f in enumerate(np.bincount(counts).tolist()) if f}
    return max(tally, key=lambda c: (tally[c], c)), tally


def degree_of_det_curve(pencil: Pencil, lines: int = 10, seed: int = 0) -> int:
    """Intersection count of the determinant curve with random lines.

    A random line ``t(s) = p + s q`` meets the curve where
    ``det(P + s Q) = 0``, with ``P`` and ``Q`` the pencil matrices at ``p``
    and ``q``: at the eigenvalues of ``-Q^{-1} P``.  The count of a line is
    the number of those points that pass the on-curve certificate, taken
    on the centred and normalized ``A`` so that it depends on neither its
    scale nor its shift; the unit ``q`` and ``p`` of all lines are
    normalized as one stack, and their ``Q`` and ``P`` built as one,
    solved as one and certified as one: by the cofactor bound
    (:func:`pencil._cofactor_bound`), with one SVD of the points it leaves
    open and none when it leaves none, as on a Gaussian.  Reports the modal count over
    the lines and warns when they disagree.  ``lines`` and ``seed`` are
    Python or numpy integers (not ``bool``), ``lines >= 1`` and ``seed >=
    0``; ``ValueError`` otherwise, or when the pencil is not 4x4.
    """
    lines, seed = linalg.as_integer("lines", lines, 1), linalg.as_integer("seed", seed, 0)
    # per line, in this order: p real, p imag, q real, q imag
    z = np.random.default_rng([seed, 11]).standard_normal((lines, 4, 3))
    # the unit q of every line, then its unit p: one stack, normalized row by row
    w = (z[:, 2::-2] + 1j * z[:, 3::-2]).swapaxes(0, 1).reshape(-1, 3)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    q, p = w[:lines], w[lines:]
    qp = pencil_matrix(pencil.unit, w)
    s = np.linalg.eigvals(np.linalg.solve(qp[:lines], -qp[lines:]))
    ok = _certify_on_curve(pencil.unit, (p[:, None] + s[:, :, None] * q[:, None]).reshape(-1, 3))[0]
    modal, tally = _modal(ok.reshape(lines, 4).sum(axis=1))
    if len(tally) > 1:
        warnings.warn(f"line counts disagree: {tally}", UnstableCountWarning, stacklevel=2)
    return modal


def _hyperplane_points(pencil: Pencil, ell: np.ndarray):
    """Certified points of the kernel curve on the hyperplane ``ell . v = 0``.

    Over a base ``[1 : mu]`` the curve's points are the eigenvectors of
    ``N = A + mu*A*`` (:func:`pencil._base_points`), and one of them lies
    on the hyperplane exactly when ``ell`` is not a cyclic vector of
    ``N^T``: a root of the Krylov sextic (:func:`pencil._krylov_roots`) of
    ``ell`` under ``N^T = A^T + mu*conj(A)``.  A degree drop of the
    sextic puts each missing root at the base ``[0 : 1]``, a row of its
    own.  A root counts only when an eigenvector ``v`` of ``N`` there
    passes the on-curve certificate, which makes ``v, Av, A*v``
    dependent, and has ``|ell . v| <= CERT_TOL``, all certified as one
    stack.  This runs on the centred and normalized ``A``, and the points
    are mapped back to the pencil of ``A`` as one stack.

    Returns a ``(t, v)`` pair per certified root, ``ell`` unit.
    """
    _, scale, shift = pencil.centred
    unit = pencil.unit
    k, mu = _krylov_roots(unit.a.T, np.conj(unit.a), ell)
    # each root that a degree drop takes from the sextic sits at [0 : 1]
    bases = np.vstack([np.column_stack([np.ones_like(mu), mu]), np.tile([0.0, 1.0], (7 - k.size, 1))])
    ok, t, v = _certify_on_curve(unit, _base_points(unit, bases)[0].reshape(-1, 3), kernel=True)
    value = np.where(ok, np.abs(v @ ell), np.inf).reshape(-1, 4)
    best = 4 * np.arange(len(bases)) + np.argmin(value, axis=1)
    rows = best[value.flat[best] <= CERT_TOL]
    return list(zip(_unscale_point(t[rows], scale, shift), v[rows]))


def degree_of_kernel_curve(pencil: Pencil, seed: int = 0) -> int:
    """Intersection count of the kernel curve with a random hyperplane, drawn from ``seed``.

    Counts the certified roots of the hyperplane's Krylov sextic (see
    :func:`_hyperplane_points`); a tangential contact is a double root,
    which the companion matrix returns as two roots, so it counts twice.
    ``seed`` is a Python or numpy integer (not ``bool``) of at least 0;
    ``ValueError`` otherwise.
    """
    rng = np.random.default_rng([linalg.as_integer("seed", seed, 0), 13])
    ell = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return len(_hyperplane_points(pencil, ell / np.linalg.norm(ell)))


def run_experiments(a, trials: int = 1, seed: int = 42, screen: bool = True) -> DegreeReport:
    """All three counting experiments for one matrix.

    Each trial redraws the random lines and hyperplane.  With
    ``screen=True`` matrices outside the generic regime (common
    eigenvectors, rank-deficient pencil) skip the experiments with a
    notice, since the counts are only meaningful on the generic set.
    One :class:`Pencil` serves the screen and all three counts.
    ``trials`` and ``seed`` are Python or numpy integers (not ``bool``),
    ``trials >= 1`` and ``seed >= 0``; ``ValueError`` otherwise, or when
    ``A`` is not 4x4.
    """
    trials, seed = linalg.as_integer("trials", trials, 1), linalg.as_integer("seed", seed, 0)
    pencil = Pencil(a)
    pencil.unit  # ValueError unless 4x4, before the screen can skip the counts
    if screen:
        report = _classify(pencil, seed)
        if report.common_eigenvectors or not report.in_generic_set:
            return DegreeReport(
                deg_det_curve=None,
                deg_kernel_curve=None,
                section_zero_count=None,
                trials=0,
                skipped=True,
                notice=f"input outside the generic regime, experiments skipped ({report.details})",
            )

    zeros = len(section_zeros(pencil))
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
