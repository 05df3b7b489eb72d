"""Acceptance suite: every headline guarantee at its stated tolerance.

Runs the full workload (1000 matrices at each size, the counting
experiments, the classifier screen, and the structured regressions) and
prints one pass/fail line per criterion.  Expect well under a minute
of runtime; the 1000-matrix batches dominate.
"""

import time
import warnings

import numpy as np
import pytest

from tridiag4 import linalg
from tridiag4.degrees import degree_of_det_curve, degree_of_kernel_curve
from tridiag4.generate import jordan_block, make_matrix, random_unitary
from tridiag4.genericity import classify
from tridiag4.pencil import Pencil, section_zeros
from tridiag4.tridiagonalize import tridiagonalize, verify

from helpers import flag_residuals

N_FULL = 1000
N_COUNT = 50
SEED0 = 10_000


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {num} ({name}): {status}  {detail}")


@pytest.fixture(scope="module")
def batch_4x4():
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(N_FULL):
            a = make_matrix("gaussian", 4, SEED0 + i)
            t0 = time.perf_counter()
            r = tridiagonalize(a, seed=SEED0 + i)
            dt = time.perf_counter() - t0
            results.append((a, r, dt))
    return results


@pytest.fixture(scope="module")
def batch_3x3():
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(N_FULL):
            a = make_matrix("gaussian", 3, SEED0 + i)
            r = tridiagonalize(a, seed=SEED0 + i)
            results.append((a, r))
    return results


def test_criterion_1_main_theorem_at_desk_scale(batch_4x4):
    worst_off = max(r.off_residual for _, r, _ in batch_4x4)
    worst_unit = max(r.unitarity_residual for _, r, _ in batch_4x4)
    median_dt = float(np.median([dt for _, _, dt in batch_4x4]))
    ok = worst_off <= 1e-8 and worst_unit <= 1e-10 and median_dt <= 1.0
    _report(
        1,
        "1000 random 4x4",
        ok,
        f"worst off={worst_off:.2e}, worst unitarity={worst_unit:.2e}, median {1e3 * median_dt:.0f} ms",
    )
    assert worst_off <= 1e-8
    assert worst_unit <= 1e-10
    assert median_dt <= 1.0


def test_criterion_2_three_by_three(batch_3x3):
    worst_off = max(r.off_residual for _, r in batch_3x3)
    worst_unit = max(r.unitarity_residual for _, r in batch_3x3)
    ok = worst_off <= 1e-8 and worst_unit <= 1e-10
    _report(2, "1000 random 3x3", ok, f"worst off={worst_off:.2e}, worst unitarity={worst_unit:.2e}")
    assert worst_off <= 1e-8
    assert worst_unit <= 1e-10


def test_criterion_3_degree_of_det_curve():
    counts = []
    for i in range(10):
        pencil = Pencil(make_matrix("gaussian", 4, SEED0 + 300 + i))
        for line_seed in range(10):
            counts.append(degree_of_det_curve(pencil, lines=1, seed=1000 * i + line_seed))
    ok = all(c == 4 for c in counts)
    _report(3, "det curve degree", ok, f"100 line counts, all == 4: {ok}")
    assert ok


def test_criterion_4_degree_of_kernel_curve():
    counts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(20):
            pencil = Pencil(make_matrix("gaussian", 4, SEED0 + 400 + i))
            counts.append(degree_of_kernel_curve(pencil, seed=SEED0 + 400 + i))
    at_six = sum(1 for c in counts if c == 6)
    ok = at_six >= 16  # >= 80% of 20 trials
    _report(4, "kernel curve degree", ok, f"counts {counts}, at 6: {at_six}/20")
    assert ok


def test_criterion_5_section_zero_count():
    counts = []
    worst_sigma4 = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kept = 0
        i = 0
        while kept < N_COUNT:
            a = make_matrix("gaussian", 4, SEED0 + 500 + i)
            i += 1
            report = classify(a)
            if not report.in_generic_set or report.common_eigenvectors:
                continue
            kept += 1
            zeros = section_zeros(Pencil(a))
            counts.append(len(zeros))
            worst_sigma4 = max(worst_sigma4, max(z.sigma4 for z in zeros))
    at_twelve = sum(1 for c in counts if c == 12)
    ok = at_twelve == N_COUNT and worst_sigma4 <= 1e-8
    _report(
        5,
        "flag point count",
        ok,
        f"max={max(counts)}, at 12: {at_twelve}/{N_COUNT}, worst sigma4={worst_sigma4:.1e}",
    )
    assert max(counts) <= 12, "count above the hard bound indicates double-counting"
    assert at_twelve == N_COUNT, "every screened matrix has the dodecic's 12 flag points"
    assert worst_sigma4 <= 1e-8


def test_criterion_6_genericity_classifier():
    n4 = classify(jordan_block(4))
    n4_ok = (n4.nonsingular, n4.distinct_eigenvalues, n4.pencil_rank_ok) == (False, False, True)
    ident = classify(np.eye(4))
    ident_ok = not ident.pencil_rank_ok
    random_ok = True
    for i in range(100):
        rep = classify(make_matrix("gaussian", 4, SEED0 + 600 + i))
        if not rep.in_generic_set:
            random_ok = False
            break
    ok = n4_ok and ident_ok and random_ok
    _report(
        6,
        "genericity classifier",
        ok,
        f"N4 {n4_ok}, identity s3 false {ident_ok}, 100 random generic {random_ok}",
    )
    assert n4_ok
    assert ident_ok
    assert random_ok


def test_criterion_7_flag_equivalence(batch_4x4, batch_3x3):
    worst = 0.0
    for a, r, _ in batch_4x4:
        r2, r3 = flag_residuals(a, np.conj(r.u).T)
        worst = max(worst, r2, r3)
    for a, r in batch_3x3:
        r2, r3 = flag_residuals(a, np.conj(r.u).T)
        worst = max(worst, r2, r3)
    ok = worst <= 1e-8
    _report(7, "flag equivalences", ok, f"worst residual over both conditions {worst:.2e}")
    assert ok


def test_criterion_8_structured_regression():
    rng = np.random.default_rng(808)
    u = random_unitary(4, rng)
    cases = {
        "hermitian": make_matrix("hermitian", 4, 801),
        "unitary": random_unitary(4, rng),
        "normal": u @ np.diag([1.0, 2.0j, -1.0, 0.5 - 0.5j]) @ np.conj(u).T,
        "tridiagonal": make_matrix("tridiagonal", 4, 802),
        "nilpotent_jordan": jordan_block(4),
        "repeated_eigenvalue": u @ np.diag([1.0, 1.0, 2.0, 3.0]) @ np.conj(u).T,
    }
    detail = []
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, a in cases.items():
            r = tridiagonalize(a, seed=807)
            rep = verify(r, a)
            scale = max(linalg.matrix_norm(a), 1e-300)
            good = r.off_residual <= 1e-8 and rep.spectrum_gap <= 1e-8 * scale
            ok = ok and good
            detail.append(f"{name}:{r.provenance}:{'ok' if good else 'BAD'}")
    _report(8, "structured matrices", ok, "; ".join(detail))
    assert ok


def test_criterion_9_perturbation_fallback():
    # defective double eigenvalue glued to a generic block, with mixing so
    # that A and A* share no eigenvector
    a = np.zeros((4, 4), dtype=complex)
    a[0, 0] = a[1, 1] = 1.5
    a[0, 1] = 1.0
    a[2:, 2:] = make_matrix("gaussian", 2, 903)
    a[0, 2] = 0.3 + 0.2j
    a[1, 3] = -0.1j
    assert classify(a).common_eigenvectors == []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r = tridiagonalize(a, force_path="perturb", seed=904)
    t2 = r.u @ a @ np.conj(r.u).T
    scale = linalg.matrix_norm(a)
    off = max(
        abs(t2[i, j]) for i in range(4) for j in range(4) if abs(i - j) >= 2
    )
    ok = r.provenance == "perturbed" and off <= 1e-8 * scale
    _report(9, "perturbation fallback", ok, f"eps={r.perturbation_used:.0e}, off on original={off / scale:.2e}")
    assert r.provenance == "perturbed"
    assert off <= 1e-8 * scale
