import warnings

import numpy as np
import pytest

from tridiag4 import degrees, linalg
from tridiag4.degrees import (
    _hyperplane_points,
    _modal,
    degree_of_det_curve,
    degree_of_kernel_curve,
    run_experiments,
)
from tridiag4.errors import UnstableCountWarning
from tridiag4.generate import jordan_block, make_matrix
from tridiag4.pencil import Pencil, _certify_on_curve, pencil_matrix, section_zeros

from helpers import projective_distance

#: Arguments that are not integers, or are bools: each is a ValueError.
NOT_INTEGERS = [2.5, True, np.float64(3.0), np.array([1, 2]), "10", None]


def det_curve_reference(pencil, lines, seed):
    """The count and tally with ``Q`` and ``P`` built apart and counts tallied by ``np.unique``."""
    z = np.random.default_rng([seed, 11]).standard_normal((lines, 4, 3))
    p, q = z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]
    p, q = p / np.linalg.norm(p, axis=1, keepdims=True), q / np.linalg.norm(q, axis=1, keepdims=True)
    unit = pencil.unit
    s = np.linalg.eigvals(np.linalg.solve(pencil_matrix(unit, q), -pencil_matrix(unit, p)))
    ok = _certify_on_curve(unit, (p[:, None] + s[:, :, None] * q[:, None]).reshape(-1, 3))[0]
    values, freq = np.unique(ok.reshape(lines, 4).sum(axis=1), return_counts=True)
    tally = dict(zip(values.tolist(), freq.tolist()))
    return max(tally, key=lambda c: (tally[c], c)), tally


def det_curve_and_warnings(pencil, lines, seed):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        count = degree_of_det_curve(pencil, lines=lines, seed=seed)
    return count, [str(w.message) for w in caught]


class TestDegreeOfDetCurve:
    def test_random_matrices_give_four(self):
        for seed in range(200):
            p = Pencil(make_matrix("gaussian", 4, seed))
            assert degree_of_det_curve(p, lines=10, seed=seed) == 4, seed

    def test_shifted_matrices_give_four(self):
        # uncentred, the lines of G + 1e8*I counted 1 to 4 points each
        for seed in range(20):
            p = Pencil(make_matrix("gaussian", 4, seed) + 1e8 * np.eye(4))
            assert degree_of_det_curve(p, lines=10, seed=seed) == 4, seed

    def test_jordan_block_gives_four(self):
        # the restriction to a generic line is still a full quartic
        assert degree_of_det_curve(Pencil(jordan_block(4)), lines=10, seed=0) == 4

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_scale_free(self, scale):
        for seed in range(5):
            p = Pencil(scale * make_matrix("gaussian", 4, seed))
            assert degree_of_det_curve(p, lines=10, seed=seed) == 4, seed

    def test_warns_when_lines_disagree(self, monkeypatch):
        # one point rejected: its line counts 3 and the other nine count 4
        def reject_first(pencil, t, kernel=False):
            ok, t, v = _certify_on_curve(pencil, t, kernel)
            ok[0] = False
            return ok, t, v

        monkeypatch.setattr(degrees, "_certify_on_curve", reject_first)
        with pytest.warns(UnstableCountWarning, match=r"line counts disagree: \{3: 1, 4: 9\}"):
            assert degree_of_det_curve(Pencil(make_matrix("gaussian", 4, 0)), lines=10, seed=0) == 4

    def test_rejects_no_lines(self):
        with pytest.raises(ValueError, match="lines"):
            degree_of_det_curve(Pencil(make_matrix("gaussian", 4, 0)), lines=0)

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    @pytest.mark.parametrize("name", ["lines", "seed"])
    def test_rejects_non_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            degree_of_det_curve(Pencil(make_matrix("gaussian", 4, 0)), **{name: value})

    def test_numpy_integers_as_python_ones(self):
        for g in range(5):
            p = Pencil(make_matrix("gaussian", 4, g))
            expected = det_curve_and_warnings(p, 10, 42)
            assert det_curve_and_warnings(p, np.int32(10), np.int64(42)) == expected, g

    @pytest.mark.parametrize("lines", [1, 10])
    @pytest.mark.parametrize("seed", [0, 42])
    def test_matches_a_reference(self, seed, lines):
        # the one stacked, one-normalization pencil and the bincount tally change no count and no warning
        inputs = [make_matrix("gaussian", 4, g) for g in range(40)]
        inputs += [np.diag([1.0, 1.0, 2.0, 3.0]), np.diag([1.0, 1.0, 1.0, 2.0]), jordan_block(4)]
        for k, a in enumerate(inputs):
            p = Pencil(a)
            modal, tally = det_curve_reference(p, lines, seed)
            expected = [f"line counts disagree: {tally}"] if len(tally) > 1 else []
            assert det_curve_and_warnings(p, lines, seed) == (modal, expected), k


class TestModal:
    @pytest.mark.parametrize(
        "counts, expected",
        [
            ([3, 4, 4, 3], (4, {3: 2, 4: 2})),  # a tie goes to the larger count
            (np.array([0, 0, 4]), (0, {0: 2, 4: 1})),
            ([4], (4, {4: 1})),
            (np.array([2, 4, 1, 4, 2, 4]), (4, {1: 1, 2: 2, 4: 3})),
        ],
    )
    def test_modal_and_tally(self, counts, expected):
        modal, tally = _modal(counts)
        assert (modal, tally) == expected
        assert list(tally) == sorted(tally)
        assert all(type(k) is int and type(v) is int for k, v in tally.items()) and type(modal) is int


class TestDegreeOfKernelCurve:
    def test_random_matrix_gives_six(self):
        p = Pencil(make_matrix("gaussian", 4, 3))
        assert degree_of_kernel_curve(p, seed=3) == 6

    def test_random_gaussians_give_six(self):
        for seed in range(200):
            p = Pencil(make_matrix("gaussian", 4, seed))
            assert degree_of_kernel_curve(p, seed=seed) == 6, seed

    def test_shifted_matrices_give_six(self):
        # the kernel curve does not move with a shift of A; uncentred, no
        # point of G + 1e8*I certified
        for seed in range(20):
            p = Pencil(make_matrix("gaussian", 4, seed) + 1e8 * np.eye(4))
            assert degree_of_kernel_curve(p, seed=seed) == 6, seed

    @pytest.mark.parametrize("seed", [True, 1.5, np.array([1, 2]), -1], ids=["bool", "float", "array", "negative"])
    def test_seed_must_be_an_integer(self, seed):
        p = Pencil(make_matrix("gaussian", 4, 0))
        with pytest.raises(ValueError, match="seed must be (an integer|at least 0)"):
            degree_of_kernel_curve(p, seed=seed)

    def test_numpy_integer_seed(self):
        # the seed draws the hyperplane; the same one gives the same points
        p = Pencil(make_matrix("gaussian", 4, 3))
        assert degree_of_kernel_curve(p, seed=np.int64(5)) == degree_of_kernel_curve(p, seed=5) == 6

    def test_hyperplane_through_known_point(self):
        # a hyperplane through an eigenvector of A (a curve point over the
        # base [1 : 0], a root mu = 0 of the sextic) or of A* (over [0 : 1],
        # where the sextic drops degree); the count stays 6 and the point
        # shows up among the certified ones
        a = make_matrix("gaussian", 4, 4)
        p = Pencil(a)
        _, right, left = linalg.eigen(a)
        for v0 in (right[:, 0], left[:, 0]):
            rng = np.random.default_rng(5)
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            ell = w - (np.dot(w, v0) / np.dot(v0, v0)) * v0  # ell . v0 = 0
            assert abs(np.dot(ell, v0)) < 1e-10

            points = _hyperplane_points(p, ell / np.linalg.norm(ell))
            assert len(points) == 6
            assert any(projective_distance(v, v0) < 1e-6 for _, v in points)


    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_scale_free(self, scale):
        # the points come back on the pencil of the scaled matrix itself
        for seed in range(5):
            p = Pencil(scale * make_matrix("gaussian", 4, seed))
            assert degree_of_kernel_curve(p, seed=seed) == 6, seed
            rng = np.random.default_rng(seed)
            ell = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            points = _hyperplane_points(p, ell / np.linalg.norm(ell))
            assert len(points) == 6, seed
            assert all(_certify_on_curve(p, np.array([t for t, _ in points]))[0]), seed


class TestSectionZeroCount:
    def test_random_matrix_at_most_twelve(self):
        p = Pencil(make_matrix("gaussian", 4, 6))
        assert len(section_zeros(p)) == 12  # the roots of the dodecic


class TestFourByFourOnly:
    # a Pencil holds any n <= 4, but the flag points and the counts exist
    # for n = 4 alone: a 3x3 input is a ValueError, never an IndexError or
    # a LinAlgError from inside a count
    @pytest.mark.parametrize(
        "count",
        [
            section_zeros,
            degree_of_det_curve,
            degree_of_kernel_curve,
            lambda p: run_experiments(p.a, screen=True),
            lambda p: run_experiments(p.a, screen=False),
        ],
    )
    @pytest.mark.parametrize("kind", ["gaussian", "hermitian", "jordan"])
    def test_three_by_three_rejected(self, count, kind):
        with pytest.raises(ValueError, match="4x4"):
            count(Pencil(make_matrix(kind, 3, 0)))


class TestRunExperiments:
    def test_generic_matrix_report(self):
        a = make_matrix("gaussian", 4, 7)
        report = run_experiments(a, trials=2, seed=7)
        assert not report.skipped
        assert report.deg_det_curve == 4
        assert report.deg_kernel_curve == 6
        assert report.section_zero_count == 12
        assert [d["trial"] for d in report.per_trial_detail] == [0, 1]

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e200, 1e300])
    def test_scale_free(self, scale):
        for seed in range(3):
            report = run_experiments(scale * make_matrix("gaussian", 4, seed))
            counts = (report.deg_det_curve, report.deg_kernel_curve, report.section_zero_count)
            assert counts == (4, 6, 12), seed

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError, match="trials"):
            run_experiments(make_matrix("gaussian", 4, 0), trials=0)

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    @pytest.mark.parametrize("name", ["trials", "seed"])
    def test_rejects_non_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            run_experiments(make_matrix("gaussian", 4, 0), **{name: value})

    def test_negative_seed_is_refused_at_entry(self):
        a = make_matrix("gaussian", 4, 0)
        for run in (lambda: run_experiments(a, seed=-1), lambda: degree_of_det_curve(Pencil(a), seed=-1)):
            with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
                run()

    def test_numpy_integers_as_python_ones(self):
        a = make_matrix("gaussian", 4, 7)
        report = run_experiments(a, trials=np.int64(2), seed=np.int32(7))
        assert report.as_dict() == run_experiments(a, trials=2, seed=7).as_dict()
        assert type(report.trials) is int

    def test_hermitian_skipped_with_notice(self):
        a = make_matrix("hermitian", 4, 8)
        report = run_experiments(a, trials=1, seed=8)
        assert report.skipped
        assert "skipped" in report.notice
        assert report.deg_det_curve is None
