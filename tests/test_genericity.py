import re

import numpy as np
import pytest

from tridiag4 import linalg
from tridiag4.generate import jordan_block, make_matrix, random_gaussian, random_unitary
from tridiag4.genericity import classify
from tridiag4.pencil import Pencil, pencil_matrix

from helpers import projective_distance

N4 = jordan_block(4)


class TestNonsingular:
    def test_identity(self):
        assert classify(np.eye(4)).nonsingular

    def test_nilpotent_block(self):
        assert not classify(N4).nonsingular

    def test_random_statistics(self):
        hits = sum(classify(make_matrix("gaussian", 4, s)).nonsingular for s in range(100))
        assert hits == 100


class TestDistinctEigenvalues:
    def test_distinct_diagonal(self):
        assert classify(np.diag([1.0, 2.0, 3.0, 4.0])).distinct_eigenvalues

    def test_nilpotent_block(self):
        assert not classify(N4).distinct_eigenvalues

    def test_repeated_diagonal(self):
        assert not classify(np.diag([1.0, 1.0, 2.0, 3.0])).distinct_eigenvalues


class TestPencilRank:
    def test_jordan_block_passes(self):
        # the corner minors t1^3 and t2^3 force t1 = t2 = 0, and then the
        # diagonal minors force t0 = 0: no rank-2 point exists
        report = classify(N4)
        assert report.pencil_rank_ok
        assert report.witness is None

    def test_repeated_eigenvalue_normal_fails_with_witness(self):
        # a normal A = V diag(lam) V* drops rank wherever t1*lam_i + t2*conj(lam_i)
        # repeats, and B1 (+) B2 wherever the two blocks share an eigenvalue
        rng = np.random.default_rng(41)
        inputs = [np.diag([1.0, 1.0, 2.0, 3.0])]
        inputs += [random_unitary(4, rng) for _ in range(20)]
        for _ in range(20):
            v = random_unitary(4, rng)
            lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            inputs.append(v @ np.diag(lam) @ np.conj(v).T)
        for _ in range(20):
            a = np.zeros((4, 4), dtype=complex)
            a[:2, :2] = make_matrix("gaussian", 2, rng)
            a[2:, 2:] = make_matrix("gaussian", 2, rng)
            inputs.append(a)
        # near-scalar normal inputs: the rank drops survive a shift by c*I
        v = random_unitary(4, rng)
        lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        inputs.append(np.eye(4) + 1e-3 * random_unitary(4, rng))
        inputs.append(5.0 * np.eye(4) + 1e-3 * (v @ np.diag(lam) @ np.conj(v).T))
        for a in inputs:
            report = classify(a)
            assert not report.pencil_rank_ok
            assert report.witness is not None
            s = np.linalg.svd(pencil_matrix(Pencil(a), report.witness), compute_uv=False)
            assert s[0] <= 1e-12 or s[2] <= 1e-8 * s[0]

    def test_identity_fails(self):
        report = classify(np.eye(4))
        assert not report.pencil_rank_ok
        assert report.witness is not None

    def test_random_statistics(self):
        for s in range(30):
            assert classify(make_matrix("gaussian", 4, s)).pencil_rank_ok

    def test_agrees_for_adjoint(self):
        for s in range(10):
            a = make_matrix("gaussian", 4, 50 + s)
            assert classify(a).pencil_rank_ok == classify(linalg.adjoint(a)).pencil_rank_ok


class TestCommonEigenvectors:
    def test_hermitian_has_four(self):
        a = make_matrix("hermitian", 4, 1)
        assert len(classify(a).common_eigenvectors) == 4

    def test_block_structure_shares_coordinates(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1] = 1.0
        a[2, 2] = 2.0
        a[3, 3] = 3.0
        found = classify(a).common_eigenvectors
        for k in (2, 3):
            ek = np.eye(4)[k]
            assert any(projective_distance(v, ek) < 1e-8 for v in found)

    def test_random_matrix_has_none(self):
        for s in range(30):
            assert classify(make_matrix("gaussian", 4, s)).common_eigenvectors == []

    def test_residual_certified(self):
        a = make_matrix("hermitian", 4, 2)
        astar = linalg.adjoint(a)
        scale = linalg.matrix_norm(a)
        for v in classify(a).common_eigenvectors:
            mu = np.vdot(v, astar @ v)
            assert np.linalg.norm(astar @ v - mu * v) <= 1e-8 * scale


class TestClassify:
    def test_jordan_block_report(self):
        report = classify(N4)
        assert (report.nonsingular, report.distinct_eigenvalues, report.pencil_rank_ok) == (
            False,
            False,
            True,
        )
        assert "singular" in report.details

    def test_identity_report(self):
        report = classify(np.eye(4))
        assert report.nonsingular
        assert not report.distinct_eigenvalues
        assert not report.pencil_rank_ok

    def test_spectrum_determined_tests_are_unitary_invariant(self):
        rng = np.random.default_rng(33)
        for s in range(5):
            a = make_matrix("gaussian", 4, 60 + s)
            u = random_unitary(4, rng)
            b = u @ a @ np.conj(u).T
            ra, rb = classify(a), classify(b)
            assert ra.nonsingular == rb.nonsingular
            assert ra.distinct_eigenvalues == rb.distinct_eigenvalues

    def test_random_all_generic(self):
        for s in range(20):
            report = classify(make_matrix("gaussian", 4, 80 + s))
            assert report.in_generic_set
            assert report.common_eigenvectors == []

    def test_scale_invariant(self):
        rng = np.random.default_rng(34)
        inputs = [make_matrix("gaussian", 4, s) for s in range(12)]
        inputs += [make_matrix("hermitian", 4, s) for s in range(12)]
        inputs += [random_unitary(4, rng) for _ in range(12)]
        inputs += [N4, np.diag([1.0, 1.0, 2.0, 3.0]), np.eye(4)]

        def key(report):
            return (
                report.nonsingular,
                report.distinct_eigenvalues,
                report.pencil_rank_ok,
                len(report.common_eigenvectors),
            )

        for a in inputs:
            expected = key(classify(a))
            for c in (1e-200, 1e-40, 1e-4, 1e8, 1e40, 1e200):
                assert key(classify(c * a)) == expected

    def test_as_dict_shape(self):
        d = classify(N4).as_dict()
        assert set(d) == {"s1", "s2", "s3", "common_eigenvectors", "witness", "details"}

    def test_gap_is_quoted_on_the_centred_matrix(self):
        # s2 compares the gap of C = (A - tr(A)/4*I)/||.||_2 with 1e-8; the
        # same gap on A itself reads about 1e-3
        g = random_gaussian(4, np.random.default_rng(0))
        a = 1e6 * g @ np.diag([1.0, 1.0 + 1e-9, 2.0, 3.0]) @ np.linalg.inv(g)
        report = classify(a)
        assert not report.distinct_eigenvalues
        gap = re.search(r"min gap [^=]*= ([0-9.]+e[+-]\d+)", report.details)
        assert gap is not None and float(gap.group(1)) <= 1e-8

    def test_rank_zero_witness_quotes_sigma1(self):
        # a Hermitian pencil vanishes at [0 : 1 : -1], where sigma3/sigma1 is
        # roundoff over roundoff; the test that fired there is sigma1 <= 1e-14
        q = random_unitary(4, np.random.default_rng(0))
        report = classify(1e6 * q @ np.diag([1.0, 1.001, 2.0, 3.0]) @ np.conj(q).T)
        assert not report.pencil_rank_ok
        sigma1 = re.search(r"\(sigma1 = ([0-9.]+e[+-]\d+)\)", report.details)
        assert sigma1 is not None and float(sigma1.group(1)) <= 1e-14

    def test_singular_three_by_three(self):
        a = make_matrix("gaussian", 3, 5)
        a[:, 2] = a[:, 0] + a[:, 1]
        report = classify(a)
        assert not report.nonsingular
        assert "singular" in report.details
        assert report.details.endswith("pencil rank test applies to n = 4 only")
        assert report.pencil_rank_ok
        assert report.common_eigenvectors == [] and report.witness is None

    @pytest.mark.parametrize("shape", [(5, 5), (3, 4)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError):
            classify(np.ones(shape))

    @pytest.mark.parametrize("seed", [True, 1.5, np.array([1, 2]), -1], ids=["bool", "float", "array", "negative"])
    def test_seed_must_be_an_integer(self, seed):
        # n = 3 draws nothing, and is refused all the same
        for n in (3, 4):
            with pytest.raises(ValueError, match="seed must be (an integer|at least 0)"):
                classify(make_matrix("gaussian", n, 0), seed=seed)

    def test_numpy_integer_seed(self):
        for g in range(5):
            a = make_matrix("gaussian", 4, g) if g else N4
            assert classify(a, seed=np.int64(7)).as_dict() == classify(a, seed=7).as_dict(), g
