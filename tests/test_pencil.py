import warnings

import numpy as np
import pytest

from tridiag4 import linalg, pencil, polyroots
from tridiag4.errors import NoSectionZero, RankDeficientPencil
from tridiag4.generate import jordan_block, make_matrix, random_unitary
from tridiag4.pencil import (
    Pencil,
    _best_sheets,
    _certify,
    _certify_on_curve,
    _distinguished_seeds,
    _dodecic_roots,
    curve_residual,
    fiber_points,
    kernel_vector,
    pencil_matrix,
    section_residual,
    section_zeros,
)

N4 = jordan_block(4)


class TestPencilMatrix:
    def test_unit_t0_gives_identity(self):
        p = Pencil(make_matrix("gaussian", 4, 0))
        assert np.allclose(pencil_matrix(p, [1.0, 0.0, 0.0]), np.eye(4))

    def test_jordan_block_banded_form(self):
        p = Pencil(N4)
        t0, t1, t2 = 0.3 + 0.1j, -0.7, 0.2j
        m = pencil_matrix(p, [t0, t1, t2])
        expected = t0 * np.eye(4) + t1 * np.diag(np.ones(3), 1) + t2 * np.diag(np.ones(3), -1)
        assert np.allclose(m, expected)

    def test_unit_t1_gives_a(self):
        a = make_matrix("gaussian", 4, 1)
        assert np.allclose(pencil_matrix(Pencil(a), [0.0, 1.0, 0.0]), a)

    def test_minor_homogeneity(self):
        # every 3x3 minor of the pencil is homogeneous of degree 3 in t
        a = make_matrix("gaussian", 4, 2)
        p = Pencil(a)
        t = np.array([0.4, -0.2 + 0.6j, 1.1j])
        lam = 0.7 - 1.3j
        m1 = pencil_matrix(p, t)
        m2 = pencil_matrix(p, lam * t)
        for i in range(4):
            for j in range(4):
                rows = [r for r in range(4) if r != i]
                cols = [c for c in range(4) if c != j]
                d1 = np.linalg.det(m1[np.ix_(rows, cols)])
                d2 = np.linalg.det(m2[np.ix_(rows, cols)])
                assert abs(d2 - lam**3 * d1) <= 1e-10 * max(1.0, abs(d2))


class TestFiberPoints:
    def test_hermitian_base_gives_real_spectrum(self):
        a = make_matrix("hermitian", 4, 3)
        pts = fiber_points(Pencil(a), [1.0, 0.0])
        assert len(pts) == 4
        for pt in pts:
            # t = [-lambda : 1 : 0] with lambda real
            ratio = pt.t[0] / pt.t[1]
            assert abs(ratio.imag) < 1e-10

    def test_jordan_block_quadruple_branch_point(self):
        pts = fiber_points(Pencil(N4), [1.0, 0.0])
        assert len(pts) == 4
        expected = linalg.canonical_projective([0.0, 1.0, 0.0])
        for pt in pts:
            assert pt.near_branch
            assert linalg.projective_distance(pt.t, expected) < 1e-8

    def test_fiber_points_lie_on_curve(self):
        a = make_matrix("gaussian", 4, 4)
        p = Pencil(a)
        pts = fiber_points(p, [1.0, 1.0])
        assert len(pts) == 4
        for pt in pts:
            m = pencil_matrix(p, pt.t)
            assert abs(np.linalg.det(m)) <= 1e-10 * max(1.0, np.linalg.norm(m) ** 4)
            assert np.linalg.norm(m @ pt.v) <= 1e-10 * np.linalg.norm(m)

    def test_four_distinct_points_generically(self):
        a = make_matrix("gaussian", 4, 5)
        pts = fiber_points(Pencil(a), [1.0, 0.3 - 0.8j])
        for i in range(4):
            for j in range(i + 1, 4):
                assert linalg.projective_distance(pts[i].t, pts[j].t) > 1e-6


class TestKernelVector:
    def test_jordan_block_left_corner(self):
        v = kernel_vector(Pencil(N4), [0.0, 1.0, 0.0])
        assert np.allclose(v, np.eye(4)[0])

    def test_jordan_block_right_corner(self):
        v = kernel_vector(Pencil(N4), [0.0, 0.0, 1.0])
        assert np.allclose(v, np.eye(4)[3])

    def test_residual_on_random_fibers(self):
        a = make_matrix("gaussian", 4, 6)
        p = Pencil(a)
        for base in ([1.0, 0.5], [1.0, -1.2j], [0.3, 1.0]):
            for pt in fiber_points(p, base):
                m = pencil_matrix(p, pt.t)
                assert np.linalg.norm(m @ pt.v) <= 1e-10 * np.linalg.norm(m, 2)

    @pytest.mark.parametrize("kind", ["gaussian", "conjugated_n4", "defective"])
    def test_distinguished_seeds_are_kernel_vectors(self, kind):
        # both halves come from one SVD stack: the points of A from its right
        # singular vectors, those of A* from its left ones
        if kind == "gaussian":
            a = make_matrix("gaussian", 4, 14)
        elif kind == "conjugated_n4":
            u = random_unitary(4, np.random.default_rng(15))
            a = u @ N4 @ np.conj(u).T
        else:
            # the defective input of acceptance criterion 9
            a = np.zeros((4, 4), dtype=complex)
            a[0, 0] = a[1, 1] = 1.5
            a[0, 1] = 1.0
            a[2:, 2:] = make_matrix("gaussian", 2, 903)
            a[0, 2] = 0.3 + 0.2j
            a[1, 3] = -0.1j
        p = Pencil(a)
        seeds = _distinguished_seeds(p)
        assert [abs(t[2]) for t, _ in seeds[:4]] == [0.0] * 4
        assert [abs(t[1]) for t, _ in seeds[4:]] == [0.0] * 4
        for t, v in seeds:
            m = pencil_matrix(p, t)
            assert np.linalg.norm(m @ v) <= 1e-12 * np.linalg.norm(m, 2)

    def test_rank_deficient_raises(self):
        # identity: the pencil vanishes outright on its determinant curve
        with pytest.raises(RankDeficientPencil):
            kernel_vector(Pencil(np.eye(4)), [-1.0, 1.0, 0.0])


class TestCertifyOnCurve:
    @staticmethod
    def _stack(p, seed):
        # fiber points (on the curve), random points (off it), and the fiber
        # points again under a complex scale, large and small
        rng = np.random.default_rng(seed)
        on = np.array([pt.t for pt in fiber_points(p, rng.standard_normal(2) + 1j * rng.standard_normal(2))])
        off = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        return np.concatenate([on, off, 1e5j * on, 1e-5 * on])

    def test_stack_matches_rows_one_at_a_time(self):
        for seed in range(20):
            p = Pencil(make_matrix("gaussian", 4, seed))
            t = self._stack(p, seed)
            ok, tc, v = _certify_on_curve(p, t, kernel=True)
            assert ok.tolist() == [True] * 4 + [False] * 4 + [True] * 8, seed
            for i in range(len(t)):
                ok1, t1, v1 = _certify_on_curve(p, t[i : i + 1], kernel=True)
                assert ok1[0] == ok[i], (seed, i)
                np.testing.assert_array_equal(t1[0], tc[i])
                np.testing.assert_array_equal(v1[0], v[i])
            for i in np.flatnonzero(ok):
                # the canonical point and the pencil's kernel vector there
                np.testing.assert_allclose(tc[i], linalg.canonical_projective(t[i]), atol=1e-12)
                np.testing.assert_allclose(v[i], kernel_vector(p, t[i]), atol=1e-10)

    def test_mask_alone_skips_the_vectors(self):
        p = Pencil(make_matrix("gaussian", 4, 3))
        t = self._stack(p, 3)
        ok, tc, v = _certify_on_curve(p, t)
        assert v is None
        np.testing.assert_array_equal(ok, _certify_on_curve(p, t, kernel=True)[0])

    def test_degenerate_rows_rejected_without_warnings(self):
        p = Pencil(make_matrix("gaussian", 4, 0))
        good = fiber_points(p, [1.0, 0.3])[0].t
        t = np.array(
            [
                good,
                np.zeros(3),
                [np.inf, 1.0, 0.0],
                [1.0, -np.inf, 0.0],
                [np.nan, 0.0, 1.0],
                [1.0, 1.0, complex(0.0, np.inf)],
                1e300 * good,
                1e-300 * good,
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok, tc, v = _certify_on_curve(p, t, kernel=True)
        assert ok.tolist() == [True, False, False, False, False, False, True, True]
        assert np.all(np.isfinite(tc)) and np.all(np.isfinite(v))
        np.testing.assert_allclose(tc[[6, 7]], [tc[0], tc[0]], atol=1e-12)


class TestCurveResidual:
    def test_eigenvector_is_on_curve(self):
        a = make_matrix("gaussian", 4, 7)
        v = linalg.eigen(a)[1][:, 0]
        assert curve_residual(Pencil(a), v) <= 1e-10

    def test_kernel_vectors_on_curve(self):
        a = make_matrix("gaussian", 4, 8)
        p = Pencil(a)
        for pt in fiber_points(p, [1.0, 0.9 + 0.4j]):
            assert curve_residual(p, pt.v) <= 1e-10

    def test_random_vectors_far_from_curve(self):
        rng = np.random.default_rng(10)
        a = make_matrix("gaussian", 4, 9)
        p = Pencil(a)
        values = []
        for _ in range(50):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            values.append(curve_residual(p, v))
        assert np.median(values) > 1e-3


class TestSectionResidual:
    def test_tridiagonal_first_basis_vector(self):
        a = make_matrix("tridiagonal", 4, 11)
        h, sigma4 = section_residual(Pencil(a), np.eye(4)[0])
        assert abs(h) <= 1e-12
        assert sigma4 <= 1e-12

    def test_eigenvector_degenerate_h_but_large_sigma4(self):
        a = make_matrix("gaussian", 4, 12)
        v = linalg.eigen(a)[1][:, 0]
        h, sigma4 = section_residual(Pencil(a), v)
        assert abs(h) <= 1e-10  # columns v, Av colinear force the determinant down
        assert sigma4 > 1e-4  # but the rank certificate rejects the point

    def test_typical_curve_point_nonzero(self):
        a = make_matrix("gaussian", 4, 13)
        p = Pencil(a)
        values = [abs(section_residual(p, pt.v)[0]) for pt in fiber_points(p, [1.0, 0.7])]
        assert max(values) > 1e-3


class TestSectionZeros:
    def test_tridiagonal_matrix_includes_first_basis_vector(self):
        a = make_matrix("tridiagonal", 4, 14)
        zeros = section_zeros(Pencil(a))
        e1 = np.eye(4)[0]
        assert any(linalg.projective_distance(z.point.v, e1) < 1e-6 for z in zeros)

    def test_random_matrix_count_within_bound(self):
        a = make_matrix("gaussian", 4, 15)
        zeros = section_zeros(Pencil(a))
        assert 1 <= len(zeros) <= 12

    def test_random_matrices_have_twelve(self):
        for seed in range(200):
            assert len(section_zeros(Pencil(make_matrix("gaussian", 4, seed)))) == 12, seed

    def test_zero_membership_invariants(self):
        a = make_matrix("gaussian", 4, 16)
        p = Pencil(a)
        zeros = section_zeros(p)
        for z in zeros:
            m = pencil_matrix(p, z.point.t)
            assert np.linalg.norm(m @ z.point.v) <= 1e-8 * np.linalg.norm(m, 2)
            assert curve_residual(p, z.point.v) <= 1e-8
            assert z.sigma4 <= 1e-8

    def test_kernel_map_inverse_property(self):
        # for v on the curve, the 4x3 map t -> (t0 v + t1 Av + t2 A*v) has a
        # one-dimensional kernel spanned by the pencil point itself
        a = make_matrix("gaussian", 4, 17)
        p = Pencil(a)
        for pt in fiber_points(p, [1.0, -0.4 + 0.2j]):
            b = np.column_stack([pt.v, a @ pt.v, linalg.adjoint(a) @ pt.v])
            s = np.linalg.svd(b, compute_uv=False)
            assert s[2] <= 1e-10 * s[0]
            null = linalg.nullspace(b, tol=1e-8)
            assert null.shape[1] == 1
            assert linalg.projective_distance(null[:, 0], pt.t) < 1e-8

    def test_sorted_by_sigma4(self):
        a = make_matrix("gaussian", 4, 18)
        zeros = section_zeros(Pencil(a))
        sigmas = [z.sigma4 for z in zeros]
        assert sigmas == sorted(sigmas)

    def test_no_zero_raises(self):
        # rank-deficient pencil everywhere on the curve: nothing certifies
        with pytest.raises((NoSectionZero, RankDeficientPencil)):
            section_zeros(Pencil(np.eye(4)))

    @pytest.mark.parametrize("scale", [1e-150, 1e-60, 1e-20, 1e20, 1e60, 1e150])
    def test_count_is_scale_free(self, scale):
        for seed in range(3):
            p = Pencil(scale * make_matrix("gaussian", 4, seed))
            zeros = section_zeros(p)
            assert len(zeros) == 12, seed
            # each point lies on the pencil of the scaled input itself
            for z in zeros:
                s = np.linalg.svd(pencil_matrix(p, z.point.t), compute_uv=False)
                assert s[3] <= 1e-8 * s[0], seed

    @pytest.mark.parametrize("shift", [1e2, 1e4, 1e6, 1e8, 1e12])
    def test_count_is_shift_free(self, shift):
        # A + c*I has the flag points of A with t0 moved; uncentred, the
        # search counted 20 at c = 1e4 and none at c = 1e12
        for seed in range(20):
            g = make_matrix("gaussian", 4, seed)
            zeros = section_zeros(Pencil(g + shift * np.eye(4)))
            assert len(zeros) == 12, seed
            if shift <= 1e4:
                # the kernel vectors do not move with the shift
                reference = [z.point.v for z in section_zeros(Pencil(g))]
                for z in zeros:
                    assert min(linalg.projective_distance(z.point.v, u) for u in reference) <= 1e-6, seed

    @pytest.mark.parametrize("seed", [41, 361, 415, 447])
    def test_rejected_roots_are_refined(self, seed, monkeypatch):
        # an unrefined root of the dodecic fails _certify on these seeds, so
        # the twelve are reached only through _refine_root
        p = Pencil(make_matrix("gaussian", 4, seed))
        q = Pencil(p.a / p.norm)
        points, _ = _best_sheets(q, _dodecic_roots(q))
        assert any(_certify(q, t) is None for t in points)
        calls = []
        refine = pencil._refine_root
        monkeypatch.setattr(pencil, "_refine_root", lambda *args: calls.append(1) or refine(*args))
        assert len(section_zeros(p)) == 12
        assert calls

    def test_block_matrix_shortcut(self):
        # a 2+2 block matrix has an invariant plane; its eigenvector points
        # certify through the forward-closure shortcut
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = make_matrix("gaussian", 2, 19)
        a[2:, 2:] = make_matrix("gaussian", 2, 20)
        zeros = section_zeros(Pencil(a))
        assert any(z.shortcut for z in zeros)


def _scalar_dodecic(p):
    """The dodecic's coefficients from one ``eig`` and ``det`` per sample."""
    a, astar = p.a / p.norm, p.astar / p.norm
    a2, astar2 = a @ a, astar @ astar

    def value(mu):
        lam, vecs = np.linalg.eig(a + mu * astar)
        h = np.linalg.det(np.stack([vecs, a @ vecs, a2 @ vecs, astar2 @ vecs], axis=1).T)
        gaps = (lam[:, None] - lam[None, :])[np.triu_indices(4, 1)]
        return np.prod(gaps) ** 4 * np.prod(h) / np.linalg.det(vecs) ** 4 / mu**8

    return polyroots.restrict_to_line(value, 0.0, 1.0, 12)


def test_batched_dodecic_matches_scalar_samples(monkeypatch):
    # the stacked samples give the same coefficients as sampling one mu at a time
    seen = []
    trim = polyroots.trim
    monkeypatch.setattr(polyroots, "trim", lambda c: seen.append(c) or trim(c))
    for seed in range(50):
        p = Pencil(make_matrix("gaussian", 4, seed))
        seen.clear()
        _dodecic_roots(p)
        ref = _scalar_dodecic(p)
        assert np.max(np.abs(seen[0] - ref)) <= 1e-12 * np.max(np.abs(ref)), seed
