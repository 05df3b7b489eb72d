import sys
import warnings

import numpy as np
import pytest

from tridiag4 import degrees, genericity, linalg, pencil
from tridiag4.errors import UnstableCountWarning
from tridiag4.generate import jordan_block, make_matrix, random_unitary
from tridiag4.pencil import (
    CERT_TOL,
    Pencil,
    _best_sheets,
    _centred,
    _certify,
    _certify_on_curve,
    _cofactor_bound,
    _cofactors,
    _circle_roots,
    _distinct,
    _distinguished_seeds,
    _dodecic_roots,
    _flag_bases,
    _frozen,
    _off_max,
    _refine_roots,
    _section_score,
    _seven_columns,
    _unscale_point,
    pencil_matrix,
    section_zeros,
)

from helpers import near_common, near_structured, projective_distance

N4 = jordan_block(4)


def curve_points(p, mu):
    """The four curve points over the base ``[1 : mu]``, as ``(t, v)`` pairs.

    ``v`` runs through the eigenvectors of ``N = A + mu*A*``, and ``t =
    [-lam : 1 : mu]`` with ``lam`` its eigenvalue: there ``v`` spans the
    pencil's kernel, since ``(-lam*I + A + mu*A*) v = 0``.
    """
    lam, vecs = np.linalg.eig(p.a + mu * p.astar)
    return [(np.array([-lam[k], 1.0, mu]), vecs[:, k]) for k in range(4)]


class TestPencil:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_holds_any_size_up_to_four(self, n):
        a = make_matrix("gaussian", n, 0)
        p = Pencil(a)
        assert np.array_equal(p.a, a) and np.array_equal(p.astar, np.conj(a).T)
        c, scale, shift = p.centred
        assert np.allclose(scale * c + shift * np.eye(n), a)

    @pytest.mark.parametrize(
        "a",
        [np.ones((5, 5)), np.ones((3, 4)), np.ones((0, 0)), np.ones(4), np.full((4, 4), np.nan), np.full((3, 3), np.inf)],
    )
    def test_rejects_other_input(self, a):
        with pytest.raises(ValueError):
            Pencil(a)

    def test_unit_needs_four_by_four(self):
        assert Pencil(make_matrix("gaussian", 4, 0)).unit.a.shape == (4, 4)
        with pytest.raises(ValueError, match="4x4"):
            Pencil(make_matrix("gaussian", 3, 0)).unit

    def test_three_by_three_pencil_is_singular_at_eigenvalues(self):
        b = make_matrix("gaussian", 3, 5)
        for lam in np.linalg.eigvals(b):
            s = np.linalg.svd(pencil_matrix(Pencil(b), [-lam, 1.0, 0.0]), compute_uv=False)
            assert s[-1] <= 1e-13 * s[0], lam


def common_one_at_a_time(p):
    """:attr:`Pencil.common` as the per-vector rule: one eigenvector of ``A`` tested, canonicalized and deduplicated at a time."""
    found = []
    for v in p.eigen[1].T:
        w = p.astar @ v
        mu = np.vdot(v, w)
        if np.linalg.norm(w - mu * v) <= 1e-8:
            cv = linalg.canonical_projective(v)
            if all(projective_distance(cv, u) > 1e-8 for u in found):
                found.append(cv)
    return found


def structured(kind, seed):
    """A 4x4 input of one of the kinds the common eigenvector test tells apart."""
    rng = np.random.default_rng([seed, 41])
    if kind == "gaussian":
        return make_matrix("gaussian", 4, seed)
    if kind == "hermitian":
        return make_matrix("hermitian", 4, seed)
    q = random_unitary(4, rng)
    if kind == "normal_repeated":
        # unconjugated on even seeds: both eigenvectors for the repeated
        # eigenvalue come out as one, which the deduplication removes
        d = np.diag([1.0, 1.0, 2.0j, -1.5 + 0.5j])
        return d if seed % 2 == 0 else q @ d @ np.conj(q).T
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = make_matrix("gaussian", 2, rng)
    a[2:, 2:] = make_matrix("hermitian", 2, rng)
    return a if kind == "blocks_2_2" else q @ a @ np.conj(q).T


class TestPreparedOnce:
    """The per-size constants and the operator stack of a pencil are built once, read-only, and agree with what each call used to build."""

    def test_constants_and_cached_arrays_are_read_only(self):
        solver = sys.modules["tridiag4.tridiagonalize"]
        p = Pencil(make_matrix("gaussian", 4, 3)).unit
        arrays = [*pencil._CIRCLE.values(), *pencil._PAIRS, *pencil._EYE.values(), *pencil._FAR.values()]
        arrays += [pencil._TAKE, pencil._ENTRIES, pencil._MINORS, solver._GENERATORS]
        arrays += [p._ops, p._roots, *p._first_sheets]
        for x in arrays:
            with pytest.raises(ValueError, match="read-only"):
                x[(0,) * x.ndim] = x[(0,) * x.ndim]

    def test_pencil_keeps_its_own_frozen_copy(self):
        # writing into the caller's array afterwards changes neither A, A*
        # nor what is cached from them, and the pencil's own arrays refuse writes
        a = make_matrix("gaussian", 4, 1)
        p = Pencil(a)
        held, held_star, count = p.a.copy(), p.astar.copy(), len(section_zeros(p))
        a[:] = np.diag([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(p.a, held)
        np.testing.assert_array_equal(p.astar, held_star)
        assert len(section_zeros(p)) == count == 12
        for x in (p.a, p.astar):
            with pytest.raises(ValueError, match="read-only"):
                x[0, 0] = 0.0

    def test_constants_are_what_each_call_built(self):
        for n in (7, 13):
            np.testing.assert_array_equal(pencil._CIRCLE[n], np.exp(2j * np.pi * np.arange(n) / n))
        for n in range(1, 5):
            np.testing.assert_array_equal(pencil._EYE[n], np.eye(n))
            assert pencil._EYE[n].dtype == complex

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_off_max_is_the_banded_maximum(self, n):
        rng = np.random.default_rng(n)
        stack = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))

        def banded(t):
            return max([abs(t[i, j]) for i in range(n) for j in range(n) if abs(i - j) >= 2], default=0.0)

        np.testing.assert_allclose(_off_max(stack[0]), banded(stack[0]), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(_off_max(stack), [banded(t) for t in stack], rtol=1e-15, atol=0.0)
        assert _off_max(stack).shape == (6,)

    def test_operator_stack(self):
        p = Pencil(make_matrix("gaussian", 4, 5))
        a, s = p.a, p.astar
        expected = [np.eye(4), a, s, a @ a, a @ s, s @ a, s @ s]
        assert p._ops.shape == (7, 4, 4)
        for k, m in enumerate(expected):
            np.testing.assert_array_equal(p._ops[k], m)
        assert Pencil(make_matrix("gaussian", 3, 5))._ops.shape == (7, 3, 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_seven_columns_match_one_product_at_a_time(self, seed):
        p = Pencil(make_matrix("gaussian", 4, seed))
        a, s = p.a, p.astar
        rng = np.random.default_rng([seed, 43])
        v = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        one_at_a_time = np.array([np.column_stack([x, a @ x, s @ x, a @ (a @ x), a @ (s @ x), s @ (a @ x), s @ (s @ x)]) for x in v])
        got = _seven_columns(p, v)
        assert got.shape == (6, 4, 7)
        assert np.max(np.abs(got - one_at_a_time)) <= 1e-14 * np.max(np.abs(one_at_a_time))

    @pytest.mark.parametrize("kind", ["hermitian", "normal_repeated", "blocks_2_2", "conjugated_blocks_2_2", "gaussian"])
    def test_stacked_common_is_the_per_vector_rule(self, kind):
        sizes = set()
        for seed in range(10):
            p = Pencil(structured(kind, seed)).unit
            expected = common_one_at_a_time(p)
            assert len(p.common) == len(expected), seed
            for got, want in zip(p.common, expected):
                np.testing.assert_array_equal(got, want)
            sizes.add(len(expected))
        # each kind reaches the branch it is here for
        assert sizes == {"hermitian": {4}, "normal_repeated": {3, 4}, "gaussian": {0}}.get(kind, {2})


class TestCommutatorBound:
    """:attr:`Pencil.common` clears with the bound ``min |eigvalsh(A A* - A* A)| > 4*CERT_TOL`` before it forms :attr:`Pencil.eigen`, and never clears a pencil with a common eigenvector."""

    def test_bound_never_clears_a_common_eigenvector(self):
        reached = set()
        for d in 10.0 ** np.arange(-11, -1):
            for seed in range(20):
                p = Pencil(near_common(d, seed)).unit
                got, cleared = p.common, "eigen" not in vars(p)
                # the per-vector rule reads p.eigen, so it runs after the bound has answered
                expected = common_one_at_a_time(p)
                assert len(got) == len(expected), (d, seed)
                for g, e in zip(got, expected):
                    np.testing.assert_array_equal(g, e)
                reached.add((cleared, bool(expected)))
        # cleared with nothing to find, not cleared with a common eigenvector, and not cleared with none
        assert reached == {(True, False), (False, True), (False, False)}

    def test_gaussians_are_cleared_without_eigen(self):
        for seed in range(2000):
            p = Pencil(make_matrix("gaussian", 4, seed)).unit
            assert p.common == [], seed
            assert "eigen" not in vars(p), seed


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

    @pytest.mark.parametrize(
        "t",
        [[1.0, 0.0], np.ones((2, 2, 3)), [np.nan, 1.0, 0.0], [[1.0, 0.0, 0.0], [0.0, np.inf, 1.0]]],
        ids=["two coordinates", "three axes", "nan", "inf row"],
    )
    def test_rejects_what_is_no_point(self, t):
        with pytest.raises(ValueError, match="3 finite coordinates"):
            pencil_matrix(Pencil(N4), t)

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
        pts = curve_points(Pencil(a), 0.0)
        assert len(pts) == 4
        for t, _ in pts:
            # t = [-lambda : 1 : 0] with lambda real
            ratio = t[0] / t[1]
            assert abs(ratio.imag) < 1e-10

    def test_jordan_block_quadruple_branch_point(self):
        pts = curve_points(Pencil(N4), 0.0)
        assert len(pts) == 4
        expected = linalg.canonical_projective([0.0, 1.0, 0.0])
        for t, _ in pts:
            assert projective_distance(t, expected) < 1e-8

    def test_fiber_points_lie_on_curve(self):
        a = make_matrix("gaussian", 4, 4)
        p = Pencil(a)
        pts = curve_points(p, 1.0)
        assert len(pts) == 4
        for t, v in pts:
            m = pencil_matrix(p, t)
            assert abs(np.linalg.det(m)) <= 1e-10 * max(1.0, np.linalg.norm(m) ** 4)
            assert np.linalg.norm(m @ v) <= 1e-10 * np.linalg.norm(m)

    def test_four_distinct_points_generically(self):
        a = make_matrix("gaussian", 4, 5)
        pts = curve_points(Pencil(a), 0.3 - 0.8j)
        for i in range(4):
            for j in range(i + 1, 4):
                assert projective_distance(pts[i][0], pts[j][0]) > 1e-6


class TestKernelVector:
    def test_jordan_block_left_corner(self):
        ok, _, v = _certify_on_curve(Pencil(N4), [[0.0, 1.0, 0.0]], kernel=True)
        assert ok[0] and np.allclose(v[0], np.eye(4)[0])

    def test_jordan_block_right_corner(self):
        ok, _, v = _certify_on_curve(Pencil(N4), [[0.0, 0.0, 1.0]], kernel=True)
        assert ok[0] and np.allclose(v[0], np.eye(4)[3])

    def test_residual_on_random_fibers(self):
        a = make_matrix("gaussian", 4, 6)
        p = Pencil(a)
        for mu in (0.5, -1.2j, 1.0 / 0.3):
            for t, v in curve_points(p, mu):
                m = pencil_matrix(p, t)
                assert np.linalg.norm(m @ v) <= 1e-10 * np.linalg.norm(m, 2)

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
        seeds = list(zip(*_distinguished_seeds(p)))
        assert [abs(t[2]) for t, _ in seeds[:4]] == [0.0] * 4
        assert [abs(t[1]) for t, _ in seeds[4:]] == [0.0] * 4
        for t, v in seeds:
            m = pencil_matrix(p, t)
            assert np.linalg.norm(m @ v) <= 1e-12 * np.linalg.norm(m, 2)

    def test_rank_deficient_point_is_rejected(self):
        # identity: the pencil vanishes outright on its determinant curve,
        # so no point there has a one-dimensional kernel
        ok, _, _ = _certify_on_curve(Pencil(np.eye(4)), [[-1.0, 1.0, 0.0], [-2.0, 1.0, 1.0]], kernel=True)
        assert not ok.any()


class TestCertifyOnCurve:
    @staticmethod
    def _stack(p, seed):
        # curve points over a random base (on the curve), random points (off
        # it), and the curve points again under a complex scale, large and
        # small; with the eigenvectors of the points on the curve
        rng = np.random.default_rng(seed)
        base = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pts = curve_points(p, base[1] / base[0])
        on = np.array([linalg.canonical_projective(t) for t, _ in pts])
        off = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        return np.concatenate([on, off, 1e5j * on, 1e-5 * on]), [v for _, v in pts]

    def test_stack_matches_rows_one_at_a_time(self):
        for seed in range(20):
            p = Pencil(make_matrix("gaussian", 4, seed))
            t, vecs = self._stack(p, seed)
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
                np.testing.assert_allclose(v[i], linalg.canonical_projective(vecs[i % 4]), atol=1e-10)

    def test_mask_alone_skips_the_vectors(self):
        # the values-only path decides by the cofactor bound and an SVD of the
        # rows it leaves open, the kernel path by one SVD of every row
        for seed in range(20):
            p = Pencil(make_matrix("gaussian", 4, seed))
            t, _ = self._stack(p, seed)
            ok, tc, v = _certify_on_curve(p, t)
            assert v is None
            np.testing.assert_array_equal(ok, _certify_on_curve(p, t, kernel=True)[0])

    def test_degenerate_rows_rejected_without_warnings(self):
        p = Pencil(make_matrix("gaussian", 4, 0))
        good = linalg.canonical_projective(curve_points(p, 0.3)[0][0])
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
        for kernel in (True, False):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ok, tc, v = _certify_on_curve(p, t, kernel=kernel)
            assert ok.tolist() == [True, False, False, False, False, False, True, True], kernel
            assert np.all(np.isfinite(tc)) and (np.all(np.isfinite(v)) if kernel else v is None), kernel
            np.testing.assert_allclose(tc[[6, 7]], [tc[0], tc[0]], atol=1e-12)


class TestCofactorBound:
    """:func:`_cofactor_bound` proves rank 3 from closed-form cofactors, and its callers take the SVD only of the rows it leaves open, with the same answers."""

    def test_cofactors_are_the_transposed_adjugate(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((200, 4, 4)) + 1j * rng.standard_normal((200, 4, 4))
        k = _cofactors(m.reshape(-1, 16)).reshape(-1, 4, 4)
        adj_t = np.linalg.det(m)[:, None, None] * np.linalg.inv(m).swapaxes(1, 2)
        f = np.linalg.norm(m, axis=(1, 2))
        assert np.all(np.abs(k - adj_t).max(axis=(1, 2)) <= 1e-13 * f**3)

    def test_adjugate_vanishes_against_curve_points(self):
        # at a point of the determinant curve M adj M = det(M) I is 0, while adj M is not
        rng = np.random.default_rng(32)
        for seed in range(10):
            p = Pencil(make_matrix("gaussian", 4, seed)).unit
            mu = rng.standard_normal() + 1j * rng.standard_normal()
            m = pencil_matrix(p, np.array([linalg.canonical_projective(t) for t, _ in curve_points(p, mu)]))
            k = _cofactors(m.reshape(-1, 16)).reshape(-1, 4, 4)
            f = np.linalg.norm(m, axis=(1, 2))
            assert np.all(np.abs(m @ k.swapaxes(1, 2)).max(axis=(1, 2)) <= 1e-13 * f**4), seed
            assert np.all(np.linalg.norm(k, axis=(1, 2)) >= 1e-6 * f**3), seed

    def test_bound_clears_only_what_the_svd_passes(self):
        # U diag(s) V* with s1 = 1 and sigma3, sigma4 on both sides of CERT_TOL
        # and 2*CERT_TOL, at three scales
        rng = np.random.default_rng(33)
        grid = [
            (1.0, s2, s3, s4)
            for s2 in (1.0, 0.5, 1e-3)
            for s3 in (0.99e-8, 1.01e-8, 1.99e-8, 2.01e-8, 1e-4, 0.3)
            for s4 in (0.0, 1e-12, 0.49e-8, 0.51e-8, 0.99e-8, 1.01e-8)
            if s4 <= s3 <= s2
        ]
        s = np.array(grid)
        u, w = (np.array([random_unitary(4, rng) for _ in grid]) for _ in range(2))
        base = (u * s[:, None, :]) @ np.conj(w).swapaxes(1, 2)
        proved = []
        for scale in (1e-150, 1.0, 1e150):
            m = scale * base
            low, rank3, null = _cofactor_bound(m)
            sv = np.linalg.svd(m, compute_uv=False)
            assert np.all(low <= sv[:, 0]), scale
            assert np.all(sv[rank3, 2] > 1.99 * CERT_TOL * sv[rank3, 0]), scale
            assert np.all(null <= rank3) and np.all(sv[null, 3] <= 0.51 * CERT_TOL * sv[null, 0]), scale
            passes = (sv[:, 0] > 0) & (sv[:, 2] > CERT_TOL * sv[:, 0]) & (sv[:, 3] <= CERT_TOL * sv[:, 0])
            assert np.all(passes[null]), scale
            proved.append((rank3.tolist(), null.tolist()))
        # the bound does not depend on the scale, and rows far from the thresholds clear
        assert proved[0] == proved[1] == proved[2]
        assert np.all(np.array(proved[1][0])[s[:, 2] >= 1e-4])
        assert np.all(np.array(proved[1][1])[(s[:, 2] == 0.3) & (s[:, 3] <= 1e-12)])

    @pytest.mark.parametrize("kind", ["gaussian", "hermitian", "n4", "j2_j2_plus_2i", "near_hermitian"])
    def test_open_rows_answer_as_the_bound(self, kind, monkeypatch):
        # a bound that leaves every row open sends them all to the SVD: the
        # masks, the degree and the rank screen's witness and quote are the same
        j2j2 = np.diag([2.0, 2.0, 2.0, 2.0]).astype(complex) + np.diag([1.0, 0.0, 1.0], 1)
        a = {
            "gaussian": make_matrix("gaussian", 4, 5),
            "hermitian": make_matrix("hermitian", 4, 5),
            "n4": N4,
            "j2_j2_plus_2i": j2j2,
            "near_hermitian": near_structured("hermitian", 1e-9, 0),
        }[kind]

        def answers():
            masks = []
            on_curve = pencil._certify_on_curve

            def recorded(*args, **kwargs):
                result = on_curve(*args, **kwargs)
                masks.append(result[0].tolist())
                return result

            with monkeypatch.context() as patch:
                patch.setattr(pencil, "_certify_on_curve", recorded)
                patch.setattr(degrees, "_certify_on_curve", recorded)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UnstableCountWarning)
                    degree = degrees.degree_of_det_curve(Pencil(a), lines=10, seed=0)
                section_zeros(Pencil(a))
            ok, witness, quote = genericity._pencil_rank(Pencil(a), 0)
            return masks, degree, ok, None if witness is None else witness.tobytes(), quote

        proved = answers()
        for module in (pencil, genericity):
            monkeypatch.setattr(module, "_cofactor_bound", lambda m: (np.zeros(len(m)), *[np.zeros(len(m), dtype=bool)] * 2))
        assert answers() == proved


class TestCertify:
    @staticmethod
    def assert_stack_matches_rows(p, rows):
        # every row comes back, accepted or not, with its residual and candidate
        ok, off, stacked = _certify(p, *rows)
        single = [_certify(p, *(x[[i]] for x in rows)) for i in range(len(rows[0]))]
        assert len(ok) == len(off) == len(stacked) == len(single)
        assert ok.tolist() == [bool(one_ok[0]) for one_ok, _, _ in single]
        for got, got_off, (_, one_off, (want,)) in zip(stacked, off, single):
            assert abs(got_off - one_off[0]) <= 1e-15
            np.testing.assert_allclose(got.t, want.t, rtol=0, atol=1e-15)
            np.testing.assert_allclose(got.v, want.v, rtol=0, atol=1e-15)
            np.testing.assert_allclose(got.basis, want.basis, rtol=0, atol=1e-15)
            assert abs(got.sigma4 - want.sigma4) <= 1e-15
            assert got.shortcut == want.shortcut
        return ok, stacked

    def test_stack_matches_rows(self):
        # the best sheets over a Gaussian's dodecic roots, mixed with rows
        # off the curve, certify in one call as they do one at a time
        rng = np.random.default_rng(23)
        off = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        off_v = linalg.canonical_projective(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        q = Pencil(_centred(make_matrix("gaussian", 4, 22))[0])
        sheets = _best_sheets(q, _dodecic_roots(q))
        off_rows = (off, off_v, _section_score(q, off_v))
        rows = [np.concatenate([x[:6], y[:2], x[6:], y[2:]]) for x, y in zip(sheets, off_rows)]
        ok, stacked = self.assert_stack_matches_rows(q, rows)
        assert len(stacked) == 16 and ok.sum() == 12
        assert not ok[6:8].any() and not ok[-2:].any()

    def test_stack_with_shortcut_points(self):
        # the eigenvector points [0 : 1 : 0] and [0 : 0 : 1] of N4 certify
        # through the closure shortcut; off-curve rows between them do not
        rng = np.random.default_rng(24)
        off = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        t = np.array([[0, 1, 0], off[0], [0, 0, 1], off[1]], dtype=complex)
        # e1 spans the kernel of N4 at [0 : 1 : 0], e4 that of N4* at [0 : 0 : 1]
        v = linalg.canonical_projective(np.array([np.eye(4)[0], rng.standard_normal(4), np.eye(4)[3], rng.standard_normal(4)], dtype=complex))
        ok, stacked = self.assert_stack_matches_rows(Pencil(N4), (t, v, _section_score(Pencil(N4), v)))
        assert ok.tolist() == [True, False, True, False]
        assert [c.shortcut for c, keep in zip(stacked, ok) if keep] == [True, True]

    def test_empty_stack(self):
        ok, off, cands = _certify(Pencil(N4), np.empty((0, 3)), np.empty((0, 4)), np.empty(0))
        assert ok.shape == off.shape == (0,) and cands == []


class TestSectionResidual:
    def test_tridiagonal_first_basis_vector(self):
        a = make_matrix("tridiagonal", 4, 11)
        sigma4 = _section_score(Pencil(a), np.eye(4)[None, 0])[0]
        assert sigma4 <= 1e-12

    def test_eigenvector_degenerate_h_but_large_sigma4(self):
        a = make_matrix("gaussian", 4, 12)
        v = linalg.eigen(a)[1][:, 0]
        sigma4 = _section_score(Pencil(a), v[None, :])[0]
        assert sigma4 > 1e-4  # the rank certificate rejects the point


class TestSectionZeros:
    def test_tridiagonal_matrix_includes_first_basis_vector(self):
        a = make_matrix("tridiagonal", 4, 14)
        zeros = section_zeros(Pencil(a))
        e1 = np.eye(4)[0]
        assert any(projective_distance(z.v, e1) < 1e-6 for z in zeros)

    def test_random_matrix_count_within_bound(self):
        a = make_matrix("gaussian", 4, 15)
        zeros = section_zeros(Pencil(a))
        assert 1 <= len(zeros) <= 12

    def test_random_matrices_have_twelve(self):
        # every counted point is a flag: the flag grown from its kernel vector
        # on the centred matrix (||C||_2 = 1) passes the solver's 1e-8 gate
        far = np.abs(np.subtract.outer(np.arange(4), np.arange(4))) >= 2
        for seed in range(200):
            a = make_matrix("gaussian", 4, seed)
            zeros = section_zeros(Pencil(a))
            assert len(zeros) == 12, seed
            c = _centred(a)[0]
            f = _flag_bases(c, np.conj(c).T, np.array([z.v for z in zeros]))
            t = np.conj(f).transpose(0, 2, 1) @ c @ f
            assert np.abs(t[:, far]).max() <= 1e-8, seed

    def test_zero_membership_invariants(self):
        a = make_matrix("gaussian", 4, 16)
        p = Pencil(a)
        zeros = section_zeros(p)
        for z in zeros:
            m = pencil_matrix(p, z.t)
            assert np.linalg.norm(m @ z.v) <= 1e-8 * np.linalg.norm(m, 2)
            v = z.v
            s = np.linalg.svd(np.column_stack([v, a @ v, p.astar @ v]), compute_uv=False)
            assert s[2] <= 1e-8 * s[0]
            assert z.sigma4 <= 1e-8

    def test_kernel_map_inverse_property(self):
        # for v on the curve, the 4x3 map t -> (t0 v + t1 Av + t2 A*v) has a
        # one-dimensional kernel spanned by the pencil point itself
        a = make_matrix("gaussian", 4, 17)
        p = Pencil(a)
        for t, v in curve_points(p, -0.4 + 0.2j):
            b = np.column_stack([v, a @ v, linalg.adjoint(a) @ v])
            _, s, vh = np.linalg.svd(b)
            assert s[2] <= 1e-10 * s[0]
            assert s[1] > 1e-10 * s[0]  # rank 2: the kernel is one line
            assert projective_distance(np.conj(vh[-1]), t) < 1e-8

    def test_sorted_by_sigma4(self):
        a = make_matrix("gaussian", 4, 18)
        zeros = section_zeros(Pencil(a))
        sigmas = [z.sigma4 for z in zeros]
        assert sigmas == sorted(sigmas)

    def test_no_zero_is_empty(self):
        # rank-deficient pencil everywhere on the curve: nothing certifies
        assert section_zeros(Pencil(np.eye(4))) == []

    @pytest.mark.parametrize("scale", [1e-150, 1e-60, 1e-20, 1e20, 1e60, 1e150])
    def test_count_is_scale_free(self, scale):
        for seed in range(3):
            p = Pencil(scale * make_matrix("gaussian", 4, seed))
            zeros = section_zeros(p)
            assert len(zeros) == 12, seed
            # each point lies on the pencil of the scaled input itself
            for z in zeros:
                s = np.linalg.svd(pencil_matrix(p, z.t), compute_uv=False)
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
                reference = [z.v for z in section_zeros(Pencil(g))]
                for z in zeros:
                    assert min(projective_distance(z.v, u) for u in reference) <= 1e-6, seed

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e200, 1e300])
    def test_jordan_block_at_large_scale(self, scale):
        # the eigenvector points [0 : 1 : 0] and [0 : 0 : 1] of N4 certify;
        # mapped back by _unscale_point, their norm once underflowed
        zeros = section_zeros(Pencil(scale * N4))
        assert len(zeros) == 2
        corners = [np.eye(3)[1], np.eye(3)[2]]
        for z in zeros:
            assert min(projective_distance(z.t, c) for c in corners) < 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e160, 1e300])
    def test_degree_guard_skips_the_joint_pass(self, scale, monkeypatch):
        # on N4 the dodecic collapses to degree 6 and no sheet over its roots
        # passes the gate; refined all the same, they once certified 8 points
        calls = []
        monkeypatch.setattr(pencil, "_refine_roots", lambda *args: calls.append(1) or _refine_roots(*args))
        p = Pencil(scale * N4)
        q = p.unit
        assert q._roots.size < 12
        assert not _certify(q, *_best_sheets(q, q._roots))[0].any()
        assert len(section_zeros(p)) == 2
        assert not calls

    @pytest.mark.parametrize("seed", [41, 361, 415, 1328])
    def test_rejected_roots_are_refined(self, seed, monkeypatch):
        # started 1e-3 off the roots of the dodecic, no sheet passes the gate,
        # so all twelve points are reached through the one joint pass
        def perturbed():
            p = Pencil(make_matrix("gaussian", 4, seed))
            p.unit.__dict__["_roots"] = _frozen(_dodecic_roots(p.unit) * (1 + 1e-3))
            return p

        q = perturbed().unit
        assert not _certify(q, *_best_sheets(q, q._roots))[0].any()
        monkeypatch.setattr(pencil, "_refine_roots", lambda q, mu: mu)
        assert len(section_zeros(perturbed())) == 0
        calls = []
        monkeypatch.setattr(pencil, "_refine_roots", lambda *args: calls.append(1) or _refine_roots(*args))
        assert len(section_zeros(perturbed())) == 12
        assert calls == [1]

    @pytest.mark.parametrize("start", ["roots", "perturbed", "collided"])
    def test_joint_pass_finds_every_root(self, start):
        # from the roots themselves, from 1e-2 off them, or with the second
        # root started at the first, the pass ends one-to-one at the twelve
        # roots of the dodecic: the Aberth sum keeps two roots from meeting
        for seed in range(5):
            q = Pencil(_centred(make_matrix("gaussian", 4, seed))[0])
            mu = _dodecic_roots(q)
            z = {"roots": mu, "perturbed": mu * (1 + 1e-2), "collided": np.where(np.arange(12) == 1, mu[0] * (1 + 1e-3), mu)}[start]
            refined = _refine_roots(q, z)
            gap = np.abs(refined[:, None] - mu[None, :]) / np.maximum(1.0, np.abs(mu))
            assert sorted(np.argmin(gap, axis=1)) == list(range(12)), seed
            assert gap.min(axis=1).max() <= 1e-9, seed

    @pytest.mark.parametrize(
        ("a", "accepted"),
        [(make_matrix("gaussian", 4, 0), 12), (near_structured("hermitian", 1e-3, 0), 0)],
        ids=["gaussian", "near-hermitian"],
    )
    def test_flag_points_yield_every_root_once(self, a, accepted):
        # accepted or not, the best sheet over each root comes once, with its
        # index into the dodecic and the off-band residual of its own flag
        unit = Pencil(a).unit
        rows = list(pencil._flag_points(unit))
        roots = [root for *_, root in rows if root is not None]
        assert sorted(roots) == list(range(12)) and roots[0] < 3
        assert sum(bool(ok) for ok, *_, root in rows if root is not None) == accepted
        for ok, off, cand, _ in rows:
            u = np.conj(cand.basis).T
            np.testing.assert_allclose(off, _off_max(u @ unit.a @ cand.basis), rtol=1e-12, atol=1e-17)
            if ok:
                assert off <= 1e-8 and np.linalg.norm(u @ cand.basis - np.eye(4), 2) <= 1e-10

    def test_near_points_count_once(self, monkeypatch):
        # two candidates 1e-9 apart count once, with the smaller sigma4,
        # whichever comes first; one 1e-7 away counts apart (the cluster
        # radius is CERT_TOL), and a far one is kept as well
        rng = np.random.default_rng(25)
        t, far = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        t, far = t / np.linalg.norm(t), far / np.linalg.norm(far)
        step = np.cross(np.conj(t), far)  # orthogonal to t
        near, apart = (t + d * step / np.linalg.norm(step) for d in (1e-9, 1e-7))
        near, apart = near / np.linalg.norm(near), apart / np.linalg.norm(apart)
        v, eye = np.eye(4)[0], np.eye(4)
        cands = [
            pencil.SectionCandidate(t, v, 3e-9, eye, False),
            pencil.SectionCandidate(far, v, 2e-9, eye, False),
            pencil.SectionCandidate(near, v, 1e-9, eye, False),
            pencil.SectionCandidate(apart, v, 4e-9, eye, False),
        ]
        assert 5e-10 < projective_distance(t, near) < 2e-9
        assert 5e-8 < projective_distance(t, apart) < 2e-7
        def flag_points(p):
            # every row accepted, so no rejected root and no joint pass
            yield from ((True, 0.0, cand, None) for cand in cands)

        monkeypatch.setattr(pencil, "_flag_points", flag_points)
        zeros = section_zeros(Pencil(N4))  # centred already: the points come back as they went in
        assert [z.sigma4 for z in zeros] == [1e-9, 2e-9, 4e-9]
        for z, point in zip(zeros, (near, far, apart)):
            assert projective_distance(z.t, point) < 1e-12

    def test_block_matrix_shortcut(self):
        # a 2+2 block matrix has an invariant plane; its eigenvector points
        # certify through the forward-closure shortcut
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = make_matrix("gaussian", 2, 19)
        a[2:, 2:] = make_matrix("gaussian", 2, 20)
        zeros = section_zeros(Pencil(a))
        assert any(z.shortcut for z in zeros)


def _scalar_dodecic(p):
    """The dodecic's coefficients on the centred matrix, from one ``eig`` and ``det`` per sample."""
    a = _centred(p.a)[0]
    astar = linalg.adjoint(a)
    a2, astar2 = a @ a, astar @ astar

    def value(mu):
        lam, vecs = np.linalg.eig(a + mu * astar)
        h = np.linalg.det(np.stack([vecs, a @ vecs, a2 @ vecs, astar2 @ vecs], axis=1).T)
        gaps = (lam[:, None] - lam[None, :])[np.triu_indices(4, 1)]
        return np.prod(gaps) ** 4 * np.prod(h) / np.linalg.det(vecs) ** 4 / mu**8

    # the samples at the 13th roots of unity are an inverse DFT of the coefficients
    return np.fft.fft([value(mu) for mu in np.exp(2j * np.pi * np.arange(13) / 13)]) / 13


def test_batched_dodecic_matches_scalar_samples(monkeypatch):
    # the stacked samples give the same coefficients as sampling one mu at a time
    seen = []
    circle_roots = pencil._circle_roots
    monkeypatch.setattr(pencil, "_circle_roots", lambda v: seen.append(circle_roots(v)[0]) or circle_roots(v))
    for seed in range(50):
        p = Pencil(make_matrix("gaussian", 4, seed))
        seen.clear()
        _dodecic_roots(Pencil(_centred(p.a)[0]))
        ref = _scalar_dodecic(p)
        assert seen[0].shape == ref.shape, seed
        assert np.max(np.abs(seen[0] - ref)) <= 1e-12 * np.max(np.abs(ref)), seed


def _ordering_proxy(c, mu):
    """``|R'(mu)| / sum_k |c_k| |mu|^k`` for the ascending coefficients ``c``, by Horner's rule on ``np.polyval``."""
    c = c[::-1]
    return np.abs(np.polyval(np.polyder(c), mu)) / np.polyval(np.abs(c), np.abs(mu))


class TestDodecicRoots:
    def test_roots_of_the_coefficients_best_conditioned_first(self, monkeypatch):
        seen = []
        circle_roots = pencil._circle_roots
        monkeypatch.setattr(pencil, "_circle_roots", lambda v: seen.append(circle_roots(v)[0]) or circle_roots(v))
        for seed in range(5):
            seen.clear()
            mu = _dodecic_roots(Pencil(_centred(make_matrix("gaussian", 4, seed))[0]))
            ref = np.roots(seen[0][::-1])
            assert mu.size == 12, seed
            np.testing.assert_array_equal(np.sort_complex(mu), np.sort_complex(ref))
            proxy = _ordering_proxy(seen[0], mu)
            assert np.all(proxy[:-1] >= proxy[1:] * (1 - 1e-9)), seed

    def test_root_at_zero_sorts_last(self, monkeypatch):
        # integer samples that sum to zero give c0 = 0 exactly, so np.roots
        # returns mu = 0, where the proxy's denominator vanishes; its sheets
        # are the eigenvector points of A, which fail _certify, and the joint
        # pass of the count leaves mu = 0 where it is, without a warning
        rng = np.random.default_rng(3)
        samples = (rng.integers(-5, 6, 13) + 1j * rng.integers(-5, 6, 13)).astype(complex)
        samples[-1] -= samples.sum()
        c = np.fft.fft(samples) / 13
        assert c[0] == 0
        polyval = np.polynomial.polynomial.polyval
        monkeypatch.setattr(pencil, "_dodecic_values", lambda p, mu, circle=False: samples if circle else polyval(mu, c))
        p = Pencil(_centred(make_matrix("gaussian", 4, 0))[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu = _dodecic_roots(p)
        assert mu.size == 12
        assert mu[-1] == 0 and np.all(mu[:-1] != 0)
        passes = []

        def refine(q, m):
            passes.append((m, _refine_roots(q, m)))
            return passes[-1][1]

        monkeypatch.setattr(pencil, "_refine_roots", refine)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            section_zeros(p)
        [(start, refined)] = passes
        np.testing.assert_array_equal(start, mu)
        assert refined[-1] == 0


class TestCoefficients:
    def test_recovers_polynomial_exactly(self):
        # a quartic along a line, from its values at the 5th roots of unity
        rng = np.random.default_rng(4)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        q = rng.standard_normal(4) + 1j * rng.standard_normal(4)

        def f(s):
            v = p + s * q
            return np.linalg.det(np.column_stack([v, m @ v, m @ m @ v, v[::-1]]))

        coeffs = _circle_roots(np.array([f(s) for s in np.exp(2j * np.pi * np.arange(5) / 5)]))[0]
        assert coeffs.shape == (5,)
        for s in (0.3 + 0.1j, -1.2, 2.0j):
            direct = f(s)
            via = np.polynomial.polynomial.polyval(s, coeffs)
            assert abs(direct - via) <= 1e-9 * max(1.0, abs(direct))

    def test_leading_coefficients_are_trimmed(self):
        omega = np.exp(2j * np.pi * np.arange(7) / 7)
        for c, kept in (([1.0, 2.0, 1e-15], 2), ([1.0, 2.0, 1e-12], 3), ([3.0], 1), ([0.0, 1.0], 2)):
            coeffs = _circle_roots(np.polynomial.polynomial.polyval(omega, c))[0]
            assert coeffs.size == kept, c
            np.testing.assert_allclose(coeffs, np.asarray(c)[:kept], atol=1e-14)

    def test_zero_gives_zero_constant(self):
        coeffs, roots = _circle_roots(np.zeros(7))
        np.testing.assert_array_equal(coeffs, [0.0])
        assert roots.size == 0

    def test_roots_are_those_of_np_roots(self, monkeypatch):
        # the companion matrix is rooted as np.roots roots it, to the bit: on
        # dodecic and Krylov samples, and with its exact roots at 0 split off
        samples = []
        circle_roots = pencil._circle_roots
        monkeypatch.setattr(pencil, "_circle_roots", lambda values: samples.append(values) or circle_roots(values))
        for seed in range(20):
            q = Pencil(make_matrix("gaussian", 4, seed)).unit
            _dodecic_roots(q)
            pencil._krylov_roots(q.a, q.astar, np.full(4, 0.5))
        omega = np.array([1, 1j, -1, -1j])  # the 4th roots of unity, exactly
        exact = [omega * omega * omega + 2 * omega * omega + 3 * omega, omega * omega]
        assert all(_circle_roots(values)[0][0] == 0 for values in exact)
        for values in samples + exact:
            c, roots = _circle_roots(values)
            np.testing.assert_array_equal(roots, np.roots(c[::-1]))


def distinct_one_pair_at_a_time(rows, tol):
    """:func:`pencil._distinct` as the greedy rule on :func:`linalg.projective_distance`, one pair at a time."""
    kept = []
    for i, row in enumerate(rows):
        if all(projective_distance(row, rows[j]) > tol for j in kept):
            kept.append(i)
    return kept


@pytest.mark.parametrize("sep", [1e-9, 1e-7, 1e-6])
@pytest.mark.parametrize("tol", [pencil.CERT_TOL])
def test_distinct_is_the_pairwise_rule(sep, tol):
    # three clusters of eight unit points, each point about sep from its
    # centre, shuffled; tol is the cluster radius CERT_TOL of Pencil.common
    # and of section_zeros.  At sep = 1e-9 a distance from 1 - |<a, b>|^2
    # keeps points that are one
    rng = np.random.default_rng(27)
    centres = linalg.canonical_projective(rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
    noise = (rng.standard_normal((24, 4)) + 1j * rng.standard_normal((24, 4))) / np.sqrt(8)
    rows = linalg.canonical_projective(rng.permutation(np.repeat(centres, 8, axis=0) + sep * noise))
    kept = _distinct(rows)
    assert kept == distinct_one_pair_at_a_time(rows, tol)
    assert 3 <= len(kept) <= 24
    assert _distinct(np.empty((0, 4), dtype=complex)) == []


def test_unscale_point():
    # [t0 : t1 : t2] on (A - shift*I)/scale is [scale*t0 - shift*t1 - conj(shift)*t2 : t1 : t2] on A
    t = linalg.canonical_projective([0.3, 1.0, 0.5j])
    expected = linalg.canonical_projective([2.0 * t[0] - (1 + 1j) * t[1] - (1 - 1j) * t[2], t[1], t[2]])
    np.testing.assert_allclose(_unscale_point(t[None], 2.0, 1 + 1j), [expected], atol=1e-15)
    # at a large scale t1 and t2 shrink by 1e-200, and the point must not underflow
    np.testing.assert_allclose(_unscale_point(np.array([[0.0, 1.0, 0.0]]), 1e200, 0.0), [[0.0, 1.0, 0.0]])
    # a stack moves each row to the bit as the scalar arithmetic of that
    # point alone does, and an empty stack stays empty
    rng = np.random.default_rng(26)
    rows = linalg.canonical_projective(rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3)))
    scale, shift = 0.7, np.complex128(0.3 + 2.1j)
    m = max(scale, abs(shift), 1.0)
    for row, got in zip(rows, _unscale_point(rows, scale, shift)):
        w = np.array([(scale / m) * row[0] - (shift / m) * row[1] - (np.conj(shift) / m) * row[2], row[1] / m, row[2] / m])
        np.testing.assert_array_equal(got, linalg.canonical_projective(w / np.max(np.abs(w))))
    assert _unscale_point(np.empty((0, 3), dtype=complex), scale, shift).shape == (0, 3)
