import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridiag4 import polyroots
from tridiag4.errors import ConvergenceFailure, SingularJacobian

finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def expand(roots_list):
    """Monic polynomial (ascending coefficients) with the given roots."""
    c = np.array([1.0 + 0j])
    for r in roots_list:
        c = np.convolve(c, np.array([-r, 1.0]))
    return c


class TestRoots:
    def test_quadratic_with_imaginary_roots(self):
        got = polyroots.roots([1.0, 0.0, 1.0])
        values = sorted((r for r, _ in got), key=lambda z: z.imag)
        assert abs(values[0] + 1j) < 1e-10
        assert abs(values[1] - 1j) < 1e-10

    def test_triple_root_multiplicity(self):
        got = polyroots.roots(expand([1.0, 1.0, 1.0]))
        assert len(got) == 1
        r, mult = got[0]
        assert mult == 3
        assert abs(r - 1.0) < 1e-4

    def test_path_graph_charpoly(self):
        import math

        got = polyroots.roots(np.array([1.0, 0.0, -3.0, 0.0, 1.0]))
        values = sorted(r.real for r, _ in got)
        expected = sorted(2.0 * math.cos(k * math.pi / 5.0) for k in range(1, 5))
        assert np.allclose(values, expected, atol=1e-10)

    def test_exact_zero_roots_split_off(self):
        got = polyroots.roots([0.0, 0.0, 0.0, 1.0])  # z^3
        assert got == [(0j, 3)]

    def test_matches_numpy_on_random_polys(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            deg = rng.integers(2, 9)
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            mine = sorted(
                (r for r, m in polyroots.roots(c) for _ in range(m)),
                key=lambda z: (z.real, z.imag),
            )
            ref = sorted(np.roots(c[::-1]), key=lambda z: (z.real, z.imag))
            assert np.allclose(mine, ref, atol=1e-6)

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_sum_and_product_invariants(self, pairs):
        roots_in = [complex(a, b) for a, b in pairs]
        # keep the roots separated; accuracy at multiple roots is
        # intrinsically tol^(1/m) and covered by the dedicated test
        for i, z in enumerate(roots_in):
            for w in roots_in[:i]:
                if abs(z - w) < 0.1:
                    return
        c = expand(roots_in)
        got = polyroots.roots(c)
        values = [r for r, m in got for _ in range(m)]
        d = len(c) - 1
        scale = max(1.0, max(abs(z) for z in roots_in) ** d)
        assert abs(sum(values) + c[-2]) <= 1e-6 * scale
        assert abs(np.prod(values) - (-1) ** d * c[0]) <= 1e-6 * scale

    def test_affine_transform_of_roots(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a, b = 0.7 - 0.3j, 1.1 + 0.2j
        # q(z) = p(a z + b) via polynomial composition
        p = np.polynomial.Polynomial(c)
        q = p(np.polynomial.Polynomial([b, a])).coef
        rp = sorted(
            ((r - b) / a for r, m in polyroots.roots(c) for _ in range(m)),
            key=lambda z: (z.real, z.imag),
        )
        rq = sorted(
            (r for r, m in polyroots.roots(q) for _ in range(m)),
            key=lambda z: (z.real, z.imag),
        )
        assert np.allclose(rp, rq, atol=1e-7)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            polyroots.roots([3.0])


class TestNewton:
    def test_linear_system(self):
        f = lambda x: np.array([x[0] - 1.0, x[1] - 2.0])
        jac = lambda x: np.eye(2, dtype=complex)
        sol, r = polyroots.newton_system(f, jac, np.zeros(2, dtype=complex))
        assert np.allclose(sol, [1.0, 2.0])
        assert r <= 1e-12

    def test_coupled_quadratic(self):
        f = lambda x: np.array([x[0] ** 2 - 1.0, x[1] - x[0]])
        jac = lambda x: np.array([[2 * x[0], 0.0], [-1.0, 1.0]], dtype=complex)
        sol, r = polyroots.newton_system(f, jac, np.array([0.9, 0.0], dtype=complex))
        assert np.allclose(sol, [1.0, 1.0], atol=1e-10)
        assert r <= 1e-12

    def test_residual_always_at_most_tol(self):
        f = lambda x: np.array([np.exp(x[0]) - 2.0, x[1] ** 3 - x[0]])
        jac = lambda x: np.array([[np.exp(x[0]), 0.0], [-1.0, 3 * x[1] ** 2]], dtype=complex)
        sol, r = polyroots.newton_system(f, jac, np.array([0.5, 1.0], dtype=complex), tol=1e-12)
        assert r <= 1e-12
        assert np.linalg.norm(f(sol)) <= 1e-12

    def test_singular_jacobian_raises(self):
        f = lambda x: np.array([x[0] ** 2, x[1] ** 2])
        jac = lambda x: np.zeros((2, 2), dtype=complex)
        with pytest.raises(SingularJacobian):
            polyroots.newton_system(f, jac, np.ones(2, dtype=complex))

    def test_convergence_failure_raises(self):
        # gradient pushes iterates away from the root basin within the cap
        f = lambda x: np.array([np.tanh(x[0]) + 2.0, x[1]])
        jac = lambda x: np.array([[1.0 / np.cosh(x[0]) ** 2, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ConvergenceFailure):
            polyroots.newton_system(f, jac, np.zeros(2, dtype=complex), max_steps=10)


class TestRestrictToLine:
    def test_recovers_polynomial_exactly(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        q = rng.standard_normal(4) + 1j * rng.standard_normal(4)

        def f(v):
            return np.linalg.det(np.column_stack([v, m @ v, m @ m @ v, v[::-1]]))

        coeffs = polyroots.restrict_to_line(f, p, q, 4)
        for s in (0.3 + 0.1j, -1.2, 2.0j):
            direct = f(p + s * q)
            via = polyroots.polyval(coeffs, np.array([s]))[0]
            assert abs(direct - via) <= 1e-9 * max(1.0, abs(direct))
