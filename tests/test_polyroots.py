import numpy as np
import pytest

from tridiag4 import polyroots
from tridiag4.errors import ConvergenceFailure, SingularJacobian


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
            via = np.polynomial.polynomial.polyval(s, coeffs)
            assert abs(direct - via) <= 1e-9 * max(1.0, abs(direct))
