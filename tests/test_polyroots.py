import numpy as np

from tridiag4 import polyroots


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
