"""The test-only references of :mod:`helpers` behave as the tests rely on."""

import numpy as np
import pytest

from helpers import projective_distance


def test_projective_distance_phase_invariant():
    u = np.array([1.0, 1j, 0.0, 0.5])
    assert projective_distance(u, 1j * u) < 1e-12
    w = np.array([0.0, 1.0, 0.0, 0.0])
    assert projective_distance(np.eye(4)[0], w) == pytest.approx(1.0)


def test_projective_distance_resolves_nearby_points():
    # classify dedupes common eigenvectors at a distance of 1e-8, so a
    # phase copy must read at roundoff and 1e-7 must read as 1e-7
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert projective_distance(v, np.exp(0.7j) * v) <= 1e-14
    v, x = np.eye(4, dtype=complex)[:2]
    for angle in (1e-7, 1e-10):
        b = np.cos(angle) * v + np.sin(angle) * (0.6 - 0.8j) * x
        assert projective_distance(v, b) == pytest.approx(np.sin(angle), rel=1e-6)
