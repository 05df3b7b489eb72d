import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tridiag4 import linalg
from tridiag4.generate import jordan_block, make_matrix
from tridiag4.pencil import _flag_bases

from helpers import projective_distance

N4 = jordan_block(4)


def flag_from_vector(a, v):
    """The flag basis grown from one vector: a one-row stack of :func:`pencil._flag_bases`."""
    return _flag_bases(a, linalg.adjoint(a), np.asarray(v, dtype=complex)[None])[0]

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def leibniz_det(m):
    # division-free determinant oracle: np.linalg.det factors by LU and warns
    # (divide by zero) on singular inputs with subnormal pivots
    n = m.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = complex(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= complex(m[i, perm[i]])
        total += term
    return total


def complex_matrices(n):
    return st.tuples(
        arrays(float, (n, n), elements=finite), arrays(float, (n, n), elements=finite)
    ).map(lambda p: p[0] + 1j * p[1])


class TestAdjoint:
    def test_identity_self_adjoint(self):
        assert np.array_equal(linalg.adjoint(np.eye(4)), np.eye(4))

    def test_jordan_block_transposes_to_subdiagonal(self):
        expected = np.diag(np.ones(3), -1)
        assert np.array_equal(linalg.adjoint(N4), expected)

    def test_diagonal_conjugates(self):
        m = np.diag([1j, 0, 0, 0])
        assert np.array_equal(linalg.adjoint(m), np.diag([-1j, 0, 0, 0]))

    @given(complex_matrices(4))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, m):
        assert np.array_equal(linalg.adjoint(linalg.adjoint(m)), m)

    @given(complex_matrices(3), complex_matrices(3))
    @settings(max_examples=25, deadline=None)
    def test_product_rule(self, m, n):
        left = linalg.adjoint(m @ n)
        right = linalg.adjoint(n) @ linalg.adjoint(m)
        assert np.allclose(left, right, atol=1e-10)


class TestEigen:
    def test_diagonal(self):
        lam, right, left = linalg.eigen(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(lam, [1, 2, 3, 4])
        for k in range(4):
            assert abs(abs(right[k, k]) - 1.0) < 1e-12
            assert abs(abs(left[k, k]) - 1.0) < 1e-12

    def test_jordan_block_multiplicity(self):
        lam = linalg.eigen(N4)[0]
        assert len(lam) == 4
        assert all(abs(x) < 1e-8 for x in lam)

    def test_path_graph_spectrum_against_charpoly_oracle(self):
        # oracle 1: the characteristic polynomial of the 4-path adjacency
        # matrix is x^4 - 3x^2 + 1 (three-term recurrence), rooted
        # independently; oracle 2: the closed form 2cos(k*pi/5)
        m = N4 + linalg.adjoint(N4)
        charpoly = np.array([1.0, 0.0, -3.0, 0.0, 1.0])
        oracle1 = sorted(r.real for r in np.roots(charpoly[::-1]))
        oracle2 = sorted(2.0 * math.cos(k * math.pi / 5.0) for k in range(1, 5))
        got = sorted(lam.real for lam in linalg.eigen(m)[0])
        assert np.allclose(oracle1, oracle2, atol=1e-10)
        assert np.allclose(got, oracle2, atol=1e-10)

    @given(complex_matrices(4))
    @settings(max_examples=20, deadline=None)
    def test_trace_and_det_invariants(self, m):
        scale = max(linalg.matrix_norm(m), 1.0)
        values = linalg.eigen(m)[0]
        assert abs(values.sum() - np.trace(m)) <= 1e-8 * scale
        assert abs(np.prod(values) - leibniz_det(m)) <= 1e-8 * scale**4

    def test_residual_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            lam, right, left = linalg.eigen(m)
            bound = 1e-8 * linalg.matrix_norm(m)
            for k in range(4):
                assert np.linalg.norm(m @ right[:, k] - lam[k] * right[:, k]) <= bound
                assert np.linalg.norm(linalg.adjoint(m) @ left[:, k] - np.conj(lam[k]) * left[:, k]) <= bound


class TestRank:
    def test_curve_point_has_rank_two_span(self):
        # cross-check: the minors of [v, Av, A*v] vanish exactly when its
        # rank drops to 2; a curve point over [1 : mu] is an eigenvector of
        # A + mu*A*
        a = make_matrix("gaussian", 4, 12)
        v = np.linalg.eig(a + (0.7 - 0.2j) * linalg.adjoint(a))[1][:, 0]
        m = np.column_stack([v, a @ v, linalg.adjoint(a) @ v])
        assert np.linalg.matrix_rank(m, rtol=1e-8) == 2
        minors = [np.linalg.det(m[[i for i in range(4) if i != k], :]) for k in range(4)]
        assert max(abs(x) for x in minors) < 1e-10


class TestOrthonormalize:
    # orthonormalization happens in the flag construction: Gram-Schmidt on
    # v and the images of the basis so far, then the orthocomplement, all
    # in one stack

    def test_scaled_basis(self):
        # N4 e1 = 0 and N4* e_k = e_{k+1}: the flag of 2*e1 is the standard one
        basis = flag_from_vector(N4, 2 * np.eye(4)[0])
        assert np.allclose(basis[:, :3], np.eye(4)[:, :3], atol=1e-14)
        assert abs(abs(basis[3, 3]) - 1.0) < 1e-14

    def test_two_dim_hand_computation(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        # n = 2: the builder's last column is the orthocomplement of the first
        out = flag_from_vector(np.zeros((2, 2)), (e1 + e2) / np.sqrt(2))[:, 1:]
        assert out.shape == (2, 1)
        # the orthocomplement is (e1 - e2)/sqrt(2) up to phase
        assert abs(abs(np.vdot(out[:, 0], (e1 - e2) / np.sqrt(2))) - 1.0) < 1e-12

    def test_span_preserved_on_curve_vectors(self):
        a = make_matrix("gaussian", 4, 13)
        v = np.linalg.eig(a + (0.4 + 0.1j) * linalg.adjoint(a))[1][:, 1]
        av = a @ v
        basis = flag_from_vector(a, v)[:, :2]
        for w in (v, av):
            recon = basis @ (np.conj(basis).T @ w)
            assert np.linalg.norm(recon - w) <= 1e-10 * np.linalg.norm(w)

    def test_gram_matrix_close_to_identity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = flag_from_vector(a, v)
        assert np.linalg.norm(np.conj(f).T @ f - np.eye(4)) <= 4 * 1e-10

    def test_common_eigenvector_is_completed(self):
        # Av and A*v both depend on v: span(v) is invariant, so the builder
        # stops growing it and completes the basis
        a = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        f = flag_from_vector(a, np.array([0, 2.0, 0, 0]))
        assert np.linalg.norm(np.conj(f).T @ f - np.eye(4)) <= 1e-12
        assert projective_distance(f[:, 0], np.eye(4)[1]) <= 1e-14


class TestDet:
    def test_pencil_restriction_roots_match_eigenvalues(self):
        # det(t0*I + t1*N4 + t2*N4*) as a quartic in t0 has roots at the
        # negated eigenvalues of t1*N4 + t2*N4*
        t1, t2 = 0.8 + 0.1j, -0.3 + 0.5j
        base = t1 * N4 + t2 * linalg.adjoint(N4)

        coeffs = np.array(
            [np.linalg.det(s * np.eye(4) + base) for s in range(5)], dtype=complex
        )
        # interpolate the monic quartic from 5 integer samples
        vander = np.vander(np.arange(5.0), 5, increasing=True).astype(complex)
        poly = np.linalg.solve(vander, coeffs)
        got = sorted(np.roots(poly[::-1]), key=lambda z: (z.real, z.imag))
        expected = sorted((-lam for lam in linalg.eigen(base)[0]), key=lambda z: (z.real, z.imag))
        for r, e in zip(got, expected):
            assert abs(r - e) < 1e-8


class TestProjective:
    def test_canonical_first_nonzero_real_positive(self):
        v = linalg.canonical_projective([0.0, 2j, 1.0])
        assert abs(np.linalg.norm(v) - 1.0) < 1e-14
        assert abs(v[1].imag) < 1e-14 and v[1].real > 0

    @given(arrays(float, 4, elements=finite), arrays(float, 4, elements=finite))
    @settings(max_examples=25, deadline=None)
    def test_canonical_idempotent_and_scale_invariant(self, re, im):
        v = re + 1j * im
        if np.linalg.norm(v) < 1e-6:
            return
        c1 = linalg.canonical_projective(v)
        c2 = linalg.canonical_projective((0.7 - 2.1j) * v)
        assert np.allclose(c1, c2, atol=1e-12)
        assert np.allclose(c1, linalg.canonical_projective(c1), atol=1e-14)

    @pytest.mark.parametrize(
        "v, match",
        [
            (np.ones((2, 2, 2)), "finite vectors"),
            ([1.0, np.nan], "finite vectors"),
            ([[1.0, 0.0], [np.inf, 1.0]], "finite vectors"),
            ([0.0, 0.0], "nonzero"),
            ([[1.0, 0.0], [0.0, 0.0]], "nonzero"),
        ],
        ids=["three axes", "nan", "inf row", "zero", "zero row"],
    )
    def test_canonical_rejects_what_is_no_point(self, v, match):
        with pytest.raises(ValueError, match=match):
            linalg.canonical_projective(v)
