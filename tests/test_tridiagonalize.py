import warnings

import numpy as np
import pytest

from tridiag4 import linalg, pencil
from tridiag4.errors import NoSectionZero, Unsolved
from tridiag4.generate import jordan_block, make_matrix, random_gaussian, random_unitary
from tridiag4.genericity import common_eigenvectors
from tridiag4.pencil import Pencil, pencil_matrix, section_zeros
from tridiag4.tridiagonalize import (
    Flag,
    _result_from_flag,
    _section_path,
    Options,
    build_flag,
    deflate_common_eigenvector,
    flag_residuals,
    flag_to_unitary,
    perturb_and_retry,
    tridiagonalize,
    tridiagonalize3,
    verify,
)

N4 = jordan_block(4)
SCALES = (1e-150, 1e-40, 1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12, 1e40, 1e150)


def solve_quiet(a, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return tridiagonalize(a, **kw)


def near_structured(kind, d, seed):
    """``X + d*||X||*G/||G||`` for a structured ``X`` and a complex Gaussian ``G``."""
    rng = np.random.default_rng([seed, 99])
    if kind == "unitary":
        x = random_unitary(4, rng)
    elif kind == "normal":
        q = random_unitary(4, rng)
        x = q @ np.diag(random_gaussian(4, rng)[0]) @ np.conj(q).T
    else:
        g = random_gaussian(4, rng)
        x = (g + np.conj(g).T) / 2
        if kind == "skew_hermitian_plus_2i":
            x = 1j * x + 2 * np.eye(4)
    g = random_gaussian(4, rng)
    return x + d * linalg.matrix_norm(x) * g / linalg.matrix_norm(g)


def assert_gates(a, r, key):
    assert r.off_residual <= 1e-8, key
    assert r.unitarity_residual <= 1e-10, key
    assert verify(r, a).spectrum_gap <= 1e-8 * linalg.matrix_norm(a), key


class TestDispatch:
    def test_two_by_two_trivial(self):
        a = np.array([[1.0 + 1j, 2.0], [3.0, 4.0]])
        r = tridiagonalize(a)
        assert r.provenance == "trivial"
        assert np.array_equal(r.u, np.eye(2))
        assert np.array_equal(r.t, a)

    def test_one_by_one(self):
        r = tridiagonalize(np.array([[2.0 - 1j]]))
        assert r.off_residual == 0.0

    def test_exactly_tridiagonal_is_trivial(self):
        a = make_matrix("tridiagonal", 4, 0)
        r = tridiagonalize(a)
        assert r.provenance == "trivial"
        assert np.array_equal(r.t, a)

    def test_n5_rejected(self):
        with pytest.raises(ValueError):
            tridiagonalize(np.eye(5))

    def test_random_4x4(self):
        for seed in range(25):
            a = make_matrix("gaussian", 4, seed)
            r = solve_quiet(a, seed=seed)
            assert r.off_residual <= 1e-8
            assert r.unitarity_residual <= 1e-10
            t2 = r.u @ a @ np.conj(r.u).T
            assert np.allclose(t2, r.t)

    def test_similarity_invariance_of_success(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            a = make_matrix("gaussian", 4, 30 + seed)
            u = random_unitary(4, rng)
            r = solve_quiet(u @ a @ np.conj(u).T, seed=seed)
            assert r.off_residual <= 1e-8

    @pytest.mark.parametrize("scale", SCALES)
    def test_scale_free(self, scale):
        for seed in range(20):
            a = make_matrix("gaussian", 4, seed)
            r = solve_quiet(scale * a)
            assert r.off_residual <= 1e-8, seed
            assert r.provenance == solve_quiet(a).provenance, seed
            # the candidate's point lies on the pencil of the input itself
            s = np.linalg.svd(pencil_matrix(Pencil(scale * a), r.candidate.point.t), compute_uv=False)
            assert s[3] <= 1e-8 * s[0], seed

    @pytest.mark.parametrize("c", [1e4, 1e6, 1e8, 1e12])
    def test_shift_free(self, c):
        # A + c*I has the flags of A; the solve runs on the centred matrix
        for seed in range(20):
            a = make_matrix("gaussian", 4, seed) + c * np.eye(4)
            assert_gates(a, tridiagonalize(a), seed)

    @pytest.mark.parametrize("seed", [10129, 10180, 10366])
    def test_first_flag_needs_few_polishes(self, seed, monkeypatch):
        # the first polished root of the dodecic should certify; these
        # seeds once took over a hundred polish runs
        calls = []
        polish = pencil._polish
        monkeypatch.setattr(pencil, "_polish", lambda *args: calls.append(1) or polish(*args))
        r = solve_quiet(make_matrix("gaussian", 4, seed), seed=seed)
        assert r.provenance == "section_zero"
        assert r.off_residual <= 1e-8
        assert len(calls) <= 12

    def test_eigenvector_points_screened_before_certify(self, monkeypatch):
        # one batched sigma4 screens the eight eigenvector points, none of
        # which certifies on a Gaussian; only the first polished root of the
        # dodecic reaches the full certification
        calls = []
        certify = pencil._certify
        monkeypatch.setattr(pencil, "_certify", lambda *args: calls.append(1) or certify(*args))
        for seed in range(10000, 10010):
            calls.clear()
            r = solve_quiet(make_matrix("gaussian", 4, seed), seed=seed)
            assert r.provenance == "section_zero", seed
            assert len(calls) <= 2, seed

    @pytest.mark.parametrize("kind", ["nilpotent", "conjugated nilpotent", "2+2 blocks", "conjugated 2+2 blocks"])
    def test_eigenvector_points_pass_the_screen(self, kind):
        # every eigenvector point of these inputs certifies, so the forced
        # section path returns one of them through the screen
        a = N4.astype(complex)
        if "2+2" in kind:
            a = np.zeros((4, 4), dtype=complex)
            a[:2, :2] = make_matrix("gaussian", 2, 19)
            a[2:, 2:] = make_matrix("gaussian", 2, 20)
        if kind.startswith("conjugated"):
            u = random_unitary(4, np.random.default_rng(7))
            a = u @ a @ np.conj(u).T
        r = solve_quiet(a, force_path="section")
        assert r.provenance == "shortcut_dimW3"
        assert r.off_residual <= 1e-8

    def test_spectrum_preserved(self):
        for seed in range(10):
            a = make_matrix("gaussian", 4, seed)
            r = solve_quiet(a, seed=seed)
            rep = verify(r, a)
            assert rep.spectrum_gap <= 1e-8 * linalg.matrix_norm(a)


class TestSectionPath:
    @pytest.mark.parametrize("d", [1e-1, 1e-3, 1e-6, 1e-9])
    @pytest.mark.parametrize("kind", ["hermitian", "normal", "unitary", "skew_hermitian_plus_2i"])
    def test_near_structured_solves(self, kind, d):
        # near these inputs the flag points crowd together and no polished
        # root certifies; the refinement of U from the Schur basis solves them
        for seed in range(5):
            a = near_structured(kind, d, seed)
            assert_gates(a, tridiagonalize(a), seed)

    def test_every_returned_result_passes_the_unitarity_gate(self):
        # on these uncentred inputs a flag can meet the off-band gate with
        # ||UU* - I|| far above 1e-10, so both residuals must be gated
        for seed in range(20):
            a = make_matrix("gaussian", 4, seed) + 1e8 * np.eye(4)
            a = a / linalg.matrix_norm(a)
            for path in (_section_path, perturb_and_retry):
                try:
                    r = path(a, Options())
                except (NoSectionZero, Unsolved):
                    continue
                assert r.off_residual <= 1e-8, (path.__name__, seed)
                assert r.unitarity_residual <= 1e-10, (path.__name__, seed)


class TestTridiagonalize3:
    def test_diagonal(self):
        r = tridiagonalize3(np.diag([1.0, 2.0, 3.0]))
        assert r.off_residual == 0.0

    def test_hermitian_goes_through_eigenvector_case(self):
        for seed in range(5):
            a = make_matrix("hermitian", 3, seed)
            r = tridiagonalize3(a, seed=seed)
            assert r.off_residual <= 1e-10

    def test_random_batch(self):
        for seed in range(50):
            a = make_matrix("gaussian", 3, seed)
            r = tridiagonalize3(a, seed=seed)
            assert r.off_residual <= 1e-9
            assert r.unitarity_residual <= 1e-12

    @pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
    def test_scale_free(self, scale):
        # called directly, without the normalization of tridiagonalize
        for seed in range(20):
            r = tridiagonalize3(scale * make_matrix("gaussian", 3, seed), seed=seed)
            assert r.off_residual <= 1e-8, seed
            assert r.unitarity_residual <= 1e-10, seed


    @pytest.mark.parametrize("d", [1e-1, 1e-3, 1e-5, 1e-7, 1e-8, 3e-8, 1e-9, 1e-12, 0.0])
    @pytest.mark.parametrize("kind", ["hermitian", "skew_hermitian_plus_2i"])
    def test_near_hermitian_flags_at_roundoff(self, kind, d):
        # A + A* is nearly scalar or Av nearly parallel to v: the second
        # flag vector needs two projections against v, and v counts as a
        # common eigenvector only at roundoff level
        for seed in range(20):
            h = make_matrix("hermitian", 3, seed)
            x = h if kind == "hermitian" else 1j * h + 2 * np.eye(3)
            r = tridiagonalize3(x + d * make_matrix("gaussian", 3, 1000 + seed), seed=seed)
            assert r.off_residual <= 1e-12, seed
            assert r.unitarity_residual <= 1e-10, seed


class TestDeflation:
    def test_normal_matrix(self):
        rng = np.random.default_rng(2)
        u = random_unitary(4, rng)
        a = u @ np.diag([1.0, 2.0j, -1.0, 3.0]) @ np.conj(u).T
        vs = common_eigenvectors(a)
        assert vs
        r = deflate_common_eigenvector(a, vs[0])
        assert r.off_residual <= 1e-10
        assert r.provenance == "common_eigenvector_deflation"

    def test_block_structure_matches_direct_construction(self):
        # [[lam, x*], [0, B]] with e1 a common eigenvector: the deflated
        # result must reproduce the compressed 3x3 solve
        lam = 1.5 - 0.5j
        b = make_matrix("gaussian", 3, 7)
        a = np.zeros((4, 4), dtype=complex)
        a[0, 0] = lam
        a[1:, 1:] = b
        r = deflate_common_eigenvector(a, np.eye(4)[0], seed=3)
        assert r.off_residual <= 1e-10
        assert abs(r.t[0, 0] - lam) < 1e-10
        sub = tridiagonalize3(b, seed=3)
        got = sorted(np.linalg.eigvals(r.t[1:, 1:]), key=lambda z: (z.real, z.imag))
        want = sorted(np.linalg.eigvals(sub.t), key=lambda z: (z.real, z.imag))
        assert np.allclose(got, want, atol=1e-8)

    def test_hermitian_full_pipeline_residuals(self):
        for seed in range(5):
            a = make_matrix("hermitian", 4, seed)
            r = solve_quiet(a, seed=seed)
            assert r.provenance == "common_eigenvector_deflation"
            assert r.off_residual <= 1e-10


class TestBuildFlag:
    def test_tridiagonal_candidate_gives_coordinate_flag(self):
        a = make_matrix("tridiagonal", 4, 4)
        zeros = section_zeros(Pencil(a))
        e1 = np.eye(4)[0]
        cand = next(
            z for z in zeros if linalg.projective_distance(z.point.v, e1) < 1e-6
        )
        flag = build_flag(a, cand)
        for k in range(4):
            assert abs(abs(flag.basis[k, k]) - 1.0) < 1e-6

    def test_containments_hold_for_accepted_candidates(self):
        a = make_matrix("gaussian", 4, 5)
        zeros = section_zeros(Pencil(a))
        for cand in zeros[:4]:
            flag = build_flag(a, cand)
            r2, r3 = flag_residuals(a, flag.basis)
            assert r2 <= 1e-8
            assert r3 <= 1e-8

    def test_shortcut_candidate_builds_valid_flag(self):
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = make_matrix("gaussian", 2, 8)
        a[2:, 2:] = make_matrix("gaussian", 2, 9)
        zeros = section_zeros(Pencil(a))
        cand = next(z for z in zeros if z.shortcut)
        flag = build_flag(a, cand)
        r2, _ = flag_residuals(a, flag.basis)
        assert r2 <= 1e-8
        assert flag.provenance == "shortcut_dimW3"


class TestFlagToUnitary:
    def test_standard_flag(self):
        flag = Flag(basis=np.eye(4, dtype=complex))
        assert np.array_equal(flag_to_unitary(flag), np.eye(4))

    def test_permuted_flag(self):
        perm = np.eye(4)[:, [1, 0, 2, 3]].astype(complex)
        u = flag_to_unitary(Flag(basis=perm))
        assert np.array_equal(u, perm.T)

    def test_unitary_columns_invert(self):
        rng = np.random.default_rng(3)
        v = random_unitary(4, rng)
        u = flag_to_unitary(Flag(basis=v))
        assert np.allclose(u, np.conj(v).T)
        for i in range(4):
            assert np.allclose(np.conj(u).T @ np.eye(4)[i], v[:, i])


class TestFlagEquivalence:
    def test_both_characterizations_hold_on_every_flag(self):
        # the two flag conditions are equivalent; check both residuals on
        # flags produced by all the main paths
        mats = [
            make_matrix("gaussian", 4, 11),
            make_matrix("hermitian", 4, 12),
            make_matrix("tridiagonal", 4, 13),
        ]
        for a in mats:
            r = solve_quiet(a)
            r2, r3 = flag_residuals(a, r.flag.basis)
            assert r2 <= 1e-8
            assert r3 <= 1e-8


class TestPerturbAndRetry:
    def test_jordan_block_forced(self):
        r = solve_quiet(N4, force_path="perturb")
        assert r.provenance == "perturbed"
        assert r.perturbation_used > 0
        assert r.off_residual <= 1e-8

    def test_jordan_plus_generic_block(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 0] = a[1, 1] = 1.5
        a[0, 1] = 1.0
        a[2:, 2:] = make_matrix("gaussian", 2, 9)
        a[0, 2] = 0.3 + 0.2j
        a[1, 3] = -0.1j
        assert common_eigenvectors(a) == []
        r = solve_quiet(a, force_path="perturb")
        assert r.off_residual <= 1e-8 and r.provenance == "perturbed"

    def test_hermitian_forced(self):
        a = make_matrix("hermitian", 4, 14)
        r = solve_quiet(a, force_path="perturb")
        assert r.off_residual <= 1e-8

    def test_unsolved_when_ladder_empty(self):
        with pytest.raises(Unsolved):
            perturb_and_retry(N4, Options(ladder=()))


class TestVerify:
    def test_valid_result_reports_small_residuals(self):
        a = make_matrix("gaussian", 4, 15)
        r = solve_quiet(a, seed=15)
        rep = verify(r, a)
        assert rep.off_residual <= 1e-8
        assert rep.unitarity_residual <= 1e-10
        assert rep.recompute_gap <= 1e-12

    def test_corrupted_unitary_detected(self):
        a = make_matrix("gaussian", 4, 16)
        r = solve_quiet(a, seed=16)
        r.u[0, 0] += 1e-3
        rep = verify(r, a)
        assert 1e-4 < rep.unitarity_residual < 1e-2

    def test_spectrum_matching_on_random(self):
        a = make_matrix("gaussian", 4, 17)
        r = solve_quiet(a, seed=17)
        rep = verify(r, a)
        assert rep.spectrum_gap <= 1e-8 * linalg.matrix_norm(a)
        assert len(rep.matching) == 4


class TestOffResidual:
    def test_measures_relative_max_entry(self):
        # identity flag: T = A, so the residual is the largest entry off the
        # tridiagonal band over ||A||
        a = np.diag([2.0, 0, 0, 0]).astype(complex)
        a[3, 0] = 2e-5
        r = _result_from_flag(a, np.eye(4, dtype=complex), "section_zero", seed=0)
        assert r.off_residual == pytest.approx(2e-5 / linalg.matrix_norm(a))
        assert r.unitarity_residual == 0.0
        r2 = _result_from_flag(np.ones((2, 2)), np.eye(2, dtype=complex), "trivial", seed=0)
        assert r2.off_residual == 0.0
