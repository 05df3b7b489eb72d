import sys
import warnings

import numpy as np
import pytest

from tridiag4 import linalg, pencil
from tridiag4.errors import Unsolved
from tridiag4.generate import jordan_block, make_matrix, random_unitary
from tridiag4.genericity import classify
from tridiag4.pencil import Pencil, _flag_bases, _measure, _passes, section_zeros
from tridiag4.tridiagonalize import (
    TridiagResult,
    _direct,
    _match,
    _refine_unitary,
    tridiagonalize,
    verify,
)

from helpers import flag_residuals, near_structured, projective_distance

N4 = jordan_block(4)
SCALES = (1e-150, 1e-40, 1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12, 1e40, 1e150)


def solve_quiet(a, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return tridiagonalize(a, **kw)


def flag_from_vector(a, v):
    """The flag basis grown from one vector: a one-row stack of :func:`pencil._flag_bases`."""
    return _flag_bases(a, np.conj(a).T, v[None])[0]


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
        # U and T are the result's own writeable arrays, not the pencil's read-only A or a shared constant
        r.u[0, 0] = r.t[0, 0] = 0.0
        assert tridiagonalize(a).u[0, 0] == 1.0

    @pytest.mark.parametrize("shape", [(5, 5), (8, 8), (0, 0), (3, 4)])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(ValueError):
            tridiagonalize(np.ones(shape))

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol"):
            tridiagonalize(make_matrix("gaussian", 4, 0), tol=tol)

    @pytest.mark.parametrize("force_path", ["section", "Perturb", ""])
    def test_unknown_force_path_rejected(self, force_path):
        with pytest.raises(ValueError, match="force_path"):
            tridiagonalize(make_matrix("gaussian", 4, 0), force_path=force_path)

    @pytest.mark.parametrize("seed", [True, 1.5, np.array([1, 2]), -1], ids=["bool", "float", "array", "negative"])
    def test_seed_must_be_an_integer(self, seed):
        # the direct path draws nothing and the forced ladder draws from the seed: both refuse it
        for force_path in (None, "perturb"):
            with pytest.raises(ValueError, match="seed must be (an integer|at least 0)"):
                tridiagonalize(make_matrix("gaussian", 4, 0), seed=seed, force_path=force_path)

    def test_numpy_integer_seed(self):
        # the forced ladder draws its direction from the seed
        r = solve_quiet(N4, seed=np.int64(42), force_path="perturb")
        np.testing.assert_array_equal(r.u, solve_quiet(N4, seed=42, force_path="perturb").u)

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

    @pytest.mark.parametrize("c", [1e4, 1e6, 1e8, 1e12])
    def test_shift_free(self, c):
        # A + c*I has the flags of A; the solve runs on the centred matrix
        for seed in range(20):
            a = make_matrix("gaussian", 4, seed) + c * np.eye(4)
            assert_gates(a, tridiagonalize(a), seed)

    @pytest.mark.parametrize("seed", [10129, 10180, 10366])
    def test_first_flag_needs_few_polishes(self, seed, monkeypatch):
        # the first root of the dodecic should certify before any root is
        # refined; these seeds once took over a hundred polish runs
        calls = []
        refine = pencil._refine_roots
        monkeypatch.setattr(pencil, "_refine_roots", lambda *args: calls.append(1) or refine(*args))
        r = solve_quiet(make_matrix("gaussian", 4, seed), seed=seed)
        assert r.provenance == "section_zero"
        assert r.off_residual <= 1e-8
        assert not calls

    def test_eigenvector_points_screened_before_certify(self, monkeypatch):
        # one batched sigma4 screens the eight eigenvector points, none of
        # which certifies on a Gaussian; only the first root of the dodecic
        # reaches the full certification
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
        # every eigenvector point of these inputs certifies, so the first
        # candidate flag is one of them, through the screen; the public path
        # returns "trivial" on the two tridiagonal inputs
        a = N4.astype(complex)
        if "2+2" in kind:
            a = np.zeros((4, 4), dtype=complex)
            a[:2, :2] = make_matrix("gaussian", 2, 19)
            a[2:, 2:] = make_matrix("gaussian", 2, 20)
        if kind.startswith("conjugated"):
            u = random_unitary(4, np.random.default_rng(7))
            a = u @ a @ np.conj(u).T
        p = Pencil(a)
        u, provenance = next(_direct(p, 1e-8))
        assert provenance == "shortcut_dimW3"
        _, off, unitarity = _measure(p.centred[0], u)
        assert _passes(off, unitarity, 1e-8)

    def test_determinant_bound_keeps_the_screen(self):
        # sqrt(det G)/tr(G)^2 is a lower bound on sigma4, so a row it clears
        # fails the screen anyway: the mask is that of sigma4 alone, and every
        # row it keeps scores exactly as without the bound
        blocks = np.zeros((4, 4), dtype=complex)
        blocks[:2, :2] = make_matrix("gaussian", 2, 19)
        blocks[2:, 2:] = make_matrix("gaussian", 2, 20)
        u = random_unitary(4, np.random.default_rng(7))
        inputs = [x for a in (N4.astype(complex), blocks) for x in (a, u @ a @ np.conj(u).T)]
        # near N4 the eight points pass with sigma4 from 1e-6 to 7e-5, and bounds about an eighth of that
        inputs += [N4 + d * make_matrix("gaussian", 4, 500 + seed) for d in (1e-5, 1e-6, 1e-7) for seed in range(3)]
        kinds = ["hermitian", "normal", "unitary", "skew_hermitian_plus_2i"]
        inputs += [near_structured(kind, 10.0**-e, seed) for kind in kinds for e in range(1, 10) for seed in range(5)]
        inputs += [make_matrix("gaussian", 4, seed) for seed in range(100)]
        cleared = kept = 0
        for i, a in enumerate(inputs):
            q = Pencil(a).unit
            v = pencil._distinguished_seeds(q)[1]
            plain, screened = pencil._section_score(q, v), pencil._section_score(q, v, screen=True)
            np.testing.assert_array_equal(screened <= np.sqrt(pencil.CERT_TOL), plain <= np.sqrt(pencil.CERT_TOL), err_msg=str(i))
            near = np.isfinite(screened)
            np.testing.assert_array_equal(screened[near], plain[near], err_msg=str(i))
            cleared, kept = cleared + np.sum(~near), kept + np.sum(screened <= np.sqrt(pencil.CERT_TOL))
        assert cleared > 0 and kept > 0

    def test_spectrum_preserved(self):
        for seed in range(10):
            a = make_matrix("gaussian", 4, seed)
            r = solve_quiet(a, seed=seed)
            rep = verify(r, a)
            assert rep.spectrum_gap <= 1e-8 * linalg.matrix_norm(a)


class TestSectionPath:
    @pytest.mark.parametrize("d", [1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9])
    @pytest.mark.parametrize("kind", ["hermitian", "normal", "unitary", "skew_hermitian_plus_2i"])
    def test_near_structured_solves(self, kind, d):
        # near these inputs the flag points crowd together and often no root
        # of the dodecic certifies; Gauss-Newton from the flags of the best
        # sheets solves them without the perturbation ladder
        for seed in range(20):
            a = near_structured(kind, d, seed)
            r = tridiagonalize(a)
            assert_gates(a, r, seed)
            assert r.provenance != "perturbed", seed

    @pytest.mark.parametrize(("kind", "d", "seed"), [("hermitian", 1e-6, 9), ("hermitian", 1e-4, 31), ("skew_hermitian_plus_2i", 1e-2, 52)])
    def test_near_structured_refined_from_a_flag(self, kind, d, seed):
        # from a Schur basis, where T is nearly diagonal and the Jacobian
        # nearly loses rank, the first two fell through to the ladder; the
        # third fails from the best flag start and converges from the second
        a = near_structured(kind, d, seed)
        r = tridiagonalize(a)
        assert (r.provenance, r.perturbation_used) == ("refined", 0.0)
        assert_gates(a, r, seed)

    def test_gaussian_flags_well_below_the_gate(self):
        # the first flag comes from the best of three best-conditioned roots;
        # taking the best-conditioned root alone let off_residual reach 1.5e-9
        worst = 0.0
        for seed in range(10000, 10200):
            r = tridiagonalize(make_matrix("gaussian", 4, seed))
            assert r.provenance == "section_zero", seed
            worst = max(worst, r.off_residual)
        assert worst <= 1e-10

    def test_flag_points_over_a_tight_gate_are_skipped(self):
        # at tol = 1e-13 no flag of this Gaussian's 12 flag points meets the
        # gate: the loop passes over all of them to Gauss-Newton from them
        a = make_matrix("gaussian", 4, 6)
        p = Pencil(a)
        flags = [u for u, provenance in _direct(p, 1e-13) if provenance == "section_zero"]
        assert len(flags) == 12 and min(_measure(p.centred[0], u)[1] for u in flags) > 1e-13
        r = tridiagonalize(a, tol=1e-13)
        assert r.provenance == "refined"
        assert_gates(a, r, 6)
        assert r.off_residual <= 1e-13

    def test_every_returned_result_passes_the_unitarity_gate(self):
        # on these near-scalar inputs an uncentred flag could meet the
        # off-band gate with ||UU* - I|| far above 1e-10; the default path
        # and the forced ladder must gate both residuals
        for seed in range(20):
            a = make_matrix("gaussian", 4, seed) + 1e8 * np.eye(4)
            a = a / linalg.matrix_norm(a)
            for path in (None, "perturb"):
                try:
                    r = tridiagonalize(a, force_path=path)
                except Unsolved:
                    continue
                assert r.off_residual <= 1e-8, (path, seed)
                assert r.unitarity_residual <= 1e-10, (path, seed)


class TestFlagPointCount:
    @pytest.mark.parametrize(
        ("kind", "d", "at_least"),
        [
            ("unitary", 1e-4, 19),
            ("unitary", 1e-6, 20),
            ("normal", 1e-3, 15),
            ("normal", 1e-4, 20),
            ("normal", 1e-6, 18),
            ("hermitian", 1e-1, 20),
            ("hermitian", 1e-2, 4),
            ("skew_hermitian_plus_2i", 1e-1, 20),
            ("skew_hermitian_plus_2i", 1e-2, 17),
            ("normal", 1e-1, 20),
            ("normal", 1e-2, 19),
            ("unitary", 1e-1, 20),
        ],
    )
    def test_near_structured_counts(self, kind, d, at_least):
        # near these inputs the coefficients of the dodecic lose digits; the
        # roots refined together on its direct values still certify.  The
        # floors are the counts of seeds 0-19 that give 12, so none of them
        # can drift down unseen
        def count(a):
            return len(section_zeros(Pencil(a)))

        found = sum(count(near_structured(kind, d, seed)) == 12 for seed in range(20))
        assert found >= at_least

    @pytest.mark.parametrize("kind", ["gaussian", "hermitian", "normal", "unitary", "skew_hermitian_plus_2i"])
    def test_circle_samples_by_eigh_match_eig(self, kind):
        # on |mu| = 1, A + mu*A* is a phase times a Hermitian matrix, and the
        # dodecic's samples taken by eigh agree with those of the general eig:
        # to 1e-12 of max|R| on Gaussians; near Hermitian the two differ by up
        # to 3.8e-12, and a 50-digit evaluation puts both about 1e-12 off
        if kind == "gaussian":
            inputs, bound = [make_matrix("gaussian", 4, seed) for seed in range(50)], 1e-12
        else:
            inputs, bound = [near_structured(kind, 1e-1, seed) for seed in range(20)], 1e-11
        for seed, a in enumerate(inputs):
            q = Pencil(a).unit
            by_eig = pencil._dodecic_values(q, pencil._CIRCLE[13])
            by_eigh = pencil._dodecic_values(q, pencil._CIRCLE[13], circle=True)
            assert np.abs(by_eigh - by_eig).max() <= bound * np.abs(by_eig).max(), seed

    @pytest.mark.parametrize("d", [1e-4, 1e-6])
    @pytest.mark.parametrize("kind", ["hermitian", "normal", "unitary", "skew_hermitian_plus_2i"])
    def test_near_structured_count_at_most_twelve(self, kind, d):
        # a point counts only when its flag passes the solver's gate; counted
        # by sigma4 alone, every hermitian seed at 1e-4 gave 20
        for seed in range(20):
            assert len(section_zeros(Pencil(near_structured(kind, d, seed)))) <= 12, seed


class TestThreeByThree:
    def test_diagonal(self):
        r = tridiagonalize(np.diag([1.0, 2.0, 3.0]))
        assert r.off_residual == 0.0

    def test_hermitian_goes_through_eigenvector_case(self):
        for seed in range(5):
            a = make_matrix("hermitian", 3, seed)
            r = tridiagonalize(a, seed=seed)
            assert r.off_residual <= 1e-10

    def test_random_batch(self):
        for seed in range(50):
            a = make_matrix("gaussian", 3, seed)
            r = tridiagonalize(a, seed=seed)
            assert r.off_residual <= 1e-9
            assert r.unitarity_residual <= 1e-12

    @pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
    def test_scale_free(self, scale):
        for seed in range(20):
            r = tridiagonalize(scale * make_matrix("gaussian", 3, seed), seed=seed)
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
            r = tridiagonalize(x + d * make_matrix("gaussian", 3, 1000 + seed), seed=seed)
            assert r.off_residual <= 1e-12, seed
            assert r.unitarity_residual <= 1e-10, seed


class TestDeflation:
    def test_normal_matrix(self):
        rng = np.random.default_rng(2)
        u = random_unitary(4, rng)
        a = u @ np.diag([1.0, 2.0j, -1.0, 3.0]) @ np.conj(u).T
        assert classify(a).common_eigenvectors
        r = tridiagonalize(a)
        assert r.off_residual <= 1e-10
        assert r.provenance == "common_eigenvector_deflation"

    def test_block_structure_matches_direct_construction(self):
        # [[lam, 0], [0, B]] with e1 a common eigenvector: the deflated
        # result must reproduce the compressed 3x3 solve
        lam = 1.5 - 0.5j
        b = make_matrix("gaussian", 3, 7)
        a = np.zeros((4, 4), dtype=complex)
        a[0, 0] = lam
        a[1:, 1:] = b
        r = tridiagonalize(a, seed=3)
        assert r.provenance == "common_eigenvector_deflation"
        assert r.off_residual <= 1e-10
        assert abs(r.t[0, 0] - lam) < 1e-10
        sub = tridiagonalize(b, seed=3)
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
            z for z in zeros if projective_distance(z.v, e1) < 1e-6
        )
        basis = flag_from_vector(a, cand.v)
        for k in range(4):
            assert abs(abs(basis[k, k]) - 1.0) < 1e-6

    def test_containments_hold_for_accepted_candidates(self):
        a = make_matrix("gaussian", 4, 5)
        zeros = section_zeros(Pencil(a))
        for cand in zeros[:4]:
            r2, r3 = flag_residuals(a, flag_from_vector(a, cand.v))
            assert r2 <= 1e-8
            assert r3 <= 1e-8

    def test_shortcut_candidate_builds_valid_flag(self):
        a = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = make_matrix("gaussian", 2, 8)
        a[2:, 2:] = make_matrix("gaussian", 2, 9)
        zeros = section_zeros(Pencil(a))
        cand = next(z for z in zeros if z.shortcut)
        r2, _ = flag_residuals(a, flag_from_vector(a, cand.v))
        assert r2 <= 1e-8
        # the input itself is tridiagonal; a unitary conjugate reaches the flag search
        q = random_unitary(4, np.random.default_rng(0))
        assert tridiagonalize(q @ a @ np.conj(q).T).provenance == "shortcut_dimW3"


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
            r2, r3 = flag_residuals(a, np.conj(r.u).T)
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
        assert classify(a).common_eigenvectors == []
        r = solve_quiet(a, force_path="perturb")
        assert r.off_residual <= 1e-8 and r.provenance == "perturbed"

    def test_hermitian_forced(self):
        a = make_matrix("hermitian", 4, 14)
        r = solve_quiet(a, force_path="perturb")
        assert r.off_residual <= 1e-8

    def test_refinement_gives_up_after_its_steps(self, monkeypatch):
        # from the Schur basis of a Gaussian C the far entries are far from
        # the goal; with its step budget spent the refinement returns None
        c = Pencil(make_matrix("gaussian", 4, 3)).centred[0]
        u = np.conj(np.linalg.qr(np.linalg.eig(c)[1])[0]).T
        assert pencil._off_max(u @ c @ np.conj(u).T) > 1e-2
        refined = _refine_unitary(c, u, 1e-8)
        assert pencil._off_max(refined @ c @ np.conj(refined).T) <= 1e-10
        monkeypatch.setattr(sys.modules["tridiag4.tridiagonalize"], "REFINE_STEPS", 0)
        assert _refine_unitary(c, u, 1e-8) is None

    def test_unsolved_when_ladder_empty(self, monkeypatch):
        # the dotted path "tridiag4.tridiagonalize" names the function, not the module
        monkeypatch.setattr(sys.modules["tridiag4.tridiagonalize"], "LADDER", ())
        with pytest.raises(Unsolved):
            tridiagonalize(N4, force_path="perturb")


def greedy_one_list(lam_a, lam_t):
    """The matching of ``verify`` as a list: each ``lam_a`` in turn pops the nearest remaining ``lam_t``."""
    rest = list(lam_t)
    matching, gap = [], 0.0
    for la in lam_a:
        lt = rest.pop(int(np.argmin([abs(la - x) for x in rest])))
        matching.append((complex(la), complex(lt)))
        gap = max(gap, abs(la - lt))
    return matching, float(gap)


def sorted_spectrum(lam):
    return lam[np.lexsort((lam.imag, lam.real))]


class TestVerify:
    def test_matching_is_the_list_based_greedy_rule(self):
        # near ties: clusters of four at roundoff distance, exact ties, points
        # on a circle round their partner, and a spectrum whose greedy
        # matching is not the closest overall
        rng = np.random.default_rng(29)
        cases = [
            (np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.5, 0.5, 0.5, 0.5])),
            (np.array([0.0, 1.0]), np.array([0.6, 2.0])),
            (np.zeros(4), np.exp(2j * np.pi * np.arange(4) / 4)),
        ]
        for scale in (1e-16, 1e-15, 1e-12):
            for _ in range(50):
                # each spectrum draws its four values from two centres
                centre = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                lam_a, lam_t = centre[rng.integers(0, 2, (2, 4))] + scale * (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
                cases.append((lam_a, lam_t))
        for lam_a, lam_t in cases:
            lam_a, lam_t = sorted_spectrum(lam_a.astype(complex)), sorted_spectrum(lam_t.astype(complex))
            assert _match(lam_a, lam_t) == greedy_one_list(lam_a, lam_t)

    @pytest.mark.parametrize("seed", range(5))
    def test_spectrum_check_on_a_repeated_eigenvalue(self, seed):
        q = random_unitary(4, np.random.default_rng(seed))
        a = q @ np.diag([1.0, 1.0, 1.0 + 1e-12, 2.0j]) @ np.conj(q).T
        r = solve_quiet(a)
        rep = verify(r, a)
        matching, gap = greedy_one_list(sorted_spectrum(np.linalg.eigvals(a)), sorted_spectrum(np.linalg.eigvals(r.t)))
        assert (rep.matching, rep.spectrum_gap) == (matching, gap)

    @pytest.mark.parametrize(
        "provenance",
        [
            "trivial",
            "cubic_curve_3x3",
            "common_eigenvector_deflation",
            "section_zero",
            "shortcut_dimW3",
            "refined",
            "perturbed",
        ],
    )
    def test_result_reports_what_verify_measures(self, provenance):
        # every path's residuals are those verify recomputes, to the bit
        u = random_unitary(4, np.random.default_rng([0, 5]))
        j22 = np.diag([1.0, 0.0, 1.0], 1) + 2 * np.eye(4)
        a, kw = {
            "trivial": (make_matrix("gaussian", 2, 0), {}),
            "cubic_curve_3x3": (make_matrix("gaussian", 3, 0), {}),
            "common_eigenvector_deflation": (make_matrix("hermitian", 4, 0), {}),
            "section_zero": (make_matrix("gaussian", 4, 0), {}),
            "shortcut_dimW3": (u @ N4 @ np.conj(u).T, {}),
            "refined": (u @ j22 @ np.conj(u).T, {}),
            "perturbed": (make_matrix("gaussian", 4, 0), {"force_path": "perturb"}),
        }[provenance]
        r = solve_quiet(a, **kw)
        assert r.provenance == provenance
        rep = verify(r, a)
        assert rep.off_residual == r.off_residual
        assert rep.unitarity_residual == r.unitarity_residual
        assert rep.recompute_gap == 0.0

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

    @pytest.mark.parametrize("shape", [(5, 5), (3, 4)])
    def test_rejects_what_the_solver_rejects(self, shape):
        r = TridiagResult(np.eye(shape[0]), np.ones(shape), 0.0, 0.0, "trivial")
        with pytest.raises(ValueError, match="1 <= n <= 4"):
            verify(r, np.ones(shape))

    def test_spectrum_matching_on_random(self):
        a = make_matrix("gaussian", 4, 17)
        r = solve_quiet(a, seed=17)
        rep = verify(r, a)
        assert rep.spectrum_gap <= 1e-8 * linalg.matrix_norm(a)
        assert len(rep.matching) == 4


class TestOffResidual:
    def test_gaussian_residuals_stay_at_roundoff(self):
        # the first flag grows from the eigenvector of its sheet; over these
        # seeds the largest off-band residual is 3.3e-12
        worst = max(tridiagonalize(make_matrix("gaussian", 4, seed)).off_residual for seed in range(10000, 10200))
        assert worst <= 1e-10

    def test_measures_relative_max_entry(self):
        # identity flag: T = A, so the residual is the largest entry off the
        # tridiagonal band; it is relative, since ||A|| is 1 to 2e-10, as on
        # every centred C
        a = np.diag([1.0, 0, 0, 0]).astype(complex)
        a[3, 1] = 2e-5
        t, off, unitarity = _measure(a, np.eye(4, dtype=complex))
        np.testing.assert_array_equal(t, a)
        assert off == pytest.approx(2e-5 / linalg.matrix_norm(a))
        assert unitarity == 0.0
        assert _measure(np.ones((2, 2)), np.eye(2, dtype=complex))[1] == 0.0
