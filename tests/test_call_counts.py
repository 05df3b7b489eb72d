"""One eigen-solve and one spectral norm per quantity, per request.

``linalg.eigen`` and ``linalg.matrix_norm`` (an SVD) are wrapped to count
their calls.  Every solve centres ``A`` (one norm) and takes ``||A||_2``
(one more), and no route measures another: a 3x3 solve takes no
eigen-decomposition, and neither does a Gaussian 4x4 one, whose
commutator bound clears the common eigenvector test and whose first
flag comes from the dodecic, before the eigenvector points; a
Hermitian one, which the bound cannot clear, shares one between the
common eigenvector test and the deflation.  On generic 4x4 Gaussians
``classify`` centres once and takes no eigen-decomposition: its
eigenvalue gap comes from ``eigvals`` and the commutator bound clears
its common eigenvector test.  Its nonsingularity test takes one SVD of
``A`` itself directly, which is not counted.

``pencil._certify`` is wrapped the same way: ``section_zeros`` on a
Gaussian gates the flag of the best of the dodecic's three
best-conditioned roots alone and the other 11 as one stack, so it makes
two calls for its 12 points.  Only then, and only when all 12 roots are
there, are the rejected roots refined: one joint pass over all twelve
(``pencil._refine_roots``) and one more gate.  A solve never runs that
pass: when every flag point is rejected it goes on to Gauss-Newton from
the flags of the best sheets.  A Gaussian solve stops
at the first flag of its lazy candidate stream: one dodecic, the best
sheets over its three best-conditioned roots alone, one gate of the
best of them, and no root or unitary refinement.  The dodecic is kept on its
``Pencil`` (``Pencil._roots``): ``section_zeros`` called twice on one
pencil forms it once.

A ``tridiag`` request of the CLI prepares its input once: one
``pencil._centred`` and one common eigenvector test (``Pencil.common``)
serve the genericity screen, the solve and ``--all-flags`` alike; it
takes no ``linalg.eigen``, or one with ``--all-flags``, whose flag list
screens the eigenvector points.  With ``--all-flags`` the solve and the
flag list share one dodecic and the best sheets over its three
best-conditioned roots (``Pencil._first_sheets``).  It takes three norms (the centring, ``||A||_2``
and ``verify``'s), and under ``--json`` it never builds its text lines.
``run_experiments`` likewise centres and eigen-decomposes ``A`` once for
its screen and its three counts, however many trials it runs.

``np.linalg.svd`` is wrapped too: a Gaussian solve takes at most four SVDs
(it took seven on every seed while ``pencil._certify`` took a kernel
vector and ``sigma4`` of its own, and up to six while it formed
``Pencil.eigen`` and screened the eigenvector points before its first
flag), and each ``_certify`` call takes one.
"""

import functools
import json
import sys

import numpy as np
import pytest

from tridiag4 import cli, linalg, pencil
from tridiag4.degrees import run_experiments
from tridiag4.generate import jordan_block, make_matrix
from tridiag4.genericity import classify
from tridiag4.pencil import Pencil, section_zeros
from tridiag4.tridiagonalize import tridiagonalize

from helpers import near_structured

SEEDS = range(10000, 10020)


@pytest.fixture
def calls(monkeypatch):
    counts = {"eigen": 0, "matrix_norm": 0}

    def counted(name):
        original = getattr(linalg, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(linalg, name, wrapper)

    counted("eigen")
    counted("matrix_norm")
    return counts


def test_solve_makes_no_eigen_call_and_two_norms(calls):
    for seed in SEEDS:
        a = make_matrix("gaussian", 4, seed)
        calls.update(eigen=0, matrix_norm=0)
        r = tridiagonalize(a)
        assert r.provenance == "section_zero", seed
        assert calls == {"eigen": 0, "matrix_norm": 2}, seed


def test_three_by_three_solve_makes_two_norms(calls):
    for seed in SEEDS:
        a = make_matrix("gaussian", 3, seed)
        calls.update(eigen=0, matrix_norm=0)
        r = tridiagonalize(a)
        assert r.provenance == "cubic_curve_3x3", seed
        assert calls == {"eigen": 0, "matrix_norm": 2}, seed


def test_deflation_makes_one_eigen_call_and_two_norms(calls):
    for seed in SEEDS:
        a = make_matrix("hermitian", 4, seed)
        calls.update(eigen=0, matrix_norm=0)
        r = tridiagonalize(a)
        assert r.provenance == "common_eigenvector_deflation", seed
        assert calls == {"eigen": 1, "matrix_norm": 2}, seed


def test_classify_makes_no_eigen_call_and_one_norm(calls):
    for seed in SEEDS:
        a = make_matrix("gaussian", 4, seed)
        calls.update(eigen=0, matrix_norm=0)
        report = classify(a)
        assert report.in_generic_set and not report.common_eigenvectors, seed
        assert calls == {"eigen": 0, "matrix_norm": 1}, seed


@pytest.fixture
def svds(monkeypatch):
    """The list that each ``np.linalg.svd`` call appends to, with vectors or without."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    return calls


def test_solve_takes_at_most_four_svds(svds):
    # two norms, sigma4 over the first sheets and the certificate's on-curve
    # test: the first flag comes before the eigen-decomposition and the
    # eigenvector-point screen
    for seed in SEEDS:
        svds.clear()
        assert tridiagonalize(make_matrix("gaussian", 4, seed)).provenance == "section_zero", seed
        assert len(svds) <= 4, seed


def test_certify_takes_one_svd(svds, monkeypatch):
    # the kernel vector and sigma4 come with each row, so only the on-curve
    # test is left: on the sheets of Gaussians and the eigenvector points of N4
    per_call = []
    certify = pencil._certify

    def counted(*args):
        before = len(svds)
        result = certify(*args)
        per_call.append(len(svds) - before)
        return result

    monkeypatch.setattr(pencil, "_certify", counted)
    for a in [make_matrix("gaussian", 4, seed) for seed in SEEDS] + [jordan_block(4)]:
        section_zeros(Pencil(a))
    assert len(per_call) >= 2 * len(SEEDS) + 1
    assert set(per_call) == {1}


def test_section_zeros_certifies_in_two_stacks(monkeypatch):
    calls = []
    certify = pencil._certify
    monkeypatch.setattr(pencil, "_certify", lambda *args: calls.append(1) or certify(*args))
    for seed in SEEDS:
        calls.clear()
        assert len(section_zeros(Pencil(make_matrix("gaussian", 4, seed)))) == 12, seed
        assert len(calls) == 2, seed


def test_section_zeros_refines_in_one_pass(monkeypatch):
    # roots started 1e-3 off the dodecic's are all rejected, so after the two
    # gates all twelve are refined by one joint pass and gated by one more stack
    calls = []
    certify, refine = pencil._certify, pencil._refine_roots
    monkeypatch.setattr(pencil, "_certify", lambda *args: calls.append("certify") or certify(*args))
    monkeypatch.setattr(pencil, "_refine_roots", lambda *args: calls.append("refine") or refine(*args))
    for seed in SEEDS:
        calls.clear()
        p = Pencil(make_matrix("gaussian", 4, seed))
        p.unit.__dict__["_roots"] = pencil._frozen(pencil._dodecic_roots(p.unit) * (1 + 1e-3))
        assert len(section_zeros(p)) == 12, seed
        assert calls == ["certify", "certify", "refine", "certify"], seed


@pytest.mark.parametrize("seed", [41, 361, 415, 1328])
def test_section_zeros_refines_in_two_stacks(seed, monkeypatch):
    # Gaussians with roots near rejection: the two gate stacks come first, and
    # any rejected root is refined by at most one joint pass and one more gate
    calls = []
    certify, refine = pencil._certify, pencil._refine_roots
    monkeypatch.setattr(pencil, "_certify", lambda *args: calls.append("certify") or certify(*args))
    monkeypatch.setattr(pencil, "_refine_roots", lambda *args: calls.append("refine") or refine(*args))
    assert len(section_zeros(Pencil(make_matrix("gaussian", 4, seed)))) == 12
    assert calls in (["certify", "certify"], ["certify", "certify", "refine", "certify"])


def test_solve_takes_only_the_first_flag(monkeypatch):
    # the package attribute "tridiagonalize" is the function, not the module
    solver = sys.modules["tridiag4.tridiagonalize"]
    counts = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(pencil, "_certify"), (pencil, "_dodecic_roots"), (pencil, "_refine_roots"), (solver, "_refine_unitary")]:
        counted(module, name)
    for seed in SEEDS:
        counts.update(_certify=0, _dodecic_roots=0, _refine_roots=0, _refine_unitary=0)
        assert tridiagonalize(make_matrix("gaussian", 4, seed)).provenance == "section_zero", seed
        assert counts == {"_certify": 1, "_dodecic_roots": 1, "_refine_roots": 0, "_refine_unitary": 0}, seed


@pytest.mark.parametrize(("kind", "d"), [("hermitian", 1e-3), ("hermitian", 1e-6), ("skew_hermitian_plus_2i", 1e-6)])
def test_refined_solve_takes_no_joint_pass(kind, d, monkeypatch):
    # every root is rejected near these inputs; the solve goes on to
    # Gauss-Newton from the flags of the best sheets, and only the count
    # refines the roots
    calls = []
    refine = pencil._refine_roots
    monkeypatch.setattr(pencil, "_refine_roots", lambda *args: calls.append(1) or refine(*args))
    for seed in range(10):
        a = near_structured(kind, d, seed)
        assert tridiagonalize(a).provenance == "refined", seed
        assert calls == [], seed
        section_zeros(Pencil(a))
        assert calls == [1], seed
        calls.clear()


def test_solve_takes_sheets_over_three_roots(monkeypatch):
    # the sheets over the other nine roots are formed only when the stream is resumed
    sizes = []
    best_sheets = pencil._best_sheets
    monkeypatch.setattr(pencil, "_best_sheets", lambda *args: sizes.append(args[1].size) or best_sheets(*args))
    for seed in SEEDS:
        sizes.clear()
        assert tridiagonalize(make_matrix("gaussian", 4, seed)).provenance == "section_zero", seed
        assert sizes == [3], seed


@pytest.fixture
def dodecics(monkeypatch):
    """The list that each ``pencil._dodecic_roots`` call appends to."""
    calls = []
    roots = pencil._dodecic_roots
    monkeypatch.setattr(pencil, "_dodecic_roots", lambda *args: calls.append(1) or roots(*args))
    return calls


def test_section_zeros_twice_forms_one_dodecic(dodecics):
    for seed in SEEDS:
        dodecics.clear()
        p = Pencil(make_matrix("gaussian", 4, seed))
        assert len(section_zeros(p)) == len(section_zeros(p)) == 12, seed
        assert dodecics == [1], seed


@pytest.fixture
def request_calls(calls, monkeypatch):
    """``calls``, plus every binding of ``pencil._centred`` in the package and the body of ``Pencil.common``."""
    calls.update(_centred=0, common=0)
    centred = pencil._centred

    def counted_centred(*args):
        calls["_centred"] += 1
        return centred(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("tridiag4") and getattr(module, "_centred", None) is centred:
            monkeypatch.setattr(module, "_centred", counted_centred)
    common = Pencil.common.func

    def counted_common(self):
        calls["common"] += 1
        return common(self)

    prop = functools.cached_property(counted_common)
    prop.__set_name__(Pencil, "common")
    monkeypatch.setattr(Pencil, "common", prop)
    return calls


@pytest.mark.parametrize("trials", [1, 3])
def test_run_experiments_prepares_once(trials, request_calls):
    # the screen and the three counts read one Pencil: before it, a trial
    # centred A four times and eigen-decomposed it twice
    for seed in SEEDS:
        request_calls.update(eigen=0, matrix_norm=0, _centred=0, common=0)
        report = run_experiments(make_matrix("gaussian", 4, seed), trials=trials)
        assert (report.deg_det_curve, report.deg_kernel_curve, report.section_zero_count) == (4, 6, 12), seed
        assert (request_calls["_centred"], request_calls["eigen"]) == (1, 1), seed


def tridiag_report(capsys, tmp_path, a, *flags):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cli.matrix_to_input(a)))
    assert cli.main(["tridiag", str(path), "--json", "--verify", *flags]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("flags", [(), ("--all-flags",)])
def test_cli_request_prepares_once(flags, request_calls, capsys, tmp_path):
    for seed in SEEDS:
        a = make_matrix("gaussian", 4, seed)
        request_calls.update(eigen=0, matrix_norm=0, _centred=0, common=0)
        report = tridiag_report(capsys, tmp_path, a, *flags)
        assert report["result"]["provenance"] == "section_zero", seed
        assert len(report.get("flags", [None] * 12)) == 12, seed
        # only the flag list screens the eigenvector points
        assert request_calls == {"eigen": len(flags), "matrix_norm": 3, "_centred": 1, "common": 1}, seed


def test_all_flags_request_forms_one_dodecic(dodecics, capsys, tmp_path):
    # the solve and the flag list read one Pencil._roots
    for seed in SEEDS:
        dodecics.clear()
        report = tridiag_report(capsys, tmp_path, make_matrix("gaussian", 4, seed), "--all-flags")
        assert report["result"]["provenance"] == "section_zero", seed
        assert len(report["flags"]) == 12, seed
        assert dodecics == [1], seed


def test_all_flags_request_forms_the_first_sheets_once(capsys, tmp_path, monkeypatch):
    # the solve's first candidate and the flag list read one Pencil._first_sheets;
    # only the flag list goes on to the other nine roots
    sizes = []
    best_sheets = pencil._best_sheets
    monkeypatch.setattr(pencil, "_best_sheets", lambda *args: sizes.append(args[1].size) or best_sheets(*args))
    for seed in SEEDS:
        sizes.clear()
        report = tridiag_report(capsys, tmp_path, make_matrix("gaussian", 4, seed), "--all-flags")
        assert report["result"]["provenance"] == "section_zero", seed
        assert len(report["flags"]) == 12, seed
        assert sizes == [3, 9], seed


def test_cli_deflation_request_tests_common_eigenvectors_once(request_calls, capsys, tmp_path):
    for seed in SEEDS:
        a = make_matrix("hermitian", 4, seed)
        request_calls.update(eigen=0, matrix_norm=0, _centred=0, common=0)
        report = tridiag_report(capsys, tmp_path, a)
        assert report["result"]["provenance"] == "common_eigenvector_deflation", seed
        assert report["genericity"]["common_eigenvectors"], seed
        assert request_calls == {"eigen": 1, "matrix_norm": 3, "_centred": 1, "common": 1}, seed


@pytest.mark.parametrize("n", [3, 4])
def test_json_request_builds_no_text_lines(n, capsys, tmp_path, monkeypatch):
    built = []
    lines = cli._tridiag_lines
    monkeypatch.setattr(cli, "_tridiag_lines", lambda *args: built.append(1) or lines(*args))
    a = make_matrix("gaussian", n, 0)
    tridiag_report(capsys, tmp_path, a, "--all-flags")
    assert built == []
    assert cli.main(["tridiag", str(tmp_path / "m.json")]) == 0
    assert built == [1]
    assert capsys.readouterr().out.startswith(f"n = {n}  provenance = ")
