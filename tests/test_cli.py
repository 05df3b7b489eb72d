import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from tridiag4 import cli, linalg
from tridiag4.errors import ParseError, Unsolved
from tridiag4.generate import KINDS, jordan_block, make_matrix
from tridiag4.genericity import classify
from tridiag4.tridiagonalize import tridiagonalize


def run_cli(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def load_schema(name):
    import importlib.resources as res

    base = res.files("tridiag4") / "schemas"
    schema = json.loads((base / name).read_text())
    registry = {
        p.name: json.loads(p.read_text())
        for p in base.iterdir()
        if p.name.endswith(".json")
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        resolver = jsonschema.RefResolver(base_uri="", referrer=schema, store=registry)

    def validate(payload):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            jsonschema.validate(payload, schema, resolver=resolver)

    return validate


class TestGen:
    def test_jordan_is_exact_block(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "--kind", "jordan", "--n", "4"])
        assert code == 0
        data = json.loads(out)
        got = np.array([[complex(re, im) for re, im in row] for row in data["entries"]])
        assert np.array_equal(got, jordan_block(4))

    def test_tridiagonal_kind_has_exact_zeros(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "--kind", "tridiagonal", "--seed", "5"])
        data = json.loads(out)
        m = np.array([[complex(re, im) for re, im in row] for row in data["entries"]])
        mask = np.abs(np.subtract.outer(np.arange(4), np.arange(4))) >= 2
        assert np.all(m[mask] == 0)

    def test_same_seed_identical(self, capsys):
        _, out1, _ = run_cli(capsys, ["gen", "--seed", "7"])
        _, out2, _ = run_cli(capsys, ["gen", "--seed", "7"])
        assert out1 == out2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            make_matrix("unitary", 4, 0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_size_is_validated_for_every_kind(self, kind):
        # the jordan kind once returned a 1x1 zero matrix for n = 0 and n = -2
        for n in (0, -2, 1.5, True):
            with pytest.raises(ValueError, match="^n must be"):
                make_matrix(kind, n, 0)
        assert make_matrix(kind, 1, 0).shape == (1, 1)

    def test_roundtrip_validates_for_every_kind(self, capsys):
        validate = load_schema("input.schema.json")
        for kind in ("gaussian", "hermitian", "tridiagonal", "jordan"):
            for n in (1, 2, 3, 4):
                code, out, _ = run_cli(capsys, ["gen", "--kind", kind, "--n", str(n), "--seed", "3"])
                assert code == 0
                payload = json.loads(out)
                validate(payload)
                cli.parse_json_matrix(out)


class TestTridiag:
    def test_diagonal_json_input(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        entries = [[[float(i == j) * (i + 1.0), 0.0] for j in range(4)] for i in range(4)]
        path.write_text(json.dumps({"n": 4, "entries": entries}))
        code, out, _ = run_cli(capsys, ["tridiag", str(path), "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["result"]["off_residual"] <= 1e-12

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"n": 4, "entries": [[',
            b"1e999 0\n0 1\n",
            b'{"n": 1, "entries": [[[1' + b"0" * 400 + b', 0]]]}',
            b'{"n": 1, "entries": [[[NaN, 0]]]}',
            b"\xff\xfe1 0\n0 1\n",
            b'{"n": 1, "entries": [[[true, 0]]]}',
            b'{"n": 1, "entries": [[[0, false]]]}',
            b'{"n": true, "entries": [[[1, 0]]]}',
            b'{"n": 1, "entries": ' + b"[" * 100000,
        ],
        ids=["truncated", "text-inf", "int-overflow", "nan", "not-utf8", "true", "false", "n-true", "deep"],
    )
    def test_malformed_json_exits_1(self, capsys, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        code, _, err = run_cli(capsys, ["tridiag", str(path)])
        assert code == 1
        assert "input error" in err

    def test_bad_dimensions_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "entries": [[[1.0, 0.0]]]}))
        code, _, err = run_cli(capsys, ["tridiag", str(path)])
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_tol_exits_1(self, capsys, tmp_path, tol):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cli.matrix_to_input(make_matrix("gaussian", 4, 0))))
        code, out, err = run_cli(capsys, ["tridiag", str(path), "--tol", tol])
        assert code == 1 and out == ""
        assert "input error" in err and "tol" in err

    def test_singular_three_by_three_reports_singular(self, capsys, tmp_path):
        a = make_matrix("gaussian", 3, 5)
        a[:, 2] = a[:, 0] + a[:, 1]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cli.matrix_to_input(a)))
        code, out, _ = run_cli(capsys, ["tridiag", str(path), "--json"])
        assert code == 0
        genericity = json.loads(out)["genericity"]
        assert genericity["s1"] is False
        assert "singular" in genericity["details"]

    def test_generated_matrix_report_validates(self, capsys, tmp_path):
        validate = load_schema("report.schema.json")
        code, out, _ = run_cli(capsys, ["gen", "--seed", "11"])
        path = tmp_path / "m.json"
        path.write_text(out)
        code, out, _ = run_cli(
            capsys, ["tridiag", str(path), "--json", "--verify", "--all-flags", "--seed", "11"]
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["result"]["off_residual"] <= 1e-8
        assert 1 <= len(payload["flags"]) <= 12
        assert payload["verify"]["spectrum_gap"] <= 1e-6

    def test_all_flags_reports_twelve_certified_flags(self, capsys, tmp_path):
        validate = load_schema("report.schema.json")
        _, out, _ = run_cli(capsys, ["gen", "--seed", "7"])
        path = tmp_path / "m.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, ["tridiag", str(path), "--json", "--all-flags"])
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert len(payload["flags"]) == 12
        assert all(flag["sigma4"] <= 1e-8 for flag in payload["flags"])

    def test_all_flags_text_report_counts_twelve(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, ["gen", "--seed", "7"])
        path = tmp_path / "m.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, ["tridiag", str(path), "--all-flags"])
        assert code == 0
        assert "flag points: 12" in out.splitlines()

    def test_near_hermitian_reports_refined(self, capsys, tmp_path):
        # no flag point certifies this close to a Hermitian matrix, so the
        # unitary is refined from the flag of a best sheet
        validate = load_schema("report.schema.json")
        a = make_matrix("hermitian", 4, 3) + 1e-6 * make_matrix("gaussian", 4, 4)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cli.matrix_to_input(a)))
        code, out, _ = run_cli(capsys, ["tridiag", str(path), "--json", "--verify"])
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["result"]["provenance"] == "refined"
        assert payload["result"]["off_residual"] <= 1e-8
        assert payload["verify"]["unitarity_residual"] <= 1e-10

    def test_all_flags_on_identity_reports_none(self, capsys, tmp_path):
        # the identity's pencil drops below rank 3 all along its curve, so
        # the flag-point search finds none and the report lists no flags
        validate = load_schema("report.schema.json")
        entries = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 4, "entries": entries}))
        code, out, _ = run_cli(capsys, ["tridiag", str(path), "--json", "--all-flags"])
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["flags"] == []

    def test_all_flags_propagates_unexpected_errors(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("search bug")

        monkeypatch.setattr(cli, "section_zeros", broken)
        _, out, _ = run_cli(capsys, ["gen", "--seed", "11"])
        path = tmp_path / "m.json"
        path.write_text(out)
        with pytest.raises(RuntimeError, match="search bug"):
            run_cli(capsys, ["tridiag", str(path), "--json", "--all-flags"])

    def test_input_file_is_closed(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n3 4\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli._read_input(str(path))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_text_format(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1+2i 3 0 0\n0.5i -1 0.25 0\n0 1 2 1\n0 0 i 4\n")
        code, out, _ = run_cli(capsys, ["tridiag", str(path), "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["input"]["entries"][0][0] == [1.0, 2.0]
        assert data["input"]["entries"][3][2] == [0.0, 1.0]

    def test_pretty_report(self, capsys, tmp_path):
        # the default report is text; --json prints the payload alone
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cli.matrix_to_input(make_matrix("gaussian", 4, 5))))
        code, out, _ = run_cli(capsys, ["tridiag", str(path), "--verify"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n = 4  provenance = section_zero"
        assert lines[1].startswith("off_residual = ") and "unitarity = " in lines[1]
        assert lines[3] == "T ="
        assert len(lines) == 9 and all(line.lstrip().startswith("[") for line in lines[4:8])
        assert lines[8].startswith("verify: spectrum_gap = ")
        assert float(lines[8].split("=")[1]) <= 1e-8
        code, out, _ = run_cli(capsys, ["tridiag", str(path), "--json", "--verify"])
        assert code == 0
        assert len(out.splitlines()) == 1
        assert json.loads(out)["result"]["provenance"] == "section_zero"

    def test_determinism_modulo_timings(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, ["gen", "--seed", "13"])
        path = tmp_path / "m.json"
        path.write_text(out)
        payloads = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, ["tridiag", str(path), "--json", "--seed", "13"])
            payload = json.loads(out)
            payload.pop("timings_ms")
            payloads.append(json.dumps(payload, sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_closed_stdout_exits_1_quietly(self):
        # the reader has gone before the report is written, as with `| head -c 100`
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "tridiag4.cli", "tridiag", "--json", "-"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(b"1 2 0\n3 4 1\n0 1 2\n", timeout=120)
        assert err == b""
        assert proc.returncode == 1


class TestLibraryAgreement:
    # one prepared request serves the screen and the solve; the report must be
    # what the public calls give on their own, bit for bit (compared as JSON,
    # which keeps the sign of a zero)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_report_equals_classify_and_tridiagonalize(self, capsys, tmp_path, kind, n):
        path = tmp_path / "m.json"
        for seed, tol in [(0, 1e-8), (1, 1e-9), (5, 1e-8)]:
            a = make_matrix(kind, n, seed)
            path.write_text(json.dumps(cli.matrix_to_input(a)))
            argv = ["tridiag", str(path), "--json", "--verify", "--seed", str(seed), "--tol", str(tol)]
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            payload = json.loads(out)
            r = tridiagonalize(a, tol=tol, seed=seed)
            result = {
                "U": linalg.complex_pairs(r.u),
                "T": linalg.complex_pairs(r.t),
                "off_residual": r.off_residual,
                "unitarity_residual": r.unitarity_residual,
                "provenance": r.provenance,
                "perturbation_used": r.perturbation_used,
            }
            assert json.dumps(payload["result"], sort_keys=True) == json.dumps(result, sort_keys=True), seed
            genericity = classify(a, seed=seed).as_dict()
            assert json.dumps(payload["genericity"], sort_keys=True) == json.dumps(genericity, sort_keys=True), seed


class TestClassify:
    def test_jordan_block(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, ["gen", "--kind", "jordan"])
        path = tmp_path / "m.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, ["classify", str(path), "--json"])
        assert code == 0
        data = json.loads(out)
        assert (data["s1"], data["s2"], data["s3"]) == (False, False, True)

    def test_identity(self, capsys, tmp_path):
        entries = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 4, "entries": entries}))
        code, out, _ = run_cli(capsys, ["classify", str(path), "--json"])
        data = json.loads(out)
        assert (data["s1"], data["s2"], data["s3"]) == (True, False, False)

    def test_random_all_generic(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, ["gen", "--seed", "21"])
        path = tmp_path / "m.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, ["classify", str(path), "--json"])
        data = json.loads(out)
        assert (data["s1"], data["s2"], data["s3"]) == (True, True, True)

    def test_hermitian_reports_validate(self, capsys, tmp_path):
        # the pencil of a Hermitian matrix vanishes at [0 : 1 : -1]; the
        # classify block is checked as the genericity block of a report
        validate = load_schema("report.schema.json")
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cli.matrix_to_input(make_matrix("hermitian", 4, 6))))
        code, out, _ = run_cli(capsys, ["tridiag", str(path), "--json"])
        assert code == 0
        report = json.loads(out)
        validate(report)
        code, out, _ = run_cli(capsys, ["classify", str(path), "--json"])
        assert code == 0
        validate({**report, "genericity": json.loads(out)})


class TestDegrees:
    def test_generic_matrix_matches_expected_counts(self, capsys, tmp_path):
        validate = load_schema("degrees.schema.json")
        _, out, _ = run_cli(capsys, ["gen", "--seed", "2"])
        path = tmp_path / "m.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, ["degrees", str(path), "--json", "--seed", "2"])
        assert code == 0
        data = json.loads(out)
        validate(data)
        assert data["deg_D"] == 4
        assert data["deg_C"] == 6
        assert data["section_zeros"] <= 12

    def test_hermitian_skips(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, ["gen", "--kind", "hermitian", "--seed", "3"])
        path = tmp_path / "m.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, ["degrees", str(path), "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["skipped"]

    def test_trials_flag_sets_detail_length(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, ["gen", "--seed", "4"])
        path = tmp_path / "m.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, ["degrees", str(path), "--json", "--trials", "3"])
        data = json.loads(out)
        assert len(data["per_trial_detail"]) == 3

    def test_no_trials_exits_1(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cli.matrix_to_input(make_matrix("gaussian", 4, 4))))
        code, out, err = run_cli(capsys, ["degrees", str(path), "--trials", "0"])
        assert code == 1 and out == ""
        assert "input error" in err and "trials" in err


class TestErrorExits:
    # every failure leaves stdout empty and becomes an exit code in main alone

    @pytest.mark.parametrize("command", ["tridiag", "classify", "degrees"])
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unreadable_input_exits_1(self, capsys, tmp_path, command, target):
        path = tmp_path / "absent.json" if target == "missing" else tmp_path
        code, out, err = run_cli(capsys, [command, str(path)])
        assert code == 1 and out == ""
        assert err.startswith("input error:")

    def test_degrees_on_three_by_three_exits_1(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cli.matrix_to_input(make_matrix("gaussian", 3, 0))))
        code, out, err = run_cli(capsys, ["degrees", str(path)])
        assert code == 1 and out == ""
        assert "input error: degree experiments need a 4x4 matrix" in err

    @pytest.mark.parametrize("n", [3, 4])
    def test_negative_seed_exits_1(self, capsys, tmp_path, n):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cli.matrix_to_input(make_matrix("gaussian", n, 0))))
        code, out, err = run_cli(capsys, ["tridiag", str(path), "--seed", "-1"])
        assert code == 1 and out == ""
        assert "input error: seed must be at least 0, got -1" in err

    def test_unsolved_exits_2(self, capsys, tmp_path, monkeypatch):
        def unsolved(*args, **kwargs):
            raise Unsolved("no flag")

        monkeypatch.setattr(cli, "_solve", unsolved)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cli.matrix_to_input(make_matrix("gaussian", 4, 0))))
        code, out, err = run_cli(capsys, ["tridiag", str(path), "--json"])
        assert code == 2 and out == ""
        assert err.startswith("unsolved: no flag")

    def test_parser_is_built_once(self, capsys):
        # main reuses one parser; each parse still gives its own namespace
        cli.build_parser.cache_clear()
        assert run_cli(capsys, ["gen", "--seed", "3"])[0] == 0
        assert run_cli(capsys, ["gen", "--seed", "3", "--n", "3"])[0] == 0
        assert cli.build_parser.cache_info().misses == 1
        parser = cli.build_parser()
        tridiag, classify = parser.parse_args(["tridiag", "--tol", "1e-9"]), parser.parse_args(["classify"])
        assert (tridiag.func, tridiag.tol) == (cli.cmd_tridiag, 1e-9)
        assert classify.func == cli.cmd_classify and not hasattr(classify, "tol")

    @pytest.mark.parametrize("flag", ["--pretty", "--text"])
    def test_removed_flags_are_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["tridiag", "-", flag])
        assert exc.value.code == 2


class TestParsers:
    def test_complex_tokens(self):
        cases = {
            "1": 1.0,
            "-2.5": -2.5,
            "i": 1j,
            "-i": -1j,
            "2i": 2j,
            "1+2i": 1 + 2j,
            "1.5-0.5i": 1.5 - 0.5j,
            "3.2e-4+1e2i": 3.2e-4 + 1e2j,
        }
        for tok, want in cases.items():
            assert cli._parse_complex_token(tok, 1, 1) == want

    def test_bad_token_raises_with_position(self):
        with pytest.raises(ParseError, match="line 3, column 2"):
            cli._parse_complex_token("what", 3, 2)

    def test_text_matrix_rejects_ragged_rows(self):
        with pytest.raises(ParseError):
            cli.parse_text_matrix("1 2\n3\n")

    def test_json_rejects_nonfinite(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 1, "entries": [[[1e400, 0.0]]]}))
        with pytest.raises(ParseError):
            cli._read_input(str(path))
