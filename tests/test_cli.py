import gc
import json
import warnings

import jsonschema
import numpy as np
import pytest

from tridiag4 import cli
from tridiag4.errors import ParseError
from tridiag4.generate import jordan_block, make_matrix


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

    def test_malformed_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 4, "entries": [[')
        code, _, err = run_cli(capsys, ["tridiag", str(path)])
        assert code == 1
        assert "input error" in err

    def test_bad_dimensions_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "entries": [[[1.0, 0.0]]]}))
        code, _, err = run_cli(capsys, ["tridiag", str(path)])
        assert code == 1

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

    def test_near_hermitian_reports_refined(self, capsys, tmp_path):
        # no flag point certifies this close to a Hermitian matrix, so the
        # unitary is refined from the Schur basis
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
        # the flag-point search raises and the report lists no flags
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
            cli._read_input(str(path), True)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_text_format(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1+2i 3 0 0\n0.5i -1 0.25 0\n0 1 2 1\n0 0 i 4\n")
        code, out, _ = run_cli(capsys, ["tridiag", str(path), "--text", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["input"]["entries"][0][0] == [1.0, 2.0]
        assert data["input"]["entries"][3][2] == [0.0, 1.0]

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

    def test_json_rejects_nonfinite(self):
        with pytest.raises(ParseError):
            cli.parse_json_matrix(json.dumps({"n": 1, "entries": [[[1e400, 0.0]]]}))
