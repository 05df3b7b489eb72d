"""Command-line front end: parse matrices, solve, classify, run experiments.

Exit codes: 0 success, 1 input error or closed output, 2 unsolved.  All
randomness sits behind --seed, so reports are reproducible.  The degree
experiments run their trials one after another.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .degrees import run_experiments
from .errors import ParseError, Unsolved
from .generate import KINDS, make_matrix
from .genericity import _classify, classify
from .linalg import complex_pairs
from .pencil import Pencil, section_zeros
from .tridiagonalize import _solve, verify


def matrix_to_input(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"n": a.shape[0], "entries": complex_pairs(a)}


_TOKEN_RE = re.compile(r"^[0-9+\-.eEij]+$")


def _parse_complex_token(tok: str, line: int, col: int) -> complex:
    s = tok.strip()
    if not _TOKEN_RE.match(s):
        raise ParseError(f"line {line}, column {col}: cannot parse entry {tok!r}")
    s = s.replace("i", "j")
    # bare imaginary units need an explicit coefficient for complex()
    s = re.sub(r"(?<![\d.])j", "1j", s)
    try:
        return complex(s)
    except ValueError as exc:
        raise ParseError(f"line {line}, column {col}: cannot parse entry {tok!r}") from exc


def parse_text_matrix(text: str) -> np.ndarray:
    """One row per line, entries as a+bi tokens separated by whitespace."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        entries = []
        col = 1
        for tok in stripped.split():
            entries.append(_parse_complex_token(tok, lineno, col))
            col += 1
        rows.append(entries)
    if not rows:
        raise ParseError("empty input")
    n = len(rows)
    if any(len(r) != n for r in rows) or n > 4:
        raise ParseError(f"expected a square matrix with n <= 4, got rows of lengths {[len(r) for r in rows]}")
    return np.array(rows, dtype=complex)


def parse_json_matrix(text: str) -> np.ndarray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise ParseError('input must be an object {"n": ..., "entries": [[[re, im], ...], ...]}')
    n = data["n"]
    entries = data["entries"]
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= 4:
        raise ParseError(f"n must be an integer in 1..4, got {n!r}")
    if not isinstance(entries, list) or len(entries) != n:
        raise ParseError(f"entries must be a list of {n} rows")
    out = np.empty((n, n), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"row {i} must have {n} entries")
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            ):
                raise ParseError(f"entry ({i}, {j}) must be a [re, im] pair of numbers")
            try:
                out[i, j] = complex(pair[0], pair[1])
            except OverflowError as exc:
                raise ParseError(f"entry ({i}, {j}) must be finite") from exc
    return out


def _read_input(path: str) -> np.ndarray:
    """The matrix in a file (or stdin for ``-``): JSON when it starts with ``{``, text otherwise; else ``ParseError``."""
    try:
        raw = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    if not raw.lstrip().startswith("{"):
        a = parse_text_matrix(raw)
    else:
        a = parse_json_matrix(raw)
    if not np.all(np.isfinite(a)):
        raise ParseError("matrix entries must be finite")
    return a


def _emit(payload: dict, text_lines, args) -> None:
    """Print ``payload`` as JSON under ``--json``, otherwise the lines that ``text_lines()`` builds, only then."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines():
            print(line)


def _tridiag_lines(result, payload: dict) -> list[str]:
    """The text report of ``tridiag``: the result, ``T`` rounded, and the flag and verify summaries."""
    lines = [
        f"n = {payload['input']['n']}  provenance = {result.provenance}",
        f"off_residual = {result.off_residual:.3e}  unitarity = {result.unitarity_residual:.3e}",
        f"perturbation_used = {result.perturbation_used:.1e}",
        "T =",
    ]
    with np.printoptions(precision=4, suppress=True, linewidth=120):
        lines.extend("  " + row for row in str(np.round(result.t, 10)).splitlines())
    if "flags" in payload:
        lines.append(f"flag points: {len(payload['flags'])}")
    if "verify" in payload:
        lines.append(f"verify: spectrum_gap = {payload['verify']['spectrum_gap']:.3e}")
    return lines


def cmd_tridiag(args) -> int:
    t_start = time.perf_counter()
    timings = {}
    t0 = time.perf_counter()
    a = _read_input(args.input)
    timings["parse"] = 1e3 * (time.perf_counter() - t0)

    # one preparation per request: the centring and, for n = 4, the common
    # eigenvector test are paid under "classify", and the solve and
    # --all-flags read them again
    pencil = Pencil(a)
    t0 = time.perf_counter()
    genericity = _classify(pencil, args.seed).as_dict()
    timings["classify"] = 1e3 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    result = _solve(pencil, tol=args.tol, seed=args.seed)
    timings["solve"] = 1e3 * (time.perf_counter() - t0)

    payload = {
        "input": matrix_to_input(a),
        "result": {
            "U": complex_pairs(result.u),
            "T": complex_pairs(result.t),
            "off_residual": result.off_residual,
            "unitarity_residual": result.unitarity_residual,
            "provenance": result.provenance,
            "perturbation_used": result.perturbation_used,
        },
        "genericity": genericity,
        "seed": args.seed,
    }

    if args.all_flags and a.shape[0] == 4:
        t0 = time.perf_counter()
        payload["flags"] = [
            {
                "t": complex_pairs(z.t),
                "v": complex_pairs(z.v),
                "sigma4": z.sigma4,
                "shortcut": z.shortcut,
            }
            for z in section_zeros(pencil)
        ]
        timings["all_flags"] = 1e3 * (time.perf_counter() - t0)

    if args.verify:
        t0 = time.perf_counter()
        rep = verify(result, a)
        payload["verify"] = {**asdict(rep), "matching": complex_pairs(rep.matching)}
        timings["verify"] = 1e3 * (time.perf_counter() - t0)

    timings["total"] = 1e3 * (time.perf_counter() - t_start)
    payload["timings_ms"] = timings
    _emit(payload, lambda: _tridiag_lines(result, payload), args)
    return 0


def cmd_classify(args) -> int:
    block = classify(_read_input(args.input), seed=args.seed).as_dict()
    lines = [
        f"s1 (nonsingular)          : {block['s1']}",
        f"s2 (distinct eigenvalues) : {block['s2']}",
        f"s3 (pencil rank >= 3)     : {block['s3']}",
        f"common eigenvectors       : {len(block['common_eigenvectors'])}",
        f"details: {block['details']}",
    ]
    _emit(block, lambda: lines, args)
    return 0


def cmd_degrees(args) -> int:
    a = _read_input(args.input)
    if a.shape[0] != 4:
        raise ValueError("degree experiments need a 4x4 matrix")
    report = run_experiments(a, trials=args.trials, seed=args.seed, screen=not args.force)
    payload = report.as_dict()
    lines = []
    if report.skipped:
        lines.append(f"skipped: {report.notice}")
    else:
        lines.append(f"deg D observed = {report.deg_det_curve}  (expected 4)")
        lines.append(f"deg C observed = {report.deg_kernel_curve}  (expected 6)")
        lines.append(f"flag points    = {report.section_zero_count}  (expected 12)")
        lines.append(f"trials = {report.trials}")
    _emit(payload, lambda: lines, args)
    return 0


def cmd_gen(args) -> int:
    a = make_matrix(args.kind, args.n, args.seed)
    payload = matrix_to_input(a)
    print(json.dumps(payload, sort_keys=True))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; every later call, and so every ``main``, reuses it."""
    parser = argparse.ArgumentParser(
        prog="tridiag4",
        description="Unitary tridiagonalization of complex matrices up to 4x4.",
        epilog="degrees runs its trials in one thread.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("input", nargs="?", default="-", help="input file, or - for stdin")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("tridiag", help="compute U with U A U* tridiagonal")
    add_io(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--all-flags", action="store_true", help="emit every flag point whose flag passes the gate")
    p.add_argument("--verify", action="store_true", help="recompute residuals and spectrum match")
    p.set_defaults(func=cmd_tridiag)

    p = sub.add_parser("classify", help="run the genericity tests")
    add_io(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("degrees", help="run the curve-degree experiments")
    add_io(p)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--force", action="store_true", help="run even when the screen rejects the input")
    p.set_defaults(func=cmd_degrees)

    p = sub.add_parser("gen", help="emit a deterministic test matrix as JSON")
    p.add_argument("--n", type=int, default=4, choices=[1, 2, 3, 4])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--kind", default="gaussian", choices=list(KINDS))
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    """Run one command; the only place where a failure becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except ValueError as exc:  # ParseError is one
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Unsolved as exc:
        print(f"unsolved: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left early: keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
