#!/usr/bin/env python3
"""tridiag4 benchmark: seeded, single-client, closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve4-gaussian --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 40        # every workload, one process each

One client calls the public API one op at a time.  Inputs are built
from ``--seed`` before timing; every output is checked independently
(``checks.py``).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the run alternates untraced and
traced passes over the same rounds and the last line carries the
per-layer metrics.  A full report (environment, per-category timings,
failure tally, ROADMAP baseline rows) goes to ``perfbench/results/``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

import os

# Pin native thread pools before numpy is imported anywhere in this process
# (and in the set-up probes it starts, which inherit the environment).
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["TRIDIAG_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
SETUP_PROBES = 5
BLOCK_S = 0.5  # minimum busy time of a throughput block

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_rss_mb": "MB",
}
PROVENANCES = (
    "trivial",
    "cubic_curve_3x3",
    "common_eigenvector_deflation",
    "section_zero",
    "shortcut_dimW3",
    "perturbed",
)
# (function, statistics) per layer; each becomes "<layer>.<function>.<stat>"
LAYER_STATS = (
    ("pencil.section_zeros", ("calls", "ms", "self_ms", "errors")),
    ("polyroots.newton_system", ("calls", "ms", "errors")),
    ("pencil.section_residual", ("calls", "ms")),
    ("pencil.kernel_vector", ("calls", "ms")),
    ("genericity.classify", ("calls", "ms")),
    ("genericity.check_pencil_rank", ("ms",)),
    ("polyroots.resultant", ("ms",)),
    ("genericity.common_eigenvectors", ("calls", "ms")),
    ("tridiagonalize.deflate_common_eigenvector", ("ms",)),
    ("tridiagonalize.tridiagonalize3", ("ms",)),
    ("polyroots.roots", ("calls", "ms")),
    ("linalg.eigen", ("calls", "ms")),
    ("tridiagonalize.perturb_and_retry", ("calls", "ms")),
    ("tridiagonalize.tridiagonalize", ("calls", "self_ms")),
    ("degrees.degree_of_det_curve", ("ms",)),
    ("tridiagonalize.build_flag", ("ms", "errors")),
    ("tridiagonalize.verify", ("ms",)),
    ("cli.parse_json_matrix", ("ms",)),
    ("cli.main", ("self_ms",)),
)
STAT_UNITS = {"calls": "count/op", "errors": "count/op", "ms": "ms/op", "self_ms": "ms/op"}


def per_layer_units() -> dict:
    units = {f"{fn}.{st}": STAT_UNITS[st] for fn, stats in LAYER_STATS for st in stats}
    units["pencil.section_zeros.yield"] = "ratio"
    units.update({f"tridiagonalize.provenance.{p}": "share" for p in PROVENANCES + ("other",)})
    units["trace.overhead"] = "ratio"
    return units


class BenchError(Exception):
    """The benchmark cannot run or its own checks failed; no result is printed."""


# ---------------------------------------------------------------- program


def import_program():
    """Import ``tridiag4`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "tridiag4" / "__init__.py").is_file():
        raise BenchError(f"no tridiag4 package under {SRC}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import tridiag4
    import tridiag4.cli

    if Path(tridiag4.__file__).resolve().parent != (SRC / "tridiag4").resolve():
        raise BenchError(f"imported tridiag4 from {tridiag4.__file__}, not from {SRC}")
    return tridiag4, tridiag4.cli


def probe() -> None:
    """Set-up probe: import, solve the fixed warm-up input once, report."""
    api, cli = import_program()
    import workloads

    warnings.simplefilter("ignore")
    op = workloads.warmup_ops("solve4-gaussian", api, cli, WORK)[0]
    op.call()
    print("ready", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)


def measure_setup(count: int):
    """Set-up cost of ``count`` fresh processes, one after another.

    Returns the wall times from start until the first warm-up op is done,
    the start-up slowdown around each (``speed.start_slowdown`` before and
    after it), and each process's peak resident memory (MB) at that moment.
    """
    from speed import start_slowdown, time_to_ready

    times, slowdown, rss = [], [], []
    before = start_slowdown()
    for _ in range(count):
        seconds, line, code, err = time_to_ready([sys.executable, str(Path(__file__).resolve()), "--probe"], ROOT)
        if len(line) != 2 or line[0] != "ready" or code != 0:
            raise BenchError(f"set-up probe failed (exit {code}): {err.strip()[-400:]}")
        after = start_slowdown()
        times.append(seconds)
        slowdown.append(0.5 * (before + after))
        rss.append(int(line[1]) / 1024.0)
        before = after
    return times, slowdown, rss


# ---------------------------------------------------------------- environment


def git_commit():
    """The checked-out commit, read from ``.git`` inside the checkout; None without one."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = ROOT / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = "unknown"
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "load_start": load,
        # fewer runnable tasks than cores leaves this single-threaded run a
        # core; runs chained one after another keep the 1-minute load near
        # 1 by themselves, so "at most nproc - 1" would flag every such run
        "idle": load < nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS + ("TRIDIAG_THREADS",)},
    }


# ---------------------------------------------------------------- measuring


def run_op(op, round_index=-1, tracer=None, op_id=-1) -> dict:
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        out = op.call()
        error = None
    except Exception as exc:  # tallied by type, the run goes on
        error = type(exc).__name__
    dt = time.perf_counter() - t0
    if error is None:
        reason, provenance = op.check(out)
        incorrect = reason is not None and op.incorrect_on_reject
    else:
        reason, provenance, incorrect = error, None, False
    return {
        "category": op.category,
        "t": t0,
        "s": dt,
        "ok": reason is None,
        "reason": reason,
        "provenance": provenance,
        "incorrect": incorrect,
        "traced": tracer is not None,
        "round": round_index,
        "op": op_id,
    }


def measure(rounds, seconds: float, speed, tracer=None) -> list:
    """Closed loop over rounds for about ``seconds``.

    A round is started only while its expected midpoint falls inside the
    budget, so whole rounds are measured and the run ends near ``seconds``.
    Between rounds, at most once a second, the speed reference is sampled.
    With a tracer, each round runs both untraced and traced on the same
    inputs, alternating which goes first, which gives the tracing overhead.
    """
    records = []
    start = time.perf_counter()
    done = 0
    speed.sample()
    while True:
        elapsed = time.perf_counter() - start
        if done and elapsed + 0.5 * elapsed / done >= seconds:
            break
        ops = rounds[done % len(rounds)]
        if tracer is not None and done % 2:  # alternate which pass goes first
            with tracer.installed():
                records += [run_op(op, done, tracer, len(records) + k) for k, op in enumerate(ops)]
        records += [run_op(op, done) for op in ops]
        if tracer is not None and not done % 2:
            with tracer.installed():
                records += [run_op(op, done, tracer, len(records) + k) for k, op in enumerate(ops)]
        done += 1
        if speed.due():
            speed.sample()
    return records


def run_once(ops, tracer, first_id: int) -> list:
    """Ops kept out of the timed figures, run once (traced in a traced run)."""
    if tracer is None:
        return [run_op(op) for op in ops]
    with tracer.installed():
        return [run_op(op, -1, tracer, first_id + k) for k, op in enumerate(ops)]


def percentile(values: list, p: float):
    """Nearest-rank percentile; returns ``(value, samples_beyond)``."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def tail10(values: list):
    """Highest percentile with at least 10 samples beyond it (nearest rank).

    Returns ``(value, percentile, samples_beyond)``; with 10 or fewer
    samples it is the maximum, with none beyond.
    """
    xs = sorted(values)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


def block_rates(records) -> list:
    """Ops per second of normalized busy time in blocks of consecutive whole rounds.

    A block closes once it holds at least BLOCK_S of busy time; a shorter
    last block joins the one before it.
    """
    blocks = []  # [ops, busy_s]
    last = None
    for r in records:
        if r["round"] != last and (not blocks or blocks[-1][1] >= BLOCK_S):
            blocks.append([0, 0.0])
        last = r["round"]
        blocks[-1][0] += 1
        blocks[-1][1] += r["n"]
    if len(blocks) > 1 and blocks[-1][1] < BLOCK_S:
        ops, busy = blocks.pop()
        blocks[-1][0] += ops
        blocks[-1][1] += busy
    return [ops / busy for ops, busy in blocks]


def end_to_end(records, setup_times, setup_slowdown, setup_rss):
    """End-to-end metrics of untraced ops, plus the figures printed beside them.

    Op times are normalized to the nominal machine speed (``speed.py``):
    an op's ``n`` is its wall time ``s`` divided by the slowdown ``k``
    measured around it; a set-up probe's time is divided by the start-up
    slowdown measured around it.
    """
    good = [r["n"] for r in records if r["ok"]]
    if not good:
        raise BenchError("no op succeeded; latency is undefined")
    p90_s, p90_beyond = percentile(good, 90.0)
    tail_s, tail_pct, tail_beyond = tail10(good)
    metrics = {
        "setup_s": statistics.median(t / k for t, k in zip(setup_times, setup_slowdown)),
        "throughput_ops_s": statistics.median(block_rates(records)),
        "latency_p50_ms": 1e3 * statistics.median(good),
        "setup_rss_mb": statistics.median(setup_rss),
    }
    extra = {
        "successful_ops": len(good),
        "latency_p90_ms": 1e3 * p90_s,
        "p90_samples_beyond": p90_beyond,
        "latency_tail_ms": 1e3 * tail_s,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": tail_beyond,
        "max_ms": 1e3 * max(good),
        "whole_run_ops_s": len(good) / sum(r["n"] for r in records),
        "slowdown_median": statistics.median(r["k"] for r in records),
        "raw_setup_s": statistics.median(setup_times),
        "raw_latency_p50_ms": 1e3 * statistics.median(r["s"] for r in records if r["ok"]),
        "raw_whole_run_ops_s": len(good) / sum(r["s"] for r in records),
        "rounds": len({r["round"] for r in records}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, extra


def per_layer(records, tracer) -> dict:
    from tracer import summarize

    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    summary = summarize(tracer.spans, {r["op"]: r["s"] for r in traced}, {r["op"]: r["k"] for r in traced})
    n = len(traced)
    values = {}
    for fn, stats in LAYER_STATS:
        row = summary["by_name"].get(fn, {})
        for st in stats:
            values[f"{fn}.{st}"] = row.get(st, 0) / n
    values["pencil.section_zeros.yield"] = summary["section_zeros_yield"]
    prov = Counter(r["provenance"] if r["provenance"] in PROVENANCES else "other" for r in traced if r["provenance"])
    for p in PROVENANCES + ("other",):
        values[f"tridiagonalize.provenance.{p}"] = prov[p] / n
    paired = [r for r in traced if r["round"] >= 0]
    values["trace.overhead"] = sum(r["s"] for r in paired) / sum(r["s"] for r in plain if r["round"] >= 0)
    absent = [m for m in values if any(m.startswith(a + ".") for a in tracer.absent)]
    summary["split"] = median_tail_split(traced, summary)
    return values, summary, absent


def median_tail_split(traced, summary) -> dict:
    """Where the middle tenth, the slowest 10 and the slowest traced op spend their time.

    Shares of op wall time: sweep self time (``section_zeros`` minus its
    traced children) and time inside ``newton_system`` (polish runs).
    """
    ranked = sorted(traced, key=lambda r: r["s"])
    n = len(ranked)
    groups = {
        "median_ops": ranked[int(0.45 * n) : max(int(0.55 * n), int(0.45 * n) + 1)],
        "slowest_10_ops": ranked[-10:],
        "slowest_op": ranked[-1:],
    }
    out = {}
    for label, rows in groups.items():
        wall = sum(r["s"] for r in rows)
        sweep = sum(summary["op_self_s"].get(r["op"], {}).get("pencil.section_zeros", 0.0) for r in rows)
        polish = sum(summary["op_incl_s"].get(r["op"], {}).get("polyroots.newton_system", 0.0) for r in rows)
        out[label] = {"ops": len(rows), "mean_ms": 1e3 * wall / len(rows), "sweep_self_share": sweep / wall, "newton_share": polish / wall}
    return out


# ---------------------------------------------------------------- reporting


def category_medians(records) -> dict:
    by_cat = {}
    for r in records:
        if r["ok"] and not r["traced"]:
            by_cat.setdefault(r["category"], []).append(1e3 * r["n"])
    return {c: statistics.median(v) for c, v in sorted(by_cat.items())}


def baseline_rows(workload, cats, e2e, extra, summary) -> list:
    """ROADMAP baseline rows (measured at f1f99ab) beside the figure that now measures them.

    Rows are ``(row, roadmap_ms, measured_by, this_run_ms)``; a per-call
    figure from the trace is None in an untraced run.
    """

    def per_call(fn):
        row = (summary or {}).get("by_name", {}).get(fn)
        return row["ms"] / row["calls"] if row else None

    if workload == "solve4-gaussian":
        return [
            ("4x4 solve median", 57, "latency_p50_ms (op adds verify)", e2e["latency_p50_ms"]),
            ("4x4 solve p99", 177, f"latency_tail_ms (p{extra['tail_percentile']:.1f})", extra["latency_tail_ms"]),
            ("4x4 solve max (one seed)", 2100, "max_ms of this run", extra["max_ms"]),
        ]
    if workload == "structured-mix":
        return [
            ("3x3 solve", 1.9, "gaussian-3x3 median (op adds verify)", cats.get("gaussian-3x3")),
            ("forced ladder (criterion 9)", 63, "ladder-defective median", cats.get("ladder-defective")),
            ("forced ladder (criterion 9)", 63, "perturb_and_retry ms per call (trace)", per_call("tridiagonalize.perturb_and_retry")),
        ]
    if workload == "cli-report":
        return [
            ("classify, 4x4", 173, "genericity.classify ms per call (trace)", per_call("genericity.classify")),
            ("3x3 solve", 1.9, "tridiagonalize3 ms per call (trace)", per_call("tridiagonalize.tridiagonalize3")),
        ]
    if workload != "counts":
        return []
    return [
        ("exhaustive section_zeros", 6700, "degrees.section_zero_count ms per call (trace)", per_call("degrees.section_zero_count")),
        ("degree_of_kernel_curve", 3200, "degrees.degree_of_kernel_curve ms per call (trace)", per_call("degrees.degree_of_kernel_curve")),
    ]


def print_human(report) -> None:
    env = report["environment"]
    x = report["extra"]
    print(f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}  trace {report['trace']}")
    print(
        f"env: nproc={env['nproc']} load={env['load_start']:.2f}->{env['load_end']:.2f} "
        f"idle={env['idle']} numpy={env['numpy']} blas={env['blas']} commit={env['commit']}"
    )
    print(
        f"machine slowdown (speed.py burst / nominal): median {x['slowdown_median']:.3f} over the timed ops; "
        "times below are divided by it unless marked raw"
    )
    notes = {
        "setup_s": f"median of {len(report['setup_samples_s'])} fresh processes; raw {x['raw_setup_s']:.4f}",
        "throughput_ops_s": f"median of half-second block rates; raw whole run {x['raw_whole_run_ops_s']:.4f}",
        "latency_p50_ms": f"n={x['successful_ops']}; raw {x['raw_latency_p50_ms']:.4f}",
    }
    for name, value in report["end_to_end"].items():
        print(f"  {name:<48} {value:>12.4f} {END_TO_END[name]}  ({notes.get(name, 'gated')})")
    ungated = [
        ("whole_run_ops_s", x["whole_run_ops_s"], "1/s", "successful ops / busy time of all ops"),
        ("latency_p90_ms", x["latency_p90_ms"], "ms", f"{x['p90_samples_beyond']} samples beyond"),
        ("latency_tail_ms", x["latency_tail_ms"], "ms", f"p{x['tail_percentile']:.2f}, {x['tail_samples_beyond']} samples beyond"),
        ("max_ms", x["max_ms"], "ms", "slowest successful op"),
        ("peak_rss_mb", x["peak_rss_mb"], "MB", "whole run"),
        ("fail_ratio", report["fail_ratio"], "ratio", f"{report['failed']} of {report['attempted']}: {report['failures']}"),
    ]
    for name, value, unit, note in ungated:
        print(f"  {name:<48} {value:>12.4f} {unit}  ({note}; not gated)")
    if report["trace"]:
        for name, m in report["metrics"].items():
            print(f"  {name:<48} {m['value']:>12.4f} {m['unit']}")
    if report["absent"]:
        print(f"  absent (not in this program): {', '.join(report['absent'])}")
    print("  median ms of successful untraced ops, by input kind:")
    for cat, ms in report["category_median_ms"].items():
        print(f"    {cat:<28} {ms:10.3f}")
    for label, g in report["split"].items():
        print(
            f"  {label}: {g['ops']} ops, mean {g['mean_ms']:.1f} ms, "
            f"sweep self {100 * g['sweep_self_share']:.0f}%, newton_system {100 * g['newton_share']:.0f}%"
        )
    for cat, ms, reason in report["once"]:
        print(f"  run once after the timed rounds: {cat} {ms:.1f} ms -> {reason or 'ok'}")
    print(f"  provenance: {report['provenance']}")
    for row, base, measured_by, value in report["baseline"]:
        shown = "n/a (trace run only)" if value is None else f"{value:.1f} ms"
        print(f"  ROADMAP {row}: {base} ms  ->  {measured_by}: {shown}")


def run_workload(args) -> int:
    import numpy

    import checks
    import workloads
    from speed import SpeedProbe

    warnings.simplefilter("ignore")  # RepeatedEigenvalueWarning etc. are expected on structured inputs
    checks.self_test()
    env = environment(numpy)
    api, cli = import_program()
    setup_times, setup_slowdown, setup_rss = measure_setup(SETUP_PROBES)
    speed = SpeedProbe()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rounds, once = workloads.build_inputs(args.workload, api, cli, args.seed, args.seconds, workdir)
        for op in workloads.warmup_ops(args.workload, api, cli, workdir):
            run_op(op)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        records = measure(rounds, args.seconds, speed, tracer)
        records += run_once(once, tracer, len(records))
        speed.sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for r in records:
        r["k"] = speed.around(r["t"], r["t"] + r["s"])
        r["n"] = r["s"] / r["k"]
    env["load_end"] = os.getloadavg()[0]

    failures = Counter(r["reason"] for r in records if not r["ok"])
    failed = sum(failures.values())
    timed = [r for r in records if r["round"] >= 0 and not r["traced"]]
    e2e, extra = end_to_end(timed, setup_times, setup_slowdown, setup_rss)
    summary = None
    absent = []
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    else:
        values, summary, absent = per_layer(records, tracer)
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    cats = category_medians(records)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "end_to_end": e2e,
        "extra": extra,
        "setup_samples_s": setup_times,
        "setup_slowdown": setup_slowdown,
        "speed_samples": [[t - speed.times[0], k] for t, k in zip(speed.times, speed.slowdown)],
        "setup_rss_samples_mb": setup_rss,
        "attempted": len(records),
        "failed": failed,
        "fail_ratio": failed / len(records),
        "failures": dict(failures),
        "incorrect": sum(r["incorrect"] for r in records),
        "absent": absent,
        "category_median_ms": cats,
        "provenance": dict(Counter(r["provenance"] for r in records if r["provenance"])),
        "baseline": baseline_rows(args.workload, cats, e2e, extra, summary),
        "split": summary["split"] if summary else {},
        "once": [[r["category"], 1e3 * r["n"], r["reason"]] for r in records if r["round"] < 0],
        "ops": [[r["round"], r["category"], round(1e3 * r["s"], 4), round(r["k"], 4), r["reason"], r["traced"]] for r in records],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1, default=str))
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    print_human(report)
    print(
        json.dumps(
            {
                "correct": report["incorrect"] == 0,
                "attempted": report["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed (exit {proc.returncode}): {proc.stderr.strip()[-400:]}", file=sys.stderr)
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if status:
        return status
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe:
            probe()
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (BenchError, RuntimeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
