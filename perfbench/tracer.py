"""Span tracer that wraps ``tridiag4``'s layer functions from outside.

Inside ``installed()`` every module-level binding of each wrapped function
in the package is replaced, so ``from .pencil import section_zeros`` call
sites are caught as well; the originals come back on exit.  A span is
``[name, start, end, parent, op, raised, n_out]``; spans stay in memory
and ``write`` dumps them as JSON lines at the end of the run.  The
package runs single-threaded here (``TRIDIAG_THREADS=1``), so one stack
of open spans suffices.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# The layers are the package modules; these are the calls into them that
# the per-layer metrics are built from.
LAYERS = {
    "cli": ("main", "parse_json_matrix"),
    "genericity": ("classify", "check_pencil_rank", "common_eigenvectors"),
    "tridiagonalize": (
        "tridiagonalize",
        "tridiagonalize3",
        "deflate_common_eigenvector",
        "perturb_and_retry",
        "build_flag",
        "verify",
    ),
    "pencil": ("section_zeros", "section_residual", "kernel_vector"),
    "polyroots": ("newton_system", "roots", "resultant"),
    "degrees": ("run_experiments", "section_zero_count", "degree_of_kernel_curve", "degree_of_det_curve"),
    "linalg": ("eigen",),
}
COUNT_OUTPUT = {"pencil.section_zeros"}  # record len(result): candidates returned

NAME, START, END, PARENT, OP, RAISED, N_OUT = range(7)


class Tracer:
    def __init__(self, package: str = "tridiag4"):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.wrappers: dict[str, tuple] = {}  # name -> (original, wrapper)
        self.absent: list[str] = []
        self._resolve()

    def _resolve(self) -> None:
        for layer, names in LAYERS.items():
            try:
                mod = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{n}" for n in names)
                continue
            for n in names:
                fn = getattr(mod, n, None)
                if callable(fn):
                    self.wrappers[f"{layer}.{n}"] = (fn, self._wrap(f"{layer}.{n}", fn))
                else:
                    self.absent.append(f"{layer}.{n}")

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count_output = name in COUNT_OUTPUT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if count_output:
                span[N_OUT] = len(out)
            return out

        return traced

    def _modules(self):
        prefix = self.package + "."
        return [m for k, m in list(sys.modules.items()) if m is not None and (k == self.package or k.startswith(prefix))]

    def _swap(self, pairs) -> None:
        swap = {id(old): (old, new) for old, new in pairs}
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    @contextlib.contextmanager
    def installed(self):
        """Calls into the package are traced inside this block."""
        self._swap([(orig, wrap) for orig, wrap in self.wrappers.values()])
        try:
            yield
        finally:
            self._swap([(wrap, orig) for orig, wrap in self.wrappers.values()])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op", "raised", "n_out"), s))) + "\n")


def summarize(spans: list[list], op_wall_s: dict[int, float], op_slowdown: dict[int, float]) -> dict:
    """Per-name totals over the traced ops, plus the span-coverage check.

    ``ms`` counts a span only when no enclosing span has the same name,
    so recursion (ladder sub-solves) is not counted twice; ``self_ms`` is
    the duration minus the time covered by direct children.  Both are
    divided by the machine slowdown of the span's op, like the end-to-end
    times; the shares in ``op_self_s`` and ``op_incl_s`` stay wall time.  Raises
    ``RuntimeError`` when the self times of an op's spans add up to more
    than the op's measured wall time.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield spans[p]
            p = spans[p][PARENT]

    tot = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "errors": 0})
    self_by_op = defaultdict(float)
    op_self = defaultdict(lambda: defaultdict(float))  # op -> name -> self s
    op_incl = defaultdict(lambda: defaultdict(float))  # op -> name -> outermost s
    polish_under_search = 0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        t = tot[s[NAME]]
        t["calls"] += 1
        t["errors"] += int(s[RAISED])
        k = op_slowdown.get(s[OP], 1.0)
        t["self_ms"] += 1e3 * (dur - child_s[i]) / k
        self_by_op[s[OP]] += dur - child_s[i]
        op_self[s[OP]][s[NAME]] += dur - child_s[i]
        if all(a[NAME] != s[NAME] for a in ancestors(i)):
            t["ms"] += 1e3 * dur / k
            op_incl[s[OP]][s[NAME]] += dur
        if s[NAME] == "polyroots.newton_system" and any(a[NAME] == "pencil.section_zeros" for a in ancestors(i)):
            polish_under_search += 1

    for op, self_s in self_by_op.items():
        wall = op_wall_s.get(op)
        if wall is None or self_s > wall * 1.001 + 1e-5:
            raise RuntimeError(f"trace check: op {op} span self time {self_s:.6f}s exceeds its wall time {wall}")

    returned = sum(s[N_OUT] or 0 for s in spans if s[NAME] == "pencil.section_zeros")
    return {
        "by_name": dict(tot),
        "section_zeros_yield": returned / polish_under_search if polish_under_search else 0.0,
        "section_zeros_returned": returned,
        "polish_under_search": polish_under_search,
        "op_self_s": op_self,
        "op_incl_s": op_incl,
    }
