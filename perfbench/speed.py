"""Machine-speed references, measured by the benchmark itself.

The VM the benchmark was written on shares its cores with other tenants:
a fixed 4x4 solve ran at 34-57 ms per call from one second to the next,
and whole runs minutes apart differed by up to 1.8x.  A fixed reference
burst of the same kind of work (interpreted loops over small complex
arrays, 4x4 LAPACK calls and one batched array op), run between the
timed ops, slows down with it: over 10 s windows its time and the
solve's time correlated at 0.99.  Dividing each op's time by the
machine's slowdown at that moment, ``k = burst time / NOMINAL_BURST_S``,
gives timings at a fixed nominal machine speed.  The burst uses numpy
only, never ``tridiag4``, so a change to the program cannot move it.

Process start-up moves too, in steps of its own (set-up probes took
0.23 s in one run and 0.37-0.43 s in the next nine), so set-up time is
divided the same way by the time a reference process (interpreter, numpy
import, one LAPACK call) takes to start, timed around each set-up probe.
"""

from __future__ import annotations

import bisect
import subprocess
import sys
import time

import numpy as np

# The burst time that defines the nominal machine speed, about the burst
# time of the 2-core VM the benchmark was written on when it was quiet
# (4.7 ms was the mean over a busy minute).  Any fixed value would do: it
# only sets the unit of the normalized timings.
NOMINAL_BURST_S = 4.0e-3
MIN_SAMPLE_BURSTS = 20  # ~0.1 s
SAMPLE_SHARE = 0.1  # a sample lasts about this share of the time since the last one
SAMPLE_EVERY_S = 1.0  # minimum gap between samples while measuring
WINDOW_S = 3.0  # an op's slowdown averages the samples this close to it
# Start-up time of REFERENCE_START on the same VM (median over two minutes).
NOMINAL_START_S = 0.19
REFERENCE_START = (
    sys.executable,
    "-c",
    "import numpy; numpy.linalg.eigvals(numpy.eye(4) + 0j); print('ready', flush=True)",
)

_rng = np.random.default_rng(20011018)
_SMALL = [_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)) for _ in range(32)]
_BATCH = _rng.standard_normal((720, 4, 4)) + 1j * _rng.standard_normal((720, 4, 4))


def burst() -> complex:
    """A fixed amount of work shaped like the program's; returns its result."""
    acc = 0j
    for m in _SMALL:
        w = np.linalg.eigvals(m)
        np.linalg.qr(m)
        acc += np.linalg.det(m) + w.sum()
        v = m[:, 0].copy()
        for _ in range(5):
            v = m @ v
            v /= np.linalg.norm(v)
        acc += sum(complex(x) * complex(y) for x, y in zip(v, w))
    acc += np.linalg.det(_BATCH @ _BATCH.conj().transpose(0, 2, 1)).sum()
    return acc


class SpeedProbe:
    """Samples the reference burst over a run and gives the slowdown around any op."""

    def __init__(self):
        self.times: list[float] = []  # sample midpoints, perf_counter seconds
        self.slowdown: list[float] = []  # burst time / NOMINAL_BURST_S
        self._last_end = None
        burst()  # first call pays for lazy LAPACK and allocator set-up

    def sample(self) -> float:
        """Time a run of bursts; after a long op, a longer one (SAMPLE_SHARE of the gap)."""
        t0 = time.perf_counter()
        count = MIN_SAMPLE_BURSTS
        if self._last_end is not None:
            count = max(count, round(SAMPLE_SHARE * (t0 - self._last_end) / NOMINAL_BURST_S))
        for _ in range(count):
            burst()
        t1 = time.perf_counter()
        k = (t1 - t0) / count / NOMINAL_BURST_S
        self.times.append(0.5 * (t0 + t1))
        self.slowdown.append(k)
        self._last_end = t1
        return k

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S

    def around(self, start: float, end: float) -> float:
        """Mean slowdown of the samples within WINDOW_S of [start, end], and of
        the last sample before it and the first after it."""
        lo = bisect.bisect(self.times, start - WINDOW_S)
        hi = bisect.bisect(self.times, end + WINDOW_S)
        lo = min(lo, max(0, bisect.bisect(self.times, start) - 1))
        hi = max(hi, min(len(self.times), bisect.bisect(self.times, end) + 1))
        near = self.slowdown[lo:hi]
        return sum(near) / len(near)


def time_to_ready(cmd, cwd=None):
    """Start ``cmd`` and time it until its first stdout line; returns
    ``(seconds, first line split into words, exit code, stderr)``."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd) as proc:
        line = proc.stdout.readline().split()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=60)
    return t1 - t0, line, proc.returncode, err


def start_slowdown() -> float:
    """Start-up time of the reference process over NOMINAL_START_S."""
    seconds, line, code, err = time_to_ready(list(REFERENCE_START))
    if line != ["ready"] or code != 0:
        raise RuntimeError(f"reference process failed (exit {code}): {err.strip()[-400:]}")
    return seconds / NOMINAL_START_S
