"""Order statistics, the tail-percentile rule and process measurements."""

from __future__ import annotations

import bisect
import gc
import resource
import statistics
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

#: Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile for it to be reported.
TAIL_MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ``TAIL_MIN_BEYOND``
    of ``n`` samples beyond it (``n * (1 - q/100) >= 10``).

    Raises when even the median has fewer than that many beyond it; the
    workloads set a minimum item count so this cannot happen in a run.
    """
    best = None
    for q in TAIL_LADDER:
        # Integer arithmetic on tenths of a percent: no float edge cases
        # at the exact boundary (n = 40 has exactly 10 beyond p75).
        if n * (1000 - int(round(q * 10))) >= TAIL_MIN_BEYOND * 1000:
            best = q
    if best is None:
        raise ValueError(
            f"{n} samples: no percentile has {TAIL_MIN_BEYOND} beyond it")
    return best


def min_items_for(q: float) -> int:
    """Smallest sample count for which :func:`tail_percentile` reaches
    ``q``."""
    return -(-TAIL_MIN_BEYOND * 1000 // (1000 - int(round(q * 10))))


# -- CPU speed probe -----------------------------------------------------------
#
# On a shared host the CPU speed a process gets can drift by 20-40%
# over minutes (busy sibling hardware threads, shared caches); process
# CPU time drifts with wall time, so it is not preemption.  Raw wall time
# of one run then says more about the minutes it ran in than about the
# program.  A fixed pure-Python probe loop, run between items about
# twice a second, measures the current speed, and every stretch of wall
# time is rescaled to the speed at which the probe takes PROBE_REF_S.
# The probe allocates and sorts a table of some 40k objects so that,
# like the program, it depends on cache and memory speed and not only
# on the core.  Raw wall times are printed next to the rescaled ones.

#: Seconds the probe loop takes at the reference speed.  A unit of
#: measure, not a target: rescaled times are "seconds at the speed at
#: which the probe takes this long".
PROBE_REF_S = 0.03

#: Least wall time between two probes.
PROBE_EVERY_S = 0.5


def _probe_loop() -> float:
    table = {}
    for i in range(40000):
        table[i] = (i * 0.5, str(i), [i, i + 1])
    total = 0.0
    for _, (half, _text, pair) in sorted(table.items(),
                                         key=lambda kv: kv[1][1]):
        total += half * pair[1]
    return total


def probe_s() -> float:
    """Seconds one probe loop takes now (garbage collection off, so the
    program's heap size does not leak into the probe)."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _probe_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Cuts wall time into segments at :meth:`mark` and rescales each to
    reference speed by the probe time interpolated at its midpoint.
    Probes run between segments, never inside one.

    ``probe=False`` runs no probe and leaves every segment raw (the
    traced pass, whose layer times are raw wall time).
    """

    def __init__(self, probe: bool = True) -> None:
        self.probe = probe
        self._segments: List[Tuple[float, float]] = []
        self._probes: List[Tuple[float, float]] = []   # (midpoint, secs)
        if probe:
            self._take_probe()
        self._last_end = time.perf_counter()

    def _take_probe(self) -> None:
        t0 = time.perf_counter()
        took = probe_s()
        self._probes.append((t0 + took / 2, took))

    def mark(self) -> int:
        """End the current segment; returns its index."""
        now = time.perf_counter()
        self._segments.append((self._last_end, now))
        if self.probe and now - self._probes[-1][0] >= PROBE_EVERY_S:
            self._take_probe()
        self._last_end = time.perf_counter()
        return len(self._segments) - 1

    def finish(self) -> None:
        """Probe once more so the last segments have a probe after them."""
        if self.probe:
            self._take_probe()

    def _speed_at(self, t: float) -> float:
        times = [p[0] for p in self._probes]
        i = bisect.bisect_left(times, t)
        if i == 0:
            return self._probes[0][1]
        if i == len(times):
            return self._probes[-1][1]
        (t0, s0), (t1, s1) = self._probes[i - 1], self._probes[i]
        return s0 + (s1 - s0) * (t - t0) / (t1 - t0)

    def probe_median_s(self) -> float:
        return statistics.median(p[1] for p in self._probes)

    def raw_s(self, index: int) -> float:
        start, end = self._segments[index]
        return end - start

    def ref_s(self, index: int) -> float:
        start, end = self._segments[index]
        if not self.probe:
            return end - start
        return (end - start) * PROBE_REF_S / self._speed_at(
            (start + end) / 2)

    def total_raw_s(self) -> float:
        return sum(self.raw_s(i) for i in range(len(self._segments)))

    def total_ref_s(self) -> float:
        return sum(self.ref_s(i) for i in range(len(self._segments)))


def peak_rss_mib() -> float:
    """Peak resident set size of this process (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Runs in a fresh interpreter: imports the workload module (which
#: imports ``repro``) and builds one workload's inputs, timing both.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = ["src", "."]
from perfbench import workloads
workloads.WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""


def setup_samples(root: str, workload: str, seed: int,
                  repeats: int) -> List[Tuple[float, float]]:
    """Set-up seconds of ``repeats`` fresh interpreters, run one at a
    time; interpreter start-up itself is not included.  Each sample is
    rescaled by probes taken just before and after its interpreter;
    returns ``(raw_s, ref_s)`` pairs."""
    out = []
    for _ in range(repeats):
        before = probe_s()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, workload, str(seed)],
            cwd=root, capture_output=True, text=True, timeout=120,
            check=True)
        speed = (before + probe_s()) / 2
        raw = float(done.stdout.strip().splitlines()[-1])
        out.append((raw, raw * PROBE_REF_S / speed))
    return out


def summarize(samples: Sequence[float]) -> Tuple[float, float, float]:
    """``(median, tail value, tail percentile)`` of per-item samples."""
    q = tail_percentile(len(samples))
    return statistics.median(samples), percentile(samples, q), q
