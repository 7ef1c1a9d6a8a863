"""Host-time benchmark of the llm.npu reproduction.

    python3 perfbench/run.py --workload {fleet,sweep,traced} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
its ``src/``.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation: it runs units of the workload until ``S`` seconds have
passed and enough items were done for the tail percentile.  ``--trace
1`` runs a fixed prefix of the workload twice, untraced and traced unit
by unit in turn, and reports per-layer self time, call counts and work
counts.  The last line of output is one JSON object; the exit code is 1
if any output check failed and 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5
SPANS_DIR = os.path.join("perfbench", "out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet", "sweep", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Pass:
    """Units run back to back: per-item times, failures, digests."""

    def __init__(self, workload, inputs, span, probe=True):
        from perfbench.stats import Clock
        self.workload = workload
        self.inputs = inputs
        self.span = span
        self.state = workload.new_state()
        self.items = []
        self.attempted = 0
        self.failed = 0
        self.unit_digests = []
        self.counters = {}
        self.clock = Clock(probe=probe)
        self.started = time.perf_counter()

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self.started

    def step(self):
        """Run the next unit and account for its items."""
        try:
            result = self.workload.run_unit(
                self.inputs, len(self.unit_digests), self.state, self.span,
                self.clock.mark)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += self.workload.items_per_unit
            self.failed += self.workload.items_per_unit
            self.unit_digests.append("failed")
        else:
            self.items.extend(result.items)
            self.attempted += len(result.items)
            self.failed += result.failed
            self.unit_digests.append(result.digest)
            for key, value in result.counters.items():
                self.counters[key] = self.counters.get(key, 0) + value

    def run(self, until):
        """Run units until ``until(self)`` is true; returns self."""
        while True:
            self.step()
            if until(self):
                self.clock.mark()
                self.clock.finish()
                return self

    def digest(self, units):
        """sha256 over the first ``units`` unit digests."""
        return hashlib.sha256(
            "\n".join(self.unit_digests[:units]).encode()).hexdigest()


def run_untraced(args, workload, inputs, setup):
    from perfbench import stats
    from perfbench.workloads import no_span
    done = Pass(workload, inputs, no_span).run(
        lambda p: p.elapsed_s >= args.seconds
        and len(p.unit_digests) >= workload.prefix_units
        and len(p.items) >= workload.min_items)
    n = len(done.items)
    clock = done.clock
    p50, tail, q = stats.summarize([clock.ref_s(i) for i in done.items])
    raw_p50, raw_tail, _ = stats.summarize(
        [clock.raw_s(i) for i in done.items])
    raw_s, ref_s = clock.total_raw_s(), clock.total_ref_s()
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "throughput_per_s": (n / ref_s, "1/s"),
        "item_ms.p50": (p50 * 1e3, "ms"),
        "item_ms.tail": (tail * 1e3, "ms"),
        "peak_rss_mib": (stats.peak_rss_mib(), "MiB"),
    }
    print(f"items: {n} over {len(done.unit_digests)} units in "
          f"{raw_s:.3f} s wall, {ref_s:.3f} s at reference speed (probe "
          f"median {clock.probe_median_s() * 1e3:.2f} ms, reference "
          f"{stats.PROBE_REF_S * 1e3:g} ms)")
    print(f"item_ms.p50: n={n}; item_ms.tail: p{q:g}, n={n}")
    print(f"raw wall: setup_s "
          f"{statistics.median(raw for raw, _ in setup):.4f} s, "
          f"throughput_per_s {n / raw_s:.4f} 1/s, item_ms.p50 "
          f"{raw_p50 * 1e3:.3f} ms, item_ms.tail {raw_tail * 1e3:.3f} ms")
    print(f"error_rate: {done.failed / done.attempted:.6g} "
          f"({done.failed} failed / {done.attempted} attempted)")
    print(f"sim_digest: {done.digest(workload.prefix_units)} "
          f"(first {workload.prefix_units} units)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    return done.failed == 0, done.attempted, done.failed, metrics


def run_traced(args, workload, inputs):
    from repro.graph.builder import graph_cache_stats
    from perfbench import layers, spans
    from perfbench.workloads import no_span

    # Untraced and traced units alternate, so both passes see the same
    # drift in machine speed and the overhead ratio compares like with
    # like.  Wrappers are installed only around traced units, and layer
    # times are raw wall time (no speed probe).
    units = workload.prefix_units
    plain = Pass(workload, inputs, no_span, probe=False)
    recorder = spans.SpanRecorder()
    traced = Pass(workload, inputs, recorder.span, probe=False)
    windows = []
    untraced_ns = 0
    cache = {"hits": 0, "misses": 0}
    for _ in range(units):
        t0 = time.perf_counter_ns()
        plain.step()
        untraced_ns += time.perf_counter_ns() - t0
        patches = spans.install(recorder, layers.TARGETS)
        cache0 = graph_cache_stats()
        try:
            t0 = time.perf_counter_ns()
            traced.step()
            windows.append((t0, time.perf_counter_ns()))
        finally:
            spans.uninstall(patches)
        cache1 = graph_cache_stats()
        for key in cache:
            cache[key] += cache1[key] - cache0[key]
    for key, value in traced.counters.items():
        recorder.counters[key] += value

    folded = spans.fold(recorder, windows)
    failed = plain.failed + traced.failed
    digest_plain, digest_traced = plain.digest(units), traced.digest(units)
    if digest_plain != digest_traced:
        print(f"sim_digest mismatch: untraced {digest_plain} != traced "
              f"{digest_traced}", file=sys.stderr)
        failed += 1
    conservation = folded.conservation_error_ns
    if conservation != 0:
        print(f"self-time fold does not conserve wall time: "
              f"off by {conservation} ns", file=sys.stderr)
        failed += 1
    values = layers.layer_metrics(folded, recorder, len(traced.items),
                                  cache, folded.wall_ns / untraced_ns - 1)

    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(
        SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
    recorder.dump(spans_path)

    print(f"traced prefix: {units} units, {len(traced.items)} items; "
          f"{untraced_ns / 1e9:.3f} s untraced, {folded.wall_ns / 1e9:.3f}"
          f" s traced; {len(recorder)} spans -> {spans_path}")
    print(f"sim_digest: {digest_traced} (untraced {digest_plain})")
    print(f"conservation: sum self_s + unattributed - wall = "
          f"{conservation} ns")
    for name, unit in layers.METRICS.items():
        print(f"{name}: {values[name]:.6g} {unit}")
    metrics = {name: (values[name], unit)
               for name, unit in layers.METRICS.items()}
    attempted = plain.attempted + traced.attempted
    return failed == 0, attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src; run it "
              f"from a full source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
        p for p in sys.path if os.path.abspath(p or ".") != here]

    from perfbench import stats
    setup = []
    if not args.trace:
        setup = stats.setup_samples(ROOT, args.workload, args.seed,
                                    SETUP_REPEATS)
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"python={sys.version.split()[0]} nproc={os.cpu_count()}")
    if args.trace:
        correct, attempted, failed, metrics = run_traced(args, workload,
                                                         inputs)
    else:
        correct, attempted, failed, metrics = run_untraced(
            args, workload, inputs, setup)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
