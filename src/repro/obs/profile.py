"""Profiler: per-operator / per-processor / per-phase cost attribution.

Rolls the raw :class:`~repro.hw.trace.Trace` the simulator produces into
the attribution reports the paper's claims are made of (Figures 1,
14-17, Table 3/5):

* **Time attribution** — busy seconds per (processor, operator tag),
  with the invariant that per-processor attributed busy time plus
  classified idle time equals the profiled window within 1e-9 s
  (:func:`validate_profile`).
* **Idle-cause classification** — every idle second on every processor
  is assigned one cause: ``graph_build`` (the serial graph
  build/optimize window before execution), ``sync_wait`` (a §3.3
  CPU↔NPU merge fence is executing elsewhere), ``dependency`` (another
  processor is running work this one is waiting on), or ``starvation``
  (nothing is running anywhere — the queue is empty).  This refines
  :meth:`~repro.hw.trace.Trace.bubble_rate` from a single number into
  a causal breakdown.
* **Roofline** — achieved MatMul throughput per processor (the ``ops``
  MAC counts threaded through :class:`~repro.hw.trace.TraceEvent`
  divided by the MatMul-bearing busy time) against the processor's
  Table-3-calibrated ``peak_ops``.  NPU fractions can exceed 1.0 when
  the §4 equivalent-shape optimization beats the baseline kernel the
  peak was calibrated on — that excess is the optimization's measured
  gain, not an accounting error.
* **Energy attribution** — per-event joules mirroring the exact
  arithmetic of :meth:`~repro.hw.energy.EnergyModel.energy` (full
  active power, the §4.2 helper fraction for float-backend prefill
  work, idle power for gaps, platform power over the window), so the
  attributed total reconciles with the engine's reported
  ``EnergyBreakdown`` totals.
* **Flamegraph output** — collapsed-stack lines (``proc;c0;l3;sg1 <ns>``)
  consumable by standard flamegraph tooling.

Reports serialize to schema-versioned JSON (``repro.profile/v1``) with
fully deterministic bytes — no timestamps, no environment capture — so
``scripts/check_determinism.sh`` can byte-diff two runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.hw.energy import HELPER_POWER_FRACTION
from repro.hw.processor import DType, ProcKind, ProcessorSpec
from repro.hw.trace import Trace

from repro.obs.metrics import validate_metric_record
#: Schema identifier stamped into every profile JSON.
from repro.obs.schemas import (
    PROFILE_SCHEMA,
    check_schema,
    finite,
    require_keys,
)

#: Idle-cause categories, in classification priority order.
IDLE_CAUSES = ("graph_build", "sync_wait", "dependency", "starvation")

#: Maximum tolerated |busy + idle - window| per processor.
PROFILE_TOL_S = 1e-9

#: Keys of a serialized processor record; all but the first and last
#: are non-negative numbers.
_PROC_KEYS = ("proc", "busy_s", "span_s", "idle_s", "matmul_busy_s",
              "matmul_ops", "idle_by_cause")


class ProfileError(ReproError):
    """Profile construction or validation failure."""


# -- building blocks ----------------------------------------------------------


@dataclass(frozen=True)
class OperatorCost:
    """Attributed cost of one (processor, operator-tag) bucket."""

    proc: str
    tag: str
    n_events: int
    busy_s: float
    ops: float

    @property
    def key(self) -> Tuple[str, str]:
        return (self.proc, self.tag)


@dataclass(frozen=True)
class ProcessorProfile:
    """One processor's attributed time, idle causes, and roofline."""

    proc: str
    busy_s: float
    span_s: float
    idle_by_cause: Dict[str, float]
    matmul_busy_s: float
    matmul_ops: float
    peak_ops_per_s: Optional[float] = None

    @property
    def idle_s(self) -> float:
        return sum(self.idle_by_cause.values())

    @property
    def bubble_rate(self) -> float:
        """Idle fraction of the active span (§3.4's metric)."""
        if self.span_s <= 0:
            return 0.0
        return max(0.0, 1.0 - self.busy_s / self.span_s)

    @property
    def achieved_ops_per_s(self) -> float:
        """MatMul throughput over the MatMul-bearing busy time."""
        if self.matmul_busy_s <= 0:
            return 0.0
        return self.matmul_ops / self.matmul_busy_s

    @property
    def roofline_fraction(self) -> Optional[float]:
        """Achieved / calibrated-peak MatMul throughput (None without a
        device calibration)."""
        if self.peak_ops_per_s is None or self.peak_ops_per_s <= 0:
            return None
        return self.achieved_ops_per_s / self.peak_ops_per_s


def calibrated_peak_ops(spec: ProcessorSpec) -> float:
    """The processor's calibrated MatMul peak (Table 3 constants).

    The NPU's native format is INT8 (§2.2); float processors are rated
    at their widest supported float path.
    """
    order = ((DType.INT8, DType.FP16, DType.FP32)
             if spec.kind is ProcKind.NPU
             else (DType.FP32, DType.FP16, DType.INT8))
    for dtype in order:
        if spec.supports(dtype):
            return spec.matmul[dtype].peak_ops
    raise ProfileError(f"{spec.name}: no MatMul profile")  # unreachable


def attribute_time(trace: Trace) -> List[OperatorCost]:
    """Busy seconds and MatMul ops per (processor, operator tag).

    Untagged events fall into the ``"task"`` bucket — the same default
    :meth:`~repro.hw.trace.Trace.busy_by_tag` and the Chrome export use.
    """
    acc: Dict[Tuple[str, str], List[float]] = {}
    for e in trace.events:
        key = (e.proc, e.tag or "task")
        slot = acc.setdefault(key, [0, 0.0, 0.0])
        slot[0] += 1
        slot[1] += e.duration_s
        slot[2] += e.ops
    return [
        OperatorCost(proc=proc, tag=tag, n_events=int(n), busy_s=busy,
                     ops=ops)
        for (proc, tag), (n, busy, ops) in sorted(acc.items())
    ]


def classify_idle(trace: Trace,
                  prep_s: float = 0.0) -> Dict[str, Dict[str, float]]:
    """Classify every idle second of every processor by cause.

    Sweeps the elementary intervals between event boundaries over
    ``[0, makespan]``; in each interval an idle processor is charged to
    the highest-priority applicable cause: a ``sync``-tagged fence
    running anywhere → ``sync_wait``; any other processor busy →
    ``dependency``; everything quiet → ``starvation``.  ``prep_s``
    extends the window with the serial graph build/optimize time, which
    is pure ``graph_build`` idle for every processor.

    The invariant (checked by :func:`validate_profile`): per processor,
    ``busy + Σ idle_by_cause == makespan + prep_s`` within 1e-9 s.
    """
    if prep_s < 0:
        raise ProfileError(f"negative prep time {prep_s}")
    procs = trace.processors()
    idle: Dict[str, Dict[str, float]] = {
        p: {cause: 0.0 for cause in IDLE_CAUSES} for p in procs
    }
    # Boundary deltas: per-processor active counts + sync-fence count.
    deltas: Dict[float, List[float]] = {}
    n_procs = len(procs)
    index = {p: i for i, p in enumerate(procs)}
    for e in trace.events:
        is_sync = 1.0 if e.tag == "sync" else 0.0
        for t, sign in ((e.start_s, 1.0), (e.end_s, -1.0)):
            slot = deltas.setdefault(t, [0.0] * (n_procs + 1))
            slot[index[e.proc]] += sign
            slot[n_procs] += sign * is_sync
    makespan = trace.makespan_s
    times = sorted(set(deltas) | {0.0, makespan})
    active = [0.0] * n_procs
    sync_n = 0.0
    prev = times[0] if times else 0.0
    if prev > 0.0:
        prev = 0.0  # should not happen (0.0 is in the set); be safe
    for t in times:
        seg = t - prev
        if seg > 0 and prev < makespan:
            busy_any = any(a > 0 for a in active)
            for p in procs:
                if active[index[p]] > 0:
                    continue
                if sync_n > 0:
                    cause = "sync_wait"
                elif busy_any:
                    cause = "dependency"
                else:
                    cause = "starvation"
                idle[p][cause] += seg
        delta = deltas.get(t)
        if delta is not None:
            for i in range(n_procs):
                active[i] += delta[i]
            sync_n += delta[n_procs]
        prev = t
    for p in procs:
        idle[p]["graph_build"] += prep_s
    return idle


def attribute_energy(trace: Trace, device,
                     float_backend: str = "cpu",
                     decode_backend: str = "cpu",
                     window_s: Optional[float] = None) -> dict:
    """Per-event energy attribution mirroring the engine's accounting.

    Replays the exact power assignment of
    :meth:`LlmNpuEngine.infer <repro.core.engine.LlmNpuEngine.infer>` /
    :meth:`EnergyModel.energy <repro.hw.energy.EnergyModel.energy>` at
    per-event granularity: prefill work on the float backend draws the
    §4.2 helper fraction of active power (floored at idle power),
    decode and accelerator work draw full active power, gaps draw idle
    power, and the platform rail is charged over the whole window.
    Processors of the device that never appear in the trace contribute
    pure idle draw — exactly as the engine's totals do — so the
    attributed ``total_j`` reconciles with the reported
    :class:`~repro.hw.energy.EnergyBreakdown` up to float
    re-association.
    """
    window = trace.makespan_s if window_s is None else float(window_s)
    if window + PROFILE_TOL_S < trace.makespan_s:
        raise ProfileError(
            f"window {window} shorter than trace makespan "
            f"{trace.makespan_s}"
        )
    per_proc: Dict[str, dict] = {}
    for name in sorted(device.processors):
        spec = device.processors[name]
        helper_rate = max(spec.active_power_w * HELPER_POWER_FRACTION,
                          spec.idle_power_w)
        tags: Dict[str, float] = {}
        busy = 0.0
        for e in trace.events_on(name):
            rate = spec.active_power_w
            if name == float_backend and e.tag != "decode":
                rate = helper_rate
            tag = e.tag or "task"
            tags[tag] = tags.get(tag, 0.0) + rate * e.duration_s
            busy += e.duration_s
        idle_j = spec.idle_power_w * max(0.0, window - busy)
        per_proc[name] = {
            "tags": {k: tags[k] for k in sorted(tags)},
            "idle_j": idle_j,
            "total_j": sum(tags[k] for k in sorted(tags)) + idle_j,
        }
    platform_j = device.platform_power_w * window
    return {
        "per_processor": per_proc,
        "platform_j": platform_j,
        "total_j": platform_j + sum(
            per_proc[p]["total_j"] for p in sorted(per_proc)
        ),
    }


def flamegraph_lines(trace: Trace) -> List[str]:
    """Collapsed-stack flamegraph lines, one per distinct stack.

    Task ids fold on ``.`` into frames under a processor root —
    ``c0.l3.sg1`` on the NPU becomes ``npu;c0;l3;sg1`` — weighted by
    integer nanoseconds, sorted for deterministic output.  Feed to any
    ``flamegraph.pl``-compatible renderer.
    """
    counts: Dict[str, int] = {}
    for e in trace.events:
        stack = ";".join([e.proc] + e.task_id.split("."))
        counts[stack] = counts.get(stack, 0) + int(round(e.duration_s * 1e9))
    return [f"{stack} {counts[stack]}" for stack in sorted(counts)]


# -- the report ---------------------------------------------------------------


@dataclass
class ProfileReport:
    """A complete attribution report (serializes to ``repro.profile/v1``).

    ``window_s`` is the profiled wall interval — trace makespan plus any
    serial graph-preparation time; for merged reports it is the sum of
    the member windows (independent per-request timelines).
    """

    window_s: float
    n_traces: int
    processors: List[ProcessorProfile]
    operators: List[OperatorCost]
    phases: Dict[str, float]
    energy: Optional[dict] = None
    flamegraph: List[str] = field(default_factory=list)
    metrics: Optional[List[dict]] = None

    def processor(self, name: str) -> ProcessorProfile:
        for p in self.processors:
            if p.proc == name:
                return p
        raise ProfileError(
            f"no processor {name!r} in profile; have "
            f"{[p.proc for p in self.processors]}"
        )

    @property
    def total_energy_j(self) -> float:
        return 0.0 if self.energy is None else self.energy["total_j"]

    def to_dict(self) -> dict:
        out = {
            "schema": PROFILE_SCHEMA,
            "window_s": self.window_s,
            "n_traces": self.n_traces,
            "processors": [
                {
                    "proc": p.proc,
                    "busy_s": p.busy_s,
                    "span_s": p.span_s,
                    "idle_s": p.idle_s,
                    "idle_by_cause": {c: p.idle_by_cause[c]
                                      for c in IDLE_CAUSES},
                    "bubble_rate": p.bubble_rate,
                    "utilization": (p.busy_s / self.window_s
                                    if self.window_s > 0 else 0.0),
                    "matmul_busy_s": p.matmul_busy_s,
                    "matmul_ops": p.matmul_ops,
                    "achieved_ops_per_s": p.achieved_ops_per_s,
                    "peak_ops_per_s": p.peak_ops_per_s,
                    "roofline_fraction": p.roofline_fraction,
                }
                for p in self.processors
            ],
            "operators": [
                {"proc": o.proc, "tag": o.tag, "n_events": o.n_events,
                 "busy_s": o.busy_s, "ops": o.ops}
                for o in self.operators
            ],
            "phases": {k: self.phases[k] for k in sorted(self.phases)},
            "energy": self.energy,
            "flamegraph": list(self.flamegraph),
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False)

    def save(self, path: str) -> None:
        """Write deterministic JSON bytes (sorted keys, trailing
        newline) — byte-diffable across runs."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")

    def summary_table(self):
        """Per-processor attribution as a render-ready
        :class:`~repro.eval.report.Table`."""
        from repro.eval.report import Table
        table = Table(
            title="Per-processor attribution",
            columns=["proc", "busy ms", "idle ms", "util %", "bubble %",
                     "graph ms", "sync ms", "dep ms", "starve ms",
                     "roofline %"],
        )
        for p in self.processors:
            util = (p.busy_s / self.window_s * 100
                    if self.window_s > 0 else 0.0)
            roofline = p.roofline_fraction
            table.add_row(
                p.proc, p.busy_s * 1e3, p.idle_s * 1e3, util,
                p.bubble_rate * 100,
                p.idle_by_cause["graph_build"] * 1e3,
                p.idle_by_cause["sync_wait"] * 1e3,
                p.idle_by_cause["dependency"] * 1e3,
                p.idle_by_cause["starvation"] * 1e3,
                None if roofline is None else roofline * 100,
            )
        table.add_note("busy + classified idle = window per processor "
                       "(1e-9 s); roofline vs Table-3 calibrated peak")
        return table


def validate_profile(report, tol_s: float = PROFILE_TOL_S) -> None:
    """Validate a ``repro.profile/v1`` report (a :class:`ProfileReport`
    or its dict): record shapes and the conservation invariants — per
    processor, busy + classified idle == window, the idle causes sum to
    the idle time and the operators' busy time to the processor's; per
    energy section, tags + idle == total, and the sections plus platform
    sum to ``total_j`` — within ``tol_s`` per merged trace."""
    doc = report.to_dict() if isinstance(report, ProfileReport) else report
    check_schema(doc, PROFILE_SCHEMA, ProfileError)
    require_keys(doc, ("window_s", "n_traces", "processors", "operators",
                       "phases", "energy", "flamegraph"),
                 "profile", ProfileError)
    window, n_traces = doc["window_s"], doc["n_traces"]
    if not finite(window) or window < 0:
        raise ProfileError("window_s must be a non-negative number")
    if not isinstance(n_traces, int) or n_traces < 0:
        raise ProfileError("n_traces must be a non-negative integer")
    tol = tol_s * max(1, n_traces)
    busy: Dict[str, float] = {}
    for i, proc in enumerate(doc["processors"]):
        where = f"processors[{i}]"
        require_keys(proc, _PROC_KEYS, where, ProfileError)
        name, idle = proc["proc"], proc["idle_by_cause"]
        for key in _PROC_KEYS[1:-1]:
            if not finite(proc[key]) or proc[key] < 0:
                raise ProfileError(f"{where}: {key!r} must be a "
                                   f"non-negative number")
        if not isinstance(idle, dict):
            raise ProfileError(f"{where}: idle_by_cause must be an object")
        if sorted(idle) != sorted(IDLE_CAUSES):
            raise ProfileError(f"{where}: idle causes {sorted(idle)}")
        if not all(finite(v) and v >= 0 for v in idle.values()):
            raise ProfileError(f"{where}: idle seconds must be "
                               f"non-negative numbers")
        if abs(sum(idle.values()) - proc["idle_s"]) > tol:
            raise ProfileError(f"{where}: idle_by_cause != idle_s")
        gap = proc["busy_s"] + proc["idle_s"] - window
        if abs(gap) > tol:
            raise ProfileError(f"{where} ({name}): busy + idle != window "
                               f"(off by {gap:.3e} s > {tol:.3e} s)")
        if name in busy:
            raise ProfileError(f"{where}: duplicate processor {name!r}")
        busy[name] = proc["busy_s"]
    op_busy = dict.fromkeys(busy, 0.0)
    for i, op in enumerate(doc["operators"]):
        where = f"operators[{i}]"
        require_keys(op, ("proc", "tag", "n_events", "busy_s", "ops"),
                     where, ProfileError)
        if op["proc"] not in busy:
            raise ProfileError(f"{where}: unknown processor {op['proc']!r}")
        if not finite(op["busy_s"]) or op["busy_s"] < 0:
            raise ProfileError(f"{where}: busy_s must be non-negative")
        op_busy[op["proc"]] += op["busy_s"]
    for name, total in op_busy.items():
        if abs(total - busy[name]) > tol:
            raise ProfileError(f"{name}: per-operator busy sums to "
                               f"{total!r}, processor busy is {busy[name]!r}")
    energy = doc["energy"]
    if energy is not None:
        require_keys(energy, ("per_processor", "platform_j", "total_j"),
                     "energy", ProfileError)
        attributed = energy["platform_j"]
        for name, section in sorted(energy["per_processor"].items()):
            where = f"energy[{name!r}]"
            require_keys(section, ("tags", "idle_j", "total_j"), where,
                         ProfileError)
            if abs(sum(section["tags"].values()) + section["idle_j"]
                   - section["total_j"]) > tol:
                raise ProfileError(f"{where}: tags + idle != total")
            attributed += section["total_j"]
        if abs(attributed - energy["total_j"]) > tol:
            raise ProfileError("energy components do not sum to total_j")
    for i, line in enumerate(doc["flamegraph"]):
        stack, _, weight = line.rpartition(" ")
        if not stack or not weight.isdigit():
            raise ProfileError(f"flamegraph[{i}] not 'stack <integer-ns>'")
    metrics = doc.get("metrics")
    if metrics is not None and not isinstance(metrics, list):
        raise ProfileError("metrics must be a snapshot list")
    for i, record in enumerate(metrics or ()):
        validate_metric_record(record, f"metrics[{i}]")


def profile_trace(trace: Trace, device=None,
                  float_backend: str = "cpu",
                  decode_backend: str = "cpu",
                  prep_s: float = 0.0,
                  include_energy: Optional[bool] = None,
                  metrics=None) -> ProfileReport:
    """Profile one execution trace into a :class:`ProfileReport`.

    ``device`` (a :class:`~repro.hw.soc.SocSpec`) enables the roofline
    and energy sections; ``prep_s`` is serial graph build/optimize time
    preceding the trace (classified as ``graph_build`` idle).
    ``metrics`` optionally attaches a
    :class:`~repro.obs.metrics.MetricsRegistry` snapshot to the report.
    """
    operators = attribute_time(trace)
    idle = classify_idle(trace, prep_s=prep_s)
    window = trace.makespan_s + prep_s
    processors: List[ProcessorProfile] = []
    for proc in trace.processors():
        events = trace.events_on(proc)
        matmul_events = [e for e in events if e.ops > 0]
        peak = None
        if device is not None and proc in device.processors:
            peak = calibrated_peak_ops(device.processors[proc])
        processors.append(ProcessorProfile(
            proc=proc,
            busy_s=sum(e.duration_s for e in events),
            span_s=trace.span_s(proc) + prep_s,
            idle_by_cause=idle[proc],
            matmul_busy_s=sum(e.duration_s for e in matmul_events),
            matmul_ops=sum(e.ops for e in matmul_events),
            peak_ops_per_s=peak,
        ))
    phases = {
        "prepare_s": prep_s,
        "prefill_busy_s": sum(e.duration_s for e in trace.events
                              if e.tag != "decode"),
        "decode_busy_s": sum(e.duration_s for e in trace.events
                             if e.tag == "decode"),
    }
    if include_energy is None:
        include_energy = device is not None
    energy = None
    if include_energy:
        if device is None:
            raise ProfileError("energy attribution needs a device spec")
        energy = attribute_energy(trace, device,
                                  float_backend=float_backend,
                                  decode_backend=decode_backend,
                                  window_s=window)
    report = ProfileReport(
        window_s=window,
        n_traces=1,
        processors=processors,
        operators=operators,
        phases=phases,
        energy=energy,
        flamegraph=flamegraph_lines(trace),
        metrics=None if metrics is None else metrics.snapshot(),
    )
    validate_profile(report)
    return report


def profile_inference(report, device,
                      float_backend: str = "cpu",
                      decode_backend: str = "cpu") -> ProfileReport:
    """Profile one :class:`~repro.core.results.InferenceReport`.

    Uses the unified prefill+decode timeline; any excess of the
    reported end-to-end latency over the timeline makespan is the
    serial graph-preparation window (the naive-engine rebuild path).
    """
    timeline = report.timeline(decode_backend)
    prep_s = max(0.0, report.e2e_latency_s - timeline.makespan_s)
    return profile_trace(timeline, device=device,
                         float_backend=float_backend,
                         decode_backend=decode_backend,
                         prep_s=prep_s)


def merge_profiles(reports: List[ProfileReport]) -> ProfileReport:
    """Sum independent per-request profiles into one aggregate report.

    Windows, busy/idle seconds, operator costs, phases, flamegraph
    weights and energy all add; conservation holds for the merged
    report because it holds per member over disjoint windows.
    Per-request ``metrics`` snapshots are dropped (attach a service
    snapshot to the merged report instead).
    """
    if not reports:
        raise ProfileError("merge_profiles needs at least one report")
    procs: Dict[str, ProcessorProfile] = {}
    for r in reports:
        for p in r.processors:
            prev = procs.get(p.proc)
            if prev is None:
                procs[p.proc] = replace(
                    p, idle_by_cause=dict(p.idle_by_cause)
                )
                continue
            if (prev.peak_ops_per_s is not None
                    and p.peak_ops_per_s is not None
                    and prev.peak_ops_per_s != p.peak_ops_per_s):
                raise ProfileError(
                    f"{p.proc}: conflicting peak calibrations "
                    f"({prev.peak_ops_per_s} vs {p.peak_ops_per_s})"
                )
            # Unprofiled time relative to the merged window: a member
            # report that never saw this processor leaves a window-sized
            # hole.  Charged below, after all members are folded.
            procs[p.proc] = ProcessorProfile(
                proc=p.proc,
                busy_s=prev.busy_s + p.busy_s,
                span_s=prev.span_s + p.span_s,
                idle_by_cause={
                    c: prev.idle_by_cause[c] + p.idle_by_cause[c]
                    for c in IDLE_CAUSES
                },
                matmul_busy_s=prev.matmul_busy_s + p.matmul_busy_s,
                matmul_ops=prev.matmul_ops + p.matmul_ops,
                peak_ops_per_s=(prev.peak_ops_per_s
                                if prev.peak_ops_per_s is not None
                                else p.peak_ops_per_s),
            )
    window = sum(r.window_s for r in reports)
    # Conservation over the merged window: windows where a processor was
    # absent from the member trace are starvation idle for it.
    for name, p in procs.items():
        covered = sum(r.window_s for r in reports
                      if any(q.proc == name for q in r.processors))
        missing = window - covered
        if missing > 0:
            idle = dict(p.idle_by_cause)
            idle["starvation"] += missing
            procs[name] = replace(p, idle_by_cause=idle)

    ops_acc: Dict[Tuple[str, str], List[float]] = {}
    for r in reports:
        for o in r.operators:
            slot = ops_acc.setdefault(o.key, [0, 0.0, 0.0])
            slot[0] += o.n_events
            slot[1] += o.busy_s
            slot[2] += o.ops
    phases: Dict[str, float] = {}
    for r in reports:
        for k, v in r.phases.items():
            phases[k] = phases.get(k, 0.0) + v
    flame: Dict[str, int] = {}
    for r in reports:
        for line in r.flamegraph:
            stack, _, weight = line.rpartition(" ")
            flame[stack] = flame.get(stack, 0) + int(weight)

    energy = None
    with_energy = [r for r in reports if r.energy is not None]
    if with_energy:
        if len(with_energy) != len(reports):
            raise ProfileError(
                "cannot merge profiles with and without energy sections"
            )
        proc_names = sorted({
            p for r in with_energy for p in r.energy["per_processor"]
        })
        per_proc = {}
        for name in proc_names:
            tags: Dict[str, float] = {}
            idle_j = 0.0
            for r in with_energy:
                section = r.energy["per_processor"].get(name)
                if section is None:
                    continue
                idle_j += section["idle_j"]
                for tag, joules in section["tags"].items():
                    tags[tag] = tags.get(tag, 0.0) + joules
            per_proc[name] = {
                "tags": {k: tags[k] for k in sorted(tags)},
                "idle_j": idle_j,
                "total_j": sum(tags[k] for k in sorted(tags)) + idle_j,
            }
        platform_j = sum(r.energy["platform_j"] for r in with_energy)
        energy = {
            "per_processor": per_proc,
            "platform_j": platform_j,
            "total_j": platform_j + sum(
                per_proc[p]["total_j"] for p in proc_names
            ),
        }

    merged = ProfileReport(
        window_s=window,
        n_traces=sum(r.n_traces for r in reports),
        processors=[procs[name] for name in sorted(procs)],
        operators=[
            OperatorCost(proc=proc, tag=tag, n_events=int(n), busy_s=busy,
                         ops=ops)
            for (proc, tag), (n, busy, ops) in sorted(ops_acc.items())
        ],
        phases=phases,
        energy=energy,
        flamegraph=[f"{stack} {flame[stack]}" for stack in sorted(flame)],
    )
    validate_profile(merged)
    return merged
