"""The layers the traced run times, and the per-layer metrics it reports.

Span names are ``<layer>.<part>``; a span's layer is the longest entry
of :data:`LAYERS` its name starts with.  Every wrapped callable is a
public entry point of its layer (or, for ``eval.fleet.device``, the
fleet's per-device work unit), so a span's self time is the time spent
in that layer's own code and not in the layers it calls.
"""

from __future__ import annotations

import math
from typing import Dict, List

from perfbench.spans import Fold, SpanRecorder, Target

LAYERS = (
    "graph",
    "core.engine",
    "core.pipeline",
    "core.dependency",
    "hw.sim",
    "hw.trace",
    "core.service",
    "obs",
    "eval.fleet",
    "serialize",
)


def layer_of(span_name: str) -> str:
    best = ""
    for layer in LAYERS:
        if (span_name == layer or span_name.startswith(layer + ".")) \
                and len(layer) > len(best):
            best = layer
    if not best:
        raise KeyError(f"span {span_name!r} belongs to no layer")
    return best


# -- work counted from call arguments and results -----------------------------


def _count_prefill(rec: SpanRecorder, result, args, kwargs) -> None:
    """Key each prefill by the shape that determines its simulation:
    ``(device, model, EngineConfig, reused_chunks, n_chunks)``."""
    engine, prompt_tokens = args[0], (args[1] if len(args) > 1
                                      else kwargs["prompt_tokens"])
    cached = args[2] if len(args) > 2 else kwargs.get("cached_tokens", 0)
    cfg = engine.config
    if cfg.chunking:
        reused = cached // cfg.chunk_len
        remainder = cached - reused * cfg.chunk_len
        shape = (reused, math.ceil((prompt_tokens + remainder)
                                   / cfg.chunk_len))
    else:
        shape = ("monolithic", prompt_tokens)
    rec.keys["core.engine.prefill"].add(
        (engine.device.name, engine.model.name, repr(cfg)) + shape)


def _count_sim(rec: SpanRecorder, trace, args, kwargs) -> None:
    rec.counters["hw.sim.events"] += len(trace.events)


def _count_lowered(rec: SpanRecorder, tasks, args, kwargs) -> None:
    rec.counters["core.dependency.tasks_lowered"] += len(tasks)


def _count_served(rec: SpanRecorder, records, args, kwargs) -> None:
    rec.counters["core.service.requests"] += len(records)


def _methods(name: str, module: str, cls: str, *methods: str):
    return [Target(name, module, f"{cls}.{m}") for m in methods]


TARGETS: List[Target] = [
    Target("graph.build_chunk", "repro.graph.builder",
           "GraphBuilder.build_chunk"),
    Target("graph.chunk_sharing", "repro.graph.chunk",
           "ChunkSharingGraph.__init__"),
    Target("core.engine.prepare", "repro.core.engine",
           "LlmNpuEngine.__init__"),
    Target("core.engine.prefill", "repro.core.engine",
           "LlmNpuEngine.prefill", _count_prefill),
    Target("core.engine.infer", "repro.core.engine", "LlmNpuEngine.infer"),
    Target("core.pipeline.run_prefill", "repro.core.pipeline",
           "run_prefill"),
    Target("core.dependency.build_task_graph", "repro.core.dependency",
           "build_task_graph", _count_lowered),
    Target("hw.sim.run", "repro.hw.sim", "Simulator.run", _count_sim),
    Target("hw.trace.busy", "repro.hw.trace", "Trace.busy_seconds"),
    Target("hw.trace.busy", "repro.hw.trace", "Trace.busy_by_processor"),
    Target("core.service.run", "repro.core.service", "LlmService.run",
           _count_served),
    *_methods("obs.monitor", "repro.obs.monitor", "SloMonitor",
              "observe_request", "observe_fault", "observe_step",
              "observe_steps", "observe_decision", "on_step",
              "on_decision", "compliance", "timeline",
              "scheduler_summary", "decision_counts"),
    *_methods("obs.steplog", "repro.obs.steplog", "StepLogger",
              "on_step", "on_decision", "on_record", "to_dict"),
    *_methods("obs.sketch", "repro.obs.sketch", "QuantileSketch",
              "observe", "record_many", "merge", "to_dict",
              "snapshot_percentiles"),
    Target("obs.export", "repro.obs.export", "service_timeline"),
    Target("obs.export", "repro.obs.export", "to_chrome_trace"),
    Target("obs.critical_path", "repro.obs.critical_path",
           "critical_path"),
    Target("obs.critical_path", "repro.obs.critical_path",
           "request_critical_path"),
    Target("obs.critical_path", "repro.obs.critical_path", "critpath_doc"),
    Target("obs.whatif", "repro.obs.whatif", "capture_engine_run"),
    Target("obs.whatif", "repro.obs.whatif", "predict"),
    Target("obs.whatif", "repro.obs.whatif", "resimulate"),
    Target("obs.diff", "repro.obs.diff", "diff_docs"),
    Target("obs.explain", "repro.obs.breakdown", "breakdown_requests"),
    Target("obs.explain", "repro.obs.explain", "explain_all"),
    Target("obs.validate", "repro.obs.export", "validate_timeline"),
    Target("obs.validate", "repro.obs.critical_path",
           "validate_critical_path"),
    Target("obs.validate", "repro.obs.diff", "validate_diff"),
    Target("obs.validate", "repro.obs.steplog", "validate_steps_doc"),
    Target("obs.validate", "repro.obs.breakdown", "validate_breakdowns"),
    Target("obs.validate", "repro.obs.explain", "validate_explanations"),
    Target("obs.validate", "repro.obs.monitor", "validate_timeline_doc"),
    Target("eval.fleet.report", "repro.eval.fleet", "fleet_report"),
    Target("eval.fleet.device", "repro.eval.fleet", "_device_payload"),
    Target("eval.fleet.run_device", "repro.eval.fleet", "run_device"),
    Target("eval.fleet.run_step_probe", "repro.eval.fleet",
           "run_step_probe"),
    Target("eval.fleet.merge", "repro.eval.fleet",
           "_merge_payload_sketches"),
    Target("eval.fleet.merge", "repro.eval.fleet", "_merge_payload_alerts"),
    Target("eval.fleet.merge", "repro.eval.fleet",
           "_merge_payload_critpath"),
]

#: Span names whose self time is reported (``serialize`` spans come from
#: the workloads' own JSON encoding, not from a wrapped function).
SPAN_NAMES = tuple(sorted({t.name for t in TARGETS} | {"serialize"}))

#: Span names whose call counts are reported.
CALL_COUNTED = ("graph.build_chunk", "core.engine.prepare",
                "core.engine.prefill", "hw.sim.run", "core.service.run")

#: Every per-layer metric name and unit, in report order.
METRICS: Dict[str, str] = {}
for _span in SPAN_NAMES:
    METRICS[f"{_span}.self_s"] = "s"
for _span in CALL_COUNTED:
    METRICS[f"{_span}.calls"] = "count"
METRICS.update({
    "core.engine.prefill.calls_per_item": "count",
    "core.engine.prefill.distinct_shapes": "count",
    "core.engine.prefill.repeat_ratio": "ratio",
    "hw.sim.events": "count",
    "hw.sim.ns_per_event": "ns",
    "core.dependency.tasks_lowered": "count",
    "core.service.requests": "count",
    "core.service.infer_per_request": "count",
    "obs.tracer.spans": "count",
    "graph.cache_hit_ratio": "ratio",
})
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = "s"
    METRICS[f"{_layer}.share"] = "ratio"
METRICS.update({
    "unattributed.share": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
})


def layer_metrics(folded: Fold, rec: SpanRecorder, items: int,
                  cache_delta: Dict[str, int],
                  overhead_ratio: float) -> Dict[str, float]:
    """All :data:`METRICS` from the traced windows of one run;
    ``overhead_ratio`` is traced over untraced wall time, minus one."""
    wall_s = folded.wall_ns / 1e9
    self_s = {name: ns / 1e9 for name, ns in folded.self_ns.items()}
    calls = folded.calls
    out: Dict[str, float] = {}
    for span in SPAN_NAMES:
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
    for span in CALL_COUNTED:
        out[f"{span}.calls"] = calls.get(span, 0)
    n_prefill = calls.get("core.engine.prefill", 0)
    distinct = len(rec.keys.get("core.engine.prefill", ()))
    events = rec.counters.get("hw.sim.events", 0)
    requests = rec.counters.get("core.service.requests", 0)
    lookups = cache_delta["hits"] + cache_delta["misses"]
    out.update({
        "core.engine.prefill.calls_per_item": n_prefill / items,
        "core.engine.prefill.distinct_shapes": distinct,
        "core.engine.prefill.repeat_ratio":
            (1.0 - distinct / n_prefill) if n_prefill else 0.0,
        "hw.sim.events": events,
        "hw.sim.ns_per_event":
            (self_s.get("hw.sim.run", 0.0) * 1e9 / events) if events
            else 0.0,
        "core.dependency.tasks_lowered":
            rec.counters.get("core.dependency.tasks_lowered", 0),
        "core.service.requests": requests,
        "core.service.infer_per_request":
            (calls.get("core.engine.infer", 0) / requests) if requests
            else 0.0,
        "obs.tracer.spans": rec.counters.get("obs.tracer.spans", 0),
        "graph.cache_hit_ratio":
            cache_delta["hits"] / lookups if lookups else 0.0,
    })
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        by_layer[layer_of(name)] += seconds
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer[layer]
        out[f"{layer}.share"] = by_layer[layer] / wall_s
    out["unattributed.share"] = folded.unattributed_ns / folded.wall_ns
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.wall_s"] = wall_s
    return out
