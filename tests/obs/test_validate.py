"""One validator per artifact schema, and the script that dispatches to it.

Table-driven over every ``SCHEMA_TABLE`` entry plus the Chrome-trace and
JSONL exports: a valid document passes both the library and
``scripts/check_trace_schema.py``, and for every check one corrupted
document is rejected by the library with a message the script prints
verbatim as ``FAIL: <path>: <message>`` (exit 1).  Each case's expected
substring names its check, so removing a check fails its case.
"""

import copy
import functools
import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

from repro.errors import ReproError
from repro.obs import (
    SCHEMA_TABLE,
    VALIDATORS,
    MetricsRegistry,
    QuantileSketch,
    BurnRateRule,
    SchemaError,
    SloSpec,
    Tracer,
    benchdiff_doc,
    compare_artifacts,
    critical_path,
    critpath_doc,
    diff_critpath_docs,
    dump_doc,
    jsonl_records,
    load_doc,
    make_artifact,
    profile_inference,
    save_doc,
    to_chrome_trace,
    validate_doc,
    validate_jsonl,
    validate_timeline,
)

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
SCRIPT = os.path.join(ROOT, "scripts", "check_trace_schema.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("check_trace_schema",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _step(start_s, queue_depths):
    """A ``repro.steps/v1`` step with the keys the counter export reads."""
    return {"index": 0, "start_s": start_s, "end_s": start_s + 0.1,
            "n_inflight": 1, "prefill_tokens": 64, "decode_tokens": 2,
            "queue_depths": queue_depths, "kv_budget_bytes": None,
            "kv_reserved_bytes": 0}


def _metrics():
    registry = MetricsRegistry()
    registry.counter("requests_total", tier="interactive").inc(3)
    registry.gauge("queue_depth").set(2.0)
    registry.histogram("latency_s").observe(0.5)
    registry.histogram("idle_s")  # empty: null percentiles
    return registry


def _alerts_doc():
    slo = SloSpec(name="avail", objective="availability", target=0.9)
    rule = BurnRateRule(name="fast", long_window_s=10.0,
                        short_window_s=2.0, max_burn_rate=4.0)
    return {
        "schema": "repro.alerts/v1", "source": "service",
        "start_s": 0.0, "end_s": 10.0,
        "n_request_events": 1, "n_fault_events": 1,
        "slos": [dict(slo.to_dict(), n_events=1, n_bad=1,
                      good_fraction=0.0, budget_burned=10.0, met=False)],
        "rules": [rule.to_dict()],
        "incidents": [{
            "slo": "avail", "rule": "fast", "severity": "page",
            "state": "resolved", "pending_s": 1.0, "firing_s": 2.0,
            "resolved_s": 3.0, "peak_burn_rate": 5.0,
            "links": [{"kind": "request", "request_id": 3,
                       "track": "req 00003"},
                      {"kind": "fault", "draw": 0, "fault": "transient"}],
        }],
    }


@functools.lru_cache(maxsize=None)
def _valid_docs():
    """One valid document per kind, JSON round-tripped (as on disk)."""
    from repro.core import LlmNpuEngine
    from repro.eval import default_fleet, fleet_report, golden_steplog
    from repro.eval.report import Table

    engine = LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")
    backend = engine.config.decode_backend
    small, large = engine.infer(64, 2), engine.infer(128, 3)
    profile = profile_inference(small, engine.device,
                                float_backend=engine.config.float_backend,
                                decode_backend=backend)
    profile.metrics = _metrics().snapshot()

    def paths(first):
        return [critical_path(first.timeline(backend), source="request 1"),
                critical_path(small.timeline(backend), source="request 2")]

    base = critpath_doc(paths(small), source="base")
    new = critpath_doc(paths(large), source="new")

    table = Table(title="Latency", columns=["config", "e2e s", "tok/s"])
    table.add_row("baseline", 2.0, 100.0)
    table.add_row("chunked", 1.0, 200.0)
    slower = Table(title="Latency", columns=["config", "e2e s", "tok/s"])
    slower.add_row("baseline", 3.0, 100.0)
    slower.add_row("chunked", 1.0, 200.0)
    bench_a = make_artifact("demo", table, env={"python": "3"})
    bench_b = make_artifact("demo", slower, env={"python": "3"})

    sketch = QuantileSketch()
    for value in (0.0, 0.1, 2.0):
        sketch.observe(value)

    tracer = Tracer()
    tracer.span("prefill", proc="hw", thread="npu", start_s=0.0, end_s=1.0)
    tracer.span("decode", proc="hw", thread="npu", start_s=1.0, end_s=1.5)
    tracer.span("float", proc="hw", thread="cpu", start_s=0.2, end_s=0.7)
    tracer.instant("arrive", proc="service", thread="scheduler", ts_s=0.0)
    chrome = to_chrome_trace(tracer, steps=[_step(0.0, {"a": 1})])

    docs = {
        "repro.profile/v1": profile.to_dict(),
        "repro.bench/v1": bench_a.to_dict(),
        "repro.alerts/v1": _alerts_doc(),
        "repro.fleet/v1": fleet_report(specs=default_fleet(1, seed=7),
                                       seed=7),
        "repro.sketch/v1": sketch.to_dict(),
        "repro.steps/v1": golden_steplog(seed=42, batched=True).to_dict(),
        "repro.critpath/v1": base,
        "repro.diff/v1": diff_critpath_docs(base, new),
        "diff-self": diff_critpath_docs(base, base),
        "repro.benchdiff/v1": benchdiff_doc(
            compare_artifacts(bench_a, bench_b)),
        "repro.metrics/v1": _metrics().to_dict(),
        "chrome": chrome,
        "jsonl": jsonl_records(tracer, _metrics()),
    }
    return json.loads(json.dumps(docs))


def _doc(kind):
    return copy.deepcopy(_valid_docs()[kind])


def _library(kind, doc):
    """Validate with the library; returns the error message or None."""
    try:
        if kind == "chrome":
            validate_timeline(doc)
        elif kind == "jsonl":
            validate_jsonl(_jsonl_lines(doc))
        else:
            validate_doc(doc)
    except ReproError as exc:
        return str(exc)
    return None


def _jsonl_lines(records):
    return [r if isinstance(r, str) else json.dumps(r) for r in records]


def _write(tmp_path, kind, doc):
    path = str(tmp_path / f"{kind.replace('/', '_')}.json")
    with open(path, "w") as f:
        if kind == "jsonl":
            f.write("\n".join(_jsonl_lines(doc)) + "\n")
        else:
            json.dump(doc, f)
    return path


# -- corruptions: (kind, expected message fragment, mutation) -----------------

def _set(*path_and_value):
    """Mutation setting ``doc[k1][k2]... = value``."""
    *path, value = path_and_value

    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


def _delete(*path):
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
    return mutate


def _add(*path_and_delta):
    *path, delta = path_and_delta

    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] += delta
    return mutate


def _do(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


def _phase(ph, mutate):
    """Apply ``mutate`` to the first Chrome event of phase ``ph``."""
    def apply(doc):
        mutate(next(e for e in doc if e["ph"] == ph))
    return apply


def _jsonl_first(kind, mutate):
    def apply(records):
        mutate(next(r for r in records if r["type"] == kind))
    return apply


def _metric(kind, mutate):
    def apply(records):
        mutate(next(r for r in records
                     if r["type"] == "metric" and r["kind"] == kind
                     and (kind != "histogram" or r["count"])))
    return apply


def _empty_histogram(mutate):
    def apply(records):
        mutate(next(r for r in records if r.get("kind") == "histogram"
                    and r["count"] == 0))
    return apply


def _overlap_span(doc):
    spans = [e for e in doc if e["ph"] == "X" and e["name"] == "decode"]
    spans[0]["ts"] -= 0.5e6


def _fleet_percentile(mutate):
    def apply(doc):
        mutate(doc["percentiles"][sorted(doc["percentiles"])[0]])
    return apply


def _fleet_sketch(mutate):
    def apply(doc):
        mutate(doc["sketches"][sorted(doc["sketches"])[0]])
    return apply


def _second_incident(**fields):
    def apply(doc):
        doc["incidents"].append(dict(doc["incidents"][0], **fields))
    return apply


def _seg(p, s, key, value):
    return _set("paths", p, "segments", s, key, value)


def _segments_drift(doc):
    """Every segment of path 0 starts 0.9 ns late: each chain link is
    within tolerance and the waits + durations still sum to e2e, but
    the last finish drifts past it."""
    path = doc["paths"][0]
    for k, seg in enumerate(path["segments"]):
        seg["start_s"] += 0.9e-9 * (k + 1)
        seg["end_s"] += 0.9e-9 * (k + 1)


def _diff_seg(key, value):
    return _set("requests", 0, "segments", 0, key, value)


def _wrong_residual_field(doc):
    """``residual_s`` holding the observed e2e delta, not the residual."""
    req = doc["requests"][0]
    req["residual_s"] = req["delta_s"]


def _e2e_moves_identically(doc):
    """A self-diff where request 0's e2e and first segment both grew by
    1 s: everything telescopes, but the diff still says identical."""
    req = doc["requests"][0]
    req["new_e2e_s"] += 1.0
    req["delta_s"] += 1.0
    req["attributed_s"] += 1.0
    seg = req["segments"][0]
    seg["new_s"] += 1.0
    seg["delta_s"] += 1.0
    doc["e2e"]["delta_s"] += 1.0
    doc["e2e"]["new_s"] += 1.0


CASES = [
    # registry
    ("repro.profile/v1", "unknown schema 'repro.nope/v1'",
     _set("schema", "repro.nope/v1")),
    # Chrome trace
    ("chrome", "unknown phase 'Q'", _phase("X", _set("ph", "Q"))),
    ("chrome", "'X' event missing 'dur'", _phase("X", _delete("dur"))),
    ("chrome", "negative ts/dur", _phase("X", _set("dur", -1.0))),
    ("chrome", "unknown metadata 'color'", _phase("M", _set("name", "color"))),
    ("chrome", "metadata without args.name",
     _phase("M", _set("args", {}))),
    ("chrome", "'i' event missing 'ts'", _phase("i", _delete("ts"))),
    ("chrome", "'C' event missing 'args'", _phase("C", _delete("args"))),
    ("chrome", "non-empty numeric args series",
     _phase("C", _set("args", {"a": "lots"}))),
    ("chrome", "malformed event", lambda doc: doc.append(["X"])),
    ("chrome", "no complete events",
     lambda doc: doc.__setitem__(slice(None),
                                 [e for e in doc if e["ph"] != "X"])),
    ("chrome", "has events but no process_name",
     lambda doc: doc.__setitem__(slice(None),
                                 [e for e in doc
                                  if e.get("name") != "process_name"])),
    ("chrome", "overlap", _overlap_span),
    # JSONL event log
    ("jsonl", "line 1: invalid JSON", lambda recs: recs.insert(0, "{nope")),
    ("jsonl", "unknown record type 'blob'",
     _jsonl_first("span", _set("type", "blob"))),
    ("jsonl", "span: missing 'thread'",
     _jsonl_first("span", _delete("thread"))),
    ("jsonl", "span timestamps must be numbers",
     _jsonl_first("span", _set("end_s", "late"))),
    ("jsonl", "span ends before it starts",
     _jsonl_first("span", _set("end_s", -0.5))),
    ("jsonl", "negative span timestamp",
     _jsonl_first("span", _set("start_s", -1.0))),
    ("jsonl", "instant: missing 'ts_s'",
     _jsonl_first("instant", _delete("ts_s"))),
    ("jsonl", "instant timestamps must be numbers",
     _jsonl_first("instant", _set("ts_s", None))),
    ("jsonl", "negative instant timestamp",
     _jsonl_first("instant", _set("ts_s", -1.0))),
    ("jsonl", "no span records",
     lambda recs: recs.__setitem__(slice(None),
                                   [r for r in recs if r["type"] != "span"])),
    ("jsonl", "no metric records",
     lambda recs: recs.__setitem__(slice(None), [r for r in recs
                                                 if r["type"] != "metric"])),
    ("jsonl", "missing 'labels'", _metric("counter", _delete("labels"))),
    ("jsonl", "metric kind 'meter' not in", _metric("gauge",
                                                    _set("kind", "meter"))),
    ("jsonl", "metric labels must be an object",
     _metric("counter", _set("labels", []))),
    ("jsonl", "gauge missing numeric 'value'",
     _metric("gauge", _set("value", None))),
    ("jsonl", "count must be a non-negative integer",
     _metric("histogram", _set("count", -1))),
    ("jsonl", "histogram missing numeric 'mean'",
     _metric("histogram", _set("mean", "x"))),
    ("jsonl", "empty with non-null 'p50'",
     _empty_histogram(_set("p50", 1.0))),
    ("jsonl", "non-finite 'p95'",
     _metric("histogram", _set("p95", None))),
    # repro.metrics/v1
    ("repro.metrics/v1", "expected schema 'repro.metrics/v1'", None),
    ("repro.metrics/v1", "metrics snapshot: missing 'metrics'",
     _delete("metrics")),
    ("repro.metrics/v1", "'metrics' must be a list", _set("metrics", {})),
    ("repro.metrics/v1", "metrics[2]: gauge missing numeric 'value'",
     _set("metrics", 2, "value", None)),
    # repro.profile/v1
    ("repro.profile/v1", "expected schema 'repro.profile/v1'", None),
    ("repro.profile/v1", "profile: missing 'flamegraph'",
     _delete("flamegraph")),
    ("repro.profile/v1", "window_s must be a non-negative number",
     _set("window_s", -1.0)),
    ("repro.profile/v1", "n_traces must be a non-negative integer",
     _set("n_traces", 1.5)),
    ("repro.profile/v1", "processors[0]: missing 'span_s'",
     _delete("processors", 0, "span_s")),
    ("repro.profile/v1", "'matmul_ops' must be a non-negative number",
     _set("processors", 0, "matmul_ops", -1.0)),
    ("repro.profile/v1", "idle causes",
     _delete("processors", 0, "idle_by_cause", "sync_wait")),
    ("repro.profile/v1", "processors[0]: idle_by_cause must be an object",
     _set("processors", 0, "idle_by_cause", ["sync_wait"])),
    ("repro.profile/v1", "idle seconds must be non-negative numbers",
     _do(_set("processors", 0, "idle_by_cause", "graph_build", -1.0),
         _add("processors", 0, "idle_by_cause", "starvation", 1.0))),
    ("repro.profile/v1", "idle_by_cause != idle_s",
     _add("processors", 0, "idle_by_cause", "starvation", 1.0)),
    ("repro.profile/v1", "busy + idle != window",
     _add("processors", 0, "busy_s", 1.0)),
    ("repro.profile/v1", "duplicate processor",
     lambda doc: doc["processors"].append(doc["processors"][0])),
    ("repro.profile/v1", "operators[0]: missing 'ops'",
     _delete("operators", 0, "ops")),
    ("repro.profile/v1", "unknown processor 'tpu'",
     _set("operators", 0, "proc", "tpu")),
    ("repro.profile/v1", "operators[0]: busy_s must be non-negative",
     _set("operators", 0, "busy_s", -1.0)),
    ("repro.profile/v1", "per-operator busy sums to",
     _add("operators", 0, "busy_s", 1.0)),
    ("repro.profile/v1", "energy: missing 'platform_j'",
     _delete("energy", "platform_j")),
    ("repro.profile/v1", "energy['npu']: missing 'idle_j'",
     _delete("energy", "per_processor", "npu", "idle_j")),
    ("repro.profile/v1", "energy['npu']: tags + idle != total",
     _add("energy", "per_processor", "npu", "idle_j", 1.0)),
    ("repro.profile/v1", "energy components do not sum to total_j",
     _add("energy", "total_j", 1.0)),
    ("repro.profile/v1", "flamegraph[0] not 'stack <integer-ns>'",
     _set("flamegraph", 0, "npu;c0 1.5")),
    ("repro.profile/v1", "metrics must be a snapshot list",
     _set("metrics", {})),
    ("repro.profile/v1", "metrics[0]: metric kind 'meter'",
     _set("metrics", 0, "kind", "meter")),
    # repro.bench/v1
    ("repro.bench/v1", "expected schema 'repro.bench/v1'", None),
    ("repro.bench/v1", "artifact: missing 'env'", _delete("env")),
    ("repro.bench/v1", "metrics must be a non-empty object",
     _set("metrics", {})),
    ("repro.bench/v1", "metric 'm': must be an object",
     lambda doc: doc["metrics"].__setitem__("m", 1.0)),
    ("repro.bench/v1", "'value' must be a finite number",
     lambda doc: doc["metrics"].__setitem__(
         "m", {"value": math.inf, "direction": "lower"})),
    ("repro.bench/v1", "direction 'sideways' not in",
     lambda doc: doc["metrics"].__setitem__(
         "m", {"value": 1.0, "direction": "sideways"})),
    ("repro.bench/v1", "env must map names to strings", _set("env", [])),
    ("repro.bench/v1", "env must map names to strings",
     _set("env", "python", 3)),
    # repro.benchdiff/v1
    ("repro.benchdiff/v1", "expected schema 'repro.benchdiff/v1'", None),
    ("repro.benchdiff/v1", "benchdiff: missing 'ok'", _delete("ok")),
    ("repro.benchdiff/v1", "n_metrics != len(deltas)",
     _add("n_metrics", 1)),
    ("repro.benchdiff/v1", "deltas[0]: missing 'verdict'",
     _delete("deltas", 0, "verdict")),
    ("repro.benchdiff/v1", "direction 'up' not in",
     _set("deltas", 0, "direction", "up")),
    ("repro.benchdiff/v1", "verdict 'meh' not in",
     _set("deltas", 0, "verdict", "meh")),
    ("repro.benchdiff/v1", "'rel_delta' must be null or finite",
     _set("deltas", 0, "rel_delta", math.nan)),
    ("repro.benchdiff/v1", "gating verdict count",
     _add("n_regressed", 1)),
    ("repro.benchdiff/v1", "ok flag disagrees",
     lambda doc: doc.__setitem__("ok", not doc["ok"])),
    # repro.alerts/v1
    ("repro.alerts/v1", "expected schema 'repro.alerts/v1'", None),
    ("repro.alerts/v1", "alerts timeline: missing 'n_fault_events'",
     _delete("n_fault_events")),
    ("repro.alerts/v1", "slos[0]: missing 'met'", _delete("slos", 0, "met")),
    ("repro.alerts/v1", "slos[0]: target must be in (0, 1)",
     _set("slos", 0, "target", 1.0)),
    ("repro.alerts/v1", "rules[0]: missing 'for_s'",
     _delete("rules", 0, "for_s")),
    ("repro.alerts/v1", "short window exceeds long window",
     _set("rules", 0, "short_window_s", 20.0)),
    ("repro.alerts/v1", "incidents[0]: missing 'peak_burn_rate'",
     _delete("incidents", 0, "peak_burn_rate")),
    ("repro.alerts/v1", "unknown SLO 'ghost'",
     _set("incidents", 0, "slo", "ghost")),
    ("repro.alerts/v1", "unknown rule 'slowpoke'",
     _set("incidents", 0, "rule", "slowpoke")),
    ("repro.alerts/v1", "unknown state 'screaming'",
     _set("incidents", 0, "state", "screaming")),
    ("repro.alerts/v1", "pending_s must be finite",
     _set("incidents", 0, "pending_s", math.inf)),
    ("repro.alerts/v1", "firing_s < pending_s",
     _set("incidents", 0, "firing_s", 0.5)),
    ("repro.alerts/v1", "firing incident with no cross-links",
     _set("incidents", 0, "links", [])),
    ("repro.alerts/v1", "resolved_s precedes firing_s",
     _set("incidents", 0, "resolved_s", 1.5)),
    ("repro.alerts/v1", "unknown link kind 'rumor'",
     _set("incidents", 0, "links", 0, "kind", "rumor")),
    ("repro.alerts/v1", "links[1]: missing 'draw'",
     _delete("incidents", 0, "links", 1, "draw")),
    ("repro.alerts/v1", "unresolved incident",
     _do(_set("incidents", 0, "resolved_s", None),
         _second_incident(pending_s=5.0, firing_s=None, resolved_s=6.0))),
    ("repro.alerts/v1", "incidents overlap",
     _second_incident(pending_s=2.5, firing_s=2.6, resolved_s=3.5)),
    # repro.fleet/v1
    ("repro.fleet/v1", "expected schema 'repro.fleet/v1'", None),
    ("repro.fleet/v1", "fleet report: missing 'sketches'",
     _delete("sketches")),
    ("repro.fleet/v1", "n_devices != len(devices)", _add("n_devices", 1)),
    ("repro.fleet/v1", "devices[0]: missing 'goodput_rps'",
     _delete("devices", 0, "goodput_rps")),
    ("repro.fleet/v1", "devices[0]: non-finite 'mean_itl_s'",
     _set("devices", 0, "mean_itl_s", math.nan)),
    ("repro.fleet/v1", "goodput_rps must be finite and non-negative",
     _set("devices", 0, "goodput_rps", -1.0)),
    ("repro.fleet/v1", "percentile keys do not match the sketches",
     lambda doc: doc["percentiles"].pop(sorted(doc["percentiles"])[0])),
    ("repro.fleet/v1", "count must be a non-negative integer",
     _fleet_percentile(_set("count", -1))),
    ("repro.fleet/v1", "empty with non-null 'p50'",
     _fleet_percentile(_set("count", 0))),
    ("repro.fleet/v1", "non-finite 'p99'",
     _fleet_percentile(_set("p99", None))),
    ("repro.fleet/v1", "count != zero_count + bucket counts",
     _fleet_sketch(_add("count", 1))),
    ("repro.fleet/v1", "unknown state 'boom'",
     _set("alerts", "incidents", 0, "state", "boom")),
    # repro.sketch/v1
    ("repro.sketch/v1", "expected schema 'repro.sketch/v1'", None),
    ("repro.sketch/v1", "sketch: missing 'zero_count'",
     _delete("zero_count")),
    ("repro.sketch/v1", "alpha must be in (0, 1)", _set("alpha", 1.5)),
    ("repro.sketch/v1", "min_value must be a positive finite number",
     _set("min_value", 0.0)),
    ("repro.sketch/v1", "counts must be non-negative integers",
     _set("zero_count", -1)),
    ("repro.sketch/v1", "bucket keys must be integers",
     lambda doc: doc["buckets"].__setitem__("x", 0)),
    ("repro.sketch/v1", "count != zero_count + bucket counts",
     _add("count", 1)),
    ("repro.sketch/v1", "sum must be a [numerator, denominator] pair",
     _set("sum", [1, 0])),
    ("repro.sketch/v1", "sketch: empty with non-null 'min'",
     _do(_set("count", 0), _set("zero_count", 0), _set("buckets", {}))),
    ("repro.sketch/v1", "min/max must be ordered and non-negative",
     _set("min", 5.0)),
    # repro.steps/v1
    ("repro.steps/v1", "expected schema 'repro.steps/v1'", None),
    ("repro.steps/v1", "step log missing list 'decisions'",
     _delete("decisions")),
    ("repro.steps/v1", "n_requests != len(requests)", _add("n_requests", 1)),
    ("repro.steps/v1", "step log: missing 'source'", _delete("source")),
    ("repro.steps/v1", "steps[0]: missing 'queue_depths'",
     _delete("steps", 0, "queue_depths")),
    ("repro.steps/v1", "steps[0]: step window must be finite",
     _set("steps", 0, "end_s", math.inf)),
    ("repro.steps/v1", "steps[0]: end before start",
     _add("steps", 0, "end_s", -100.0)),
    ("repro.steps/v1", "steps[0]: items span",
     _add("steps", 0, "items", 0, "end_s", 0.5)),
    ("repro.steps/v1", "decisions[0]: missing 'tier'",
     _delete("decisions", 0, "tier")),
    ("repro.steps/v1", "unknown decision action 'yolo'",
     _set("decisions", 0, "action", "yolo")),
    ("repro.steps/v1", "decisions[0]: t_s must be a finite number",
     _set("decisions", 0, "t_s", math.nan)),
    ("repro.steps/v1", "requests[0]: missing 'finish_s'",
     _delete("requests", 0, "finish_s")),
    ("repro.steps/v1", "breakdown missing numeric 'decode_s'",
     _delete("requests", 0, "breakdown", "decode_s")),
    ("repro.steps/v1", "steps[0]: items[0]: missing 'end_s'",
     _delete("steps", 0, "items", 0, "end_s")),
    ("repro.steps/v1", "requests[0]: breakdown: must be an object",
     _set("requests", 0, "breakdown", [])),
    ("repro.steps/v1", "malformed repro.steps/v1 document",
     _set("steps", 0, "items", 0, "end_s", "late")),
    # repro.critpath/v1: the document
    ("repro.critpath/v1", "expected schema 'repro.critpath/v1'", None),
    ("repro.critpath/v1", "critpath doc: missing 'totals'",
     _delete("totals")),
    ("repro.critpath/v1", "'paths' must be a non-empty list",
     _set("paths", [])),
    ("repro.critpath/v1", "n_paths != len(paths)", _add("n_paths", 1)),
    ("repro.critpath/v1", "totals: missing 'by_tag'",
     _delete("totals", "by_tag")),
    ("repro.critpath/v1", "totals.work_s != sum over paths",
     _add("totals", "work_s", 1e-6)),
    ("repro.critpath/v1", "totals.wait_s != sum over paths",
     _add("totals", "wait_s", 1e-6)),
    ("repro.critpath/v1", "totals.by_proc keys do not match the paths",
     _set("totals", "by_proc", "tpu", 0.0)),
    ("repro.critpath/v1", "totals.by_tag['decode'] drifts",
     _add("totals", "by_tag", "decode", 1e-6)),
    # repro.critpath/v1: each path
    ("repro.critpath/v1", "critical path: missing 'slack'",
     _delete("paths", 0, "slack")),
    ("repro.critpath/v1", "path has no segments",
     _do(_set("paths", 0, "segments", []), _set("paths", 0, "n_segments",
                                                0))),
    ("repro.critpath/v1", "n_segments != len(segments)",
     _add("paths", 0, "n_segments", 1)),
    ("repro.critpath/v1", "origin_s/e2e_s must be finite",
     _set("paths", 0, "e2e_s", math.inf)),
    ("repro.critpath/v1", "segments[1]: missing 'edge'",
     _delete("paths", 0, "segments", 1, "edge")),
    ("repro.critpath/v1", "negative duration",
     _do(_seg(0, 1, "end_s", -1.0), _seg(0, 1, "duration_s", 0.0))),
    ("repro.critpath/v1", "duration_s 1.0 != end - start",
     _seg(0, 1, "duration_s", 1.0)),
    ("repro.critpath/v1", "negative wait", _seg(0, 1, "wait_s", -1.0)),
    ("repro.critpath/v1", "!= previous end",
     _do(_add("paths", 0, "segments", 1, "start_s", 1e-6),
         _add("paths", 0, "segments", 1, "end_s", 1e-6))),
    ("repro.critpath/v1", "unknown edge 'telepathy'",
     _seg(0, 1, "edge", "telepathy")),
    ("repro.critpath/v1", "(c0.l0.sg1): non-numeric",
     _seg(0, 1, "wait_s", None)),
    ("repro.critpath/v1", "end-to-end is",
     _add("paths", 0, "e2e_s", 1e-6)),
    ("repro.critpath/v1", "last finish", _segments_drift),
    ("repro.critpath/v1", "work_s does not sum to on-path work",
     _add("paths", 0, "work_s", 1e-6)),
    ("repro.critpath/v1", "by_proc does not sum to on-path work",
     _add("paths", 0, "by_proc", "npu", 1e-6)),
    ("repro.critpath/v1", "by_tag does not sum to on-path work",
     _add("paths", 0, "by_tag", "decode", 1e-6)),
    ("repro.critpath/v1", "work_s does not sum to on-path work",
     _set("paths", 0, "work_s", None)),
    ("repro.critpath/v1", "by_proc must be an object",
     _set("paths", 0, "by_proc", [])),
    ("repro.critpath/v1", "malformed repro.critpath/v1 document",
     _set("paths", 0, "wait_s", "long")),
    ("repro.critpath/v1", "slack[0]: missing 'slack_s'",
     _delete("paths", 0, "slack", 0, "slack_s")),
    ("repro.critpath/v1", "negative slack",
     _set("paths", 0, "slack", 0, "slack_s", -1.0)),
    ("repro.critpath/v1", "non-number inf",
     _set("paths", 0, "slack", 0, "slack_s", math.inf)),
    ("repro.critpath/v1", "non-number 'lots'",
     _set("paths", 0, "slack", 0, "slack_s", "lots")),
    # repro.diff/v1
    ("repro.diff/v1", "expected schema 'repro.diff/v1'", None),
    ("repro.diff/v1", "diff doc: missing 'tol_s'", _delete("tol_s")),
    ("repro.diff/v1", "unknown diff kind 'vibes'", _set("kind", "vibes")),
    ("repro.diff/v1", "tol_s must be a positive number", _set("tol_s", 0.0)),
    ("repro.diff/v1", "missing boolean 'identical'",
     _set("identical", "no")),
    ("repro.diff/v1", "critpath diff: missing 'by_status'",
     _delete("by_status")),
    ("repro.diff/v1", "by_status keys", _delete("by_status", "grew")),
    ("repro.diff/v1", "n_requests != len(requests)", _add("n_requests", 1)),
    ("repro.diff/v1", "requests[0]: missing 'new_e2e_s'",
     _delete("requests", 0, "new_e2e_s")),
    ("repro.diff/v1", "segments[0]: missing 'status'",
     _delete("requests", 0, "segments", 0, "status")),
    ("repro.diff/v1", "unknown segment status 'wobbled'",
     _diff_seg("status", "wobbled")),
    ("repro.diff/v1", "appeared segment",
     _do(_diff_seg("status", "appeared"), _diff_seg("base_s", 1e-3))),
    ("repro.diff/v1", "vanished segment",
     _do(_diff_seg("status", "vanished"), _diff_seg("new_s", 1e-3))),
    ("repro.diff/v1", "delta_s != new_s - base_s",
     _add("requests", 0, "segments", 0, "delta_s", 1e-6)),
    ("repro.diff/v1", "!= new_e2e_s - base_e2e_s",
     _add("requests", 0, "delta_s", 1e-6)),
    ("repro.diff/v1", "do not telescope to the observed e2e delta",
     _do(_add("requests", 0, "new_e2e_s", 1e-6),
         _add("requests", 0, "delta_s", 1e-6))),
    ("repro.diff/v1", "requests[0]: missing 'attributed_s'",
     _delete("requests", 0, "attributed_s")),
    ("repro.diff/v1", "requests[0]: missing 'residual_s'",
     _delete("requests", 0, "residual_s")),
    ("repro.diff/v1", "attributed_s != sum of segment deltas",
     _add("requests", 0, "attributed_s", 1e-6)),
    ("repro.diff/v1", "residual_s != attributed - observed e2e delta",
     _add("requests", 0, "residual_s", 1e-6)),
    ("repro.diff/v1", "residual_s != attributed - observed e2e delta",
     _wrong_residual_field),
    ("repro.diff/v1", "totals: e2e delta",
     _add("e2e", "delta_s", 1e-3)),
    ("repro.diff/v1", "malformed repro.diff/v1 document: missing key "
     "'delta_s'", _delete("e2e", "delta_s")),
    ("repro.diff/v1", "diff marked identical",
     _set("identical", True)),
    ("diff-self", "diff marked identical",
     _set("only_new", ["request 9"])),
    ("diff-self", "diff marked identical",
     _diff_seg("status", "grew")),
    ("diff-self", "diff marked identical", _e2e_moves_identically),
]


def _case_id(case):
    kind, expect, _mutate = case
    return f"{kind}:{expect}"


@pytest.fixture(scope="module")
def script():
    return _load_script()


class TestRegistry:
    def test_covers_every_schema(self):
        assert set(VALIDATORS) == set(SCHEMA_TABLE)

    def test_rejects_unstamped_documents(self):
        for doc in ({}, [], {"kind": "critpath"}):
            with pytest.raises(SchemaError, match="no 'schema' key"):
                validate_doc(doc)

    def test_rejects_a_non_string_stamp(self):
        with pytest.raises(SchemaError, match="unknown schema"):
            validate_doc({"schema": ["repro.steps/v1"]})

    @pytest.mark.parametrize("kind", sorted(SCHEMA_TABLE) + ["diff-self",
                                                            "chrome",
                                                            "jsonl"])
    def test_valid_document_passes(self, kind, tmp_path, script, capsys):
        doc = _doc(kind)
        assert _library(kind, doc) is None
        assert script.main([_write(tmp_path, kind, doc)]) == 0
        assert "OK: " in capsys.readouterr().out


class TestEveryCheck:
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_library_and_script_reject_with_one_message(self, case,
                                                        tmp_path, script,
                                                        capsys):
        kind, expect, mutate = case
        doc = _doc(kind)
        if mutate is None:  # the wrong-schema case of each validator
            validator = VALIDATORS[kind]
            doc["schema"] = "repro.other/v1"
            with pytest.raises(ReproError) as info:
                validator(doc)
            assert expect in str(info.value)
            return
        mutate(doc)
        doc = json.loads(json.dumps(doc)) if kind != "jsonl" else doc
        message = _library(kind, doc)
        assert message is not None, "corrupted document was accepted"
        assert expect in message
        path = _write(tmp_path, kind, doc)
        assert script.main([path]) == 1
        assert capsys.readouterr().err == f"FAIL: {path}: {message}\n"


class TestScriptProcess:
    def test_runs_without_pythonpath(self, tmp_path):
        paths = [_write(tmp_path, kind, _doc(kind))
                 for kind in sorted(SCHEMA_TABLE) + ["chrome", "jsonl"]]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        result = subprocess.run([sys.executable, SCRIPT, *paths],
                                capture_output=True, text=True, env=env,
                                cwd=str(tmp_path))
        assert result.returncode == 0, result.stderr
        assert result.stdout.count("OK: ") == len(paths)

    def test_failure_exits_one(self, tmp_path):
        doc = _doc("repro.profile/v1")
        doc["processors"][0]["busy_s"] += 1.0
        path = _write(tmp_path, "broken", doc)
        result = subprocess.run([sys.executable, SCRIPT, path],
                                capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr.startswith(f"FAIL: {path}: ")

    def test_no_arguments_is_usage(self):
        result = subprocess.run([sys.executable, SCRIPT],
                                capture_output=True, text=True)
        assert result.returncode == 2


class TestDocIO:
    """``save_doc`` / ``load_doc`` / ``dump_doc``: the one artifact
    writer, reader and canonical text."""

    def test_invalid_document_leaves_no_file(self, tmp_path):
        doc = _doc("repro.critpath/v1")
        doc["n_paths"] += 1
        path = tmp_path / "out" / "critpath.json.gz"
        with pytest.raises(ReproError):
            save_doc(str(path), doc)
        assert not path.exists()

    def test_plain_file_is_the_canonical_text(self, tmp_path):
        doc = _doc("repro.bench/v1")
        path = save_doc(str(tmp_path / "BENCH_demo.json"), doc)
        with open(path) as f:
            assert f.read() == dump_doc(doc) + "\n"
        assert dump_doc(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_dump_rejects_nan(self):
        with pytest.raises(ValueError):
            dump_doc({"schema": "repro.sketch/v1", "x": math.nan})

    def test_load_names_the_path_and_the_expected_schema(self, tmp_path):
        path = save_doc(str(tmp_path / "bench.json"), _doc("repro.bench/v1"))
        with pytest.raises(SchemaError) as info:
            load_doc(path, "repro.steps/v1")
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        assert "expected schema 'repro.steps/v1'" in message

    @pytest.mark.parametrize("payload", [b"", b"{not json", b"\x1f\x8b\x08"])
    def test_unreadable_files_are_one_line_errors(self, payload, tmp_path):
        path = tmp_path / "broken.json.gz"
        path.write_bytes(payload)
        with pytest.raises(SchemaError, match="cannot read") as info:
            load_doc(str(path))
        assert "\n" not in str(info.value)
