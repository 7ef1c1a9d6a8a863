"""Trace exporters: Chrome/Perfetto timeline and JSONL event log.

The Chrome export maps tracer tracks onto the trace format's
process/thread axes with a **stable** pid/tid assignment: processes are
the sorted unique ``proc`` names (pid 1, 2, ...), threads the sorted
unique ``thread`` names within each process.  Two runs of the same
seeded workload therefore produce byte-identical trace files — the
property ``scripts/check_determinism.sh`` enforces.

:func:`service_timeline` builds the paper's cross-layer view: the
service tracer's request spans (queued → retries → prefill → decode)
merged with the per-request :class:`~repro.hw.trace.Trace` task events
(each completed request's simulated prefill schedule and per-token
decode, shifted from its engine-relative origin onto the service
clock).  Open the saved file in https://ui.perfetto.dev or
``chrome://tracing``.

The JSONL log is the machine-readable twin: one JSON object per tracer
record (emission order) followed by one per metrics instrument;
:func:`validate_jsonl` validates it, as :func:`validate_timeline` does
the Chrome export.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.obs.metrics import MetricsRegistry, validate_metric_record
from repro.obs.schemas import finite, require_keys
from repro.obs.tracer import Instant, Span, Tracer

#: Serial-execution tolerance, matching ``Trace.validate_serial``.
_OVERLAP_TOL_S = 1e-12


def open_text(path: str, mode: str = "r"):
    """Open a text file, gzipped exactly when ``path`` ends in ``.gz``.

    1000-device fleet traces run to hundreds of megabytes uncompressed;
    every artifact, JSONL, Chrome-trace and flamegraph reader and writer
    routes through here so ``foo.jsonl.gz`` Just Works.  Writes create
    missing directories and pin the gzip header (``mtime=0``, no
    embedded filename), so equal text always compresses to equal bytes
    regardless of path or wall clock — compressed goldens stay
    byte-diffable.
    """
    if "w" in mode:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if path.endswith(".gz"):
        if "w" in mode:
            return io.TextIOWrapper(_DeterministicGzipWriter(path),
                                    encoding="utf-8")
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


class _DeterministicGzipWriter(gzip.GzipFile):
    """A gzip writer whose bytes depend only on the written text.

    ``GzipFile(path, ...)`` embeds the basename in the header's FNAME
    field, so renaming a golden changes its bytes; opening the raw
    stream ourselves with ``filename=""`` (and ``mtime=0``) strips both
    varying header fields.  Owns the raw stream: closing the writer
    closes it too (plain ``GzipFile`` leaves external fileobjs open).
    """

    def __init__(self, path: str):
        raw = open(path, "wb")
        try:
            super().__init__(filename="", mode="wb", fileobj=raw,
                             mtime=0)
        except Exception:
            raw.close()
            raise
        self._raw = raw

    def close(self):
        try:
            super().close()
        finally:
            self._raw.close()


def to_chrome_trace(tracer: Tracer,
                    steps: Optional[list] = None) -> List[dict]:
    """Tracer records as Chrome-trace events with stable pid/tid mapping.

    ``steps`` (a run's :class:`~repro.core.scheduler.StepRecord` list or
    their serialized dicts) additionally merges the scheduler's counter
    tracks — queue depth, batch occupancy, KV headroom — onto the
    ``service`` process (see :func:`step_counter_events`).
    """
    procs = sorted({e.proc for e in tracer.events})
    pids = {proc: i + 1 for i, proc in enumerate(procs)}
    tids: Dict[Tuple[str, str], int] = {}
    out: List[dict] = []
    for proc in procs:
        pid = pids[proc]
        out.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": proc},
        })
        threads = sorted({e.thread for e in tracer.events
                          if e.proc == proc})
        for j, thread in enumerate(threads):
            tids[(proc, thread)] = j + 1
            out.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": j + 1, "args": {"name": thread},
            })
    body: List[dict] = []
    for e in tracer.events:
        pid, tid = pids[e.proc], tids[(e.proc, e.thread)]
        if isinstance(e, Span):
            body.append({
                "name": e.name, "cat": e.cat or "task", "ph": "X",
                "pid": pid, "tid": tid, "ts": e.start_s * 1e6,
                "dur": e.duration_s * 1e6, "args": dict(e.args),
            })
        else:
            body.append({
                "name": e.name, "cat": e.cat or "task", "ph": "i",
                "s": "t", "pid": pid, "tid": tid, "ts": e.ts_s * 1e6,
                "args": dict(e.args),
            })
    if steps:
        counter_pid = pids.get("service", len(procs) + 1)
        if "service" not in pids:
            out.append({
                "name": "process_name", "ph": "M", "pid": counter_pid,
                "tid": 0, "args": {"name": "service"},
            })
        body.extend(step_counter_events(steps, pid=counter_pid))
    body.sort(key=lambda ev: (ev["ts"], ev["pid"], ev["tid"],
                              ev["ph"], ev["name"]))
    return out + body


def step_counter_events(steps, pid: int = 1) -> List[dict]:
    """Perfetto counter-track ('C') events from a run's step records.

    Three tracks, sampled at each step's start on process ``pid``:

    * ``queue depth`` — waiting requests per tier (stacked series);
    * ``batch occupancy`` — the step's prefill vs. decode token split;
    * ``kv headroom`` — budget minus reserved bytes (only when the run
      had a ``kv_budget_bytes``; without a budget the reservation is
      emitted as ``kv reserved`` instead).

    Accepts :class:`~repro.core.scheduler.StepRecord` objects or their
    ``repro.steps/v1`` dicts.  Counter events carry no duration, so
    :func:`validate_timeline`'s overlap check ignores them.
    """
    def get(step, key):
        return step[key] if isinstance(step, dict) else getattr(step, key)

    events: List[dict] = []
    for step in steps:
        ts = get(step, "start_s") * 1e6
        depths = get(step, "queue_depths")
        if not isinstance(depths, dict):
            depths = dict(depths)
        events.append({
            "name": "queue depth", "cat": "scheduler", "ph": "C",
            "pid": pid, "tid": 0, "ts": ts,
            "args": {tier: depths.get(tier, 0)
                     for tier in sorted(depths)} or {"total": 0},
        })
        events.append({
            "name": "batch occupancy", "cat": "scheduler", "ph": "C",
            "pid": pid, "tid": 0, "ts": ts,
            "args": {"prefill_tokens": get(step, "prefill_tokens"),
                     "decode_tokens": get(step, "decode_tokens")},
        })
        kv_budget = get(step, "kv_budget_bytes")
        reserved = get(step, "kv_reserved_bytes")
        if kv_budget is not None:
            events.append({
                "name": "kv headroom", "cat": "scheduler", "ph": "C",
                "pid": pid, "tid": 0, "ts": ts,
                "args": {"bytes": kv_budget - reserved},
            })
        else:
            events.append({
                "name": "kv reserved", "cat": "scheduler", "ph": "C",
                "pid": pid, "tid": 0, "ts": ts,
                "args": {"bytes": reserved},
            })
    return events


def save_chrome_trace(path: str, tracer: Tracer) -> None:
    """Write the Chrome-trace JSON (deterministic byte output)."""
    _write_chrome(path, to_chrome_trace(tracer))


def _write_chrome(path: str, events: List[dict]) -> None:
    """The one Chrome-trace write: compact sorted-key JSON, a newline."""
    with open_text(path, "w") as f:
        json.dump(events, f, sort_keys=True)
        f.write("\n")


#: Required keys per Chrome event phase: complete, instant, counter,
#: metadata.
_EVENT_FIELDS = {
    "X": itemgetter("name", "cat", "pid", "tid", "ts", "dur"),
    "i": itemgetter("name", "pid", "tid", "ts"),
    "C": itemgetter("name", "pid", "tid", "ts", "args"),
    "M": itemgetter("name", "pid", "args"),
}


def validate_timeline(events: List[dict], tol: float = _OVERLAP_TOL_S) -> None:
    """Validate Chrome-trace events; raises :class:`SchedulingError`.

    Events have a known phase and its keys; metadata names a process or
    thread; counters carry a non-empty numeric series; complete ('X')
    events exist, have non-negative ``ts``/``dur`` on a named pid, and
    never overlap per (pid, tid) — ``Trace.validate_serial``, within
    ``tol`` seconds."""
    by_track: Dict[Tuple[int, int], List[dict]] = {}
    named = set()
    i, ph = 0, None
    try:
        for i, e in enumerate(events):
            ph = e.get("ph")
            if ph not in _EVENT_FIELDS:
                raise SchedulingError(f"unknown phase {ph!r}")
            fields = _EVENT_FIELDS[ph](e)
            if ph == "X":
                _name, _cat, pid, tid, ts, dur = fields
                if ts < 0 or dur < 0:
                    raise SchedulingError("negative ts/dur")
                by_track.setdefault((pid, tid), []).append(e)
            elif ph == "M":
                name, pid, args = fields
                if name not in ("process_name", "thread_name"):
                    raise SchedulingError(f"unknown metadata {name!r}")
                if "name" not in args:
                    raise SchedulingError("metadata without args.name")
                if name == "process_name":
                    named.add(pid)
            elif ph == "C":
                series = fields[-1]
                if not (isinstance(series, dict) and series
                        and all(map(finite, series.values()))):
                    raise SchedulingError("counter event needs a "
                                          "non-empty numeric args series")
    except KeyError as exc:
        raise SchedulingError(f"events[{i}]: {ph!r} event missing {exc}"
                              ) from None
    except (AttributeError, TypeError):
        raise SchedulingError(f"events[{i}]: malformed event") from None
    except SchedulingError as exc:
        raise SchedulingError(f"events[{i}]: {exc}") from None
    if not by_track:
        raise SchedulingError("no complete events")
    for (pid, tid), track in sorted(by_track.items()):
        if pid not in named:
            raise SchedulingError(f"pid {pid} has events but no "
                                  f"process_name")
        track.sort(key=lambda ev: (ev["ts"], ev["ts"] + ev["dur"]))
        for a, b in zip(track, track[1:]):
            if b["ts"] < a["ts"] + a["dur"] - tol * 1e6:
                raise SchedulingError(
                    f"pid {pid} tid {tid}: events {a['name']!r} and "
                    f"{b['name']!r} overlap"
                )


def service_timeline(service, critpath: bool = False,
                     deltas: Optional[Dict[str, float]] = None) -> Tracer:
    """One merged timeline: service request spans + hw task events.

    Takes a traced :class:`~repro.core.service.LlmService` and returns a
    new tracer holding (a) every record the service emitted and (b) the
    simulated hardware schedule of every completed request — its prefill
    task events and per-token decode — shifted onto the service clock at
    the instant the successful execution attempt started.  Tracks:

    * ``service / req NNNNN`` — request lifecycle spans;
    * ``service / scheduler``, ``service / faults`` — queue ops, draws;
    * ``hw <model> / npu|cpu|gpu`` — the per-engine processor timelines.

    ``critpath=True`` stamps every hw span with an ``on_path`` arg
    (whether the task sits on its request's critical path), so Perfetto
    can highlight the gating chain — off by default to keep golden
    traces byte-identical.

    ``deltas`` (a ``{task_id: delta_s}`` map, e.g. from
    :func:`~repro.obs.diff.segment_deltas`) additionally stamps matching
    hw spans with a ``delta_ms`` arg, painting a run-to-run regression
    onto the timeline — also off by default.
    """
    merged = Tracer()
    merged.extend(service.tracer.events)
    for record in service.requests:
        report = record.report
        if record.status != "completed" or report is None:
            continue
        on_path = frozenset()
        if critpath:
            from repro.obs.critical_path import request_critical_path
            path = request_critical_path(
                record, decode_backend=service.config.decode_backend)
            on_path = frozenset(seg.task_id for seg in path.segments)
        # The successful attempt spans [finish - e2e, finish]; everything
        # before it on this request is queueing/retry, which has no hw
        # schedule (failed attempts die inside the driver).
        t0 = record.finish_s - report.e2e_latency_s
        timeline = report.timeline(service.config.decode_backend)
        proc = f"hw {record.model}"
        for ev in timeline.events:
            extra = ({"on_path": ev.task_id in on_path} if critpath
                     else {})
            if deltas is not None and ev.task_id in deltas:
                extra["delta_ms"] = deltas[ev.task_id] * 1e3
            merged.span(
                ev.task_id, proc=proc, thread=ev.proc,
                start_s=t0 + ev.start_s, end_s=t0 + ev.end_s,
                cat=ev.tag or "task", request_id=record.request_id,
                **extra,
            )
    return merged


def export_service_trace(service, path: str,
                         validate: bool = True,
                         counters: bool = False,
                         critpath: bool = False,
                         deltas: Optional[Dict[str, float]] = None,
                         ) -> List[dict]:
    """Merge, optionally validate, and save one service run's timeline.

    ``counters`` merges the scheduler counter tracks (queue depth,
    batch occupancy, KV headroom) derived from the run's step records —
    off by default so golden traces stay byte-identical.  ``critpath``
    stamps hw spans with an ``on_path`` arg and ``deltas`` with a
    ``delta_ms`` arg (see :func:`service_timeline`).  A ``.gz`` path
    writes the trace gzipped.
    """
    events = to_chrome_trace(service_timeline(service, critpath=critpath,
                                              deltas=deltas),
                             steps=service.steps if counters else None)
    if validate:
        validate_timeline(events)
    _write_chrome(path, events)
    return events


# -- JSONL event log ----------------------------------------------------------


def jsonl_records(tracer: Optional[Tracer] = None,
                  metrics: Optional[MetricsRegistry] = None) -> List[dict]:
    """The JSONL export as a list of dicts (trace order, then metrics)."""
    records: List[dict] = []
    if tracer is not None:
        records.extend(e.to_record() for e in tracer.events)
    if metrics is not None:
        records.extend(metrics.snapshot())
    return records


def write_jsonl(path: str, tracer: Optional[Tracer] = None,
                metrics: Optional[MetricsRegistry] = None) -> int:
    """Write one JSON object per line; returns the record count."""
    records = jsonl_records(tracer, metrics)
    with open_text(path, "w") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True))
            f.write("\n")
    return len(records)


def read_jsonl(path: str) -> List[dict]:
    """Load a (possibly gzipped) JSONL event log back into dicts."""
    records = []
    with open_text(path) as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


#: Timestamp keys of the tracer records in a JSONL log.
_RECORD_TIMES = {"span": ("start_s", "end_s"), "instant": ("ts_s",)}


def validate_jsonl(lines: Iterable[str]) -> None:
    """Validate a JSONL event log, one text line per record.

    Each line is a JSON ``span`` / ``instant`` / ``metric`` record with
    its keys; timestamps are non-negative numbers and spans end no
    earlier than they start; metric records pass
    :func:`~repro.obs.metrics.validate_metric_record`.  The log holds at
    least one span and one metric.  Raises :class:`SchedulingError`.
    """
    counts = {"span": 0, "instant": 0, "metric": 0}
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise SchedulingError(f"{where}: invalid JSON ({exc})") from None
        kind = record.get("type") if isinstance(record, dict) else None
        if kind not in counts:
            raise SchedulingError(f"{where}: unknown record type {kind!r}")
        counts[kind] += 1
        if kind == "metric":
            validate_metric_record(record, where)
            continue
        times = _RECORD_TIMES[kind]
        require_keys(record, ("name", "cat", "proc", "thread", "args")
                     + times, f"{where}: {kind}", SchedulingError)
        start, end = record[times[0]], record[times[-1]]
        if not finite(start) or not finite(end):
            raise SchedulingError(f"{where}: {kind} timestamps must be "
                                  f"numbers")
        if start < 0:
            raise SchedulingError(f"{where}: negative {kind} timestamp")
        if end < start:
            raise SchedulingError(f"{where}: span ends before it starts")
    for kind in ("span", "metric"):
        if not counts[kind]:
            raise SchedulingError(f"no {kind} records")
