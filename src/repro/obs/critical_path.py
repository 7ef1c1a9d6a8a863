"""Critical-path attribution over simulated task timelines (§3.4's why).

The paper's headline wins come from overlapping subgraph stages across
heterogeneous processors, which means wall-clock latency is governed by
the *critical path* through the scheduled task DAG — the longest
dependency-respecting chain of events from origin to the last finisher.
The additive buckets the rest of the observability stack reports (busy
seconds, idle causes, queue/prefill/decode splits) say where time went;
the critical path says which tasks actually *gated* completion and how
much slack every off-path task had before it would start gating.

Extraction walks backward from the sink event picking, at each step,
the *gating parent* — the latest-finishing event the current one had to
wait for.  Three edge kinds are distinguished:

* ``dep`` — an explicit task-graph dependency (available when the
  :class:`~repro.hw.sim.Task` list that produced the trace is given);
* ``resource`` — the previous event on the same processor (the
  scheduler serialized them);
* ``inferred`` — without a task list, the latest event anywhere that
  finished by the current one's start (the schedule's observable
  gating structure).

The resulting chain telescopes: segment waits and durations sum to the
traced end-to-end latency *exactly* up to float re-association, which
:func:`validate_critical_path` enforces within 1e-9 s (CI runs it on
the golden artifact).  Off-path events get a per-segment slack from a
latest-finish backward pass over the schedule-fixed DAG.

Documents serialize under ``repro.critpath/v1`` with fully
deterministic bytes; :func:`validate_critpath_doc` checks every path
plus the document totals.
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.hw.trace import Trace, TraceEvent
from repro.obs.schemas import (
    CRITPATH_EDGES,
    CRITPATH_SCHEMA,
    check_schema,
    finite,
    require_keys,
)

#: Maximum tolerated conservation residual (segments vs end-to-end).
CRITPATH_TOL_S = 1e-9

#: Scheduling tolerance when matching "finished by my start" (mirrors
#: the simulator's serial-overlap tolerance).
_GATE_TOL_S = 1e-12

#: Gating-edge kinds, in tie-break priority order (low to high).
PATH_EDGES = CRITPATH_EDGES

_EDGE_RANK = {edge: i for i, edge in enumerate(PATH_EDGES)}


class CritPathError(ReproError):
    """Critical-path extraction or validation failure."""


@dataclass(frozen=True)
class PathSegment:
    """One on-path event plus the wait that preceded it.

    ``wait_s`` is the gap between the gating parent's finish (or the
    path origin) and this event's start; ``edge`` names how the event
    was gated (:data:`PATH_EDGES`).
    """

    task_id: str
    proc: str
    tag: str
    start_s: float
    end_s: float
    wait_s: float
    edge: str

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "proc": self.proc,
            "tag": self.tag,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "wait_s": self.wait_s,
            "edge": self.edge,
        }


@dataclass(frozen=True)
class SlackRecord:
    """An off-path event and how late it could finish without gating."""

    task_id: str
    proc: str
    tag: str
    start_s: float
    end_s: float
    slack_s: float

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "proc": self.proc,
            "tag": self.tag,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "slack_s": self.slack_s,
        }


@dataclass(frozen=True)
class CriticalPath:
    """The gating chain of one timeline, origin to last finisher."""

    source: str
    origin_s: float
    e2e_s: float
    segments: Tuple[PathSegment, ...]
    slack: Tuple[SlackRecord, ...]
    n_events: int

    @property
    def work_s(self) -> float:
        return sum(s.duration_s for s in self.segments)

    @property
    def wait_s(self) -> float:
        return sum(s.wait_s for s in self.segments)

    @property
    def end_s(self) -> float:
        return self.segments[-1].end_s if self.segments else self.origin_s

    def by_proc(self) -> Dict[str, float]:
        """On-path seconds per processor (sorted keys)."""
        acc: Dict[str, float] = {}
        for s in self.segments:
            acc[s.proc] = acc.get(s.proc, 0.0) + s.duration_s
        return {k: acc[k] for k in sorted(acc)}

    def by_tag(self) -> Dict[str, float]:
        """On-path seconds per operator tag (sorted keys)."""
        acc: Dict[str, float] = {}
        for s in self.segments:
            tag = s.tag or "task"
            acc[tag] = acc.get(tag, 0.0) + s.duration_s
        return {k: acc[k] for k in sorted(acc)}

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "origin_s": self.origin_s,
            "e2e_s": self.e2e_s,
            "n_events": self.n_events,
            "n_segments": len(self.segments),
            "work_s": self.work_s,
            "wait_s": self.wait_s,
            "by_proc": self.by_proc(),
            "by_tag": self.by_tag(),
            "segments": [s.to_dict() for s in self.segments],
            "slack": [s.to_dict() for s in self.slack],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False)


def _sort_key(e: TraceEvent) -> Tuple[float, float, str]:
    return (e.start_s, e.end_s, e.task_id)


def _pick_parent(candidates: List[Tuple[TraceEvent, str]]
                 ) -> Optional[Tuple[TraceEvent, str]]:
    """The gating parent: latest finish, then edge priority, then id."""
    best = None
    best_key = None
    for event, edge in candidates:
        key = (event.end_s, _EDGE_RANK[edge], event.task_id)
        if best_key is None or key > best_key:
            best, best_key = (event, edge), key
    return best


def critical_path(trace: Trace, tasks=None,
                  source: str = "trace") -> CriticalPath:
    """Extract the critical path of a :class:`~repro.hw.trace.Trace`.

    ``tasks`` is the :class:`~repro.hw.sim.Task` sequence that produced
    the trace; with it, explicit dependency edges join the candidate
    set (``edge="dep"``), without it gating is inferred from the
    schedule alone.  The returned chain telescopes from time 0 to the
    trace makespan: Σ(wait + duration) over segments equals the
    makespan up to float re-association.
    """
    events = sorted(trace.events, key=_sort_key)
    if not events:
        raise CritPathError(f"{source}: cannot attribute an empty trace")
    by_id: Dict[str, TraceEvent] = {}
    for e in events:
        if e.task_id not in by_id:
            by_id[e.task_id] = e
    resource_prev: Dict[str, Optional[TraceEvent]] = {}
    last_on: Dict[str, TraceEvent] = {}
    for e in events:
        resource_prev[e.task_id] = last_on.get(e.proc)
        last_on[e.proc] = e
    deps: Dict[str, Tuple[str, ...]] = {}
    if tasks is not None:
        deps = {t.task_id: tuple(t.deps) for t in tasks}
    # For inferred gating: events by finish time, latest-eligible wins.
    by_end = sorted(events, key=lambda e: (e.end_s, e.start_s, e.task_id))
    end_times = [e.end_s for e in by_end]

    sink = max(events, key=lambda e: (e.end_s, e.start_s, e.task_id))
    chain: List[Tuple[TraceEvent, str]] = []
    visited = set()
    current: Optional[TraceEvent] = sink
    edge_in = "origin"
    while current is not None:
        if current.task_id in visited:
            raise CritPathError(
                f"{source}: gating cycle through {current.task_id!r}")
        visited.add(current.task_id)
        candidates: List[Tuple[TraceEvent, str]] = []
        gate = current.start_s + _GATE_TOL_S
        prev = resource_prev[current.task_id]
        if prev is not None and prev.end_s <= gate \
                and prev.task_id not in visited:
            candidates.append((prev, "resource"))
        for dep_id in deps.get(current.task_id, ()):
            dep_event = by_id.get(dep_id)
            if dep_event is not None and dep_event.end_s <= gate \
                    and dep_id not in visited:
                candidates.append((dep_event, "dep"))
        if tasks is None:
            pos = bisect_right(end_times, gate) - 1
            while pos >= 0 and by_end[pos].task_id in visited:
                pos -= 1
            if pos >= 0:
                candidates.append((by_end[pos], "inferred"))
        parent = _pick_parent(candidates)
        chain.append((current, edge_in))
        if parent is None:
            break
        current, edge_in = parent[0], parent[1]
    chain.reverse()
    # The walk labels each node with the edge that *led to* it during
    # the backward pass, i.e. the edge into its child; re-associate so
    # each segment carries the edge it was gated BY.
    segments: List[PathSegment] = []
    prev_end = 0.0
    prev_edge = "origin"
    for event, _edge_to_child in chain:
        segments.append(PathSegment(
            task_id=event.task_id, proc=event.proc,
            tag=event.tag or "task",
            start_s=event.start_s, end_s=event.end_s,
            wait_s=event.start_s - prev_end, edge=prev_edge,
        ))
        prev_end = event.end_s
        prev_edge = _edge_to_child
    on_path = {s.task_id for s in segments}
    slack = _slack_records(events, deps, on_path, trace.makespan_s)
    path = CriticalPath(
        source=source,
        origin_s=0.0,
        e2e_s=trace.makespan_s,
        segments=tuple(segments),
        slack=tuple(slack),
        n_events=len(events),
    )
    validate_critical_path(path)
    return path


def _slack_records(events: Sequence[TraceEvent],
                   deps: Dict[str, Tuple[str, ...]],
                   on_path: set,
                   makespan_s: float) -> List[SlackRecord]:
    """Latest-finish backward pass over the schedule-fixed DAG.

    Edges are resource successors (next event on the same processor)
    plus explicit dependency successors when the task list was given.
    Processed in a deterministic Kahn order — sync fences can have
    ~zero duration, so plain schedule-sort order is not a safe
    topological order.
    """
    index = {e.task_id: i for i, e in enumerate(events)}
    succs: Dict[int, set] = {i: set() for i in range(len(events))}
    last_on: Dict[str, int] = {}
    for i, e in enumerate(events):
        prev = last_on.get(e.proc)
        if prev is not None:
            succs[prev].add(i)
        last_on[e.proc] = i
    for task_id, dep_ids in deps.items():
        child = index.get(task_id)
        if child is None:
            continue
        for dep_id in dep_ids:
            parent = index.get(dep_id)
            if parent is not None:
                succs[parent].add(child)
    in_deg = [0] * len(events)
    for i in succs:
        for j in succs[i]:
            in_deg[j] += 1
    heap = [( events[i].start_s, events[i].end_s, events[i].task_id, i)
            for i in range(len(events)) if in_deg[i] == 0]
    heapq.heapify(heap)
    topo: List[int] = []
    while heap:
        _, _, _, i = heapq.heappop(heap)
        topo.append(i)
        for j in sorted(succs[i]):
            in_deg[j] -= 1
            if in_deg[j] == 0:
                e = events[j]
                heapq.heappush(heap, (e.start_s, e.end_s, e.task_id, j))
    if len(topo) != len(events):
        raise CritPathError("slack pass: cycle in the schedule DAG")
    latest_end = [makespan_s] * len(events)
    for i in reversed(topo):
        for j in succs[i]:
            e = events[j]
            latest_end[i] = min(latest_end[i],
                                latest_end[j] - e.duration_s)
    out: List[SlackRecord] = []
    for i, e in enumerate(events):
        if e.task_id in on_path:
            continue
        out.append(SlackRecord(
            task_id=e.task_id, proc=e.proc, tag=e.tag or "task",
            start_s=e.start_s, end_s=e.end_s,
            slack_s=latest_end[i] - e.end_s,
        ))
    return out


_PATH_KEYS = ("source", "origin_s", "e2e_s", "n_events", "n_segments",
              "work_s", "wait_s", "by_proc", "by_tag", "segments", "slack")
_SEGMENT_FIELDS = itemgetter("task_id", "proc", "tag", "start_s", "end_s",
                             "duration_s", "wait_s", "edge")
_SLACK_FIELDS = itemgetter("task_id", "proc", "tag", "start_s", "end_s",
                           "slack_s")


def validate_critical_path(path, tol_s: float = CRITPATH_TOL_S) -> None:
    """Assert the telescoping invariant on one path (a
    :class:`CriticalPath` or its dict): per segment a known edge,
    ``duration == end - start`` and a start ``wait`` after the previous
    end; per path, waits + durations and last finish - origin both equal
    e2e, durations sum to ``work_s``, ``by_proc`` and ``by_tag``, and no
    wait or slack is negative — within ``tol_s``; NaN fails every test.
    """
    doc = path.to_dict() if isinstance(path, CriticalPath) else path
    require_keys(doc, _PATH_KEYS, "critical path", CritPathError)
    source, origin, e2e = doc["source"], doc["origin_s"], doc["e2e_s"]
    segments = doc["segments"]
    if not segments:
        raise CritPathError(f"{source}: path has no segments")
    if doc["n_segments"] != len(segments):
        raise CritPathError(f"{source}: n_segments != len(segments)")
    if not finite(origin) or not finite(e2e):
        raise CritPathError(f"{source}: origin_s/e2e_s must be finite")
    prev_end, total, work = origin, 0.0, 0.0
    i, task_id = 0, None
    try:
        for i, seg in enumerate(segments):
            task_id, _proc, _tag, start, end, dur, wait, edge = \
                _SEGMENT_FIELDS(seg)
            if end - start < -tol_s:
                raise CritPathError(f"negative duration {end - start!r}")
            if not abs(dur - (end - start)) <= tol_s:
                raise CritPathError(f"duration_s {dur!r} != end - start")
            if not wait >= -tol_s:
                raise CritPathError(f"negative wait {wait!r}")
            if not abs(start - (prev_end + wait)) <= tol_s:
                raise CritPathError(f"start {start!r} != previous end "
                                    f"{prev_end!r} + wait {wait!r}")
            if edge not in PATH_EDGES:
                raise CritPathError(f"unknown edge {edge!r}")
            total += wait + dur
            work += dur
            prev_end = end
    except KeyError as exc:
        raise CritPathError(f"{source}: segments[{i}]: missing {exc}"
                            ) from None
    except (TypeError, CritPathError) as exc:
        problem = exc if isinstance(exc, CritPathError) else "non-numeric"
        raise CritPathError(f"{source}: segments[{i}] ({task_id}): "
                            f"{problem}") from None
    if not abs(total - e2e) <= tol_s:
        raise CritPathError(
            f"{source}: segment waits + durations sum to {total!r}, "
            f"end-to-end is {e2e!r} (residual {total - e2e:.3e} s)")
    if not abs((prev_end - origin) - e2e) <= tol_s:
        raise CritPathError(f"{source}: last finish {prev_end!r} - origin "
                            f"{origin!r} != e2e {e2e!r}")
    for block in ("by_proc", "by_tag"):
        if not isinstance(doc[block], dict):
            raise CritPathError(f"{source}: {block} must be an object")
    for name, value in (("work_s", doc["work_s"]),
                        ("by_proc", sum(doc["by_proc"].values())),
                        ("by_tag", sum(doc["by_tag"].values()))):
        if not (finite(value) and abs(value - work) <= tol_s):
            raise CritPathError(f"{source}: {name} does not sum to on-path "
                                f"work {work!r}")
    i, slack = 0, None
    try:
        for i, rec in enumerate(doc["slack"]):
            task_id, _proc, _tag, _start, _end, slack = _SLACK_FIELDS(rec)
            if not -tol_s <= slack < math.inf:
                raise TypeError
    except KeyError as exc:
        raise CritPathError(f"{source}: slack[{i}]: missing {exc}") from None
    except TypeError:
        raise CritPathError(f"{source}: slack[{i}] ({task_id}): negative "
                            f"slack or non-number {slack!r}") from None


def validate_critpath_doc(doc: dict,
                          tol_s: float = CRITPATH_TOL_S) -> None:
    """Validate a ``repro.critpath/v1`` document: every path passes
    :func:`validate_critical_path` and ``totals`` sums the per-path
    work, waits, ``by_proc`` and ``by_tag`` within ``tol_s`` per path."""
    check_schema(doc, CRITPATH_SCHEMA, CritPathError)
    require_keys(doc, ("source", "n_paths", "paths", "totals"),
                 "critpath doc", CritPathError)
    paths = doc["paths"]
    if not isinstance(paths, list) or not paths:
        raise CritPathError("'paths' must be a non-empty list")
    if doc["n_paths"] != len(paths):
        raise CritPathError("n_paths != len(paths)")
    sums = {"work_s": 0.0, "wait_s": 0.0, "by_proc": {}, "by_tag": {}}
    for path in paths:
        validate_critical_path(path, tol_s)
        for key in ("work_s", "wait_s"):
            sums[key] += path[key]
        for block in ("by_proc", "by_tag"):
            for key, seconds in path[block].items():
                sums[block][key] = sums[block].get(key, 0.0) + seconds
    totals = doc["totals"]
    require_keys(totals, sums, "totals", CritPathError)
    tol = tol_s * len(paths)
    for key in ("work_s", "wait_s"):
        if not abs(totals[key] - sums[key]) <= tol:
            raise CritPathError(f"totals.{key} != sum over paths")
    for block in ("by_proc", "by_tag"):
        declared, summed = totals[block], sums[block]
        if sorted(declared) != sorted(summed):
            raise CritPathError(f"totals.{block} keys do not match the "
                                f"paths")
        for key, seconds in summed.items():
            if not abs(declared[key] - seconds) <= tol:
                raise CritPathError(f"totals.{block}[{key!r}] drifts from "
                                    f"the per-path sum")


def _shift_segment(seg: PathSegment, t0: float,
                   prev_end: float) -> PathSegment:
    """Re-anchor a hw segment at ``t0``, recomputing the wait *in the
    shifted frame* — ``(t0 + a) - (t0 + b)`` is not ``a - b`` in
    floats, and the telescoping invariant must hold on the shifted
    numbers the artifact carries."""
    start = t0 + seg.start_s
    end = t0 + seg.end_s
    return PathSegment(
        task_id=seg.task_id, proc=seg.proc, tag=seg.tag,
        start_s=start, end_s=end, wait_s=start - prev_end,
        edge=seg.edge,
    )


def request_critical_path(record, decode_backend: str = "cpu",
                          tasks=None) -> CriticalPath:
    """The admission-to-completion critical path of one served request.

    Extends the hardware chain (prefill tasks + decode steps from the
    request's :meth:`~repro.core.results.InferenceReport.timeline`)
    with the service-level gating segments: time queued before the
    scheduler started it, time held by retries/backoff before the
    successful attempt, and the serial graph-preparation tail (naive
    engines only).  The chain telescopes from arrival to finish: the
    conservation invariant now covers the request's full turnaround.
    """
    if record.status != "completed" or record.report is None:
        raise CritPathError(
            f"request {record.request_id}: no completed report to "
            f"attribute (status {record.status!r})")
    report = record.report
    hw = critical_path(report.timeline(decode_backend), tasks=tasks,
                       source=f"request {record.request_id}")
    t0 = record.finish_s - report.e2e_latency_s
    segments: List[PathSegment] = []
    prev_end = record.arrival_s
    queued = record.start_s - record.arrival_s
    if queued > 0.0:
        segments.append(PathSegment(
            task_id="service.queued", proc="service", tag="queued",
            start_s=record.arrival_s, end_s=record.start_s,
            wait_s=0.0, edge="origin",
        ))
        prev_end = record.start_s
    held = t0 - prev_end
    if held > 0.0:
        segments.append(PathSegment(
            task_id="service.held", proc="service", tag="held",
            start_s=prev_end, end_s=t0, wait_s=0.0,
            edge="service" if segments else "origin",
        ))
        prev_end = t0
    first_hw_edge = "service" if segments else "origin"
    for i, seg in enumerate(hw.segments):
        shifted = _shift_segment(seg, t0, prev_end)
        if i == 0:
            shifted = PathSegment(
                task_id=shifted.task_id, proc=shifted.proc,
                tag=shifted.tag, start_s=shifted.start_s,
                end_s=shifted.end_s, wait_s=shifted.wait_s,
                edge=first_hw_edge,
            )
        segments.append(shifted)
        prev_end = shifted.end_s
    prep = record.finish_s - prev_end
    if prep > 0.0:
        segments.append(PathSegment(
            task_id="service.prepare", proc="service", tag="prepare",
            start_s=prev_end, end_s=record.finish_s, wait_s=0.0,
            edge="service",
        ))
    slack = tuple(SlackRecord(
        task_id=r.task_id, proc=r.proc, tag=r.tag,
        start_s=t0 + r.start_s, end_s=t0 + r.end_s, slack_s=r.slack_s,
    ) for r in hw.slack)
    path = CriticalPath(
        source=f"request {record.request_id}",
        origin_s=record.arrival_s,
        e2e_s=record.finish_s - record.arrival_s,
        segments=tuple(segments),
        slack=slack,
        n_events=hw.n_events,
    )
    validate_critical_path(path)
    return path


def critpath_doc(paths: Sequence[CriticalPath],
                 source: str = "critpath") -> dict:
    """Roll paths into one ``repro.critpath/v1`` document."""
    if not paths:
        raise CritPathError("critpath_doc needs at least one path")
    by_proc: Dict[str, float] = {}
    by_tag: Dict[str, float] = {}
    work = 0.0
    wait = 0.0
    for p in paths:
        work += p.work_s
        wait += p.wait_s
        for proc, s in p.by_proc().items():
            by_proc[proc] = by_proc.get(proc, 0.0) + s
        for tag, s in p.by_tag().items():
            by_tag[tag] = by_tag.get(tag, 0.0) + s
    return {
        "schema": CRITPATH_SCHEMA,
        "source": source,
        "n_paths": len(paths),
        "paths": [p.to_dict() for p in paths],
        "totals": {
            "work_s": work,
            "wait_s": wait,
            "by_proc": {k: by_proc[k] for k in sorted(by_proc)},
            "by_tag": {k: by_tag[k] for k in sorted(by_tag)},
        },
    }


def narrative_lines(path: CriticalPath, top: int = 5) -> List[str]:
    """A human-readable walk of one critical path (``llmnpu explain``
    and ``llmnpu critpath <request>``)."""
    lines = [
        f"critical path — {path.source}: {len(path.segments)} of "
        f"{path.n_events} events gate the outcome",
        f"  end-to-end {path.e2e_s * 1e3:.3f} ms = on-path work "
        f"{path.work_s * 1e3:.3f} ms + waits {path.wait_s * 1e3:.3f} ms",
    ]
    for proc, s in path.by_proc().items():
        share = s / path.e2e_s * 100 if path.e2e_s > 0 else 0.0
        lines.append(f"  on-path {proc}: {s * 1e3:.3f} ms "
                     f"({share:.1f}% of e2e)")
    ranked = sorted(path.segments,
                    key=lambda s: (-s.duration_s, s.start_s, s.task_id))
    lines.append(f"  top {min(top, len(ranked))} gating segments:")
    for seg in ranked[:top]:
        share = (seg.duration_s / path.e2e_s * 100
                 if path.e2e_s > 0 else 0.0)
        lines.append(
            f"    {seg.task_id} [{seg.proc}/{seg.tag}] "
            f"{seg.duration_s * 1e3:.3f} ms ({share:.1f}%), "
            f"gated by {seg.edge}, waited {seg.wait_s * 1e3:.3f} ms")
    if path.slack:
        loose = sorted(path.slack,
                       key=lambda r: (-r.slack_s, r.start_s, r.task_id))
        best = loose[0]
        lines.append(
            f"  {len(path.slack)} off-path events; most slack: "
            f"{best.task_id} [{best.proc}] could finish "
            f"{best.slack_s * 1e3:.3f} ms later without gating")
    return lines
