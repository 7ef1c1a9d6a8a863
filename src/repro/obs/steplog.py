"""Step-level scheduler telemetry: ``repro.steps/v1`` logs.

The step loop (:meth:`~repro.core.service.LlmService._run_step_loop`)
makes its interesting choices *between* the spans the tracer records:
which queued request starts, which decoder rotates out of an
over-subscribed step, which prefill chunk the token budget cuts off.
This module captures those choices through the service's PR-4-style
step-observer hook (:meth:`~repro.core.service.LlmService
.add_step_observer`) as two synchronized streams:

* :class:`~repro.core.scheduler.StepRecord` — one per executed
  sim-clock step, now carrying the queue snapshot that governed its
  assembly (waiting ids, per-tier depths, KV/concurrency blocks);
* :class:`Decision` — one per request *touched or skipped*, typed by
  :data:`DECISION_ACTIONS` and stamped with the governing quantity
  (projected wait vs. SLO, chunk tokens vs. budget, KV projection vs.
  budget, ...).

A :class:`StepLogger` folds both (plus the finished-request stream)
into a self-contained ``repro.steps/v1`` document that
``obs/explain.py`` can replay offline.  Observation is strictly a
no-op: with no step observers attached the service emits nothing and
does no extra work, so golden snapshot/trace/profile artifacts stay
byte-identical (``scripts/check_determinism.sh`` enforces this).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

# The decision taxonomy lives in the schema constant table,
# ``repro.obs.schemas``.
# Admission-time: ``admitted`` / ``admission-rejected``.  Start-loop:
# ``started`` / ``kv-deferred`` / ``concurrency-deferred``.  Per-step
# assembly: ``chunk-scheduled`` / ``decode-scheduled`` /
# ``budget-exhausted`` (a prefilling request the token budget skipped) /
# ``decode-rotated-out`` (a decoder outside the rotation window).
# Legacy-path dispatch: ``dispatched``.  Terminal: the record's status
# (``completed`` / ``rejected`` / ``cancelled`` / ``timeout`` /
# ``failed``).
from repro.obs.schemas import (
    DECISION_ACTIONS,
    STEPS_SCHEMA,
    check_schema,
    finite,
    require_keys,
)


class StepLogError(ReproError):
    """Malformed or unusable step-log input."""


@dataclass(frozen=True)
class Decision:
    """One typed scheduler decision about one request.

    ``quantity`` names the governing quantity (``projected_wait_s``,
    ``tokens``, ``kv_projected_bytes``, ...), ``value`` its value and
    ``limit`` the bound it was compared against (None when the relevant
    knob is unbounded).  ``step`` is the step index for decisions made
    inside the step loop, None for admission-time / legacy-path /
    terminal decisions.
    """

    t_s: float
    request_id: int
    action: str
    tier: str
    step: Optional[int] = None
    quantity: Optional[str] = None
    value: Optional[float] = None
    limit: Optional[float] = None

    def __post_init__(self) -> None:
        if self.action not in DECISION_ACTIONS:
            raise StepLogError(
                f"unknown decision action {self.action!r}; "
                f"expected one of {DECISION_ACTIONS}"
            )

    def to_dict(self) -> dict:
        return {
            "t_s": self.t_s,
            "request_id": self.request_id,
            "action": self.action,
            "tier": self.tier,
            "step": self.step,
            "quantity": self.quantity,
            "value": self.value,
            "limit": self.limit,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Decision":
        try:
            return cls(
                t_s=doc["t_s"], request_id=doc["request_id"],
                action=doc["action"], tier=doc["tier"],
                step=doc.get("step"), quantity=doc.get("quantity"),
                value=doc.get("value"), limit=doc.get("limit"),
            )
        except KeyError as exc:
            raise StepLogError(f"decision missing key {exc}") from None


def _step_to_dict(step) -> dict:
    """One :class:`~repro.core.scheduler.StepRecord` as plain JSON."""
    return {
        "index": step.index,
        "start_s": step.start_s,
        "end_s": step.end_s,
        "n_inflight": step.n_inflight,
        "kv_reserved_bytes": step.kv_reserved_bytes,
        "prefill_tokens": step.prefill_tokens,
        "decode_tokens": step.decode_tokens,
        "batch_tokens": step.batch_tokens,
        "budget_tokens": step.budget_tokens,
        "budget_utilization": step.budget_utilization,
        "kv_budget_bytes": step.kv_budget_bytes,
        "kv_utilization": step.kv_utilization,
        "queued_ids": list(step.queued_ids),
        "queue_depths": {tier: depth
                         for tier, depth in step.queue_depths},
        "kv_blocked_id": step.kv_blocked_id,
        "concurrency_full": step.concurrency_full,
        "items": [
            {"request_id": it.request_id, "kind": it.kind,
             "tokens": it.tokens, "cost_s": it.cost_s,
             "index": it.index, "start_s": it.start_s,
             "end_s": it.end_s}
            for it in step.items
        ],
    }


def _record_to_dict(record) -> dict:
    """One :class:`~repro.core.service.ServedRequest` as plain JSON.

    Embeds the request's validated latency breakdown so a saved step
    log is self-contained: ``obs/explain.py`` reconciles its wait
    attribution against these components without needing the live
    records (whose reports don't serialize).
    """
    from repro.obs.breakdown import breakdown_request
    b = breakdown_request(record)
    return {
        "request_id": record.request_id,
        "model": record.model,
        "tier": record.tier,
        "status": record.status,
        "retries": record.retries,
        "arrival_s": record.arrival_s,
        "start_s": record.start_s,
        "finish_s": record.finish_s,
        "batched": record.batched,
        "prefill_end_s": record.prefill_end_s,
        "first_token_s": record.first_token_s,
        "retry_held_s": record.retry_held_s,
        "breakdown": {
            "queue_s": b.queue_s,
            "admission_s": b.admission_s,
            "retry_s": b.retry_s,
            "prefill_s": b.prefill_s,
            "decode_s": b.decode_s,
            "turnaround_s": b.turnaround_s,
        },
    }


class StepLogger:
    """Collects a service run's step/decision/record streams.

    Attach before :meth:`~repro.core.service.LlmService.run`::

        logger = StepLogger().attach(service)
        service.run()
        doc = logger.to_dict()          # repro.steps/v1

    The logger is a passive sink — it never mutates the service, and a
    run with it attached serves byte-identical records (the PR-4
    observation guarantee).
    """

    def __init__(self, source: str = "service"):
        self.source = source
        self.steps: List = []
        self.decisions: List[Decision] = []
        self.records: List = []
        self.batching = None

    def attach(self, service) -> "StepLogger":
        """Register on a service's step + record observer hooks."""
        service.add_step_observer(self)
        service.add_observer(self.on_record)
        self.batching = service.batching
        return self

    # -- observer hooks (called by the service) -------------------------------

    def on_step(self, record) -> None:
        self.steps.append(record)

    def on_decision(self, decision: Decision) -> None:
        self.decisions.append(decision)

    def on_record(self, record) -> None:
        self.records.append(record)

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """The ``repro.steps/v1`` document (self-contained for replay)."""
        batching = None
        if self.batching is not None:
            batching = {
                "max_batch_tokens": self.batching.max_batch_tokens,
                "max_concurrency": self.batching.max_concurrency,
                "prefill_priority": self.batching.prefill_priority,
                "kv_budget_bytes": self.batching.kv_budget_bytes,
            }
        records = sorted(self.records, key=lambda r: r.request_id)
        return {
            "schema": STEPS_SCHEMA,
            "source": self.source,
            "batching": batching,
            "n_steps": len(self.steps),
            "n_requests": len(records),
            "n_decisions": len(self.decisions),
            "steps": [_step_to_dict(s) for s in self.steps],
            "decisions": [d.to_dict() for d in self.decisions],
            "requests": [_record_to_dict(r) for r in records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str) -> str:
        """Write the log (gzipped on a ``.gz`` suffix)."""
        from repro.obs.export import open_text
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open_text(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")
        return path


def load_steps(path: str) -> dict:
    """Read and structurally validate a (possibly gzipped)
    ``repro.steps/v1`` file."""
    from repro.obs.export import open_text
    from repro.obs.validate import validate_doc
    try:
        with open_text(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        raise StepLogError(f"cannot read step log {path!r}: {exc}") from None
    check_schema(doc, STEPS_SCHEMA, StepLogError)
    validate_doc(doc)
    return doc


def validate_steps_doc(doc: dict) -> None:
    """Validate a ``repro.steps/v1`` document: record lists matching
    their counts; steps with finite windows that their items' spans fill
    within 1e-9 s (work conservation); decisions from the closed action
    taxonomy at finite times; requests with a numeric breakdown."""
    check_schema(doc, STEPS_SCHEMA, StepLogError)
    for key in ("steps", "decisions", "requests"):
        if not isinstance(doc.get(key), list):
            raise StepLogError(f"step log missing list {key!r}")
        if doc.get("n_" + key) != len(doc[key]):
            raise StepLogError(f"n_{key} != len({key})")
    require_keys(doc, ("source",), "step log", StepLogError)
    for i, step in enumerate(doc["steps"]):
        where = f"steps[{i}]"
        require_keys(step, ("index", "start_s", "end_s", "n_inflight",
                            "batch_tokens", "items", "queued_ids",
                            "queue_depths"), where, StepLogError)
        start, end = step["start_s"], step["end_s"]
        if not finite(start) or not finite(end):
            raise StepLogError(f"{where}: step window must be finite")
        if end < start:
            raise StepLogError(f"{where}: end before start")
        span = 0.0
        for j, item in enumerate(step["items"]):
            require_keys(item, ("start_s", "end_s"), f"{where}: items[{j}]",
                         StepLogError)
            span += item["end_s"] - item["start_s"]
        if abs(span - (end - start)) > 1e-9:
            raise StepLogError(f"{where}: items span {span!r} != step "
                               f"window {end - start!r}")
    for i, dec in enumerate(doc["decisions"]):
        where = f"decisions[{i}]"
        require_keys(dec, ("t_s", "request_id", "action", "tier"), where,
                     StepLogError)
        if dec["action"] not in DECISION_ACTIONS:
            raise StepLogError(f"{where}: unknown decision action "
                               f"{dec['action']!r}")
        if not finite(dec["t_s"]):
            raise StepLogError(f"{where}: t_s must be a finite number")
    for i, req in enumerate(doc["requests"]):
        where = f"requests[{i}]"
        require_keys(req, ("request_id", "tier", "status", "arrival_s",
                           "start_s", "finish_s", "breakdown"), where,
                     StepLogError)
        require_keys(req["breakdown"], (), f"{where}: breakdown",
                     StepLogError)
        for key in ("queue_s", "admission_s", "retry_s", "prefill_s",
                    "decode_s", "turnaround_s"):
            if not finite(req["breakdown"].get(key)):
                raise StepLogError(f"{where}: breakdown missing numeric "
                                   f"{key!r}")


def as_steps_doc(source) -> dict:
    """Normalize a step-log source into a ``repro.steps/v1`` dict.

    Accepts an already-loaded dict, a :class:`StepLogger`, or a live
    :class:`~repro.core.service.LlmService` (whose :attr:`steps` and
    :attr:`requests` are folded into a document with an empty decision
    log — decisions only exist where a logger was attached).
    """
    if isinstance(source, dict):
        validate_steps_doc(source)
        return source
    if isinstance(source, StepLogger):
        return source.to_dict()
    if hasattr(source, "requests") and hasattr(source, "steps"):
        logger = StepLogger()
        logger.batching = source.batching
        logger.steps = list(source.steps)
        logger.records = list(source.requests)
        return logger.to_dict()
    raise StepLogError(
        f"cannot interpret {type(source).__name__} as a step log"
    )


# -- derived detectors --------------------------------------------------------


def decision_mix(decisions) -> Dict[str, int]:
    """Counts per decision action (accepts Decisions or dicts)."""
    counts: Dict[str, int] = {}
    for d in decisions:
        action = d["action"] if isinstance(d, dict) else d.action
        counts[action] = counts.get(action, 0) + 1
    return dict(sorted(counts.items()))


def occupancy_summary(steps) -> Dict[str, float]:
    """Mean/max occupancy statistics over a run's steps.

    Accepts :class:`~repro.core.scheduler.StepRecord` objects or their
    serialized dicts.  ``budget_utilization`` keys are only present when
    every step ran under a token budget.
    """
    def get(step, key):
        return step[key] if isinstance(step, dict) else getattr(step, key)

    if not steps:
        return {"n_steps": 0.0}
    tokens = [float(get(s, "batch_tokens")) for s in steps]
    inflight = [float(get(s, "n_inflight")) for s in steps]
    depth = [float(len(get(s, "queued_ids"))) for s in steps]
    out = {
        "n_steps": float(len(steps)),
        "mean_batch_tokens": sum(tokens) / len(tokens),
        "max_batch_tokens": max(tokens),
        "mean_inflight": sum(inflight) / len(inflight),
        "max_inflight": max(inflight),
        "mean_queue_depth": sum(depth) / len(depth),
        "max_queue_depth": max(depth),
    }
    utils = [get(s, "budget_utilization") for s in steps]
    if all(u is not None for u in utils):
        out["mean_budget_utilization"] = sum(utils) / len(utils)
        out["max_budget_utilization"] = max(utils)
    return out


def starved_requests(steps, min_steps: int = 8) -> List[Tuple[int, int]]:
    """Requests stuck in the waiting queue for long consecutive runs.

    Returns ``(request_id, n_consecutive_steps)`` pairs (sorted by id)
    for every request that stayed in some step's ``queued_ids`` snapshot
    for at least ``min_steps`` consecutive steps — the starvation signal
    the :class:`~repro.obs.monitor.SloMonitor` detector surfaces.
    """
    if min_steps <= 0:
        raise StepLogError("min_steps must be positive")
    streak: Dict[int, int] = {}
    worst: Dict[int, int] = {}
    for step in steps:
        queued = (step["queued_ids"] if isinstance(step, dict)
                  else step.queued_ids)
        queued = set(queued)
        for rid in queued:
            streak[rid] = streak.get(rid, 0) + 1
            worst[rid] = max(worst.get(rid, 0), streak[rid])
        for rid in list(streak):
            if rid not in queued:
                del streak[rid]
    return sorted((rid, n) for rid, n in worst.items()
                  if n >= min_steps)
