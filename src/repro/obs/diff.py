"""Run-to-run differential attribution (``repro.diff/v1``).

Every layer below this one explains a *single* run: the profiler
attributes a run's busy time, the step log records its scheduler
decisions, the critical path names its gating segments.  This module
closes the loop for *pairs* of runs — the shape every performance
question actually takes ("the new scheduler knob regressed p95; which
operator ate the delta?").

:func:`diff_docs` aligns two schema-versioned artifacts of the same
kind and emits one ``repro.diff/v1`` document:

``critpath``
    Two ``repro.critpath/v1`` documents.  Requests are aligned by
    ``source`` ("request N"); within a matched request, on-path
    segments are aligned by task id.  Each aligned segment carries the
    base and new gating time (wait + duration) and a status from
    :data:`~repro.obs.schemas.DIFF_STATUSES` — ``grew`` / ``shrank`` /
    ``appeared`` / ``vanished`` / ``unchanged``.  Because each run's
    critical path telescopes to its end-to-end latency (the PR-9
    invariant), the per-segment deltas of a matched request *must* sum
    to the observed e2e delta — :func:`validate_diff` enforces the
    residual below ``tol_s`` (1 ns), the same conservation bar every
    other artifact in the repo meets.

``profile``
    Two ``repro.profile/v1`` reports: per-operator ``(proc, tag)`` busy
    deltas and per-processor busy / idle / idle-by-cause drift.

``steps``
    Two ``repro.steps/v1`` logs: per-scheduler-decision action-count
    deltas, occupancy drift, and per-request breakdown-component
    deltas.

``fleet``
    Two ``repro.fleet/v1`` reports: per-device drift of the latency
    scoreboard and merged-sketch quantile shifts.

``llmnpu diff <base> <new>`` surfaces all four (exit 0 identical /
1 differs / 2 usage, mirroring ``bench-compare``), and
``bench-compare --explain`` re-runs a regressed benchmark's golden
scenario to auto-emit the critpath attribution.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.schemas import (
    CRITPATH_SCHEMA,
    DIFF_KINDS,
    DIFF_SCHEMA,
    DIFF_STATUSES,
    FLEET_SCHEMA,
    PROFILE_SCHEMA,
    STEPS_SCHEMA,
    check_schema,
    finite,
    require_keys,
)

#: Conservation tolerance: attributed per-segment deltas must telescope
#: to the observed e2e delta within a nanosecond (matches
#: ``CRITPATH_TOL_S`` / ``WHATIF_TOL_S``).
DIFF_TOL_S = 1e-9


class DiffError(ReproError):
    """A pair of artifacts could not be aligned or the resulting diff
    violates the conservation invariant."""


#: Required keys of a critpath diff's per-segment records.
_SEGMENT_FIELDS = itemgetter("task_id", "tag", "base_s", "new_s", "delta_s",
                             "status")

#: Which diff kind handles which input schema.
_KIND_BY_SCHEMA = {
    CRITPATH_SCHEMA: "critpath",
    PROFILE_SCHEMA: "profile",
    STEPS_SCHEMA: "steps",
    FLEET_SCHEMA: "fleet",
}


def _status(delta_s: float, tol_s: float) -> str:
    if delta_s > tol_s:
        return "grew"
    if delta_s < -tol_s:
        return "shrank"
    return "unchanged"


def _num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# -- critpath ----------------------------------------------------------------


def _segment_keys(segments: Sequence[dict]) -> List[Tuple[str, int]]:
    """Occurrence-indexed alignment keys: a task id appears at most once
    on a critical path, but the index guards against pathological
    inputs without silently merging duplicates."""
    seen: Dict[str, int] = {}
    keys = []
    for seg in segments:
        task_id = seg["task_id"]
        k = seen.get(task_id, 0)
        seen[task_id] = k + 1
        keys.append((task_id, k))
    return keys


def _gating_s(seg: dict) -> float:
    return seg["wait_s"] + seg["duration_s"]


def _diff_request(base_path: dict, new_path: dict,
                  tol_s: float) -> dict:
    """Align one matched request's segments and attribute its e2e delta."""
    base_segs = base_path["segments"]
    new_segs = new_path["segments"]
    base_by_key = dict(zip(_segment_keys(base_segs), base_segs))
    new_keys = _segment_keys(new_segs)
    segments = []
    matched = set()
    for key, seg in zip(new_keys, new_segs):
        old = base_by_key.get(key)
        new_s = _gating_s(seg)
        if old is None:
            segments.append({
                "task_id": seg["task_id"],
                "tag": seg["tag"],
                "base_proc": None,
                "new_proc": seg["proc"],
                "base_s": 0.0,
                "new_s": new_s,
                "delta_s": new_s,
                "status": "appeared",
            })
            continue
        matched.add(key)
        base_s = _gating_s(old)
        delta_s = new_s - base_s
        segments.append({
            "task_id": seg["task_id"],
            "tag": seg["tag"],
            "base_proc": old["proc"],
            "new_proc": seg["proc"],
            "base_s": base_s,
            "new_s": new_s,
            "delta_s": delta_s,
            "status": _status(delta_s, tol_s),
        })
    for key, seg in zip(_segment_keys(base_segs), base_segs):
        if key in matched:
            continue
        base_s = _gating_s(seg)
        segments.append({
            "task_id": seg["task_id"],
            "tag": seg["tag"],
            "base_proc": seg["proc"],
            "new_proc": None,
            "base_s": base_s,
            "new_s": 0.0,
            "delta_s": -base_s,
            "status": "vanished",
        })
    delta_s = new_path["e2e_s"] - base_path["e2e_s"]
    attributed_s = sum(s["delta_s"] for s in segments)
    return {
        "source": new_path["source"],
        "base_e2e_s": base_path["e2e_s"],
        "new_e2e_s": new_path["e2e_s"],
        "delta_s": delta_s,
        "attributed_s": attributed_s,
        "residual_s": attributed_s - delta_s,
        "segments": segments,
    }


def diff_critpath_docs(base: dict, new: dict,
                       tol_s: float = DIFF_TOL_S) -> dict:
    """Diff two ``repro.critpath/v1`` documents (see module docstring)."""
    base_paths = {p["source"]: p for p in base["paths"]}
    new_paths = {p["source"]: p for p in new["paths"]}
    only_base = sorted(s for s in base_paths if s not in new_paths)
    only_new = sorted(s for s in new_paths if s not in base_paths)
    requests = [
        _diff_request(base_paths[source], new_paths[source], tol_s)
        for source in base_paths if source in new_paths
    ]
    by_stage: Dict[str, float] = {}
    by_proc: Dict[str, float] = {}
    by_status = {status: 0 for status in DIFF_STATUSES}
    for req in requests:
        for seg in req["segments"]:
            by_stage[seg["tag"]] = (by_stage.get(seg["tag"], 0.0)
                                    + seg["delta_s"])
            proc = seg["new_proc"] or seg["base_proc"]
            by_proc[proc] = by_proc.get(proc, 0.0) + seg["delta_s"]
            by_status[seg["status"]] += 1
    base_e2e = sum(r["base_e2e_s"] for r in requests)
    new_e2e = sum(r["new_e2e_s"] for r in requests)
    identical = (
        not only_base and not only_new
        and all(s["status"] == "unchanged"
                for r in requests for s in r["segments"])
        and all(abs(r["delta_s"]) <= tol_s for r in requests)
    )
    contributors = sorted(
        ({"tag": tag, "delta_s": delta,
          "share": (delta / (new_e2e - base_e2e)
                    if abs(new_e2e - base_e2e) > tol_s else None)}
         for tag, delta in by_stage.items()),
        key=lambda c: (-abs(c["delta_s"]), c["tag"]),
    )
    return {
        "schema": DIFF_SCHEMA,
        "kind": "critpath",
        "tol_s": tol_s,
        "base": {"source": base.get("source", "?"),
                 "n_paths": len(base_paths)},
        "new": {"source": new.get("source", "?"),
                "n_paths": len(new_paths)},
        "identical": identical,
        "e2e": {"base_s": base_e2e, "new_s": new_e2e,
                "delta_s": new_e2e - base_e2e},
        "n_requests": len(requests),
        "only_base": only_base,
        "only_new": only_new,
        "by_stage": {t: by_stage[t] for t in sorted(by_stage)},
        "by_proc": {p: by_proc[p] for p in sorted(by_proc)},
        "by_status": by_status,
        "top_contributors": contributors,
        "requests": sorted(requests,
                           key=lambda r: (-abs(r["delta_s"]),
                                          r["source"])),
    }


def segment_deltas(doc: dict) -> Dict[str, float]:
    """Per-task gating-time deltas of a critpath diff, keyed by task id
    — feed to ``export_service_trace(..., deltas=...)`` to paint the
    regression onto a Perfetto timeline."""
    if doc.get("kind") != "critpath":
        raise DiffError(f"segment_deltas needs a critpath diff, "
                        f"got kind {doc.get('kind')!r}")
    out: Dict[str, float] = {}
    for req in doc["requests"]:
        for seg in req["segments"]:
            out[seg["task_id"]] = (out.get(seg["task_id"], 0.0)
                                   + seg["delta_s"])
    return out


# -- profile -----------------------------------------------------------------


def diff_profile_docs(base: dict, new: dict,
                      tol_s: float = DIFF_TOL_S) -> dict:
    """Diff two ``repro.profile/v1`` reports: per-operator busy deltas
    and per-processor busy/idle drift."""
    base_ops = {(o["proc"], o["tag"]): o for o in base["operators"]}
    new_ops = {(o["proc"], o["tag"]): o for o in new["operators"]}
    operators = []
    for key in sorted(set(base_ops) | set(new_ops)):
        b, n = base_ops.get(key), new_ops.get(key)
        base_s = b["busy_s"] if b else 0.0
        new_s = n["busy_s"] if n else 0.0
        delta_s = new_s - base_s
        if b is None:
            status = "appeared"
        elif n is None:
            status = "vanished"
        else:
            status = _status(delta_s, tol_s)
        operators.append({
            "proc": key[0], "tag": key[1],
            "base_busy_s": base_s, "new_busy_s": new_s,
            "delta_s": delta_s, "status": status,
        })
    base_procs = {p["proc"]: p for p in base["processors"]}
    new_procs = {p["proc"]: p for p in new["processors"]}
    processors = []
    for proc in sorted(set(base_procs) | set(new_procs)):
        b = base_procs.get(proc, {})
        n = new_procs.get(proc, {})
        causes = sorted(set(b.get("idle_by_cause", {}))
                        | set(n.get("idle_by_cause", {})))
        processors.append({
            "proc": proc,
            "delta_busy_s": n.get("busy_s", 0.0) - b.get("busy_s", 0.0),
            "delta_idle_s": n.get("idle_s", 0.0) - b.get("idle_s", 0.0),
            "delta_idle_by_cause": {
                c: (n.get("idle_by_cause", {}).get(c, 0.0)
                    - b.get("idle_by_cause", {}).get(c, 0.0))
                for c in causes
            },
        })
    movers = [o for o in operators if o["status"] != "unchanged"]
    identical = (
        not movers
        and all(abs(p["delta_busy_s"]) <= tol_s
                and abs(p["delta_idle_s"]) <= tol_s
                for p in processors)
    )
    return {
        "schema": DIFF_SCHEMA,
        "kind": "profile",
        "tol_s": tol_s,
        "base": {"source": "profile", "window_s": base["window_s"]},
        "new": {"source": "profile", "window_s": new["window_s"]},
        "identical": identical,
        "window": {"base_s": base["window_s"], "new_s": new["window_s"],
                   "delta_s": new["window_s"] - base["window_s"]},
        "operators": sorted(operators,
                            key=lambda o: (-abs(o["delta_s"]),
                                           o["proc"], o["tag"])),
        "processors": processors,
    }


# -- steps -------------------------------------------------------------------

_BREAKDOWN_KEYS = ("queue_s", "admission_s", "retry_s", "prefill_s",
                   "decode_s", "turnaround_s")


def diff_steps_docs(base: dict, new: dict,
                    tol_s: float = DIFF_TOL_S) -> dict:
    """Diff two ``repro.steps/v1`` logs: per-scheduler-decision action
    counts, occupancy drift, per-request breakdown deltas."""
    from repro.obs.steplog import decision_mix, occupancy_summary

    base_mix = decision_mix(base["decisions"])
    new_mix = decision_mix(new["decisions"])
    decisions = {
        action: {
            "base": base_mix.get(action, 0),
            "new": new_mix.get(action, 0),
            "delta": new_mix.get(action, 0) - base_mix.get(action, 0),
        }
        for action in sorted(set(base_mix) | set(new_mix))
    }
    base_occ = occupancy_summary(base["steps"])
    new_occ = occupancy_summary(new["steps"])
    occupancy = {
        key: {"base": base_occ.get(key), "new": new_occ.get(key),
              "delta": ((new_occ.get(key) or 0.0)
                        - (base_occ.get(key) or 0.0))}
        for key in sorted(set(base_occ) | set(new_occ))
        if _num(base_occ.get(key)) or _num(new_occ.get(key))
    }
    base_reqs = {r["request_id"]: r for r in base["requests"]}
    new_reqs = {r["request_id"]: r for r in new["requests"]}
    requests = []
    for rid in sorted(set(base_reqs) & set(new_reqs)):
        b, n = base_reqs[rid], new_reqs[rid]
        requests.append({
            "request_id": rid,
            "base_status": b["status"],
            "new_status": n["status"],
            "delta_s": (n["breakdown"]["turnaround_s"]
                        - b["breakdown"]["turnaround_s"]),
            "breakdown": {
                key: n["breakdown"][key] - b["breakdown"][key]
                for key in _BREAKDOWN_KEYS
            },
        })
    only_base = sorted(set(base_reqs) - set(new_reqs))
    only_new = sorted(set(new_reqs) - set(base_reqs))
    identical = (
        not only_base and not only_new
        and all(d["delta"] == 0 for d in decisions.values())
        and all(abs(r["delta_s"]) <= tol_s for r in requests)
        and all(r["base_status"] == r["new_status"] for r in requests)
    )
    return {
        "schema": DIFF_SCHEMA,
        "kind": "steps",
        "tol_s": tol_s,
        "base": {"source": base.get("source", "?"),
                 "n_steps": base["n_steps"]},
        "new": {"source": new.get("source", "?"),
                "n_steps": new["n_steps"]},
        "identical": identical,
        "decisions": decisions,
        "occupancy": occupancy,
        "only_base": only_base,
        "only_new": only_new,
        "requests": sorted(requests,
                           key=lambda r: (-abs(r["delta_s"]),
                                          r["request_id"])),
    }


# -- fleet -------------------------------------------------------------------

#: Per-device scoreboard fields diffed between fleet reports, with
#: whether a nonzero delta counts as drift at ``tol_s`` (floats) or
#: exactly (counts).
_DEVICE_FIELDS = ("n_completed", "n_rejected", "n_timeout", "n_failed",
                  "n_faults", "ttft_p50_s", "ttft_p95_s", "mean_itl_s",
                  "goodput_rps")


def diff_fleet_docs(base: dict, new: dict,
                    tol_s: float = DIFF_TOL_S) -> dict:
    """Diff two ``repro.fleet/v1`` reports: per-device drift and
    merged-sketch quantile shifts."""
    base_devs = {d["name"]: d for d in base["devices"]}
    new_devs = {d["name"]: d for d in new["devices"]}
    only_base = sorted(set(base_devs) - set(new_devs))
    only_new = sorted(set(new_devs) - set(base_devs))
    devices = []
    for name in sorted(set(base_devs) & set(new_devs)):
        b, n = base_devs[name], new_devs[name]
        deltas = {}
        for field in _DEVICE_FIELDS:
            bv, nv = b.get(field), n.get(field)
            deltas[field] = ((nv - bv) if _num(bv) and _num(nv)
                             else (None if bv == nv else "changed"))
        drift = any(
            (isinstance(d, str))
            or (d is not None and abs(d) > (tol_s if field.endswith("_s")
                                            else 0))
            for field, d in deltas.items()
        )
        devices.append({"name": name, "drift": drift, "deltas": deltas})
    base_pcts = base.get("percentiles", {})
    new_pcts = new.get("percentiles", {})
    percentiles = {}
    for key in sorted(set(base_pcts) & set(new_pcts)):
        percentiles[key] = {
            q: new_pcts[key][q] - base_pcts[key][q]
            for q in sorted(set(base_pcts[key]) & set(new_pcts[key]))
            if _num(base_pcts[key][q]) and _num(new_pcts[key][q])
        }
    base_mix = base.get("scheduler", {}).get("decision_counts", {})
    new_mix = new.get("scheduler", {}).get("decision_counts", {})
    decisions = {
        action: {
            "base": base_mix.get(action, 0),
            "new": new_mix.get(action, 0),
            "delta": new_mix.get(action, 0) - base_mix.get(action, 0),
        }
        for action in sorted(set(base_mix) | set(new_mix))
    }
    identical = (
        not only_base and not only_new
        and not any(d["drift"] for d in devices)
        and all(abs(v) <= tol_s for shifts in percentiles.values()
                for v in shifts.values())
        and all(d["delta"] == 0 for d in decisions.values())
    )
    return {
        "schema": DIFF_SCHEMA,
        "kind": "fleet",
        "tol_s": tol_s,
        "base": {"source": f"fleet seed={base.get('seed')}",
                 "n_devices": base["n_devices"]},
        "new": {"source": f"fleet seed={new.get('seed')}",
                "n_devices": new["n_devices"]},
        "identical": identical,
        "only_base": only_base,
        "only_new": only_new,
        "devices": devices,
        "percentiles": percentiles,
        "decisions": decisions,
    }


# -- dispatch ----------------------------------------------------------------


def diff_docs(base: dict, new: dict, tol_s: float = DIFF_TOL_S) -> dict:
    """Diff two same-schema artifacts into one ``repro.diff/v1`` doc."""
    for name, doc in (("base", base), ("new", new)):
        if not isinstance(doc, dict) or "schema" not in doc:
            raise DiffError(f"{name} document has no 'schema' key")
    if base["schema"] != new["schema"]:
        raise DiffError(
            f"cannot diff {base['schema']!r} against {new['schema']!r} "
            f"— both documents must share a schema"
        )
    kind = _KIND_BY_SCHEMA.get(base["schema"])
    if kind is None:
        raise DiffError(
            f"no diff support for schema {base['schema']!r} "
            f"(diffable: {', '.join(sorted(_KIND_BY_SCHEMA))})"
        )
    fn = {"critpath": diff_critpath_docs, "profile": diff_profile_docs,
          "steps": diff_steps_docs, "fleet": diff_fleet_docs}[kind]
    doc = fn(base, new, tol_s=tol_s)
    validate_diff(doc)
    return doc


def diff_json(doc: dict) -> str:
    """Deterministic JSON bytes of a diff document."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


# -- validation --------------------------------------------------------------


def validate_diff(doc: dict, tol_s: Optional[float] = None) -> None:
    """Structural + conservation check of a ``repro.diff/v1`` document
    (raises :class:`DiffError`).  Every kind has a known ``kind``, a
    positive ``tol_s`` and a boolean ``identical``.  A critpath diff is
    the tentpole invariant: closed-taxonomy statuses, a zero base (new)
    side on appeared (vanished) segments, ``delta = new - base``,
    per-segment deltas telescoping to each request's e2e delta (with
    the stored ``attributed_s`` and ``residual_s`` agreeing) and those
    to the total within ``tol_s`` (the document's by default); and
    ``identical`` only when nothing moved."""
    check_schema(doc, DIFF_SCHEMA, DiffError)
    require_keys(doc, ("kind", "tol_s", "base", "new", "identical"),
                 "diff doc", DiffError)
    if doc["kind"] not in DIFF_KINDS:
        raise DiffError(f"unknown diff kind {doc['kind']!r}")
    if not finite(doc["tol_s"]) or doc["tol_s"] <= 0:
        raise DiffError("tol_s must be a positive number")
    if not isinstance(doc["identical"], bool):
        raise DiffError("diff document missing boolean 'identical'")
    if doc["kind"] != "critpath":
        return
    tol_s = doc["tol_s"] if tol_s is None else tol_s
    require_keys(doc, ("e2e", "n_requests", "only_base", "only_new",
                       "by_stage", "by_proc", "by_status",
                       "top_contributors", "requests"),
                 "critpath diff", DiffError)
    if sorted(doc["by_status"]) != sorted(DIFF_STATUSES):
        raise DiffError(f"by_status keys {sorted(doc['by_status'])}")
    if doc["n_requests"] != len(doc["requests"]):
        raise DiffError("n_requests != len(requests)")
    moved = bool(doc["only_base"] or doc["only_new"])
    total_delta = 0.0
    for i, req in enumerate(doc["requests"]):
        require_keys(req, ("source", "base_e2e_s", "new_e2e_s", "delta_s",
                           "attributed_s", "residual_s", "segments"),
                     f"requests[{i}]", DiffError)
        where, attributed, j = req["source"], 0.0, 0
        try:
            for j, seg in enumerate(req["segments"]):
                task, _tag, base, new, delta, status = _SEGMENT_FIELDS(seg)
                if status not in DIFF_STATUSES:
                    raise DiffError(f"unknown segment status {status!r}")
                if status == "appeared" and base != 0.0:
                    raise DiffError(f"appeared segment {task} has base "
                                    f"time")
                if status == "vanished" and new != 0.0:
                    raise DiffError(f"vanished segment {task} has new time")
                if not abs(delta - (new - base)) <= tol_s:
                    raise DiffError(f"segment {task} delta_s != new_s - "
                                    f"base_s")
                moved = moved or status != "unchanged"
                attributed += delta
        except KeyError as exc:
            raise DiffError(f"{where}: segments[{j}]: missing {exc}"
                            ) from None
        except DiffError as exc:
            raise DiffError(f"{where}: {exc}") from None
        observed = req["new_e2e_s"] - req["base_e2e_s"]
        if not abs(req["delta_s"] - observed) <= tol_s:
            raise DiffError(f"{where}: delta_s != new_e2e_s - base_e2e_s")
        if not abs(attributed - observed) <= tol_s:
            raise DiffError(
                f"{where}: attributed segment deltas {attributed!r} do "
                f"not telescope to the observed e2e delta {observed!r} "
                f"(residual {attributed - observed!r} > {tol_s!r} s)")
        if not abs(req["attributed_s"] - attributed) <= tol_s:
            raise DiffError(f"{where}: attributed_s != sum of segment "
                            f"deltas")
        if not abs(req["residual_s"] - (attributed - observed)) <= tol_s:
            raise DiffError(f"{where}: residual_s != attributed - "
                            f"observed e2e delta")
        moved = moved or abs(observed) > tol_s
        total_delta += observed
    e2e_delta = doc["e2e"]["delta_s"]
    if not abs(e2e_delta - total_delta) <= tol_s * max(1, len(
            doc["requests"])):
        raise DiffError(f"totals: e2e delta {e2e_delta!r} != sum of "
                        f"per-request deltas {total_delta!r}")
    if doc["identical"] and moved:
        raise DiffError("diff marked identical but requests were "
                        "unmatched, or segments or e2e moved")


# -- presentation ------------------------------------------------------------


def diff_table(doc: dict, top: int = 10):
    """Render-ready summary :class:`~repro.eval.report.Table` of a
    diff document — the biggest movers of the relevant kind."""
    from repro.eval.report import Table

    kind = doc["kind"]
    if kind == "critpath":
        table = Table(
            title=(f"Run diff — {doc['base']['source']} vs "
                   f"{doc['new']['source']}"),
            columns=["stage", "delta ms", "share %"],
        )
        for c in doc["top_contributors"][:top]:
            table.add_row(c["tag"], c["delta_s"] * 1e3,
                          None if c["share"] is None
                          else c["share"] * 100)
        e2e = doc["e2e"]
        table.add_note(
            f"e2e {e2e['base_s'] * 1e3:.3f} ms -> "
            f"{e2e['new_s'] * 1e3:.3f} ms "
            f"(delta {e2e['delta_s'] * 1e3:+.3f} ms over "
            f"{doc['n_requests']} matched requests); per-stage deltas "
            f"telescope to the e2e delta within "
            f"{doc['tol_s']:.0e} s (validate_diff)"
        )
    elif kind == "profile":
        table = Table(
            title="Profile diff — per-operator busy-time movers",
            columns=["proc", "operator", "base ms", "new ms",
                     "delta ms", "status"],
        )
        for o in doc["operators"][:top]:
            if o["status"] == "unchanged":
                continue
            table.add_row(o["proc"], o["tag"], o["base_busy_s"] * 1e3,
                          o["new_busy_s"] * 1e3, o["delta_s"] * 1e3,
                          o["status"])
    elif kind == "steps":
        table = Table(
            title="Step-log diff — scheduler decision mix",
            columns=["action", "base", "new", "delta"],
        )
        for action, d in doc["decisions"].items():
            if d["delta"] == 0:
                continue
            table.add_row(action, d["base"], d["new"], d["delta"])
    elif kind == "fleet":
        table = Table(
            title="Fleet diff — per-device drift",
            columns=["device", "delta ttft p95 s", "delta mean itl s",
                     "delta goodput", "delta completed"],
        )
        for d in doc["devices"]:
            if not d["drift"]:
                continue
            deltas = d["deltas"]
            table.add_row(d["name"],
                          deltas.get("ttft_p95_s"),
                          deltas.get("mean_itl_s"),
                          deltas.get("goodput_rps"),
                          deltas.get("n_completed"))
    else:  # pragma: no cover - validate_diff rejects unknown kinds
        raise DiffError(f"unknown diff kind {kind!r}")
    if doc["identical"]:
        table.add_note("runs are identical within tolerance")
    return table


def diff_narrative(doc: dict, top: int = 3) -> List[str]:
    """Per-request regression narrative of a critpath diff — one
    paragraph block per moved request, biggest movers first."""
    if doc["kind"] != "critpath":
        raise DiffError(f"narratives need a critpath diff, got "
                        f"{doc['kind']!r}")
    lines: List[str] = []
    if doc["identical"]:
        lines.append("runs are identical within tolerance — every "
                     "aligned segment is unchanged")
        return lines
    movers = [c for c in doc["top_contributors"]
              if abs(c["delta_s"]) > doc["tol_s"]]
    if movers:
        lines.append("top stage contributors: " + ", ".join(
            f"{c['tag']} ({c['delta_s'] * 1e3:+.3f} ms)"
            for c in movers[:top]))
    for req in doc["requests"]:
        movers = [s for s in req["segments"]
                  if s["status"] != "unchanged"]
        if not movers and abs(req["delta_s"]) <= doc["tol_s"]:
            continue
        lines.append(
            f"{req['source']}: e2e {req['base_e2e_s'] * 1e3:.3f} ms -> "
            f"{req['new_e2e_s'] * 1e3:.3f} ms "
            f"({req['delta_s'] * 1e3:+.3f} ms)"
        )
        movers.sort(key=lambda s: (-abs(s["delta_s"]), s["task_id"]))
        for seg in movers[:top]:
            share = (seg["delta_s"] / req["delta_s"] * 100
                     if abs(req["delta_s"]) > doc["tol_s"] else None)
            share_txt = "" if share is None else f" ({share:+.1f}%)"
            if seg["status"] == "appeared":
                verb = f"appeared on the path (+{seg['new_s'] * 1e3:.3f} ms)"
            elif seg["status"] == "vanished":
                verb = f"left the path ({-seg['base_s'] * 1e3:.3f} ms)"
            else:
                verb = (f"{seg['status']} "
                        f"{seg['delta_s'] * 1e3:+.3f} ms")
            lines.append(f"  {seg['task_id']} [{seg['tag']}] {verb}"
                         f"{share_txt}")
        if len(movers) > top:
            rest = sum(s["delta_s"] for s in movers[top:])
            lines.append(f"  ... {len(movers) - top} more segments "
                         f"({rest * 1e3:+.3f} ms)")
    if doc["only_base"]:
        lines.append(f"only in base: {', '.join(doc['only_base'])}")
    if doc["only_new"]:
        lines.append(f"only in new: {', '.join(doc['only_new'])}")
    return lines


__all__ = [
    "DIFF_TOL_S",
    "DiffError",
    "diff_docs",
    "diff_critpath_docs",
    "diff_profile_docs",
    "diff_steps_docs",
    "diff_fleet_docs",
    "diff_json",
    "diff_narrative",
    "diff_table",
    "segment_deltas",
    "validate_diff",
]
