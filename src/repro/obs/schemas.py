"""Single source of truth for the ``repro.*/v1`` artifact schemas.

Every schema-versioned JSON document the repo emits declares itself via
a ``"schema"`` key whose value lives here and **only** here.  Producer
modules (``obs/profile.py``, ``obs/artifact.py``, ``obs/monitor.py``,
``obs/sketch.py``, ``obs/steplog.py``, ``eval/fleet.py``) import their
constant from this table, and :func:`repro.obs.validate.validate_doc`
dispatches on it to the one validator each schema has.

The small helpers at the bottom are the primitives those validators
share: the schema stamp, required keys, finiteness, quantile read-outs.
"""

import math

#: Per-operator/per-processor attribution reports (``llmnpu profile``).
PROFILE_SCHEMA = "repro.profile/v1"

#: Machine-readable benchmark artifacts (``BENCH_<name>.json``).
BENCH_SCHEMA = "repro.bench/v1"

#: Burn-rate incident timelines (:class:`~repro.obs.monitor.SloMonitor`).
ALERTS_SCHEMA = "repro.alerts/v1"

#: Fleet roll-up reports (``llmnpu fleet``).
FLEET_SCHEMA = "repro.fleet/v1"

#: Serialized mergeable quantile sketches.
SKETCH_SCHEMA = "repro.sketch/v1"

#: Step-level scheduler telemetry logs (``obs/steplog.py``).
STEPS_SCHEMA = "repro.steps/v1"

#: Critical-path attribution documents (``obs/critical_path.py``,
#: ``llmnpu critpath``).
CRITPATH_SCHEMA = "repro.critpath/v1"

#: Run-to-run differential attribution documents (``obs/diff.py``,
#: ``llmnpu diff``).
DIFF_SCHEMA = "repro.diff/v1"

#: Machine-readable ``bench-compare`` delta documents
#: (``llmnpu bench-compare --json-out``).
BENCHDIFF_SCHEMA = "repro.benchdiff/v1"

#: The ``repro.diff/v1`` per-segment status taxonomy: how an aligned
#: critical-path segment moved between the base and new runs (see
#: ``obs/diff.py``).
DIFF_STATUSES = (
    "grew",
    "shrank",
    "appeared",
    "vanished",
    "unchanged",
)

#: The ``repro.diff/v1`` document kinds — which artifact pair was
#: aligned (see ``obs/diff.py`` for the per-kind delta sections).
DIFF_KINDS = (
    "critpath",
    "profile",
    "steps",
    "fleet",
)

#: The ``repro.critpath/v1`` edge taxonomy: what gated each on-path
#: segment (see ``obs/critical_path.py`` for the per-edge semantics).
CRITPATH_EDGES = (
    "origin",
    "inferred",
    "resource",
    "dep",
    "service",
)

#: The ``repro.steps/v1`` decision taxonomy (see ``obs/steplog.py`` for
#: the per-action semantics).
DECISION_ACTIONS = (
    "admitted",
    "admission-rejected",
    "started",
    "kv-deferred",
    "concurrency-deferred",
    "dispatched",
    "chunk-scheduled",
    "decode-scheduled",
    "budget-exhausted",
    "decode-rotated-out",
    "completed",
    "rejected",
    "cancelled",
    "timeout",
    "failed",
)

#: Every document schema, keyed by its ``"schema"`` string, with the
#: one-line description ``scripts/check_trace_schema.py`` prints for a
#: file that validates.
SCHEMA_TABLE = {
    PROFILE_SCHEMA: "time/energy attribution report",
    BENCH_SCHEMA: "benchmark artifact with directional metrics",
    ALERTS_SCHEMA: "SLO burn-rate incident timeline",
    FLEET_SCHEMA: "fleet telemetry roll-up",
    SKETCH_SCHEMA: "mergeable quantile sketch",
    STEPS_SCHEMA: "scheduler step log: per-step telemetry + decisions",
    CRITPATH_SCHEMA: "critical-path attribution with per-segment slack",
    DIFF_SCHEMA: "run-to-run differential attribution",
    BENCHDIFF_SCHEMA: "bench-compare machine-readable delta report",
}


def finite(value) -> bool:
    """A real, finite number (``bool`` is not a number here)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def check_schema(doc, schema: str, error) -> None:
    """Raise ``error`` unless ``doc`` is an object stamped ``schema``."""
    got = doc.get("schema") if isinstance(doc, dict) else type(doc).__name__
    if got != schema:
        raise error(f"expected schema {schema!r}, got {got!r}")


def require_keys(record, keys, where: str, error) -> None:
    """Raise ``error`` unless ``record`` is an object holding ``keys``."""
    if not isinstance(record, dict):
        raise error(f"{where}: must be an object")
    for key in keys:
        if key not in record:
            raise error(f"{where}: missing {key!r}")


def check_quantiles(record: dict, keys, where: str, error) -> None:
    """Raise ``error`` unless ``record["count"]`` is a non-negative
    integer and the quantile ``keys`` are null exactly when it is 0 and
    finite otherwise (histogram and sketch read-outs)."""
    count = record.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise error(f"{where}: count must be a non-negative integer")
    for key in keys:
        value = record.get(key)
        if count == 0 and value is not None:
            raise error(f"{where}: empty with non-null {key!r}")
        if count and not finite(value):
            raise error(f"{where}: non-finite {key!r}")


__all__ = [
    "PROFILE_SCHEMA",
    "BENCH_SCHEMA",
    "ALERTS_SCHEMA",
    "FLEET_SCHEMA",
    "SKETCH_SCHEMA",
    "STEPS_SCHEMA",
    "CRITPATH_SCHEMA",
    "DIFF_SCHEMA",
    "BENCHDIFF_SCHEMA",
    "DIFF_STATUSES",
    "DIFF_KINDS",
    "CRITPATH_EDGES",
    "DECISION_ACTIONS",
    "SCHEMA_TABLE",
    "check_quantiles",
    "check_schema",
    "finite",
    "require_keys",
]
