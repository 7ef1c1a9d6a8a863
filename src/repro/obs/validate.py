"""One validator, one writer and one reader per artifact schema.

Each ``repro.*/v1`` schema's validator lives next to the code building
its document; :data:`VALIDATORS` maps every ``"schema"`` string to it
and :func:`validate_doc` dispatches on a document's stamp.  The fleet
report, assembled by ``repro.eval.fleet``, has its validator here.

Every schema-stamped file goes through :func:`save_doc` and
:func:`load_doc`, which validate on both sides and gzip exactly when
the path ends in ``.gz``; :func:`dump_doc` is the canonical text both
use.
"""

from __future__ import annotations

import json
import zlib
from typing import Callable, Dict, Optional

from repro.errors import ReproError
from repro.obs import schemas
from repro.obs.artifact import validate_bench_doc, validate_benchdiff_doc
from repro.obs.critical_path import validate_critpath_doc
from repro.obs.diff import validate_diff
from repro.obs.export import open_text
from repro.obs.metrics import validate_metrics_doc
from repro.obs.monitor import validate_timeline_doc
from repro.obs.profile import validate_profile
from repro.obs.schemas import (
    check_quantiles,
    check_schema,
    finite,
    require_keys,
)
from repro.obs.sketch import validate_sketch_doc
from repro.obs.steplog import validate_steps_doc


class SchemaError(ReproError):
    """A document is not a valid schema-stamped artifact."""


_DEVICE_KEYS = ("name", "device", "seed", "n_requests", "n_completed",
                "n_incidents", "n_firing", "ttft_p50_s", "ttft_p95_s",
                "mean_itl_s", "goodput_rps")


def validate_fleet_doc(doc: dict) -> None:
    """Validate a ``repro.fleet/v1`` report: ``n_devices`` device records
    with finite-or-null latencies and non-negative goodput, a merged
    percentile block per sketch (null statistics exactly when empty),
    valid sketches, and a valid embedded alerts timeline."""
    check_schema(doc, schemas.FLEET_SCHEMA, SchemaError)
    require_keys(doc, ("n_devices", "devices", "percentiles", "sketches",
                       "alerts"), "fleet report", SchemaError)
    if len(doc["devices"]) != doc["n_devices"]:
        raise SchemaError("n_devices != len(devices)")
    for i, device in enumerate(doc["devices"]):
        where = f"devices[{i}]"
        require_keys(device, _DEVICE_KEYS, where, SchemaError)
        for key in ("ttft_p50_s", "ttft_p95_s", "mean_itl_s"):
            if device[key] is not None and not finite(device[key]):
                raise SchemaError(f"{where}: non-finite {key!r}")
        if not finite(device["goodput_rps"]) or device["goodput_rps"] < 0:
            raise SchemaError(f"{where}: goodput_rps must be finite and "
                              f"non-negative")
    if sorted(doc["percentiles"]) != sorted(doc["sketches"]):
        raise SchemaError("percentile keys do not match the sketches")
    for key, snap in doc["percentiles"].items():
        check_quantiles(snap, ("p50", "p90", "p95", "p99", "max"),
                        f"percentiles[{key!r}]", SchemaError)
        validate_sketch_doc(doc["sketches"][key])
    validate_timeline_doc(doc["alerts"])


#: The one validator of every ``repro.*/v1`` schema.
VALIDATORS: Dict[str, Callable[[dict], None]] = {
    schemas.PROFILE_SCHEMA: validate_profile,
    schemas.BENCH_SCHEMA: validate_bench_doc,
    schemas.ALERTS_SCHEMA: validate_timeline_doc,
    schemas.FLEET_SCHEMA: validate_fleet_doc,
    schemas.SKETCH_SCHEMA: validate_sketch_doc,
    schemas.STEPS_SCHEMA: validate_steps_doc,
    schemas.CRITPATH_SCHEMA: validate_critpath_doc,
    schemas.DIFF_SCHEMA: validate_diff,
    schemas.BENCHDIFF_SCHEMA: validate_benchdiff_doc,
    schemas.METRICS_SCHEMA: validate_metrics_doc,
}


def validate_doc(doc: dict) -> str:
    """Validate a schema-stamped document with its schema's validator;
    returns the schema.  Raises a :class:`~repro.errors.ReproError`,
    also for a record of the wrong shape that a validator reads without
    a check of its own (a missing key, a list for an object, a string
    for a number)."""
    if not isinstance(doc, dict) or "schema" not in doc:
        raise SchemaError("document has no 'schema' key")
    schema = doc["schema"]
    validator = VALIDATORS.get(schema) if isinstance(schema, str) else None
    if validator is None:
        raise SchemaError(f"unknown schema {schema!r} (expected "
                          f"one of {sorted(schemas.SCHEMA_TABLE)})")
    try:
        validator(doc)
    except KeyError as exc:
        raise SchemaError(f"malformed {schema} document: missing key "
                          f"{exc}") from None
    except (IndexError, TypeError, AttributeError) as exc:
        raise SchemaError(f"malformed {schema} document: {exc}") from None
    return schema


def dump_doc(doc: dict) -> str:
    """The canonical text of a document: two-space indent, sorted keys,
    no NaN or infinity; equal documents give equal strings."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def save_doc(path: str, doc: dict) -> str:
    """Validate ``doc``, then write its canonical text and a newline to
    ``path`` (see :func:`~repro.obs.export.open_text`); returns
    ``path``.  An invalid document raises before the file is opened."""
    validate_doc(doc)
    text = dump_doc(doc)
    with open_text(path, "w") as f:
        f.write(text)
        f.write("\n")
    return path


def load_doc(path: str, schema: Optional[str] = None) -> dict:
    """Read, parse and validate one artifact file (``.gz`` is
    decompressed), requiring its stamp to be ``schema`` when given.
    Every failure is one :class:`SchemaError` line naming ``path``."""
    try:
        with open_text(path) as f:
            doc = json.load(f)
    except (OSError, EOFError, ValueError, zlib.error) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    try:
        if schema is not None:
            check_schema(doc, schema, SchemaError)
        validate_doc(doc)
    except ReproError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return doc


__all__ = [
    "SchemaError",
    "VALIDATORS",
    "dump_doc",
    "load_doc",
    "save_doc",
    "validate_doc",
    "validate_fleet_doc",
]
