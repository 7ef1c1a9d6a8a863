"""Schema-versioned benchmark artifacts with noise-aware comparison.

``benchmarks/results/`` used to be text-only: human-readable tables that
no tool could diff, so a performance regression would sail through CI
silently.  This module gives every benchmark a machine-readable twin —
``BENCH_<name>.json`` (schema ``repro.bench/v1``) holding the table's
numeric cells as named metrics — plus the comparison logic behind
``llmnpu bench-compare``.

Design rules:

* **Metrics are deterministic, env is informational.**  The ``metrics``
  section is a pure function of the simulation (the drivers are
  deterministic), so identical runs produce identical metric values;
  the ``env`` section (git SHA, python version, platform) is recorded
  for provenance but never compared.  No timestamps anywhere.
* **Directions are explicit.**  Each metric carries ``direction``:
  ``"lower"`` (latency/energy — an increase is a regression),
  ``"higher"`` (throughput — a decrease is a regression) or ``"info"``
  (counts, configuration echoes — never gated).  Directions are
  inferred from the table column names; unknown columns default to
  ``info`` so a new column can never produce a false CI failure.
* **Noise-aware thresholds.**  A metric regresses only when it moves
  past ``max(rel_tol * |baseline|, abs_tol)`` in its bad direction —
  byte-identical reruns always compare clean, and a 10% latency
  regression is always caught at the default 5% tolerance.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import subprocess
import sys
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.errors import ReproError

#: Schema identifiers stamped into benchmark artifacts and
#: ``bench-compare --json-out`` delta documents.
from repro.obs.schemas import (  # noqa: E402 (constant table)
    BENCH_SCHEMA,
    BENCHDIFF_SCHEMA,
    check_schema,
    finite,
    require_keys,
)

#: Default relative regression threshold (fraction of the baseline).
DEFAULT_REL_TOL = 0.05

#: Default absolute regression threshold (units of the metric).
DEFAULT_ABS_TOL = 1e-9

#: Metric directions.
DIRECTIONS = ("lower", "higher", "info")

#: ``bench-compare`` per-metric verdicts, and the ones that gate.
GATING_VERDICTS = ("regressed", "missing")
VERDICTS = ("ok", "improved", "new") + GATING_VERDICTS

#: Column-name fragments that mark a lower-is-better metric.
_LOWER_HINTS = ("latency", "turnaround", "queue", "retry", "bubble",
                "energy", "prepare", "prefill s", "decode s", "e2e",
                "ttft", "tpot", "shed", "idle", "sync")

#: Column-name fragments that mark a higher-is-better metric.
_HIGHER_HINTS = ("tok/s", "req/s", "rps", "throughput", "/s",
                 "completion", "speedup", "hit rate", "util")


class ArtifactError(ReproError):
    """Benchmark artifact construction, IO, or comparison failure."""


def metric_direction(column: str) -> str:
    """Infer a metric's direction from its table column name.

    Checks higher-is-better hints first (``tok/s`` must not match the
    bare ``s`` suffix), then lower-is-better hints and time/energy unit
    suffixes; anything unrecognized is ``info`` and never gated.
    """
    name = column.lower().strip()
    for hint in _HIGHER_HINTS:
        if hint in name:
            return "higher"
    for hint in _LOWER_HINTS:
        if hint in name:
            return "lower"
    if name.endswith((" s", " ms", " us", " j", " mj", " mib", " bytes")):
        return "lower"
    return "info"


def _slug(text: str) -> str:
    """Metric-id fragment: lowercase, spaces/slashes to underscores."""
    out = []
    for ch in str(text).strip().lower():
        out.append(ch if ch.isalnum() or ch in "._%" else "_")
    slug = "".join(out)
    while "__" in slug:
        slug = slug.replace("__", "_")
    return slug.strip("_")


def metrics_from_table(table) -> Dict[str, dict]:
    """Extract named metrics from a :class:`~repro.eval.report.Table`.

    Each numeric cell becomes one metric ``<row_label>.<column>`` where
    the row label joins the row's string cells (the key columns).
    All-numeric rows are labelled by their first cell (the sweep key).
    """
    metrics: Dict[str, dict] = {}
    for i, row in enumerate(table.rows):
        keys = [str(c) for c in row if isinstance(c, str)]
        if keys:
            label = _slug("_".join(keys))
        elif row and row[0] is not None:
            label = _slug(str(row[0]))
        else:
            label = f"row{i}"
        for column, cell in zip(table.columns, row):
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                continue
            metric_id = f"{label}.{_slug(column)}"
            if metric_id in metrics:
                raise ArtifactError(
                    f"table {table.title!r}: duplicate metric id "
                    f"{metric_id!r} (non-unique row labels?)"
                )
            metrics[metric_id] = {
                "value": float(cell),
                "direction": metric_direction(column),
            }
    return metrics


def capture_env() -> Dict[str, str]:
    """Provenance for the ``env`` section (informational, never compared)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "platform": _platform.system().lower(),
    }


@dataclass
class BenchArtifact:
    """One benchmark's machine-readable results (``repro.bench/v1``)."""

    name: str
    metrics: Dict[str, dict]
    env: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": BENCH_SCHEMA,
            "name": self.name,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "env": {k: self.env[k] for k in sorted(self.env)},
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False)

    def save(self, path: str) -> str:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")
        return path


def make_artifact(name: str, tables,
                  env: Optional[Dict[str, str]] = None) -> BenchArtifact:
    """Build an artifact from one or more result tables.

    Metric ids from multiple tables are namespaced by a slug of each
    table's title to keep them collision-free.
    """
    if not isinstance(tables, (list, tuple)):
        tables = [tables]
    if not tables:
        raise ArtifactError(f"artifact {name!r}: no tables")
    metrics: Dict[str, dict] = {}
    for table in tables:
        extracted = metrics_from_table(table)
        prefix = "" if len(tables) == 1 else _slug(table.title) + "."
        for metric_id, record in extracted.items():
            full_id = prefix + metric_id
            if full_id in metrics:
                raise ArtifactError(
                    f"artifact {name!r}: duplicate metric {full_id!r}"
                )
            metrics[full_id] = record
    return BenchArtifact(
        name=name, metrics=metrics,
        env=capture_env() if env is None else dict(env),
    )


def validate_bench_doc(doc: dict) -> None:
    """Validate a ``repro.bench/v1`` artifact: a non-empty ``metrics``
    object whose records carry a finite ``value`` and a known
    ``direction``, and a string-valued ``env``."""
    check_schema(doc, BENCH_SCHEMA, ArtifactError)
    require_keys(doc, ("name", "metrics", "env"), "artifact", ArtifactError)
    metrics = doc["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise ArtifactError("metrics must be a non-empty object")
    for metric_id, record in metrics.items():
        where = f"metric {metric_id!r}"
        require_keys(record, ("value", "direction"), where, ArtifactError)
        if not finite(record["value"]):
            raise ArtifactError(f"{where}: 'value' must be a finite number")
        if record["direction"] not in DIRECTIONS:
            raise ArtifactError(f"{where}: direction "
                                f"{record['direction']!r} not in "
                                f"{sorted(DIRECTIONS)}")
    env = doc["env"]
    if not (isinstance(env, dict)
            and all(isinstance(v, str) for v in env.values())):
        raise ArtifactError("env must map names to strings")


def load_artifact(path: str) -> BenchArtifact:
    """Read and validate a ``repro.bench/v1`` file."""
    try:
        with open(path) as f:
            data = json.load(f)
        validate_bench_doc(data)
    except (OSError, ValueError, ArtifactError) as exc:
        raise ArtifactError(f"{path!r}: {exc}") from None
    return BenchArtifact(name=str(data["name"]), metrics=data["metrics"],
                         env=dict(data["env"]))


# -- comparison ---------------------------------------------------------------


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline→candidate movement and verdict."""

    metric: str
    direction: str
    baseline: Optional[float]
    candidate: Optional[float]
    verdict: str  # 'ok' | 'improved' | 'regressed' | 'missing' | 'new'
    #: Baseline artifact file this metric came from (set by
    #: :func:`compare_paths`; None when comparing in-memory artifacts).
    path: Optional[str] = None

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.candidate is None:
            return None
        return self.candidate - self.baseline

    @property
    def rel_delta(self) -> Optional[float]:
        if self.delta is None or self.baseline == 0:
            return None
        return self.delta / abs(self.baseline)


@dataclass
class Comparison:
    """Outcome of a baseline-vs-candidate artifact comparison."""

    baseline_name: str
    candidate_name: str
    rel_tol: float
    abs_tol: float
    deltas: List[MetricDelta]

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas
                if d.verdict in GATING_VERDICTS]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def table(self):
        """Per-metric delta table for terminal output."""
        from repro.eval.report import Table
        table = Table(
            title=(f"bench-compare: {self.baseline_name} -> "
                   f"{self.candidate_name}"),
            columns=["metric", "dir", "baseline", "candidate", "delta %",
                     "verdict"],
        )
        for d in self.deltas:
            rel = d.rel_delta
            table.add_row(
                d.metric, d.direction,
                d.baseline, d.candidate,
                None if rel is None else rel * 100.0,
                d.verdict,
            )
        table.add_note(
            f"threshold: max({self.rel_tol:.1%} of baseline, "
            f"{self.abs_tol:g}); 'info' metrics are never gated"
        )
        return table


def benchdiff_doc(comparison: Comparison) -> dict:
    """A comparison as a machine-readable ``repro.benchdiff/v1`` doc.

    ``llmnpu bench-compare --json-out`` writes this; the ``--explain``
    path consumes it to pick which regressed metrics need critpath
    attribution.  Deterministic: pure function of the comparison.
    """
    return {
        "schema": BENCHDIFF_SCHEMA,
        "baseline": comparison.baseline_name,
        "candidate": comparison.candidate_name,
        "rel_tol": comparison.rel_tol,
        "abs_tol": comparison.abs_tol,
        "ok": comparison.ok,
        "n_metrics": len(comparison.deltas),
        "n_regressed": len(comparison.regressions),
        "deltas": [
            {
                "metric": d.metric,
                "direction": d.direction,
                "baseline": d.baseline,
                "candidate": d.candidate,
                "delta": d.delta,
                "rel_delta": d.rel_delta,
                "verdict": d.verdict,
                "path": d.path,
            }
            for d in comparison.deltas
        ],
    }


def validate_benchdiff_doc(doc: dict) -> None:
    """Validate a ``repro.benchdiff/v1`` delta report: per-metric
    records with known directions and verdicts and null-or-finite
    numbers, ``n_metrics`` and ``n_regressed`` matching the records, and
    ``ok`` exactly when nothing regressed."""
    check_schema(doc, BENCHDIFF_SCHEMA, ArtifactError)
    require_keys(doc, ("baseline", "candidate", "rel_tol", "abs_tol", "ok",
                       "n_metrics", "n_regressed", "deltas"),
                 "benchdiff", ArtifactError)
    if doc["n_metrics"] != len(doc["deltas"]):
        raise ArtifactError("n_metrics != len(deltas)")
    n_regressed = 0
    for i, d in enumerate(doc["deltas"]):
        where = f"deltas[{i}]"
        require_keys(d, ("metric", "direction", "baseline", "candidate",
                         "delta", "rel_delta", "verdict"),
                     where, ArtifactError)
        if d["direction"] not in DIRECTIONS:
            raise ArtifactError(f"{where}: direction {d['direction']!r} "
                                f"not in {sorted(DIRECTIONS)}")
        if d["verdict"] not in VERDICTS:
            raise ArtifactError(f"{where}: verdict {d['verdict']!r} not "
                                f"in {sorted(VERDICTS)}")
        for key in ("baseline", "candidate", "delta", "rel_delta"):
            if d[key] is not None and not finite(d[key]):
                raise ArtifactError(f"{where}: {key!r} must be null or "
                                    f"finite")
        n_regressed += d["verdict"] in GATING_VERDICTS
    if n_regressed != doc["n_regressed"]:
        raise ArtifactError(f"n_regressed {doc['n_regressed']!r} != "
                            f"gating verdict count {n_regressed}")
    if doc["ok"] != (n_regressed == 0):
        raise ArtifactError("ok flag disagrees with the regression count")


def benchdiff_json(comparison: Comparison) -> str:
    """Deterministic JSON bytes of :func:`benchdiff_doc`."""
    return json.dumps(benchdiff_doc(comparison), indent=2, sort_keys=True,
                      allow_nan=False)


def compare_artifacts(baseline: BenchArtifact, candidate: BenchArtifact,
                      rel_tol: float = DEFAULT_REL_TOL,
                      abs_tol: float = DEFAULT_ABS_TOL) -> Comparison:
    """Compare two artifacts metric-by-metric.

    A directional metric regresses when it moves past
    ``max(rel_tol * |baseline|, abs_tol)`` in its bad direction, and
    improves past the same margin in its good direction.  Metrics
    missing from the candidate are regressions (a benchmark silently
    dropping a measurement must fail loudly); metrics new in the
    candidate are reported but never fail.
    """
    if rel_tol < 0 or abs_tol < 0:
        raise ArtifactError("tolerances must be non-negative")
    deltas: List[MetricDelta] = []
    for metric_id in sorted(set(baseline.metrics) | set(candidate.metrics)):
        base = baseline.metrics.get(metric_id)
        cand = candidate.metrics.get(metric_id)
        if base is None:
            deltas.append(MetricDelta(
                metric=metric_id, direction=cand["direction"],
                baseline=None, candidate=float(cand["value"]),
                verdict="new",
            ))
            continue
        direction = base["direction"]
        if cand is None:
            deltas.append(MetricDelta(
                metric=metric_id, direction=direction,
                baseline=float(base["value"]), candidate=None,
                verdict=("missing" if direction != "info" else "ok"),
            ))
            continue
        base_v, cand_v = float(base["value"]), float(cand["value"])
        margin = max(rel_tol * abs(base_v), abs_tol)
        verdict = "ok"
        if direction == "lower":
            if cand_v > base_v + margin:
                verdict = "regressed"
            elif cand_v < base_v - margin:
                verdict = "improved"
        elif direction == "higher":
            if cand_v < base_v - margin:
                verdict = "regressed"
            elif cand_v > base_v + margin:
                verdict = "improved"
        deltas.append(MetricDelta(
            metric=metric_id, direction=direction,
            baseline=base_v, candidate=cand_v, verdict=verdict,
        ))
    return Comparison(
        baseline_name=baseline.name or "baseline",
        candidate_name=candidate.name or "candidate",
        rel_tol=rel_tol, abs_tol=abs_tol, deltas=deltas,
    )


def compare_paths(baseline_path: str, candidate_path: str,
                  rel_tol: float = DEFAULT_REL_TOL,
                  abs_tol: float = DEFAULT_ABS_TOL) -> Comparison:
    """Compare two artifact files, or two directories of them pairwise.

    Directory mode matches files by name; a baseline file without a
    candidate counterpart is a regression (coverage must not silently
    shrink), while extra candidate files are ignored.
    """
    if os.path.isdir(baseline_path) != os.path.isdir(candidate_path):
        raise ArtifactError(
            "baseline and candidate must both be files or both be "
            "directories"
        )
    if not os.path.isdir(baseline_path):
        comparison = compare_artifacts(
            load_artifact(baseline_path), load_artifact(candidate_path),
            rel_tol=rel_tol, abs_tol=abs_tol,
        )
        comparison.deltas = [replace(d, path=baseline_path)
                             for d in comparison.deltas]
        return comparison
    names = sorted(
        n for n in os.listdir(baseline_path)
        if n.startswith("BENCH_") and n.endswith(".json")
    )
    if not names:
        # An empty baseline would make every comparison vacuously pass —
        # the same silent-shrink failure mode as a missing metric, so it
        # is a usage error (`llmnpu bench-compare` exits 2), never a
        # clean run.
        raise ArtifactError(
            f"no BENCH_*.json artifacts under {baseline_path!r} — "
            f"an empty baseline cannot gate anything (wrong directory?)"
        )
    deltas: List[MetricDelta] = []
    for name in names:
        base = load_artifact(os.path.join(baseline_path, name))
        cand_file = os.path.join(candidate_path, name)
        base_file = os.path.join(baseline_path, name)
        if not os.path.exists(cand_file):
            deltas.append(MetricDelta(
                metric=f"{base.name or name}.<artifact>",
                direction="info", baseline=float(len(base.metrics)),
                candidate=None, verdict="missing", path=base_file,
            ))
            continue
        cand = load_artifact(cand_file)
        prefix = base.name or name
        for d in compare_artifacts(base, cand, rel_tol=rel_tol,
                                   abs_tol=abs_tol).deltas:
            deltas.append(MetricDelta(
                metric=f"{prefix}.{d.metric}", direction=d.direction,
                baseline=d.baseline, candidate=d.candidate,
                verdict=d.verdict, path=base_file,
            ))
    return Comparison(
        baseline_name=baseline_path, candidate_name=candidate_path,
        rel_tol=rel_tol, abs_tol=abs_tol, deltas=deltas,
    )
