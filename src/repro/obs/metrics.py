"""A small metrics registry: counters, gauges, histograms.

Replaces the ad-hoc dict accounting the service layer grew — every
aggregate the serving path reports flows through one
:class:`MetricsRegistry`, so exporters (JSONL, snapshot dicts) see a
single deterministic catalogue instead of scraping dataclasses.

Design constraints, in order:

* **Determinism** — instruments are keyed by ``(name, sorted labels)``
  and snapshots are emitted in sorted key order; histogram quantiles are
  computed over the stored samples with ``numpy.percentile`` so they
  match the pre-registry accounting bit-for-bit.
* **No dependencies** — this is not a Prometheus client; it is the
  minimal instrument set the simulator's reports need.
* **Exact aggregation** — histograms keep raw samples (simulated
  workloads are small); sums are accumulated in observation order so a
  registry-backed report equals the hand-rolled ``sum()`` it replaced.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.obs.schemas import check_quantiles, finite, require_keys

LabelKey = Tuple[Tuple[str, str], ...]


class MetricsError(ReproError):
    """Metrics registry misuse (type conflict, unknown instrument...)."""


#: Instrument kinds a snapshot record may carry.
METRIC_KINDS = ("counter", "gauge", "histogram")


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _require_finite(kind: str, name: str, value: float) -> float:
    """Reject NaN/inf at the instrument boundary.

    A single NaN observation would silently poison ``Histogram.sum`` /
    ``mean`` and every report built on them; an inf would do the same to
    counters.  Rejection must happen here — downstream aggregation has
    no way to tell a poisoned sum from a real one.
    """
    value = float(value)
    if not math.isfinite(value):
        raise MetricsError(
            f"{kind} {name!r}: non-finite value {value!r}"
        )
    return value


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        amount = _require_finite("counter", self.name, amount)
        if amount < 0:
            raise MetricsError(
                f"counter {self.name!r}: negative increment {amount!r}"
            )
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "metric", "kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """Last-write-wins value."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = _require_finite("gauge", self.name, value)

    def snapshot(self) -> dict:
        return {"type": "metric", "kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Histogram:
    """Raw-sample histogram with exact quantiles.

    Samples are kept verbatim (simulated runs observe at most a few
    thousand values), so ``sum``/``mean``/``percentile`` reproduce the
    exact arithmetic of the list comprehensions they replaced.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "values")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(_require_finite("histogram", self.name, value))

    def record_many(self, values) -> int:
        """Append a batch of samples in one call; returns the batch size.

        Equivalent to ``N`` :meth:`observe` calls (samples are stored
        verbatim, so order and arithmetic are unchanged), but validates
        with one vectorized finiteness check and extends the sample list
        once.  The batch is atomic: any NaN/inf rejects the whole call
        without mutating the histogram.
        """
        array = np.asarray(list(values), dtype=np.float64)
        if array.size and not np.isfinite(array).all():
            bad = array[~np.isfinite(array)][0]
            raise MetricsError(
                f"histogram {self.name!r}: non-finite value {float(bad)!r}"
            )
        self.values.extend(array.tolist())
        return int(array.size)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        if not self.values:
            return 0.0
        return self.sum / len(self.values)

    def percentile(self, q: float) -> float:
        """Exact percentile over the raw samples.

        Degenerate histograms are well-defined rather than errors: an
        empty histogram returns NaN (there is no value to report — JSON
        snapshots encode this as ``null``) and a single-sample histogram
        returns that sample for every ``q``.
        """
        if not 0.0 <= q <= 100.0:
            raise MetricsError(
                f"histogram {self.name!r}: percentile {q!r} not in [0, 100]"
            )
        if not self.values:
            return float("nan")
        if len(self.values) == 1:
            return float(self.values[0])
        return float(np.percentile(
            np.asarray(self.values, dtype=np.float64), q
        ))

    def snapshot(self) -> dict:
        # Empty histograms report null percentiles/max: NaN is not valid
        # JSON, and 0.0 would be indistinguishable from a real sample.
        empty = not self.values
        return {
            "type": "metric", "kind": self.kind, "name": self.name,
            "labels": dict(self.labels), "count": self.count,
            "sum": self.sum, "mean": self.mean,
            "p50": None if empty else self.percentile(50),
            "p95": None if empty else self.percentile(95),
            "max": None if empty else max(self.values),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create instrument store keyed by name + labels."""

    def __init__(self):
        self._instruments: Dict[Tuple[str, LabelKey], object] = {}

    def _get(self, kind: str, name: str, labels: Dict[str, object]):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = _KINDS[kind](name, key[1])
            self._instruments[key] = instrument
        elif instrument.kind != kind:
            raise MetricsError(
                f"instrument {name!r} already registered as "
                f"{instrument.kind}, requested {kind}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", name, labels)

    # -- read-only access (no instrument creation) ----------------------------

    def peek(self, name: str, **labels):
        """The instrument if it exists, else ``None`` (never creates)."""
        return self._instruments.get((name, _label_key(labels)))

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """A counter/gauge value, or ``default`` if never touched."""
        instrument = self.peek(name, **labels)
        if instrument is None:
            return default
        if isinstance(instrument, Histogram):
            raise MetricsError(
                f"{name!r} is a histogram; read count/sum/percentile "
                "from peek() instead"
            )
        return instrument.value

    def samples(self, name: str, **labels) -> List[float]:
        """A histogram's raw samples (empty list if never touched)."""
        instrument = self.peek(name, **labels)
        if instrument is None:
            return []
        if not isinstance(instrument, Histogram):
            raise MetricsError(f"{name!r} is not a histogram")
        return list(instrument.values)

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> List[dict]:
        """All instruments as plain dicts, sorted by (name, labels)."""
        return [self._instruments[key].snapshot()
                for key in sorted(self._instruments)]

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        import os
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")

    def __len__(self) -> int:
        return len(self._instruments)


def validate_metric_record(record, where: str = "metric") -> None:
    """Validate one :meth:`MetricsRegistry.snapshot` record (JSONL logs,
    profile reports): counters and gauges carry a finite ``value``,
    histograms finite ``sum``/``mean`` and :func:`check_quantiles`."""
    require_keys(record, ("kind", "labels"), where, MetricsError)
    kind = record["kind"]
    if kind not in METRIC_KINDS:
        raise MetricsError(f"{where}: metric kind {kind!r} not in "
                           f"{sorted(METRIC_KINDS)}")
    if not isinstance(record["labels"], dict):
        raise MetricsError(f"{where}: metric labels must be an object")
    for key in ("sum", "mean") if kind == "histogram" else ("value",):
        if not finite(record.get(key)):
            raise MetricsError(f"{where}: {kind} missing numeric {key!r}")
    if kind == "histogram":
        check_quantiles(record, ("p50", "p95", "max"), where, MetricsError)


def as_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Normalize an optional registry argument to a usable instance."""
    return MetricsRegistry() if registry is None else registry
