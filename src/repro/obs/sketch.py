"""A deterministic, mergeable quantile sketch with bounded memory.

:class:`~repro.obs.metrics.Histogram` keeps raw samples — exact but
unbounded, and two histograms cannot be combined without shipping every
sample.  :class:`QuantileSketch` is its bounded-memory sibling for
fleet-scale telemetry: samples are folded into **fixed log-spaced
buckets**, so a sketch is a few hundred integers regardless of how many
values it absorbed, and sketches from different devices merge by adding
bucket counts.

Design invariants, each load-bearing for the fleet layer:

* **Fixed bucket boundaries.**  With relative accuracy ``alpha``, bucket
  ``i`` covers ``(gamma**(i-1), gamma**i]`` where
  ``gamma = (1 + alpha) / (1 - alpha)``.  The boundaries depend only on
  ``alpha`` — never on the data — so two sketches with equal ``alpha``
  are always mergeable and ``merge`` is associative and commutative.
* **Documented error bound.**  Bucket ``i`` is reported as its
  mid-representative ``2 * gamma**i / (1 + gamma)``, which is within a
  factor ``1 ± alpha`` of every value in the bucket.
  :meth:`percentile` interpolates between the representatives of the two
  order statistics that ``numpy.percentile`` (linear interpolation)
  would use, so for non-negative samples::

      |sketch.percentile(q) - numpy.percentile(samples, q)|
          <= alpha * numpy.percentile(samples, q) + min_value

  The additive ``min_value`` term covers the underflow bucket: values in
  ``[0, min_value]`` are collapsed to a single zero bucket reported as
  ``0.0``.
* **Exact counts and sums.**  Bucket counts are integers and the running
  sum is kept as an exact rational (every float is a dyadic rational,
  and :class:`fractions.Fraction` addition is exact), so merging
  sketches over *any* partition of a sample stream yields bit-for-bit
  the sketch of the pooled stream — order of observation and order of
  merging are both irrelevant.  The property tests in
  ``tests/obs/test_sketch.py`` pin this down.
* **JSON round-trip.**  :meth:`to_json` / :meth:`from_json` serialize
  every field losslessly (the exact sum travels as an integer
  numerator/denominator pair), so device telemetry can cross process
  boundaries without widening the error bound.

Only non-negative samples are accepted: the fleet metrics (latencies,
energy) are non-negative by construction, and rejecting negatives keeps
the relative-error statement unconditional.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, Iterable, Optional

from repro.errors import ReproError

#: Schema identifier stamped into every serialized sketch.
from repro.obs.schemas import (  # noqa: E402 (constant table)
    SKETCH_SCHEMA,
    check_quantiles,
    check_schema,
    finite,
    require_keys,
)

#: Default relative accuracy (1% — p99 of a 10 s tail is within 100 ms).
DEFAULT_ALPHA = 0.01

#: Default underflow threshold: values at or below this collapse into the
#: zero bucket (reported as 0.0, an absolute error of at most this much).
DEFAULT_MIN_VALUE = 1e-12


class SketchError(ReproError):
    """Quantile sketch misuse (negative sample, mismatched merge...)."""


def _check_parameters(alpha, min_value) -> None:
    if not finite(alpha) or not 0.0 < alpha < 1.0:
        raise SketchError(f"alpha must be in (0, 1), got {alpha!r}")
    if not finite(min_value) or not min_value > 0.0:
        raise SketchError(
            f"min_value must be a positive finite number, got "
            f"{min_value!r}"
        )


def validate_sketch_doc(doc: dict) -> None:
    """Validate a ``repro.sketch/v1`` document: valid parameters,
    non-negative integer bucket counts that add up to ``count``, an
    exact ``[numerator, denominator]`` sum, and ``min``/``max`` null
    exactly when the sketch is empty (ordered otherwise)."""
    check_schema(doc, SKETCH_SCHEMA, SketchError)
    require_keys(doc, ("alpha", "min_value", "count", "zero_count",
                       "buckets", "sum", "min", "max"), "sketch",
                 SketchError)
    _check_parameters(doc["alpha"], doc["min_value"])
    check_quantiles(doc, ("min", "max"), "sketch", SketchError)
    counts = [doc["zero_count"], *doc["buckets"].values()]
    if not all(isinstance(n, int) and n >= 0 for n in counts):
        raise SketchError("zero and bucket counts must be non-negative "
                          "integers")
    if not all(key.lstrip("-").isdigit() for key in doc["buckets"]):
        raise SketchError("bucket keys must be integers")
    if sum(counts) != doc["count"]:
        raise SketchError("count != zero_count + bucket counts")
    pair = doc["sum"]
    if not (isinstance(pair, list) and len(pair) == 2
            and all(isinstance(n, int) for n in pair) and pair[1] > 0):
        raise SketchError("sum must be a [numerator, denominator] pair")
    if doc["count"] and not 0 <= doc["min"] <= doc["max"]:
        raise SketchError("min/max must be ordered and non-negative")


class QuantileSketch:
    """Mergeable log-bucketed quantile sketch (see module docstring)."""

    __slots__ = ("alpha", "min_value", "_gamma", "_log_gamma", "_buckets",
                 "_zero_count", "_count", "_sum", "_min", "_max")

    def __init__(self, alpha: float = DEFAULT_ALPHA,
                 min_value: float = DEFAULT_MIN_VALUE):
        _check_parameters(alpha, min_value)
        self.alpha = float(alpha)
        self.min_value = float(min_value)
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self._gamma)
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = Fraction(0)
        self._min = math.inf
        self._max = -math.inf

    # -- ingestion ------------------------------------------------------------

    def observe(self, value: float) -> None:
        """Fold one non-negative sample into the sketch."""
        value = float(value)
        if not math.isfinite(value):
            raise SketchError(f"non-finite sample {value!r}")
        if value < 0.0:
            raise SketchError(f"negative sample {value!r}")
        if value <= self.min_value:
            self._zero_count += 1
        else:
            index = math.ceil(math.log(value) / self._log_gamma)
            self._buckets[index] = self._buckets.get(index, 0) + 1
        self._count += 1
        self._sum += Fraction(value)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def record_many(self, values: Iterable[float]) -> int:
        """Fold a batch of samples in one call; returns the batch size.

        Bit-identical to ``N`` :meth:`observe` calls: bucket indices use
        the same per-value ``math.log`` (so no ulp drift from vectorized
        logarithms), and the exact sum is accumulated as one dyadic
        rational — floats are ratios with power-of-two denominators, so
        the batch folds into big-int shifts and a single ``Fraction``
        addition, which equals the sequential Fraction sum exactly.

        Unlike :meth:`observe_many`, the batch is atomic: a NaN/inf or
        negative sample rejects the whole call without mutating the
        sketch.
        """
        vals = [float(v) for v in values]
        for value in vals:
            if not math.isfinite(value):
                raise SketchError(f"non-finite sample {value!r}")
            if value < 0.0:
                raise SketchError(f"negative sample {value!r}")
        if not vals:
            return 0
        buckets = self._buckets
        log_gamma = self._log_gamma
        min_value = self.min_value
        ceil, log = math.ceil, math.log
        zero = 0
        acc_num, acc_exp = 0, 0
        for value in vals:
            if value <= min_value:
                zero += 1
            else:
                index = ceil(log(value) / log_gamma)
                buckets[index] = buckets.get(index, 0) + 1
            num, den = value.as_integer_ratio()
            exp = den.bit_length() - 1
            if exp > acc_exp:
                acc_num <<= exp - acc_exp
                acc_exp = exp
            acc_num += num << (acc_exp - exp)
        self._zero_count += zero
        self._count += len(vals)
        self._sum += Fraction(acc_num, 1 << acc_exp)
        self._min = min(self._min, min(vals))
        self._max = max(self._max, max(vals))
        return len(vals)

    # -- aggregates -----------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        """Exact sum of all samples, rounded once to a float."""
        return float(self._sum)

    @property
    def mean(self) -> float:
        if self._count == 0:
            return 0.0
        return float(self._sum / self._count)

    @property
    def min(self) -> float:
        return self._min if self._count else float("nan")

    @property
    def max(self) -> float:
        return self._max if self._count else float("nan")

    @property
    def n_buckets(self) -> int:
        """Occupied buckets (the memory footprint), zero bucket included."""
        return len(self._buckets) + (1 if self._zero_count else 0)

    def bucket_representative(self, index: int) -> float:
        """Mid-representative of bucket ``index`` (rel. error <= alpha)."""
        return 2.0 * self._gamma ** index / (1.0 + self._gamma)

    # -- quantiles ------------------------------------------------------------

    def _value_at_rank(self, rank: int) -> float:
        """Representative of the sample at 0-based sorted ``rank``."""
        if rank < self._zero_count:
            return 0.0
        seen = self._zero_count
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank < seen:
                return self.bucket_representative(index)
        # unreachable when 0 <= rank < count (counts are consistent)
        raise SketchError(f"rank {rank} out of range (count={self._count})")

    def percentile(self, q: float) -> float:
        """Approximate percentile matching ``numpy.percentile``'s linear
        interpolation, within the documented error bound.

        Degenerate sketches mirror :class:`Histogram`: an empty sketch
        returns NaN, a single-sample sketch returns that sample's
        representative for every ``q``.
        """
        if not 0.0 <= q <= 100.0:
            raise SketchError(f"percentile {q!r} not in [0, 100]")
        if self._count == 0:
            return float("nan")
        position = (self._count - 1) * (q / 100.0)
        lower_rank = math.floor(position)
        fraction = position - lower_rank
        low = self._value_at_rank(lower_rank)
        if fraction == 0.0:
            value = low
        else:
            high = self._value_at_rank(min(lower_rank + 1, self._count - 1))
            value = low + fraction * (high - low)
        # Clamping to the exact observed range only tightens the bound.
        return min(max(value, self._min), self._max)

    # -- merging --------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (in place); returns ``self``.

        Counts add, the exact sums add, min/max combine — all exact
        operations, so merging is associative and commutative and the
        result is bit-for-bit the sketch of the pooled sample stream.
        """
        if not isinstance(other, QuantileSketch):
            raise SketchError(f"cannot merge {type(other).__name__}")
        if other.alpha != self.alpha or other.min_value != self.min_value:
            raise SketchError(
                f"mergeable sketches need identical boundaries: "
                f"alpha {self.alpha!r} vs {other.alpha!r}, min_value "
                f"{self.min_value!r} vs {other.min_value!r}"
            )
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self._zero_count += other._zero_count
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    @classmethod
    def merged(cls, sketches: Iterable["QuantileSketch"]
               ) -> "QuantileSketch":
        """A fresh sketch holding the union of ``sketches``.

        An empty iterable yields an empty default-boundary sketch — a
        fleet roll-up over zero devices is a report with zero samples,
        not an error (its percentiles read as NaN/None).
        """
        sketches = list(sketches)
        if not sketches:
            return cls()
        out = cls(alpha=sketches[0].alpha,
                  min_value=sketches[0].min_value)
        for sketch in sketches:
            out.merge(sketch)
        return out

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Lossless plain-dict form (sorted, JSON-safe)."""
        return {
            "schema": SKETCH_SCHEMA,
            "alpha": self.alpha,
            "min_value": self.min_value,
            "count": self._count,
            "zero_count": self._zero_count,
            "buckets": {str(i): self._buckets[i]
                        for i in sorted(self._buckets)},
            "sum": [self._sum.numerator, self._sum.denominator],
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`to_dict` output (checks the
        stamp only; :func:`validate_sketch_doc` checks a whole file)."""
        check_schema(data, SKETCH_SCHEMA, SketchError)
        sketch = cls(alpha=data["alpha"], min_value=data["min_value"])
        sketch._zero_count = int(data["zero_count"])
        sketch._count = int(data["count"])
        sketch._buckets = {int(k): int(v)
                           for k, v in data["buckets"].items()}
        num, den = data["sum"]
        sketch._sum = Fraction(int(num), int(den))
        if sketch._count:
            sketch._min = float(data["min"])
            sketch._max = float(data["max"])
        return sketch

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QuantileSketch":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SketchError(f"invalid sketch JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- snapshot (MetricsRegistry-style read-out) ----------------------------

    def snapshot_percentiles(self) -> dict:
        """The standard percentile read-out used by fleet reports."""
        empty = self._count == 0
        return {
            "count": self._count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": None if empty else self.percentile(50),
            "p90": None if empty else self.percentile(90),
            "p95": None if empty else self.percentile(95),
            "p99": None if empty else self.percentile(99),
            "max": None if empty else self._max,
        }

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return (f"QuantileSketch(alpha={self.alpha}, count={self._count}, "
                f"buckets={self.n_buckets})")
