"""Streaming histogram with bounded-relative-error percentiles.

The deployment story (§5.5, §6.4) runs on latency *percentiles* — p50
through p99 per conversion, per server, per hour — over streams far too
large to keep raw.  Production systems solve this with sketches; we use
log-spaced buckets in the style of DDSketch: a value ``v`` lands in bucket
``ceil(log_gamma(v))`` where ``gamma = (1 + a) / (1 - a)``, which bounds
the relative error of any reported quantile by ``a`` (default 1%) while
using O(log(max/min)) memory regardless of stream length.

No external dependencies: tests compare against ``numpy.quantile`` but the
implementation is stdlib-only.
"""

import math
from typing import Dict, Iterable, Optional

DEFAULT_RELATIVE_ACCURACY = 0.01


class StreamingHistogram:
    """Log-bucketed quantile sketch plus exact count/sum/min/max."""

    kind = "histogram"

    __slots__ = (
        "relative_accuracy", "_log_gamma", "_positive", "_negative",
        "_zero_count", "count", "total", "min", "max",
    )

    def __init__(self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")
        self.relative_accuracy = relative_accuracy
        gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(gamma)
        self._positive: Dict[int, int] = {}   # bucket index -> count
        self._negative: Dict[int, int] = {}   # bucket index of -v -> count
        self._zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- ingest ----------------------------------------------------------

    def _index(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def _bucket_value(self, index: int) -> float:
        # Midpoint (geometric) of the bucket (gamma^(i-1), gamma^i].
        return 2.0 * math.exp(index * self._log_gamma) / (
            1.0 + math.exp(self._log_gamma)
        )

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``value`` (``n`` times)."""
        if n <= 0:
            return
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"cannot observe {value!r}")
        if value > 0.0:
            index = self._index(value)
            self._positive[index] = self._positive.get(index, 0) + n
        elif value < 0.0:
            index = self._index(-value)
            self._negative[index] = self._negative.get(index, 0) + n
        else:
            self._zero_count += n
        self.count += n
        self.total += value * n
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold ``other`` into this sketch (accuracies must match)."""
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError("cannot merge histograms of differing accuracy")
        for index, n in other._positive.items():
            self._positive[index] = self._positive.get(index, 0) + n
        for index, n in other._negative.items():
            self._negative[index] = self._negative.get(index, 0) + n
        self._zero_count += other._zero_count
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is not None:
                self.min = bound if self.min is None else min(self.min, bound)
                self.max = bound if self.max is None else max(self.max, bound)

    def state(self) -> Dict[str, object]:
        """The sketch as JSON-friendly data (:meth:`from_state` inverts it)."""
        return {"accuracy": self.relative_accuracy,
                "positive": sorted(self._positive.items()),
                "negative": sorted(self._negative.items()),
                "zero": self._zero_count, "count": self.count,
                "total": self.total, "min": self.min, "max": self.max}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "StreamingHistogram":
        sketch = cls(state["accuracy"])
        sketch._positive = {int(i): int(n) for i, n in state["positive"]}
        sketch._negative = {int(i): int(n) for i, n in state["negative"]}
        sketch._zero_count = state["zero"]
        sketch.count = state["count"]
        sketch.total = state["total"]
        sketch.min = state["min"]
        sketch.max = state["max"]
        return sketch

    # -- queries ---------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1]; 0.0 on an empty sketch.

        Exact at the extremes (the true min/max are tracked); bounded
        relative error everywhere else.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * (self.count - 1)
        seen = 0
        # Ascending order: most-negative first, then zero, then positive.
        for index in sorted(self._negative, reverse=True):
            seen += self._negative[index]
            if seen > rank:
                return -self._bucket_value(index)
        seen += self._zero_count
        if self._zero_count and seen > rank:
            return 0.0
        for index in sorted(self._positive):
            seen += self._positive[index]
            if seen > rank:
                return self._bucket_value(index)
        return self.max

    def percentiles(self, ps: Iterable[int] = (50, 90, 99)) -> Dict[int, float]:
        """Percentile map, e.g. ``{50: …, 90: …, 99: …}``."""
        return {p: self.quantile(p / 100.0) for p in ps}

    def summary(self) -> Dict[str, float]:
        """The standard dump line: count/sum/mean/min/max + p50/p90/p99."""
        pct = self.percentiles((50, 90, 99))
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": pct[50],
            "p90": pct[90],
            "p99": pct[99],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StreamingHistogram(count={self.count}, mean={self.mean:.4g}, "
                f"p99={self.quantile(0.99):.4g})")
