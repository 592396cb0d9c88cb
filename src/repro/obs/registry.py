"""Process-wide metrics registry: counters, gauges, histograms.

One shared registry replaces the ad-hoc counter attributes that used to be
scattered across the storage and codec layers.  Instruments are identified
by ``(name, labels)``: the same name with different label values is a
*family* of series (``lepton.compress.exit_codes{code="Progressive"}``),
exactly the shape the §6.2 exit-code table and the Figure 9/10 fleet
telemetry need.

Every metric name this package emits is documented in
``docs/observability.md``; ``tests/test_docs.py`` diffs the registry
contents of a sample run against that table, so the contract cannot rot.
"""

import threading
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.histogram import DEFAULT_RELATIVE_ACCURACY, StreamingHistogram

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, object]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, concurrency)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class MetricsRegistry:
    """Keyed store of instruments; the process-wide one lives in repro.obs.

    Thread-safe for creation and lookup; individual instruments guard their
    own mutation.  ``FleetSim`` builds a private registry per simulation so
    repeated runs never contaminate each other; library code (the codec,
    the backfill worker, the CLI) defaults to the global registry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelsKey], object] = {}

    def _get_or_create(self, name: str, labels: Dict[str, object], factory):
        key = (name, _labels_key(labels))
        with self._lock:
            instrument = self._metrics.get(key)
            if instrument is None:
                instrument = factory()
                self._metrics[key] = instrument
                return instrument
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        instrument = self._get_or_create(name, labels, Counter)
        if not isinstance(instrument, Counter):
            raise TypeError(f"{name} is a {instrument.kind}, not a counter")
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        instrument = self._get_or_create(name, labels, Gauge)
        if not isinstance(instrument, Gauge):
            raise TypeError(f"{name} is a {instrument.kind}, not a gauge")
        return instrument

    def histogram(self, name: str,
                  relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
                  **labels) -> StreamingHistogram:
        instrument = self._get_or_create(
            name, labels, lambda: StreamingHistogram(relative_accuracy)
        )
        if not isinstance(instrument, StreamingHistogram):
            raise TypeError(f"{name} is a {instrument.kind}, not a histogram")
        return instrument

    # -- introspection ---------------------------------------------------

    def get(self, name: str, **labels):
        """Existing instrument for exact (name, labels), or None."""
        return self._metrics.get((name, _labels_key(labels)))

    def series(self, name: str) -> Iterator[Tuple[Dict[str, str], object]]:
        """All (labels, instrument) pairs registered under ``name``."""
        with self._lock:
            items = list(self._metrics.items())
        for (metric_name, labels_key), instrument in items:
            if metric_name == name:
                yield dict(labels_key), instrument

    def names(self) -> List[str]:
        """Sorted distinct metric names currently registered."""
        with self._lock:
            return sorted({name for name, _ in self._metrics})

    def snapshot(self) -> Dict[str, List[dict]]:
        """JSON-friendly dump: name -> list of {labels, kind, value|summary}."""
        with self._lock:
            items = sorted(self._metrics.items())
        out: Dict[str, List[dict]] = {}
        for (name, labels_key), instrument in items:
            entry = {"labels": dict(labels_key)}
            if isinstance(instrument, StreamingHistogram):
                entry["kind"] = "histogram"
                entry["summary"] = instrument.summary()
            else:
                entry["kind"] = instrument.kind
                entry["value"] = instrument.value
            out.setdefault(name, []).append(entry)
        return out

    def render(self) -> str:
        """Human-readable dump (the ``lepton --stats`` output)."""
        lines: List[str] = []
        for name, entries in self.snapshot().items():
            for entry in entries:
                labels = entry["labels"]
                label_text = (
                    "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                    if labels else ""
                )
                if entry["kind"] == "histogram":
                    s = entry["summary"]
                    value_text = (
                        f"count={s['count']:g} mean={s['mean']:.6g} "
                        f"p50={s['p50']:.6g} p90={s['p90']:.6g} "
                        f"p99={s['p99']:.6g} max={s['max']:.6g}"
                    )
                else:
                    value_text = f"{entry['value']:g}"
                lines.append(f"{name}{label_text} {entry['kind']} {value_text}")
        return "\n".join(lines)

    def export(self) -> List[list]:
        """Every instrument as JSON-friendly ``[kind, name, labels, value]``
        rows, histograms as their sketch state: what a codec worker sends
        back with each job (repro.storage.workers)."""
        with self._lock:
            items = sorted(self._metrics.items())
        return [[instrument.kind, name, dict(labels_key),
                 instrument.state() if isinstance(instrument,
                                                  StreamingHistogram)
                 else instrument.value]
                for (name, labels_key), instrument in items]

    def replay(self, rows: List[list]) -> None:
        """Fold :meth:`export` rows into this registry: counters add,
        gauges take the value, histograms merge."""
        for kind, name, labels, value in rows:
            if kind == "counter":
                self.counter(name, **labels).inc(value)
            elif kind == "gauge":
                self.gauge(name, **labels).set(value)
            else:
                state = StreamingHistogram.from_state(value)
                self.histogram(name, state.relative_accuracy,
                               **labels).merge(state)

    def reset(self) -> None:
        """Drop every instrument (test isolation; see tests/conftest.py)."""
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)


#: The process-wide registry used by library code unless one is injected.
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (what ``lepton --stats`` prints)."""
    return _GLOBAL
