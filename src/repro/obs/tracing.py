"""Span-based tracing: nested wall/CPU timing with a JSON-lines exporter.

``with trace_span("lepton.encode.parse", file_id=...)`` wraps a stage of a
hot path.  Spans nest through a per-thread stack (the encoder's stages nest
under the ``lepton.compress`` span), survive exceptions (the span is still
recorded, annotated with the exception type, and the exception propagates),
and measure both wall-clock and CPU time so that "slow because busy" and
"slow because waiting" are distinguishable — the distinction §6.6's timeout
triage turns on.

Each finished span also feeds the registry histogram
``span.<name>.wall_seconds``, so ``lepton --stats`` shows stage-level
percentiles without the full trace; labels stay on the trace records only
(per-file labels would explode histogram cardinality).
"""

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Spans kept in memory per tracer; older spans are discarded FIFO so a
#: long-running process cannot grow without bound.
MAX_BUFFERED_SPANS = 100_000

if hasattr(time, "thread_time"):
    _cpu_clock = time.thread_time
else:  # pragma: no cover - platforms without per-thread CPU clocks
    _cpu_clock = time.process_time


@dataclass
class SpanRecord:
    """One finished span."""

    name: str
    wall_seconds: float
    cpu_seconds: float
    depth: int
    parent: Optional[str]
    labels: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None

    def to_dict(self) -> dict:
        record = {
            "name": self.name,
            "wall_ms": round(self.wall_seconds * 1e3, 6),
            "cpu_ms": round(self.cpu_seconds * 1e3, 6),
            "depth": self.depth,
            "parent": self.parent,
        }
        if self.labels:
            record["labels"] = {k: str(v) for k, v in self.labels.items()}
        if self.error is not None:
            record["error"] = self.error
        return record


class Tracer:
    """Collects spans; one global instance backs :func:`trace_span`."""

    def __init__(self, registry=None):
        self._registry = registry
        self._local = threading.local()
        self._lock = threading.Lock()
        # Appending to a full bounded deque drops the oldest span in O(1).
        self._spans = deque(maxlen=MAX_BUFFERED_SPANS)

    @property
    def spans(self) -> List[SpanRecord]:
        """The buffered spans, oldest first (a snapshot)."""
        with self._lock:
            return list(self._spans)

    def _registry_or_global(self):
        if self._registry is not None:
            return self._registry
        from repro.obs.registry import get_registry

        return get_registry()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **labels):
        stack = self._stack()
        record = SpanRecord(
            name=name,
            wall_seconds=0.0,
            cpu_seconds=0.0,
            depth=len(stack),
            parent=stack[-1] if stack else None,
            labels=labels,
        )
        stack.append(name)
        wall_start = time.perf_counter()
        cpu_start = _cpu_clock()
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.wall_seconds = time.perf_counter() - wall_start
            record.cpu_seconds = _cpu_clock() - cpu_start
            stack.pop()
            with self._lock:
                self._spans.append(record)
            self._registry_or_global().histogram(
                f"span.{name}.wall_seconds"
            ).observe(record.wall_seconds)

    # -- export ----------------------------------------------------------

    def export(self) -> List[dict]:
        """The buffered spans as JSON-friendly dicts, in seconds
        (:meth:`replay` inverts it)."""
        return [{"name": s.name, "wall": s.wall_seconds,
                 "cpu": s.cpu_seconds, "depth": s.depth, "parent": s.parent,
                 "labels": {k: v if isinstance(v, (int, float)) else str(v)
                            for k, v in s.labels.items()},
                 "error": s.error} for s in self.spans]

    def replay(self, spans: List[dict]) -> None:
        """Buffer spans another process exported.  Their
        ``span.<name>.wall_seconds`` histograms travel in that process's
        registry export, so they are not observed again here."""
        records = [SpanRecord(s["name"], s["wall"], s["cpu"], s["depth"],
                              s["parent"], s["labels"], s["error"])
                   for s in spans]
        with self._lock:
            self._spans.extend(records)

    def to_jsonl(self) -> str:
        """The buffered spans, one JSON object per line."""
        return "\n".join(json.dumps(s.to_dict(), sort_keys=True) for s in self.spans)

    def export_jsonl(self, destination) -> int:
        """Write spans to a path or file object; returns the span count."""
        text = self.to_jsonl()
        count = len(self.spans)
        if hasattr(destination, "write"):
            destination.write(text + ("\n" if text else ""))
        else:
            with open(destination, "w") as handle:
                handle.write(text + ("\n" if text else ""))
        return count

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
        self._local = threading.local()


_GLOBAL = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer behind :func:`trace_span`."""
    return _GLOBAL


@contextmanager
def trace_span(name: str, **labels):
    """``with trace_span("lepton.encode", file_id=...):`` on the global tracer."""
    with _GLOBAL.span(name, **labels) as record:
        yield record
