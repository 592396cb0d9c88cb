"""Traced mode: per-layer timing measured from outside the program.

Each layer's public calls are wrapped under the name their caller looks
up.  ``from ... import`` has already bound a name in the calling module,
so ``repro.core.chunks.parse_jpeg`` and ``repro.core.session.parse_jpeg``
are wrapped, not ``repro.jpeg.parser.parse_jpeg``; methods are wrapped on
their class.  A span is ``(id, parent, name, start, end, thread, window,
info)``; the parent comes from a context variable that the server's
request task sets and that :class:`TracingExecutor` carries into executor
threads, so codec work on a worker thread nests under the request that
asked for it.  Spans stay in memory and are written out when the run
ends.  Self time is a span's wall time minus that of its children.
"""

import contextvars
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import chunks, session
from repro.core.coefcoder import SegmentCodec
from repro.core.format import ContainerReader
from repro.jpeg.scan_encode import ScanEncoder
from repro.obs import get_registry
from repro.serve.admission import AdmissionGate
from repro.serve.app import LeptonServer
from repro.storage import blockstore
from repro.storage.backends import FilesystemBackend
from repro.storage.journal import Journal

from inputs import PUT, RANGE
from loadgen import OP_HEADER, latency_figures

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)

#: ``(owner, attribute, span name)`` of every wrapped synchronous call.
CALLS = (
    (blockstore.BlockStore, "put_file", "storage.put_file"),
    (blockstore.BlockStore, "get_chunk", "storage.get_chunk"),
    (FilesystemBackend, "write", "storage.blob_write"),
    (FilesystemBackend, "read", "storage.blob_read"),
    (Journal, "append", "storage.journal_append"),
    (Journal, "checkpoint", "storage.journal_checkpoint"),
    (os, "fsync", "storage.fsync"),
    (blockstore, "compress_chunked", "core.compress"),
    (blockstore, "decompress_chunk", "core.decompress_chunk"),
    (SegmentCodec, "encode", "core.arith_encode"),
    (SegmentCodec, "decode", "core.arith_decode"),
    (chunks, "write_container", "core.container_write"),
    (ContainerReader, "feed", "core.container_feed"),
    (session, "parse_jpeg", "core.chunk_header"),
    (chunks, "parse_jpeg", "jpeg.parse"),
    (chunks, "decode_scan", "jpeg.huffman_decode"),
    (ScanEncoder, "encode_to", "jpeg.huffman_encode"),
)
#: The same for coroutine functions.
ASYNC_CALLS = (
    (LeptonServer, "_handle", "serve.request"),
    (AdmissionGate, "admit", "serve.admit"),
)
EXECUTOR = "serve.executor"
LAYERS = ("serve", "storage", "core", "jpeg")

ID, PARENT, NAME, START, END, THREAD, WINDOW, INFO = range(8)


def _request_info(args) -> Tuple[str, Optional[str]]:
    """``(kind, op)`` of the request ``LeptonServer._handle`` was given."""
    request = args[1]
    if request.method == "PUT":
        kind = PUT
    else:
        kind = RANGE if request.headers.get("range") else "get"
    return kind, request.headers.get(OP_HEADER.lower())


class Tracer:
    """Records spans while a window is open (between :meth:`begin` and
    :meth:`end`); outside a window every wrapped name is the original."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.window: Optional[str] = None
        #: Requests whose handler has not returned yet.
        self.active = 0
        self._ids = itertools.count(1)
        self._originals = []

    # -- recording ---------------------------------------------------------

    def _record(self, sid, parent, name, start, end, info=None) -> None:
        self.spans.append((sid, parent, name, start, end,
                           threading.get_ident(), self.window, info))

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            info = None
            if name == "storage.journal_append":
                info = -os.path.getsize(args[0].path)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                if name in ("storage.blob_write", "storage.put_file"):
                    info = len(args[2])
                elif name == "storage.journal_append":
                    info += os.path.getsize(args[0].path)
                tracer._record(sid, parent, name, start, end, info)

        return traced

    def _wrap_async(self, fn, name):
        tracer = self

        async def traced(*args, **kwargs):
            sid = next(tracer._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            info = _request_info(args) if name == "serve.request" else None
            tracer.active += 1
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                tracer.active -= 1
                tracer._record(sid, parent, name, start, end, info)

        return traced

    def executor_call(self, submitted, fn, args, kwargs):
        """Run one executor job as a span; info is (submitted, CPU s)."""
        sid = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        start = time.perf_counter()
        cpu = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            cpu = time.thread_time() - cpu
            end = time.perf_counter()
            _CURRENT.reset(token)
            self._record(sid, parent, EXECUTOR, start, end, (submitted, cpu))

    def begin(self, window: str) -> None:
        """Open a recording window: install every wrapper."""
        self.window = window
        for owner, attr, name in CALLS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        for owner, attr, name in ASYNC_CALLS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap_async(original, name))

    def end(self) -> None:
        """Close the window: put every original back."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        self.window = None

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "start", "end", "thread",
                     "window", "info"), span))) + "\n")


class TracingExecutor(ThreadPoolExecutor):
    """The loop's default executor: while a window is open, each job runs
    in a copy of the submitter's context, timed as a span."""

    def __init__(self, tracer: Tracer):
        super().__init__(thread_name_prefix="asyncio")
        self._tracer = tracer

    def submit(self, fn, /, *args, **kwargs):
        if self._tracer.window is None:
            return super().submit(fn, *args, **kwargs)
        return super().submit(contextvars.copy_context().run,
                              self._tracer.executor_call,
                              time.perf_counter(), fn, args, kwargs)


# -- analysis ---------------------------------------------------------------


class Forest:
    """Spans indexed by request: each span's root request and children."""

    def __init__(self, spans: Sequence[tuple]):
        self.by_id = {span[ID]: span for span in spans}
        self.child_wall: Dict[int, float] = defaultdict(float)
        self.children: Dict[int, List[tuple]] = defaultdict(list)
        for span in spans:
            if span[PARENT] in self.by_id:
                self.child_wall[span[PARENT]] += span[END] - span[START]
                self.children[span[PARENT]].append(span)
        self._root: Dict[int, Optional[tuple]] = {}
        self.requests = [s for s in spans if s[NAME] == "serve.request"]

    def root(self, span: tuple) -> Optional[tuple]:
        """The ``serve.request`` span ``span`` ran under, if any."""
        path = []
        node = span
        while node is not None and node[ID] not in self._root:
            path.append(node)
            if node[NAME] == "serve.request":
                self._root[node[ID]] = node
                break
            node = self.by_id.get(node[PARENT])
        found = self._root.get(node[ID]) if node is not None else None
        for visited in path:
            self._root[visited[ID]] = found
        return found

    def self_time(self, span: tuple) -> float:
        return span[END] - span[START] - self.child_wall[span[ID]]

    def under(self, requests: Iterable[tuple]) -> List[tuple]:
        """Every span that ran under one of ``requests``."""
        ids = {r[ID] for r in requests}
        return [s for s in self.by_id.values()
                if (root := self.root(s)) is not None and root[ID] in ids]


def _sum(spans, *names) -> float:
    return sum(s[END] - s[START] for s in spans if s[NAME] in names)


def _count(spans, *names) -> int:
    return sum(1 for s in spans if s[NAME] in names)


def per_layer(tracer: Tracer, traced_ops: Dict[str, Tuple[float, float]],
              recover_seconds: Sequence[float],
              registry_counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer figures from a traced run; times in ms.

    Per-op figures cover the traced requests of the timed load.  PUT-side
    and read-side unit costs are per request of that kind; a workload whose
    load has no such request (``get`` has no PUT, ``put`` no GET) takes
    them from the requests of its traced set-up, which always preloads or
    warms up with at least one PUT, one GET and one Range GET.

    Shares divide each layer's self time by the latency of the traced
    timed ops (``traced_ops``: op name to client start and end).  A
    request handler keeps bookkeeping after its client has the last byte,
    so each ``serve.request`` counts only up to its client's end; the
    serve share is that minus the lower layers, and the rest of the
    latency is unattributed.
    """
    forest = Forest(tracer.spans)
    load = [r for r in forest.requests if r[WINDOW] == "load"]
    setup = [r for r in forest.requests if r[WINDOW] == "setup"]

    def of_kind(*kinds):
        chosen = [r for r in load if r[INFO][0] in kinds]
        return chosen or [r for r in setup if r[INFO][0] in kinds]

    puts, reads, ranges = of_kind(PUT), of_kind("get", RANGE), of_kind(RANGE)
    in_load, in_puts = forest.under(load), forest.under(puts)
    in_reads, in_ranges = forest.under(reads), forest.under(ranges)
    ops = len(load)
    latency = sum(end - start for start, end in traced_ops.values())
    covered = sum(min(r[END], traced_ops[r[INFO][1]][1]) - r[START]
                  for r in load)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for span in in_load:
        layer_self[span[NAME].split(".", 1)[0]] += forest.self_time(span)
    executors = [s for s in in_load if s[NAME] == EXECUTOR]
    fsync_wall = _sum(in_load, "storage.fsync")
    put_files = [s for s in in_puts if s[NAME] == "storage.put_file"]
    deduped = sum(1 for s in put_files
                  if not any(c[NAME] == "core.compress"
                             for c in forest.children[s[ID]]))
    written = sum(s[INFO] for s in in_puts
                  if s[NAME] in ("storage.blob_write",
                                 "storage.journal_append"))

    def per(count, seconds):
        return seconds * 1e3 / count

    return {
        "serve.self_ms": per(ops, latency - _sum(
            in_load, "storage.put_file", "storage.get_chunk")),
        "serve.admit_wait_ms": per(ops, _sum(in_load, "serve.admit")),
        "serve.executor_wait_ms": per(ops, sum(
            s[START] - s[INFO][0] for s in executors)),
        "serve.gil_wait_ms": per(ops, max(0.0, sum(
            s[END] - s[START] - s[INFO][1] for s in executors) - fsync_wall)),
        "storage.put_ms": per(len(puts), _sum(in_puts, "storage.put_file")),
        "storage.read_ms": per(len(reads), _sum(in_reads, "storage.get_chunk")),
        "storage.self_ms": per(ops, layer_self["storage"]),
        "storage.fsyncs_per_put": _count(in_puts, "storage.fsync") / len(puts),
        "storage.fsync_ms": per(len(puts), _sum(in_puts, "storage.fsync")),
        "storage.journal_ms": per(len(puts), _sum(
            in_puts, "storage.journal_append", "storage.journal_checkpoint")),
        "storage.blob_writes_per_put": (
            _count(in_puts, "storage.blob_write") / len(puts)),
        "storage.written_per_user_byte": (
            written / sum(s[INFO] for s in put_files)),
        "storage.blob_read_ms": per(len(reads), _sum(
            in_reads, "storage.blob_read")),
        "storage.recover_ms": statistics.median(recover_seconds) * 1e3,
        "storage.dedup_ratio": deduped / len(put_files),
        "storage.read_retries": registry_counts["read_retries"],
        "storage.fallbacks": registry_counts["fallbacks"],
        "core.arith_encode_ms": per(len(puts), _sum(
            in_puts, "core.arith_encode")),
        "core.arith_decode_ms": per(ops, _sum(in_load, "core.arith_decode")),
        "core.verify_decode_ms": per(len(puts), _sum(
            in_puts, "core.decompress_chunk")),
        "core.chunk_header_ms": per(ops, _sum(in_load, "core.chunk_header")),
        "core.container_ms": per(ops, _sum(
            in_load, "core.container_write", "core.container_feed")),
        "core.chunks_per_range": (
            _count(in_ranges, "core.decompress_chunk") / len(ranges)),
        "jpeg.parse_ms": per(len(puts), _sum(in_puts, "jpeg.parse")),
        "jpeg.huffman_decode_ms": per(len(puts), _sum(
            in_puts, "jpeg.huffman_decode")),
        "jpeg.huffman_encode_ms": per(ops, _sum(
            in_load, "jpeg.huffman_encode")),
        "share.serve": (covered - sum(
            layer_self[layer] for layer in LAYERS[1:])) / latency,
        **{f"share.{layer}": layer_self[layer] / latency
           for layer in LAYERS[1:]},
        "share.unattributed": (latency - covered) / latency,
    }


def layer_figures(run, tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric of a traced :class:`loadgen.Run`."""
    registry = get_registry()

    def counter(name, **labels):
        instrument = registry.get(name, **labels)
        return instrument.value if instrument is not None else 0.0

    traced = [s for s in run.load.samples if s.traced]
    untraced = [s for s in run.load.samples if not s.traced]
    quiet = [r for r in run.load.rounds if not r.traced]
    raw = latency_figures(quiet, [1.0] * len(quiet))
    raw["setup_s"] = statistics.median(run.setups[:-1])  # the last is traced
    figures = per_layer(
        tracer, {s.op: (s.start, s.end) for s in traced}, run.recovers,
        {"read_retries": counter("retry.attempts", scope="blockstore"),
         "fallbacks": counter("degraded_read.fallbacks")})
    figures["obs.spans_per_op"] = run.load.spans_per_op
    figures["host.probe_ms"] = run.probe_ms
    figures.update({f"host.raw_{name}": value for name, value in raw.items()})
    figures["trace.overhead"] = trace_overhead(traced, untraced)
    return figures


def trace_overhead(traced, untraced) -> float:
    """Traced over untraced median latency, per op kind, weighted by the
    traced ops of each kind (alternate rounds of ``mixed`` hold different
    kinds, so one median over all ops would compare different mixes)."""
    weighted = weights = 0
    for kind in {s.kind for s in traced} & {s.kind for s in untraced}:
        mine = [s.seconds for s in traced if s.kind == kind]
        theirs = [s.seconds for s in untraced if s.kind == kind]
        weighted += len(mine) * statistics.median(mine) / statistics.median(
            theirs)
        weights += len(mine)
    if not weights:  # a run too short to see any kind both ways
        return (statistics.median(s.seconds for s in traced)
                / statistics.median(s.seconds for s in untraced))
    return weighted / weights
