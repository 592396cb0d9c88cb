"""Codec worker processes: the store's codec calls, off the server's GIL.

Production Lepton runs every conversion in its own process (§5.1), and a
stored chunk decodes without any other chunk (§3.4).  :class:`CodecPool`
keeps one worker per CPU this process may run on.  Each is a plain
``python -m repro.storage.workers`` subprocess that imports the same
``repro`` as the server and takes length-prefixed jobs over its stdin and
stdout pipes: "encode a file's chunk windows" or "decode one stored
chunk".  A frame is a JSON header plus raw bytes.  A reply's header
carries the job's telemetry (registry rows and spans), which the server
replays into its own registry and tracer; nothing a worker sends is ever
unpickled or run.  An encode asked for its windows sends each coded
window in a frame of its own before the final reply, so the server can
start that window's §5.7 verify while the next window encodes.

Each worker forks a *coder* before its first job: a child process joined
to it by two pipes that the server never touches.  An encode that
borrowed a second CPU sends each MCU row band's recorded symbols to its
coder, which runs the arithmetic coder one band behind, and reads each
coded segment back (:func:`repro.core.session.code_segment_records`).

The pool is a codec runner for :class:`~repro.storage.blockstore.BlockStore`
(its in-process default is :class:`~repro.storage.blockstore.InProcessCodec`).
It answers only "what do these bytes encode or decode to": the digest
gates, the round-trip comparison, retries, the originals fallback, the
journal and admission all stay in the server process, so a worker is
never trusted with a verdict.  :func:`shared_pool` starts one pool per
process, the first time a ``LeptonServer`` asks for it.

A worker that dies mid-job (SIGKILL, the OOM killer) is respawned and
counted under ``workers.restarts``; its job fails with
:class:`WorkerLost`.  A read retries on another worker; a put stores the
file as Deflate, the §6.2 reject path, under the killing signal's exit
code.  A coder that dies costs its encode only the time to code the lost
segment itself; its worker then retires and is respawned.  A worker
whose server dies reads end-of-file on its stdin and exits, and its
coder with it.
"""

import atexit
import dataclasses
import functools
import json
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import weakref
from array import array
from concurrent.futures import Future
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

from repro.core.chunks import (
    StoredChunk,
    chunk_ranges,
    compress_chunked,
    decompress_chunk,
)
from repro.core.errors import ExitCode, TimeoutExceeded
from repro.core.lepton import LeptonConfig, convert_lost
from repro.core.model import ModelConfig
from repro.core.session import CodedSegment, CodingLost, CodingStage
from repro.obs import exit_code_for_signal, get_registry
from repro.obs import get_tracer, trace_span

#: Frame prefix: header length, body length.
_PREFIX = struct.Struct(">II")

#: The directory holding the ``repro`` package this process imported.
_SRC = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class WorkerLost(RuntimeError):
    """A codec worker died before it answered a job."""

    def __init__(self, message: str, exit_code: ExitCode = ExitCode.IMPOSSIBLE):
        super().__init__(message)
        self.exit_code = exit_code


class CodecJobError(RuntimeError):
    """A codec job raised in its worker; its type name and message came
    back in place of a result."""


class Decode(NamedTuple):
    """One chunk's turn: the chunk (a read's payload as read and
    md5-checked) and ``job``, which returns its decoded bytes."""

    chunk: StoredChunk
    job: Callable[[], bytes]


def _write_frame(stream, header: dict, body: bytes = b"") -> None:
    raw = json.dumps(header, separators=(",", ":")).encode()
    stream.write(_PREFIX.pack(len(raw), len(body)) + raw + body)
    stream.flush()


def _read_frame(stream):
    """``(header, body)``, or ``None`` at end of file."""
    prefix = stream.read(_PREFIX.size)
    if len(prefix) < _PREFIX.size:
        return None
    header_size, body_size = _PREFIX.unpack(prefix)
    raw = stream.read(header_size)
    body = stream.read(body_size)
    if len(raw) < header_size or len(body) < body_size:
        return None
    return json.loads(raw), body


def _chunk_fields(chunk: StoredChunk) -> list:
    return [chunk.index, chunk.format, *chunk.original_range]


def _chunk_header(chunk: StoredChunk) -> dict:
    return {"chunk": _chunk_fields(chunk)}


def _chunk(fields: list, payload: bytes) -> StoredChunk:
    index, fmt, start, stop = fields
    return StoredChunk(index, fmt, payload, (start, stop))


# -- the worker side ----------------------------------------------------------


class _Coder:
    """This worker's coder: a child process, forked before the worker's
    first job, that runs the coding stage of each encode that borrowed a
    second CPU.  Bands go to it on ``bands`` and coded segments come back
    on ``segments``; ``gone`` is set once either pipe breaks (it died).

    At the fork the worker runs no other Python thread.  numpy's BLAS
    threads are not copied, so the coder must call no BLAS routine, and
    :class:`CodingStage` calls none.
    """

    def __init__(self):
        bands_r, bands_w = os.pipe()
        segments_r, segments_w = os.pipe()
        self.pid = os.fork()
        if not self.pid:
            try:
                # Bands come in on stdin, in place of the server's job
                # pipe, and segments go out on stdout.  Every other
                # descriptor but stderr closes: above all the worker's
                # reply pipe, which would hide its worker's death from
                # the pool.
                os.dup2(bands_r, 0)
                os.dup2(segments_w, 1)
                os.closerange(3, os.sysconf("SC_OPEN_MAX"))
                _code_bands(os.fdopen(0, "rb"), os.fdopen(1, "wb"))
            finally:
                os._exit(0)
        os.close(bands_r)
        os.close(segments_w)
        self.bands = os.fdopen(bands_w, "wb")
        self.segments = os.fdopen(segments_r, "rb")
        self.gone = False

    def close(self) -> None:
        """End the coder, which exits at end of file on ``bands``, and
        reap it."""
        for stream in (self.bands, self.segments):
            try:
                stream.close()
            except OSError:
                pass  # a band the coder died before it read
        os.waitpid(self.pid, 0)


def _code_bands(bands, segments) -> None:
    """The coder's loop: code each band from ``bands`` as it arrives and
    answer a segment's last band on ``segments`` with its bytes, until
    ``bands`` ends (the worker is gone).  A band that carries ``open``
    starts a fresh segment, which discards one its encode abandoned (a
    deadline, or a reject).  A band that fails to code stops its segment,
    whose last band is then answered ``lost``: the encode codes that
    segment itself."""
    stage, error = None, None
    while True:
        frame = _read_frame(bands)
        if frame is None:
            return
        band, words = frame
        coded = None
        try:
            if "open" in band:
                error = None
                stage = CodingStage(ModelConfig(**band["open"]["model"]),
                                    band["open"]["account"])
            if error is None:
                packed = array("q")
                packed.frombytes(words)
                coded = stage.band(packed, band["band"])
        except Exception as exc:
            error = exc
        if error is not None and band["band"]:
            _write_frame(segments,
                         {"lost": f"{type(error).__name__}: {error}"})
        elif coded is not None:
            _write_frame(segments, {"segment": {"bins": coded.bins,
                                                "costs": coded.costs}},
                         coded.data)


class _RemoteStage:
    """The coding stage of one segment, run by this worker's coder: each
    band goes out on the coder's pipe, and the last band waits for the
    coded segment to come back.  The first band names the model to code
    under.  A coder that is gone raises :class:`CodingLost` and is marked
    ``gone``.
    """

    def __init__(self, coder: _Coder, model_config: ModelConfig,
                 account: bool):
        self._coder = coder
        self._open = {"model": dataclasses.asdict(model_config),
                      "account": account}

    def band(self, words, last: bool) -> Optional[CodedSegment]:
        header = {"band": last}
        if self._open is not None:
            header["open"], self._open = self._open, None
        try:
            _write_frame(self._coder.bands, header,
                         array("q", words).tobytes())
            if not last:
                return None
            frame = _read_frame(self._coder.segments)
        except BrokenPipeError:
            frame = None
        if frame is None:
            self._coder.gone = True
            raise CodingLost(f"coder {self._coder.pid} is gone")
        reply, data = frame
        if "lost" in reply:
            raise CodingLost(reply["lost"])
        get_registry().counter("workers.coder.segments").inc()
        return CodedSegment(data, reply["segment"]["bins"],
                            reply["segment"]["costs"])


def _encode(header: dict, body: bytes, deadline: Optional[float], replies,
            coder: _Coder):
    fields = dict(header["config"])
    config = LeptonConfig(**{**fields, "model": ModelConfig(**fields["model"])})

    def report(chunk: StoredChunk) -> None:
        _write_frame(replies, {"window": _chunk_fields(chunk)}, chunk.payload)

    def remote(model_config: ModelConfig, account: bool) -> _RemoteStage:
        return _RemoteStage(coder, model_config, account)

    chunks = compress_chunked(body, header["chunk_size"], config,
                              deadline=deadline,
                              on_window=report if header["windows"] else None,
                              coding=remote if header["coding"] else CodingStage)
    return ({"chunks": [[*_chunk_fields(c), len(c.payload)] for c in chunks]},
            b"".join(c.payload for c in chunks))


def _decode(header: dict, body: bytes, deadline: Optional[float], replies,
            coder: _Coder):
    return {}, decompress_chunk(_chunk(header["chunk"], body),
                                deadline=deadline)


_JOBS = {"encode": _encode, "decode": _decode}


def _serve_jobs(jobs, replies, coder: _Coder) -> None:
    """The worker loop: announce this process and its coder, then answer
    each job frame from ``jobs`` on ``replies`` until ``jobs`` ends (the
    server is gone) or the coder is gone.  The reply of the job that
    found the coder gone says ``retire``: the pool sends this worker no
    further job, and respawns it once it exits.

    Each job runs with a fresh registry and tracer, whose contents go back
    with the reply, a failed job's included.  A job may send frames of
    its own before its reply.  ``budget`` is the seconds left of the
    request's deadline when it was sent.  The ``workers.job`` span's
    ``started`` label is the job's start on the host's monotonic clock,
    which the server and its workers share.
    """
    registry, tracer = get_registry(), get_tracer()
    _write_frame(replies, {"pid": os.getpid(), "coder": coder.pid})
    while not coder.gone:
        frame = _read_frame(jobs)
        if frame is None:
            return
        header, body = frame
        registry.reset()
        tracer.clear()
        budget = header["budget"]
        started = time.monotonic()  # lint: disable=D2 - telemetry, budget
        deadline = None if budget is None else started + budget
        try:
            with trace_span("workers.job", kind=header["job"],
                            started=started):
                reply, out = _JOBS[header["job"]](header, body, deadline,
                                                  replies, coder)
        except Exception as exc:
            reply, out = {"error": type(exc).__name__, "detail": str(exc)}, b""
        reply["registry"] = registry.export()
        reply["spans"] = tracer.export()
        if coder.gone:
            reply["retire"] = True
        _write_frame(replies, reply, out)


def main() -> None:
    # A terminal's Ctrl-C is the server's to handle; a worker stops when
    # its stdin closes.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Frames own the real stdout; a stray print goes to stderr instead.
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    # Forked before the first job, so before the first untrusted byte
    # (§5.1): a worker never forks after it.
    coder = _Coder()
    try:
        _serve_jobs(sys.stdin.buffer, replies, coder)
    except BrokenPipeError:
        # The server died while this worker ran its job: exit without
        # flushing the reply nobody will read.
        os._exit(0)
    coder.close()


# -- the server side ----------------------------------------------------------


class _Job(NamedTuple):
    """A job sent to a worker: what it is, who waits on it, where its
    coded windows go (an encode that asked for them), and when it was
    sent (monotonic)."""

    kind: str
    future: Future
    on_window: Optional[Callable[[StoredChunk], None]]
    sent: float


class _Worker:
    """One worker process, its coder's pid (once it said hello), and the
    job it is running, if any."""

    def __init__(self, slot: int, proc: subprocess.Popen):
        self.slot = slot
        self.proc = proc
        self.coder: Optional[int] = None
        self.job: Optional[_Job] = None
        self.dead = False


def _outcome(kind: str, header: dict, body: bytes):
    """A reply frame as the job's result, or the exception to raise."""
    if "error" in header:
        if header["error"] == TimeoutExceeded.__name__:
            return TimeoutExceeded(header["detail"])
        return CodecJobError(f"{header['error']}: {header['detail']}")
    if kind != "encode":
        return body
    chunks, pos = [], 0
    for *fields, size in header["chunks"]:
        chunks.append(_chunk(fields, body[pos:pos + size]))
        pos += size
    return chunks


def _busy_seconds(spans: List[dict]) -> float:
    """The wall time of a reply's ``workers.job`` span."""
    return next((s["wall"] for s in spans if s["name"] == "workers.job"),
                0.0)


class CodecPool:
    """``size`` worker processes, and the one rule for when a request
    may use more than one of them.

    The store hands the pool each request's codec work in one call,
    :meth:`encode` for a put or :meth:`read` for a GET; :meth:`decode`
    is a decode of its own.  A request's first job waits for a worker
    (no longer than the request's deadline: then
    :class:`TimeoutExceeded`): a put's encode, or a read's first chunk
    (at once on an idle worker, else in the read's own decode).  Its
    later jobs, a read's later chunks or a put's verify of each window,
    take idle workers only, in order, up to the first that cannot start:
    at once while the request is alone in the server, otherwise once its
    first result is in (the encode returned, or the first chunk was
    yielded).  An idle worker owed to a waiting job is that job's.
    Alone means the gates of :meth:`add_gate` count one admitted request
    in all: a read counts right after its first chunk is sent, so two
    requests admitted in one loop turn see each other; a put counts as
    each of its windows is coded, or, with one window, as its encode is
    sent, and a lone one-window put also borrows an idle worker for its
    coding stage.

    A borrowing encode reserves the idle worker: that worker runs
    nothing until the encode's job ends, while the encode's own coder
    uses its CPU.  One listener thread per worker reads its replies,
    hands an encode's coded windows to its ``on_window`` as they arrive,
    frees the worker as soon as the final reply is read (unless the reply
    says the worker retires), then replays the job's telemetry and
    resolves it.
    """

    def __init__(self, size: int):
        self.size = size
        self.restarts = 0
        self._cond = threading.Condition()
        self._idle: List[_Worker] = []
        #: Jobs waiting for a worker: that many idle workers are theirs.
        self._waiting = 0
        self._live: Dict[int, _Worker] = {}
        #: The admission gates of the live servers this pool serves.
        self._gates: "weakref.WeakSet" = weakref.WeakSet()
        self._closed = False
        for slot in range(size):
            self._spawn(slot)

    # -- the runner interface (see blockstore.InProcessCodec) ---------------

    def encode(self, data: bytes, chunk_size: int, config: LeptonConfig,
               deadline: Optional[float] = None) -> Iterator[Decode]:
        """A put's codec work: the encode of ``data`` in windows of
        ``chunk_size`` (run by the first step), then each window's turn
        to verify, in order.  An early verify counts only for a window
        whose final payload is the bytes it decoded."""
        ranges = chunk_ranges(len(data), chunk_size)
        early: Dict[int, Decode] = {}

        def report(chunk: StoredChunk) -> None:  # the encoder's listener
            if self._alone():
                self._ahead({chunk.index: lambda: chunk}, [chunk.index],
                            early, deadline)

        header = {"chunk_size": chunk_size,
                  "config": dataclasses.asdict(config),
                  "windows": len(ranges) > 1}
        start = time.monotonic()  # lint: disable=D2 - telemetry only
        try:
            chunks = self._run("encode", header, data, deadline, report,
                               len(ranges) == 1 and self._alone())
        except WorkerLost as lost:
            # A conversion that died with its worker is a §6.2 reject
            # under the killing signal's exit code, stored as Deflate.
            chunks = convert_lost(data, ranges, lost.exit_code, start)
        started = {i: decode for i, decode in early.items()
                   if decode.chunk == chunks[i]}
        sources = [lambda chunk=chunk: chunk for chunk in chunks]
        for i, chunk in enumerate(chunks):
            self._ahead(sources, range(i, len(chunks)), started, deadline)
            yield started.pop(i, None) or Decode(
                chunk, functools.partial(self.decode, chunk, deadline))

    def read(self, sources: list,
             deadline: Optional[float] = None) -> Iterator[Optional[Decode]]:
        """A read's codec work: ``sources`` are its chunks in order, each
        a call that reads the chunk's payload and md5-checks it (``None``
        if it cannot).  Each step is one chunk's turn: its
        :class:`Decode`, or ``None`` for a chunk not sent, which the
        caller reads and decodes itself."""
        started: Dict[int, Decode] = {}
        for i in range(len(sources)):
            # The first turn sends the first chunk only, then counts.
            self._ahead(sources, range(i, len(sources) if i else 1),
                        started, deadline)
            if not i and self._alone():
                self._ahead(sources, range(1, len(sources)), started,
                            deadline)
            yield started.pop(i, None)

    def decode(self, chunk: StoredChunk,
               deadline: Optional[float] = None) -> bytes:
        return self._run("decode", _chunk_header(chunk), chunk.payload,
                         deadline)

    def add_gate(self, gate) -> None:
        """Count ``gate.inflight``, a server's admitted requests, when
        the pool asks whether a request is alone."""
        with self._cond:
            self._gates.add(gate)

    def idle_workers(self) -> int:
        with self._cond:
            return len(self._idle)

    def describe(self) -> dict:
        """The ``/healthz`` view: the live workers' pids and their coders'
        pids, the pids of those running a job, and restarts."""
        with self._cond:
            live = [w for w in self._live.values() if not w.dead]
            return {"size": self.size, "live": len(live),
                    "pids": sorted(w.proc.pid for w in live),
                    "coders": sorted(w.coder for w in live
                                     if w.coder is not None),
                    "busy": sorted(w.proc.pid for w in live
                                   if w.job is not None),
                    "restarts": self.restarts}

    def close(self) -> None:
        """Stop every worker: each exits at end of file on its stdin."""
        with self._cond:
            self._closed = True
            workers = list(self._live.values())
        for worker in workers:
            try:
                worker.proc.stdin.close()
            except OSError:
                pass
        for worker in workers:
            try:
                worker.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait()

    # -- internals -----------------------------------------------------------

    def _spawn(self, slot: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC, env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", __name__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, cwd=_SRC, env=env)
        worker = _Worker(slot, proc)
        with self._cond:
            self._live[slot] = worker
        threading.Thread(target=self._listen, args=(worker,),
                         name=f"codec-worker-{slot}", daemon=True).start()

    def _acquire(self, deadline: Optional[float],
                 wait: bool) -> Optional[_Worker]:
        begin = time.monotonic()  # lint: disable=D2 - telemetry and timeout
        with self._cond:
            if not wait:
                return (self._idle.pop() if len(self._idle) > self._waiting
                        else None)
            self._waiting += 1
            self._cond.wait_for(lambda: self._idle or not self._live,
                                None if deadline is None else deadline - begin)
            self._waiting -= 1
            if not self._idle:
                if not self._live:
                    raise WorkerLost("no codec worker is running")
                raise TimeoutExceeded(
                    "no codec worker was free before the deadline")
            worker = self._idle.pop()
        get_registry().histogram("workers.wait_seconds").observe(
            time.monotonic() - begin)  # lint: disable=D2
        return worker

    def _submit(self, worker: _Worker, kind: str, header: dict, body: bytes,
                deadline: Optional[float], on_window=None) -> Optional[Future]:
        """Send one job; ``None`` if ``worker`` died idle (its listener
        may not have seen it yet) and so never received it."""
        future: Future = Future()
        sent = time.monotonic()  # lint: disable=D2 - telemetry and budget
        header = {**header, "job": kind,
                  "budget": None if deadline is None else deadline - sent}
        with self._cond:
            if worker.dead:
                return None
            worker.job = _Job(kind, future, on_window, sent)
        try:
            _write_frame(worker.proc.stdin, header, body)
        except (OSError, ValueError):  # its stdin is gone: it died
            with self._cond:
                if worker.job is not None and worker.job.future is future:
                    worker.job = None
            return None
        get_registry().counter("workers.jobs", kind=kind).inc()
        return future

    def _run(self, kind: str, header: dict, body: bytes,
             deadline: Optional[float], on_window=None, borrow=False):
        while True:
            worker = self._acquire(deadline, wait=True)
            reserved = self._acquire(deadline, wait=False) if borrow else None
            if kind == "encode":
                header = {**header, "coding": reserved is not None}
            try:
                future = self._submit(worker, kind, header, body, deadline,
                                      on_window)
                if future is not None:
                    return future.result()
            finally:
                if reserved is not None:
                    self._free(reserved)

    # -- the scheduler (see the class docstring) -----------------------------

    def _alone(self) -> bool:
        with self._cond:
            return sum(gate.inflight for gate in list(self._gates)) == 1

    def _ahead(self, sources, turns, started: Dict[int, Decode],
               deadline: Optional[float]) -> None:
        """Send each chunk ``sources[i]()`` of ``turns`` not ``started``
        yet to an idle worker to decode, in order, into ``started``; stop
        at the first with no idle worker or no chunk."""
        for i in turns:
            if i in started:
                continue
            worker = self._acquire(deadline, wait=False)
            if worker is None:
                return
            chunk = sources[i]()
            if chunk is None:
                self._free(worker)
                return
            job = self._submit(worker, "decode", _chunk_header(chunk),
                               chunk.payload, deadline)
            if job is None:
                return
            started[i] = Decode(chunk, job.result)

    def _listen(self, worker: _Worker) -> None:
        """Read ``worker``'s replies until it dies, then respawn it.

        A frame handler that raises (an encode's ``on_window``) fails that
        job when its reply arrives, and so does a reply this thread cannot
        handle; the listener keeps reading."""
        registry, tracer = get_registry(), get_tracer()
        stdout = worker.proc.stdout
        hello = _read_frame(stdout)
        ready = hello is not None
        if ready:
            worker.coder = hello[0]["coder"]
            self._free(worker)
        failure: Optional[Exception] = None
        while ready:
            frame = _read_frame(stdout)
            if frame is None:
                break
            header, body = frame
            if "window" in header:
                # One coded window of a running encode.
                try:
                    worker.job.on_window(_chunk(header["window"], body))
                except Exception as exc:
                    failure = failure or exc
                continue
            with self._cond:
                job, worker.job = worker.job, None
            try:
                # The worker is done: free it before the replay, which is
                # this thread's work, not the worker's.  One that retires
                # exits next, and its slot respawns.
                if "retire" not in header:
                    self._free(worker)
                # Telemetry first: whoever waits on the job sees it
                # recorded.
                registry.replay(header.pop("registry"))
                spans = header.pop("spans")
                tracer.replay(spans)
                result = failure or _outcome(job.kind, header, body)
                registry.histogram("workers.overhead_seconds").observe(max(
                    0.0, time.monotonic() - job.sent  # lint: disable=D2
                    - _busy_seconds(spans)))
            except Exception as exc:
                result = exc
            failure = None
            if isinstance(result, Exception):
                job.future.set_exception(result)
            else:
                job.future.set_result(result)
        code = worker.proc.wait()
        stdout.close()
        try:
            worker.proc.stdin.close()
        except OSError:
            pass  # a frame it never read
        with self._cond:
            worker.dead = True
            if worker in self._idle:
                self._idle.remove(worker)
            job, worker.job = worker.job, None
            # One that never started is not respawned: it would only die
            # again.  A respawning slot stays live, so a waiting request
            # waits for its replacement.
            respawn = ready and not self._closed
            if respawn:
                self.restarts += 1
            else:
                del self._live[worker.slot]
            self._cond.notify_all()
        if job is not None:
            job.future.set_exception(WorkerLost(
                f"codec worker {worker.proc.pid} exited with {code}",
                exit_code_for_signal(-code) if code < 0
                else ExitCode.IMPOSSIBLE))
        if respawn:
            registry.counter("workers.restarts").inc()
            self._spawn(worker.slot)

    def _free(self, worker: _Worker) -> None:
        with self._cond:
            if worker.dead:
                return  # its slot respawned: the new worker frees itself
            self._idle.append(worker)
            self._cond.notify()


_SHARED: Optional[CodecPool] = None
_SHARED_LOCK = threading.Lock()


def shared_pool() -> CodecPool:
    """This process's pool, one worker per CPU the process may run on,
    started on first use and stopped at exit."""
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None:
            _SHARED = CodecPool(len(os.sched_getaffinity(0)))
            atexit.register(_SHARED.close)
        return _SHARED


if __name__ == "__main__":
    main()
