"""Codec worker processes: the store's codec calls, off the server's GIL.

Production Lepton runs every conversion in its own process (§5.1), and a
stored chunk decodes without any other chunk (§3.4).  :class:`CodecPool`
keeps one worker per CPU this process may run on.  Each is a plain
``python -m repro.storage.workers`` subprocess that imports the same
``repro`` as the server and takes length-prefixed jobs over its stdin and
stdout pipes: "encode a file's chunk windows", "decode one stored
chunk", or "code another worker's encode".  A frame is a JSON header
plus raw bytes.  A reply's header carries the job's telemetry (registry
rows and spans), which the server replays into its own registry and
tracer; nothing a worker sends is ever unpickled or run.  An encode
asked for its windows sends each coded window in a frame of its own
before the final reply, so the server can start that window's §5.7
verify while the next window encodes.  An encode that borrowed a second
worker sends each MCU row band's recorded symbols in a frame instead;
the server relays them to a ``code`` job on that worker, which runs the
arithmetic coder one band behind, and relays each coded segment back
(:func:`repro.core.session.code_segment_records`).

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
code.  A borrowed worker that dies costs its encode only the time to
code the lost segment itself.  A worker whose server dies reads
end-of-file on its stdin and exits.
"""

import atexit
import dataclasses
import json
import os
import signal
import struct
import subprocess
import sys
import threading
import time
from array import array
from concurrent.futures import Future
from typing import Callable, Dict, List, NamedTuple, Optional

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


class _RemoteStage:
    """The coding stage of one segment, run by a code job on another
    worker: each band goes out as a frame, which the server relays to
    that worker, and the last band waits for the coded segment to come
    back the same way.  The first band names the model to code under.

    A segment's bytes are read before the next segment's bands are sent,
    so the server never holds frames in both directions at once.
    """

    def __init__(self, jobs, replies, model_config: ModelConfig,
                 account: bool):
        self._jobs, self._replies = jobs, replies
        self._open = {"model": dataclasses.asdict(model_config),
                      "account": account}

    def band(self, words, last: bool) -> Optional[CodedSegment]:
        header = {"band": last}
        if self._open is not None:
            header["open"], self._open = self._open, None
        _write_frame(self._replies, header, array("q", words).tobytes())
        if not last:
            return None
        frame = _read_frame(self._jobs)
        if frame is None:
            raise BrokenPipeError("the server closed the job pipe")
        reply, data = frame
        if "lost" in reply:
            raise CodingLost(reply["lost"])
        return CodedSegment(data, reply["segment"]["bins"],
                            reply["segment"]["costs"])


def _encode(header: dict, body: bytes, deadline: Optional[float], jobs,
            replies):
    fields = dict(header["config"])
    config = LeptonConfig(**{**fields, "model": ModelConfig(**fields["model"])})

    def report(chunk: StoredChunk) -> None:
        _write_frame(replies, {"window": _chunk_fields(chunk)}, chunk.payload)

    def remote(model_config: ModelConfig, account: bool) -> _RemoteStage:
        return _RemoteStage(jobs, replies, model_config, account)

    chunks = compress_chunked(body, header["chunk_size"], config,
                              deadline=deadline,
                              on_window=report if header["windows"] else None,
                              coding=remote if header["coding"] else CodingStage)
    return ({"chunks": [[*_chunk_fields(c), len(c.payload)] for c in chunks]},
            b"".join(c.payload for c in chunks))


def _decode(header: dict, body: bytes, deadline: Optional[float], jobs,
            replies):
    return {}, decompress_chunk(_chunk(header["chunk"], body),
                                deadline=deadline)


def _code(header: dict, body: bytes, deadline: Optional[float], jobs,
          replies):
    """The coding stage of another worker's encode: code each segment's
    bands as they arrive and reply with its bytes after its last band,
    until the server says the encode is over.  A band that fails to code
    stops the coding; the segment's last band is then answered with
    ``lost``, so the encode codes it itself.  Every frame up to ``end``
    is read either way: the next job's header follows it."""
    stage, error = None, None
    while True:
        frame = _read_frame(jobs)
        if frame is None:
            raise BrokenPipeError("the server closed the job pipe")
        band, words = frame
        if "end" in band:
            if error is not None:
                raise error
            return {}, b""
        coded = None
        if error is None:
            try:
                if "open" in band:
                    stage = CodingStage(ModelConfig(**band["open"]["model"]),
                                        band["open"]["account"])
                packed = array("q")
                packed.frombytes(words)
                coded = stage.band(packed, band["band"])
            except Exception as exc:
                error = exc
        if error is not None and band["band"]:
            _write_frame(replies, {"lost": f"{type(error).__name__}: {error}"})
        elif coded is not None:
            _write_frame(replies, {"segment": {"bins": coded.bins,
                                               "costs": coded.costs}},
                         coded.data)


_JOBS = {"encode": _encode, "decode": _decode, "code": _code}


def _serve_jobs(jobs, replies) -> None:
    """The worker loop: announce this process, then answer each job frame
    from ``jobs`` on ``replies`` until ``jobs`` ends (the server is gone).

    Each job runs with a fresh registry and tracer, whose contents go back
    with the reply, a failed job's included.  A job may read further
    frames from ``jobs`` and send frames of its own before its reply.
    ``budget`` is the seconds left of the request's deadline when it was
    sent.  The ``workers.job`` span's ``started`` label is the job's
    start on the host's monotonic clock, which the server and its workers
    share.
    """
    registry, tracer = get_registry(), get_tracer()
    _write_frame(replies, {"pid": os.getpid()})
    while True:
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
                                                  jobs, replies)
        except Exception as exc:
            reply, out = {"error": type(exc).__name__, "detail": str(exc)}, b""
        reply["registry"] = registry.export()
        reply["spans"] = tracer.export()
        _write_frame(replies, reply, out)


def main() -> None:
    # A terminal's Ctrl-C is the server's to handle; a worker stops when
    # its stdin closes.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Frames own the real stdout; a stray print goes to stderr instead.
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    try:
        _serve_jobs(sys.stdin.buffer, replies)
    except BrokenPipeError:
        # The server died while this worker ran its job: exit without
        # flushing the reply nobody will read.
        os._exit(0)


# -- the server side ----------------------------------------------------------


class _Pair:
    """An encode job whose coding stage runs as a code job on a second
    worker, the *helper*.  The encoder's listener relays its bands to the
    helper and the helper's listener relays each coded segment back.

    ``awaiting``: the encoder sent a segment's last band and waits for
    its bytes.  ``lost``: the helper is gone, so bands are dropped and a
    waiting encoder is told (it codes the segment itself).  ``ended``:
    the encode job is over and the helper was told to stop.
    """

    def __init__(self, encoder: "_Worker", helper: "_Worker"):
        self.encoder = encoder
        self.helper = helper
        self.awaiting = False
        self.lost = False
        self.ended = False


class _Job(NamedTuple):
    """A job sent to a worker: what it is, who waits on it, where its
    coded windows go (an encode that asked for them), when it was sent
    (monotonic), and the encode/code pair it belongs to, if any."""

    kind: str
    future: Future
    on_window: Optional[Callable[[StoredChunk], None]]
    sent: float
    pair: Optional[_Pair] = None


class _Worker:
    """One worker process and the job it is running, if any."""

    def __init__(self, slot: int, proc: subprocess.Popen):
        self.slot = slot
        self.proc = proc
        self.job: Optional[_Job] = None
        self.dead = False
        #: Serialises frames to the worker's stdin: a job's relays come
        #: from two listener threads.
        self.stdin_lock = threading.Lock()


def _send(worker: _Worker, header: dict, body: bytes = b"") -> None:
    """One frame to ``worker``; raises :class:`OSError` or
    :class:`ValueError` if its stdin is gone (it died)."""
    with worker.stdin_lock:
        _write_frame(worker.proc.stdin, header, body)


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
    """``size`` worker processes and the queue of idle ones.

    :meth:`encode` and :meth:`decode` wait for an idle worker (no longer
    than the request's deadline: then :class:`TimeoutExceeded`) and hold
    it for one job.  :meth:`start` takes an idle worker only, so a request
    that already holds one never waits for a second.  One listener thread
    per worker reads its replies, hands an encode's coded windows to its
    ``on_window`` as they arrive, relays the frames of an encode that
    borrowed a second worker for its coding stage, frees the worker as
    soon as the final reply is read, then replays the job's telemetry and
    resolves it.
    """

    def __init__(self, size: int):
        self.size = size
        self.restarts = 0
        self._cond = threading.Condition()
        self._idle: List[_Worker] = []
        self._live: Dict[int, _Worker] = {}
        self._closed = False
        for slot in range(size):
            self._spawn(slot)

    # -- the runner interface (see blockstore.InProcessCodec) ---------------

    def encode(self, data: bytes, chunk_size: int, config: LeptonConfig,
               deadline: Optional[float] = None,
               on_window: Optional[Callable[[StoredChunk], None]] = None,
               borrow: bool = False) -> List[StoredChunk]:
        """Encode on a worker.  ``on_window`` gets each coded window as
        soon as the worker sends it, on this worker's listener thread, so
        it must not block; the result still carries every window.  With
        ``borrow``, a second worker idle at the start runs the coding
        stage (:func:`~repro.core.session.code_segment_records`) one row
        band behind the encode's modelling; the bytes are the same."""
        header = {"chunk_size": chunk_size,
                  "config": dataclasses.asdict(config),
                  "windows": on_window is not None}
        start = time.monotonic()  # lint: disable=D2 - telemetry only
        try:
            return self._run("encode", header, data, deadline, on_window,
                             borrow)
        except WorkerLost as lost:
            # A conversion that died with its worker is a §6.2 reject
            # under the killing signal's exit code, stored as Deflate.
            return convert_lost(data, chunk_ranges(len(data), chunk_size),
                                lost.exit_code, start)

    def decode(self, chunk: StoredChunk,
               deadline: Optional[float] = None) -> bytes:
        return self._run("decode", _chunk_header(chunk), chunk.payload,
                         deadline)

    def start(self, chunk: StoredChunk,
              deadline: Optional[float] = None) -> Optional[Future]:
        """Decode ``chunk`` on an idle worker; ``None`` if none is idle."""
        worker = self._acquire(deadline, wait=False)
        if worker is None:
            return None
        return self._submit(worker, "decode", _chunk_header(chunk),
                            chunk.payload, deadline)

    def idle_workers(self) -> int:
        with self._cond:
            return len(self._idle)

    def describe(self) -> dict:
        """The ``/healthz`` view: the live workers' pids, those running a
        job, and restarts."""
        with self._cond:
            live = [w for w in self._live.values() if not w.dead]
            return {"size": self.size, "live": len(live),
                    "pids": sorted(w.proc.pid for w in live),
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
            while not self._idle:
                if not wait:
                    return None
                if not self._live:
                    raise WorkerLost("no codec worker is running")
                timeout = None
                if deadline is not None:
                    timeout = deadline - time.monotonic()  # lint: disable=D2
                    if timeout <= 0:
                        raise TimeoutExceeded(
                            "no codec worker was free before the "
                            "deadline")
                self._cond.wait(timeout)
            worker = self._idle.pop()
        if wait:
            get_registry().histogram("workers.wait_seconds").observe(
                time.monotonic() - begin)  # lint: disable=D2
        return worker

    def _submit(self, worker: _Worker, kind: str, header: dict, body: bytes,
                deadline: Optional[float], on_window=None,
                pair: Optional[_Pair] = None) -> Optional[Future]:
        """Send one job; ``None`` if ``worker`` died idle (its listener
        may not have seen it yet) and so never received it."""
        future: Future = Future()
        sent = time.monotonic()  # lint: disable=D2 - telemetry and budget
        header = {**header, "job": kind,
                  "budget": None if deadline is None else deadline - sent}
        with self._cond:
            if worker.dead:
                return None
            worker.job = _Job(kind, future, on_window, sent, pair)
        try:
            _send(worker, header, body)
        except (OSError, ValueError):
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
            pair = self._borrow(worker, deadline) if borrow else None
            if kind == "encode":
                header = {**header, "coding": pair is not None}
            future = self._submit(worker, kind, header, body, deadline,
                                  on_window, pair)
            if future is not None:
                return future.result()
            if pair is not None:
                self._end(pair)

    def _borrow(self, worker: _Worker,
                deadline: Optional[float]) -> Optional[_Pair]:
        """Start a code job for ``worker``'s encode on an idle worker;
        ``None`` if none is idle."""
        helper = self._acquire(deadline, wait=False)
        if helper is None:
            return None
        pair = _Pair(worker, helper)
        if self._submit(helper, "code", {}, b"", deadline,
                        pair=pair) is None:
            return None
        return pair

    # -- an encode's coding stage on its helper ------------------------------

    def _relay_band(self, pair: _Pair, header: dict, body: bytes) -> None:
        """One band from the encoder, to its helper (encoder's listener)."""
        with self._cond:
            lost = pair.lost
            if header["band"] and not lost:
                pair.awaiting = True
        if not lost:
            try:
                _send(pair.helper, header, body)
                return
            except (OSError, ValueError):
                self._lose(pair)
        elif header["band"]:
            self._tell_lost(pair)

    def _relay_segment(self, pair: _Pair, header: dict, body: bytes) -> None:
        """The helper's answer to a segment's last band (its bytes, or
        ``lost``), to its encoder (helper's listener)."""
        with self._cond:
            pair.awaiting = False
        try:
            _send(pair.encoder, header, body)
        except (OSError, ValueError):
            pass  # the encoder died; its own listener ends the pair

    def _lose(self, pair: _Pair) -> None:
        """The helper is gone: an encoder waiting for a segment is told."""
        with self._cond:
            pair.lost = True
            waiting, pair.awaiting = pair.awaiting, False
        if waiting:
            self._tell_lost(pair)

    def _tell_lost(self, pair: _Pair) -> None:
        try:
            _send(pair.encoder, {"lost": f"codec worker "
                                 f"{pair.helper.proc.pid} left the encode"})
        except (OSError, ValueError):
            pass  # the encoder died too

    def _release(self, job: _Job) -> None:
        """``job`` is over: an encode's helper stops, and a helper that
        died is lost to an encoder still waiting on it."""
        if job.pair is None:
            return
        if job.kind == "code":
            self._lose(job.pair)
        else:
            self._end(job.pair)

    def _end(self, pair: _Pair) -> None:
        """The encode job is over: tell the helper to stop (encoder's
        listener, or the request that failed to send the encode)."""
        with self._cond:
            if pair.ended:
                return
            pair.ended = True
            pair.awaiting = False
            lost = pair.lost
        if not lost:
            try:
                _send(pair.helper, {"end": True})
            except (OSError, ValueError):
                pass  # the helper died; its listener respawns it

    def _listen(self, worker: _Worker) -> None:
        """Read ``worker``'s replies until it dies, then respawn it.

        A frame handler that raises (an encode's ``on_window``) fails that
        job when its reply arrives; the listener keeps reading."""
        registry, tracer = get_registry(), get_tracer()
        stdout = worker.proc.stdout
        ready = _read_frame(stdout) is not None
        if ready:
            self._free(worker)
        failure: Optional[Exception] = None
        while ready:
            frame = _read_frame(stdout)
            if frame is None:
                break
            header, body = frame
            if "band" in header:
                self._relay_band(worker.job.pair, header, body)
                continue
            if "segment" in header or "lost" in header:
                self._relay_segment(worker.job.pair, header, body)
                continue
            if "window" in header:
                # One coded window of a running encode.
                try:
                    worker.job.on_window(_chunk(header["window"], body))
                except Exception as exc:
                    failure = failure or exc
                continue
            with self._cond:
                job, worker.job = worker.job, None
            # The worker is done: free it before the replay, which is
            # this thread's work, not the worker's.
            self._free(worker)
            self._release(job)
            # Telemetry first: whoever waits on the job sees it recorded.
            registry.replay(header.pop("registry"))
            spans = header.pop("spans")
            tracer.replay(spans)
            result = failure or _outcome(job.kind, header, body)
            failure = None
            registry.histogram("workers.overhead_seconds").observe(max(
                0.0, time.monotonic() - job.sent  # lint: disable=D2
                - _busy_seconds(spans)))
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
            self._release(job)
            job.future.set_exception(WorkerLost(
                f"codec worker {worker.proc.pid} exited with {code}",
                exit_code_for_signal(-code) if code < 0
                else ExitCode.IMPOSSIBLE))
        if respawn:
            registry.counter("workers.restarts").inc()
            self._spawn(worker.slot)

    def _free(self, worker: _Worker) -> None:
        with self._cond:
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
