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
unpickled or run.

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
code.  A worker whose server dies reads end-of-file on its stdin and
exits.
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
from concurrent.futures import Future
from typing import Dict, List, Optional

from repro.core.chunks import (
    StoredChunk,
    chunk_ranges,
    compress_chunked,
    decompress_chunk,
)
from repro.core.errors import ExitCode, TimeoutExceeded
from repro.core.lepton import LeptonConfig, convert_lost
from repro.core.model import ModelConfig
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


def _chunk_header(chunk: StoredChunk) -> dict:
    return {"chunk": [chunk.index, chunk.format, *chunk.original_range]}


# -- the worker side ----------------------------------------------------------


def _encode(header: dict, body: bytes, deadline: Optional[float]):
    fields = dict(header["config"])
    config = LeptonConfig(**{**fields, "model": ModelConfig(**fields["model"])})
    chunks = compress_chunked(body, header["chunk_size"], config,
                              deadline=deadline)
    return ({"chunks": [[c.index, c.format, *c.original_range, len(c.payload)]
                        for c in chunks]},
            b"".join(c.payload for c in chunks))


def _decode(header: dict, body: bytes, deadline: Optional[float]):
    index, fmt, start, stop = header["chunk"]
    return {}, decompress_chunk(StoredChunk(index, fmt, body, (start, stop)),
                                deadline=deadline)


_JOBS = {"encode": _encode, "decode": _decode}


def _serve_jobs(jobs, replies) -> None:
    """The worker loop: announce this process, then answer each job frame
    from ``jobs`` on ``replies`` until ``jobs`` ends (the server is gone).

    Each job runs with a fresh registry and tracer, whose contents go back
    with the reply, a failed job's included.  ``budget`` is the seconds
    left of the request's deadline when it was sent.
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
        deadline = (None if budget is None
                    else time.monotonic() + budget)  # lint: disable=D2
        try:
            with trace_span("workers.job", kind=header["job"]):
                reply, out = _JOBS[header["job"]](header, body, deadline)
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


class _Worker:
    """One worker process and the job it is running, if any."""

    def __init__(self, slot: int, proc: subprocess.Popen):
        self.slot = slot
        self.proc = proc
        self.job: Optional[tuple] = None  # (kind, future)
        self.dead = False


def _outcome(kind: str, header: dict, body: bytes):
    """A reply frame as the job's result, or the exception to raise."""
    if "error" in header:
        if header["error"] == TimeoutExceeded.__name__:
            return TimeoutExceeded(header["detail"])
        return CodecJobError(f"{header['error']}: {header['detail']}")
    if kind == "decode":
        return body
    chunks, pos = [], 0
    for index, fmt, start, stop, size in header["chunks"]:
        chunks.append(StoredChunk(index, fmt, body[pos:pos + size],
                                  (start, stop)))
        pos += size
    return chunks


class CodecPool:
    """``size`` worker processes and the queue of idle ones.

    :meth:`encode` and :meth:`decode` wait for an idle worker (no longer
    than the request's deadline: then :class:`TimeoutExceeded`) and hold
    it for one job.  :meth:`start` takes an idle worker only, so a request
    that already holds one never waits for a second.  One listener thread
    per worker reads its replies, replays their telemetry, frees the
    worker and resolves the job.
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
               deadline: Optional[float] = None) -> List[StoredChunk]:
        header = {"chunk_size": chunk_size,
                  "config": dataclasses.asdict(config)}
        start = time.monotonic()  # lint: disable=D2 - telemetry only
        try:
            return self._run("encode", header, data, deadline)
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
                deadline: Optional[float]) -> Optional[Future]:
        """Send one job; ``None`` if ``worker`` died idle (its listener
        may not have seen it yet) and so never received it."""
        future: Future = Future()
        header = {**header, "job": kind,
                  "budget": None if deadline is None
                  else deadline - time.monotonic()}  # lint: disable=D2
        with self._cond:
            if worker.dead:
                return None
            worker.job = (kind, future)
        try:
            _write_frame(worker.proc.stdin, header, body)
        except OSError:
            with self._cond:
                if worker.job is not None and worker.job[1] is future:
                    worker.job = None
            return None
        get_registry().counter("workers.jobs", kind=kind).inc()
        return future

    def _run(self, kind: str, header: dict, body: bytes,
             deadline: Optional[float]):
        while True:
            worker = self._acquire(deadline, wait=True)
            future = self._submit(worker, kind, header, body, deadline)
            if future is not None:
                return future.result()

    def _listen(self, worker: _Worker) -> None:
        """Read ``worker``'s replies until it dies, then respawn it."""
        registry, tracer = get_registry(), get_tracer()
        stdout = worker.proc.stdout
        ready = _read_frame(stdout) is not None
        if ready:
            self._free(worker)
        while ready:
            frame = _read_frame(stdout)
            if frame is None:
                break
            header, body = frame
            # Telemetry first: whoever waits on the job sees it recorded.
            registry.replay(header.pop("registry"))
            tracer.replay(header.pop("spans"))
            with self._cond:
                (kind, future), worker.job = worker.job, None
            self._free(worker)
            result = _outcome(kind, header, body)
            if isinstance(result, Exception):
                future.set_exception(result)
            else:
                future.set_result(result)
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
            job[1].set_exception(WorkerLost(
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
