"""``lepton serve``: the asyncio HTTP storage front-end.

This module is the network skin over the verified chunk store.  One route
table, :data:`ROUTES`, names each ``(method, route)``'s handler and the
gates it passes; :meth:`LeptonServer._handle` applies those gates once, in
the one order of :data:`GATES` — the endpoint's circuit breaker, live
fault injection from a fault plan, graceful drain, §5.7's shutoff switch
on encoding routes, then the ``X-Lepton-Deadline`` parse and admission
control at the door (§5.5's backpressure) — and each handler does only
its own work.  Status codes come from a closed set
(:data:`~repro.serve.http.STATUS_REASONS`), and uploads may be resumable
and journal-backed.  The full API contract, gates included, lives in
``docs/serve.md`` and is enforced both ways by ``tests/test_docs.py``.

Design notes:

* The event loop never runs codec work: every blocking step (codec,
  digests, journal fsyncs, backend walks) goes through
  :meth:`LeptonServer._offload` to the loop's default executor, so
  concurrent requests genuinely meet at the admission gate — saturation
  sheds immediate ``503``s instead of silently serializing in socket
  buffers — and ``/healthz`` answers while the codec is busy.  The codec
  itself runs in worker processes (:mod:`repro.storage.workers`, one per
  CPU, shared by every server in the process): an executor thread
  waits on a pipe, not on the GIL.  The server hands the pool its
  admission gate, whose count tells the pool's one scheduling rule
  whether a request is alone (:class:`repro.storage.workers.CodecPool`).
* A GET never serves a wrong byte: every streamed piece sits behind the
  block store's two digest gates.  A failure *after* the response head
  has been written severs the connection (:meth:`LeptonServer._sever`)
  — the client sees a short read against ``Content-Length``, never
  silently bad bytes.
* Every ``serve.*`` instrument is created at startup, so a scrape of a
  freshly booted server already shows the whole metric surface.
"""

import asyncio
import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.core.errors import TimeoutExceeded
from repro.core.lepton import FORMAT_LEPTON, LeptonConfig
from repro.faults.killpoints import KillPoints
from repro.faults.plan import FaultPlan
from repro.obs import get_registry
from repro.serve.admission import AdmissionGate, AdmitTimeout, Saturated
from repro.serve.faults import LiveFaultInjector
from repro.serve.http import (
    HttpError,
    Request,
    RequestTimeout,
    json_body,
    parse_range,
    read_request,
    render_head,
)
from repro.storage.blockstore import (
    BlockStore,
    IntegrityError,
    open_durable_store,
)
from repro.storage.journal import Journal, MemoryJournal
from repro.storage.quotas import QuotaBoard, QuotaExceeded
from repro.storage.retry import BreakerBoard, CircuitBreaker, RetryPolicy
from repro.storage.safety import ShutoffSwitch
from repro.storage.scrub import Scrubber
from repro.storage.uploads import (
    OffsetConflict,
    UnknownUpload,
    UploadError,
    UploadLedger,
)
from repro.storage.workers import shared_pool

#: The gates a request may pass, in the one order :meth:`LeptonServer._handle`
#: applies them.  ``admission`` parses the request's deadline first: the
#: remaining budget bounds the queued wait.
GATES: Tuple[str, ...] = ("breaker", "faults", "drain", "shutoff",
                          "admission")


@dataclass(frozen=True)
class Route:
    """One ``(method, route)``: the handler method and its gates."""

    handler: str
    gates: Tuple[str, ...] = ()


#: The route table.  The data plane sits behind its endpoint's breaker,
#: which the monitoring plane skips so it stays reachable while breakers
#: are open; the shutoff gates only the routes that encode, because §5.7's
#: kill file disables encoding while reads stay up.  ``tests/test_docs.py``
#: diffs the table, gates included, against docs/serve.md both ways.
ROUTES: Dict[Tuple[str, str], Route] = {
    ("PUT", "/files"): Route(
        "_put_file", ("breaker", "faults", "drain", "shutoff", "admission")),
    ("GET", "/files/{id}"): Route(
        "_get_file", ("breaker", "faults", "drain", "admission")),
    ("POST", "/uploads"): Route(
        "_post_upload", ("breaker", "drain", "shutoff", "admission")),
    ("PUT", "/uploads/{id}"): Route(
        "_put_upload", ("breaker", "drain", "shutoff", "admission")),
    # A resuming client must learn its durable offset even while the
    # data plane is saturated or draining.
    ("HEAD", "/uploads/{id}"): Route("_head_upload", ("breaker",)),
    ("GET", "/healthz"): Route("_get_healthz"),
    ("GET", "/metrics"): Route("_get_metrics"),
    ("GET", "/tenants"): Route("_get_tenants"),
}

#: The documented API surface: every (method, route) the server answers.
ENDPOINTS: Tuple[Tuple[str, str], ...] = tuple(ROUTES)

#: Routes with a circuit breaker (one per route, whatever the method).
BREAKER_ROUTES: Tuple[str, ...] = tuple(dict.fromkeys(
    route for (_, route), spec in ROUTES.items() if "breaker" in spec.gates))

#: Header naming the tenant a request is accounted to.
TENANT_HEADER = "x-lepton-tenant"
DEFAULT_TENANT = "default"
#: Remaining request budget in seconds (float): the end-to-end deadline.
#: Parsed once at dispatch into a monotonic deadline that propagates
#: through admission, executor codec work, and storage reads.
DEADLINE_HEADER = "x-lepton-deadline"
#: Total logical bytes a resumable upload will carry (POST /uploads).
UPLOAD_LENGTH_HEADER = "x-lepton-upload-length"
#: Byte offset a part append targets / the durable progress in responses.
UPLOAD_OFFSET_HEADER = "x-lepton-upload-offset"
#: Session state in upload responses: ``open`` or ``completed``.
UPLOAD_STATE_HEADER = "x-lepton-upload-state"
#: File id of a completed upload (HEAD responses after finalize).
UPLOAD_FILE_HEADER = "x-lepton-file"

#: Largest file one ``PUT /files`` or ``POST /uploads`` may declare.
MAX_FILE_BYTES = 64 * 1024 * 1024

_READ_PIECE = 64 * 1024

#: End-of-stream marker for pulling a sync generator through the executor.
_DONE = object()


@dataclass
class ServeConfig:
    """Knobs for one server instance (CLI flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = let the OS pick
    max_inflight: int = 8
    queue_depth: int = 16
    retry_after: int = 1               # seconds, on every 503
    quota_bytes: Optional[int] = None  # per-tenant logical budget
    chunk_size: int = 1 << 22          # the production 4 MiB
    lepton: LeptonConfig = field(default_factory=LeptonConfig)
    keep_originals: bool = True
    read_retry_attempts: int = 2
    drain_timeout: float = 30.0
    shutoff_dir: Optional[str] = None
    fault_plan: Optional[FaultPlan] = None
    fault_seed: int = 0
    # -- durability (docs/durability.md) --------------------------------
    #: Root directory of filesystem replicas and journals; ``None`` keeps
    #: the blobs and journals in memory (the test default).  Either way
    #: every put runs the same journaled protocol.
    data_dir: Optional[str] = None
    #: Filesystem replicas under ``data_dir`` (quorum writes, validated
    #: reads with read-repair when > 1).
    replicas: int = 1
    #: Seconds between background scrub passes; ``None`` disables the
    #: loop (``Scrubber.run_once`` can still be driven manually).
    scrub_interval: Optional[float] = None
    # -- slow-loris guard ------------------------------------------------
    #: Per-connection read timeout (seconds) covering the idle wait, each
    #: header line, and each body read; ``None`` disables it.
    idle_timeout: Optional[float] = None
    # -- request-lifecycle robustness (docs/serve.md) --------------------
    #: Consecutive 5xx-class failures that open an endpoint's breaker.
    breaker_threshold: int = 5
    #: Seconds an open endpoint breaker refuses traffic before its
    #: half-open probe; also the source of its ``Retry-After``.
    breaker_reset: float = 5.0
    #: Crash-injection harness for the live chaos drill.  Attached to the
    #: store and ledgers only *after* startup recovery completes, so an
    #: armed point can never fire while the previous crash is being
    #: repaired (recovery-before-listen must terminate).
    kill: Optional[KillPoints] = None


class _MonotonicClock:
    """Adapter giving :class:`~repro.storage.retry.BreakerBoard` the wall
    it expects (an object with ``.now``).  The serve path is outside the
    deterministic scope — breaker timing here is real elapsed time."""

    @property
    def now(self) -> float:
        return time.monotonic()


class LeptonServer:
    """The HTTP front-end over a :class:`BlockStore` (one per process)."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        #: The global registry: the codec and the store write it too, so
        #: ``/metrics`` shows every layer.
        self.registry = get_registry()
        self.quotas = QuotaBoard(limit_bytes=self.config.quota_bytes)
        self.injector = (
            LiveFaultInjector(self.config.fault_plan,
                              seed=self.config.fault_seed)
            if self.config.fault_plan is not None else None
        )
        #: The process's codec worker pool, which every server shares.
        self.codec = shared_pool()
        self.store = self._build_store()
        self.uploads = self._build_uploads()
        self._attach_kill()
        self.scrubber = Scrubber(self.store)
        self._scrub_task: Optional[asyncio.Task] = None
        self.shutoff = ShutoffSwitch(directory=self.config.shutoff_dir)
        self.gate = AdmissionGate(self.config.max_inflight,
                                  self.config.queue_depth)
        self.codec.add_gate(self.gate)
        self.breakers = BreakerBoard(
            _MonotonicClock(),
            template=CircuitBreaker(
                failure_threshold=self.config.breaker_threshold,
                reset_timeout=self.config.breaker_reset,
            ),
        )
        self.draining = False
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._t0 = time.monotonic()
        self._declare_metrics()

    def _build_store(self) -> BlockStore:
        """The verified chunk store — on filesystem replicas when
        ``data_dir`` is set, in memory otherwise."""
        options = dict(
            chunk_size=self.config.chunk_size,
            config=self.config.lepton,
            keep_originals=self.config.keep_originals,
            read_retry=RetryPolicy(
                max_attempts=self.config.read_retry_attempts),
            read_fault=(self.injector.read_fault
                        if self.injector is not None else None),
            quotas=self.quotas,
            codec=self.codec,
        )
        if self.config.data_dir is None:
            return BlockStore(**options)
        # Crash recovery (journal replay, rollback, index rebuild) runs
        # here, before the socket opens: a request can never observe a
        # half-recovered store.  The kill harness is deliberately NOT
        # passed in: recovery itself reaches kill points (checkpoint),
        # and an armed point firing mid-recovery would wedge the
        # crash-restart-recover cycle; see :meth:`_attach_kill`.
        return open_durable_store(self.config.data_dir,
                                  replicas=self.config.replicas, **options)

    def _build_uploads(self) -> UploadLedger:
        """The resumable-upload ledger over the store's backend, with its
        own ``uploads.wal`` journal under ``data_dir``.

        Recovery (journal replay, orphan-blob pruning, quota
        re-reservation) also runs here, before the socket opens —
        ``HEAD /uploads/{id}`` must report durable truth from request #1.
        """
        journal = (MemoryJournal() if self.config.data_dir is None
                   else Journal(os.path.join(str(self.config.data_dir),
                                             "uploads.wal")))
        ledger = UploadLedger(backend=self.store.backend, journal=journal,
                              quotas=self.quotas)
        ledger.recover()
        return ledger

    def _attach_kill(self) -> None:
        """Arm the crash harness — strictly after recovery completed."""
        kill = self.config.kill
        if kill is None:
            return
        self.store.kill = kill
        self.store.journal.kill = kill
        self.uploads.kill = kill
        self.uploads.journal.kill = kill

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._t0 = time.monotonic()
        if self.config.scrub_interval:
            self._scrub_task = asyncio.create_task(self._scrub_loop())

    async def _scrub_loop(self) -> None:
        """Periodic scrub passes, off the event loop (lint D7)."""
        while True:
            await asyncio.sleep(self.config.scrub_interval)
            await self._offload(self.scrubber.run_once)

    @staticmethod
    async def _offload(fn, *args):
        """Run blocking work — codec, digests, journal fsyncs, backend
        walks — on the loop's default executor, so the loop stays free
        for every other connection (lint D7)."""
        return await asyncio.get_running_loop().run_in_executor(
            None, fn, *args)

    async def drain(self) -> None:
        """Graceful §5.7 drain: refuse new work, finish in-flight, close.

        In-flight requests get ``drain_timeout`` seconds to finish; after
        that, surviving connections are severed (an operator's drain must
        terminate even when a client never reads its response).
        """
        start = time.monotonic()
        self.draining = True
        if self._scrub_task is not None:
            self._scrub_task.cancel()
            self._scrub_task = None
        if self._server is not None:
            self._server.close()
        await self.gate.drained(timeout=self.config.drain_timeout)
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        self.registry.histogram("serve.drain.seconds").observe(
            time.monotonic() - start
        )

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until ``stop`` is set, then drain."""
        if self._server is None:
            await self.start()
        try:
            await stop.wait()
        finally:
            await self.drain()

    def _now(self) -> float:
        """Seconds since server start — the fault plan's time base."""
        return time.monotonic() - self._t0

    def _declare_metrics(self) -> None:
        """Create every serve.* instrument so scrape #1 shows the surface."""
        registry = self.registry
        registry.counter("serve.requests",
                         method="GET", route="/healthz", status="200")
        registry.counter("serve.bytes_in")
        registry.counter("serve.bytes_out")
        registry.counter("serve.files.stored")
        registry.counter("serve.admission.rejected")
        registry.counter("serve.quota.rejected")
        registry.gauge("serve.inflight")
        registry.gauge("serve.admission.queue_depth")
        for _, route in ENDPOINTS:
            registry.histogram("serve.request.seconds", route=route)
        registry.histogram("serve.ttfb_seconds")
        registry.histogram("serve.drain.seconds")
        for stage in ("idle", "head", "body"):
            registry.counter("serve.timeouts", stage=stage)
        for route in BREAKER_ROUTES:
            registry.counter("serve.deadline_exceeded", route=route)
            registry.counter("serve.breaker.rejected", route=route)
        registry.counter("serve.uploads.created")
        registry.counter("serve.uploads.parts")
        registry.counter("serve.uploads.completed")
        registry.counter("serve.uploads.conflicts")
        registry.counter("serve.uploads.recovered").inc(
            self.uploads.recovered_sessions)
        registry.gauge("serve.uploads.open").set(self.uploads.open_sessions())

    # -- connection handling ----------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, timeout=self.config.idle_timeout)
                except HttpError as exc:
                    await self._send_error(writer, None, "*", exc)
                    break
                except RequestTimeout as exc:
                    if not exc.request_line:
                        # An idle keep-alive connection timing out is
                        # housekeeping, not a protocol error: close quietly.
                        self.registry.counter("serve.timeouts",
                                              stage="idle").inc()
                        break
                    # Mid-headers stall (slow loris): a request line was
                    # parsed, so the client is owed a 408 before the close.
                    self.registry.counter("serve.timeouts",
                                          stage="head").inc()
                    await self._send_error(
                        writer, None, "*",
                        HttpError(408, "request_timeout", str(exc),
                                  headers={"Connection": "close"}))
                    break
                if request is None:
                    break
                keep = await self._handle(request, reader, writer)
                if not keep or self.draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing left to say
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle(self, request: Request, reader, writer) -> bool:
        """Run one request through its route's gates, in :data:`GATES`
        order, then its handler; returns whether to keep the connection."""
        started = time.monotonic()
        route = "*"
        try:
            route, spec = self._route(request)
            gates = spec.gates
            if "breaker" in gates:
                self._check_breaker(route)
            if "faults" in gates and self.injector is not None:
                if self.injector.should_drop(self._now()):
                    return False  # severed: the plan's network-loss window
                delay = self.injector.response_delay(self._now())
                if delay:
                    await asyncio.sleep(delay)
            if "drain" in gates and self.draining:
                raise HttpError(503, "draining", "server is draining")
            if "shutoff" in gates and self.shutoff.engaged:
                raise HttpError(503, "shutoff",
                                "encoding disabled by shutoff switch")
            admitted = "admission" in gates
            deadline = self._deadline_of(request) if admitted else None
            if admitted:
                # The remaining budget bounds the queued wait.
                wait = (None if deadline is None
                        else max(0.0, deadline - time.monotonic()))
                try:
                    await self.gate.admit(timeout=wait)
                except Saturated as exc:
                    raise HttpError(503, "saturated", str(exc)) from exc
            try:
                await getattr(self, spec.handler)(request, reader, writer,
                                                  deadline)
            finally:
                if admitted:
                    self.gate.release()
            if "breaker" in gates:
                self.breakers.success(route)
        except HttpError as exc:
            # 4xx/503 are the client's (or load's) fault, not the
            # endpoint's: only a 500-class response may trip a breaker.
            if exc.status >= 500 and exc.status not in (503, 504):
                self._breaker_failure(route)
            await self._send_error(writer, request, route, exc)
        except (TimeoutExceeded, AdmitTimeout) as exc:
            # The end-to-end deadline expired — queued, mid-codec, or
            # mid-storage-read.  Deadline misses are the *client's*
            # budget, not endpoint health: breakers don't count them.
            self.registry.counter("serve.deadline_exceeded",
                                  route=route).inc()
            await self._send_error(
                writer, request, route,
                HttpError(504, "deadline_exceeded",
                          str(exc) or "request deadline exceeded"))
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except IntegrityError as exc:
            # A read's first chunk failed a digest gate: sever rather
            # than answer from unverified bytes.
            raise self._sever(request, route, exc) from exc
        except Exception as exc:
            self._breaker_failure(route)
            await self._send_error(
                writer, request, route,
                HttpError(500, "internal_error", f"{type(exc).__name__}: {exc}"),
            )
        finally:
            self.registry.histogram("serve.request.seconds",
                                    route=route).observe(
                time.monotonic() - started
            )
        return request.keep_alive and not request.body_pending

    def _route(self, request: Request) -> Tuple[str, Route]:
        """Map a request to its route pattern and table entry: ``404`` for
        an unknown path, ``405`` (with ``Allow``) for a wrong method."""
        path = request.path.rstrip("/") or "/"
        first, nested, _ = path[1:].partition("/")
        route = f"/{first}/{{id}}" if nested else path
        allowed = [method for method, pattern in ROUTES if pattern == route]
        if not allowed:
            raise HttpError(404, "not_found", f"no route for {request.path}")
        if request.method not in allowed:
            raise HttpError(405, "method_not_allowed",
                            f"{request.method} {route}",
                            headers={"Allow": ", ".join(allowed)})
        return route, ROUTES[request.method, route]

    def _check_breaker(self, route: str) -> None:
        """Refuse a data-plane request whose endpoint breaker is open.

        The 503 carries ``Retry-After`` computed from the breaker's
        actual half-open time — the client backs off exactly as long as
        the endpoint will refuse it, not a configured constant.
        """
        if self.breakers.allow(route):
            return
        self.registry.counter("serve.breaker.rejected", route=route).inc()
        retry_after = max(1, math.ceil(self.breakers.retry_after(route)))
        raise HttpError(
            503, "breaker_open",
            f"endpoint breaker open for {route}",
            headers={"Retry-After": str(retry_after)},
        )

    def _breaker_failure(self, route: str) -> None:
        """Count a failure against ``route``'s breaker, if it has one."""
        if route in BREAKER_ROUTES:
            self.breakers.failure(route)

    def _sever(self, request: Request, route: str,
               exc: Exception) -> ConnectionResetError:
        """Account for an exchange that must end without a (further)
        response, and return the error that cuts its connection.

        Both severing paths come here: a digest gate that fails before the
        head, and any failure once a GET's head is out.  A deadline is the
        client's budget, not endpoint health, so only other failures count
        against the breaker.
        """
        if isinstance(exc, TimeoutExceeded):
            self.registry.counter("serve.deadline_exceeded",
                                  route=route).inc()
        else:
            self._breaker_failure(route)
        self._count(request.method, route, "aborted")
        return ConnectionResetError(str(exc))

    def _deadline_of(self, request: Request) -> Optional[float]:
        """Parse :data:`DEADLINE_HEADER` into a monotonic deadline.

        The header carries the *remaining budget* in seconds (clients
        cannot share a clock with the server); an unparseable value is a
        400, a budget that is already spent short-circuits to 504 before
        any work is admitted.
        """
        raw = request.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            budget = float(raw)
        except ValueError:
            raise HttpError(400, "bad_deadline",
                            f"unparseable deadline budget {raw!r}") from None
        if budget <= 0:
            raise TimeoutExceeded(
                f"deadline budget {budget!r}s already spent")
        return time.monotonic() + budget

    # -- responses ---------------------------------------------------------

    def _count(self, method: str, route: str, status) -> None:
        self.registry.counter("serve.requests", method=method, route=route,
                              status=str(status)).inc()

    async def _send(self, writer, request: Optional[Request], route: str,
                    status: int, body: bytes, headers: dict) -> None:
        writer.write(render_head(status, headers, content_length=len(body)))
        if request is None or request.method != "HEAD":
            writer.write(body)  # a HEAD response ends at its head
        await writer.drain()
        method = request.method if request is not None else "?"
        self._count(method, route, status)

    async def _send_error(self, writer, request, route,
                          exc: HttpError) -> None:
        body, headers = json_body(
            {"error": exc.error, "detail": exc.detail}
        )
        headers.update(exc.headers)
        if exc.status == 503 and "Retry-After" not in headers:
            headers["Retry-After"] = str(self.config.retry_after)
        if request is not None and request.body_pending:
            # Rejected before its body was read (quota, saturation,
            # shutoff…): the unread bytes would desync keep-alive framing.
            headers["Connection"] = "close"
        await self._send(writer, request, route, exc.status, body, headers)

    # -- endpoints: each handler runs after its route's gates ------------

    async def _get_healthz(self, request, reader, writer, deadline) -> None:
        if self.draining:
            state, status = "draining", 503
        elif self.shutoff.engaged:
            state, status = "shutoff", 503
        else:
            state, status = "ok", 200
        payload = {"status": state}
        # Per-endpoint breaker truth: state, trip count, and the exact
        # seconds until an open breaker admits its half-open probe.
        payload["breakers"] = self.breakers.describe()
        payload["uploads"] = self.uploads.describe()
        # Backend description walks the filesystem (key counts): blocking
        # I/O, so it runs on the executor like the codec.
        payload["backend"] = await self._offload(self.store.backend.describe)
        payload["backend"]["damaged_entries"] = self.store.damaged_entries
        payload["scrub"] = self.scrubber.describe()
        payload["workers"] = self.codec.describe()
        body, headers = json_body(payload)
        if status == 503:
            headers["Retry-After"] = str(self.config.retry_after)
        await self._send(writer, request, "/healthz", status, body, headers)

    async def _get_metrics(self, request, reader, writer, deadline) -> None:
        text = self.registry.render() + "\n"
        await self._send(writer, request, "/metrics", 200, text.encode(),
                         {"Content-Type": "text/plain; charset=utf-8"})

    async def _get_tenants(self, request, reader, writer, deadline) -> None:
        body, headers = json_body({
            "limit_bytes": self.quotas.limit_bytes,
            "tenants": self.quotas.snapshot(),
        })
        await self._send(writer, request, "/tenants", 200, body, headers)

    async def _put_file(self, request, reader, writer, deadline) -> None:
        length = request.content_length
        if length is None:
            raise HttpError(411, "length_required",
                            "PUT /files requires Content-Length")
        if length > MAX_FILE_BYTES:
            raise HttpError(413, "file_too_large",
                            f"{length} > {MAX_FILE_BYTES} bytes")
        tenant = request.headers.get(TENANT_HEADER, DEFAULT_TENANT)
        try:
            self.quotas.reserve(tenant, length)
        except QuotaExceeded as exc:
            self.registry.counter("serve.quota.rejected").inc()
            raise HttpError(413, "quota_exceeded", str(exc)) from exc
        try:
            data = await self._read_body(request, reader, length)
        except Exception:
            self.quotas.release(tenant, length)
            raise
        self.registry.counter("serve.bytes_in").inc(length)
        # Content addressing hashes the whole body — CPU time proportional
        # to the upload, so it belongs on the executor with the codec.
        file_id = await self._offload(
            lambda: hashlib.sha256(data).hexdigest())
        existed = file_id in self.store.files
        # Chunk + compress + verify off the event loop: the gate, not the
        # codec, decides what the next connection experiences.  The
        # deadline rides along: an expired budget cancels the segment
        # coder between row bands (504), instead of finishing a
        # compression nobody is waiting for.  The reservation made above
        # covers the whole body, so the put cannot run out of quota.
        record = await self._offload(lambda: self.store.put_file(
            file_id, data, tenant=tenant, reserved=length,
            deadline=deadline))
        if self.injector is not None:
            self.injector.corrupt_after_put(self.store)
        if not existed:
            self.registry.counter("serve.files.stored").inc()
        body, headers = self._file_response(file_id, record, tenant)
        await self._send(writer, request, "/files",
                         200 if existed else 201, body, headers)

    def _file_response(self, file_id: str, record, tenant: str):
        """The stored-file JSON surface shared by ``PUT /files`` and a
        finalizing ``PUT /uploads/{id}``."""
        stored = self.store.stored_bytes_for(record)
        formats = {self.store.entries[key].format
                   for key in record.chunk_keys}
        body, headers = json_body({
            "id": file_id,
            "bytes": record.size,
            "stored_bytes": stored,
            "chunks": len(record.chunk_keys),
            "format": (FORMAT_LEPTON if formats == {FORMAT_LEPTON}
                       else "/".join(sorted(formats)) if formats else "empty"),
            "savings": (1.0 - stored / record.size) if record.size else 0.0,
            "tenant": tenant,
        })
        headers["Location"] = f"/files/{file_id}"
        return body, headers

    async def _read_body(self, request, reader, length: int) -> bytes:
        """Read the declared body off the stream and mark it consumed, so
        the response may keep the connection alive."""
        pieces = []
        remaining = length
        while remaining:
            try:
                piece = await asyncio.wait_for(
                    reader.read(min(_READ_PIECE, remaining)),
                    self.config.idle_timeout)
            except asyncio.TimeoutError:
                # Slow-loris body: the client stalled mid-upload while
                # holding an admission slot.  408 and close.
                self.registry.counter("serve.timeouts", stage="body").inc()
                raise HttpError(
                    408, "request_timeout",
                    f"body stalled at {length - remaining}/{length} bytes",
                    headers={"Connection": "close"},
                ) from None
            if not piece:
                raise HttpError(400, "bad_request",
                                f"body truncated at {length - remaining}"
                                f"/{length} bytes")
            pieces.append(piece)
            remaining -= len(piece)
        request.body_consumed = True
        return b"".join(pieces)

    # -- resumable uploads (docs/serve.md, "Request lifecycle") -----------

    async def _post_upload(self, request, reader, writer, deadline) -> None:
        raw = request.headers.get(UPLOAD_LENGTH_HEADER)
        if raw is None:
            raise HttpError(
                411, "length_required",
                f"POST /uploads requires {UPLOAD_LENGTH_HEADER}")
        try:
            declared = int(raw)
        except ValueError:
            raise HttpError(400, "bad_request",
                            f"unparseable upload length {raw!r}") from None
        if declared > MAX_FILE_BYTES:
            raise HttpError(413, "file_too_large",
                            f"{declared} > {MAX_FILE_BYTES} bytes")
        if request.content_length:
            await self._read_body(request, reader, request.content_length)
        tenant = request.headers.get(TENANT_HEADER, DEFAULT_TENANT)
        try:
            # Session create fsyncs a journal record: executor, not loop.
            session = await self._offload(self.uploads.create,
                                          tenant, declared)
        except QuotaExceeded as exc:
            self.registry.counter("serve.quota.rejected").inc()
            raise HttpError(413, "quota_exceeded", str(exc)) from exc
        except UploadError as exc:
            raise HttpError(400, "bad_request", str(exc)) from exc
        self.registry.counter("serve.uploads.created").inc()
        self.registry.gauge("serve.uploads.open").set(
            self.uploads.open_sessions())
        body, headers = json_body(session.describe())
        headers["Location"] = f"/uploads/{session.upload_id}"
        await self._send(writer, request, "/uploads", 201, body, headers)

    def _upload_id_of(self, request) -> str:
        return request.path.rstrip("/").rsplit("/", 1)[-1]

    async def _head_upload(self, request, reader, writer, deadline) -> None:
        """Durable progress report (no drain or admission gate)."""
        upload_id = self._upload_id_of(request)
        try:
            session = self.uploads.get(upload_id)
        except UnknownUpload:
            raise HttpError(404, "not_found",
                            f"no upload {upload_id!r}") from None
        headers = {
            UPLOAD_OFFSET_HEADER: str(session.received),
            UPLOAD_LENGTH_HEADER: str(session.declared),
            UPLOAD_STATE_HEADER: session.state,
        }
        if session.file_id is not None:
            headers[UPLOAD_FILE_HEADER] = session.file_id
        await self._send(writer, request, "/uploads/{id}", 200, b"", headers)

    async def _put_upload(self, request, reader, writer, deadline) -> None:
        length = request.content_length
        if length is None:
            raise HttpError(411, "length_required",
                            "PUT /uploads/{id} requires Content-Length")
        raw = request.headers.get(UPLOAD_OFFSET_HEADER)
        if raw is None:
            raise HttpError(
                400, "bad_request",
                f"PUT /uploads/{{id}} requires {UPLOAD_OFFSET_HEADER}")
        try:
            offset = int(raw)
        except ValueError:
            raise HttpError(400, "bad_request",
                            f"unparseable offset {raw!r}") from None
        upload_id = self._upload_id_of(request)
        # Read the body before judging the offset: answering 409 with
        # unread bytes in the pipe would desync keep-alive framing, and
        # resuming clients *expect* the occasional conflict.
        data = await self._read_body(request, reader, length)
        try:
            # Part append = backend write + journal fsync: executor work.
            session = await self._offload(self.uploads.append,
                                          upload_id, offset, data)
        except UnknownUpload:
            raise HttpError(404, "not_found",
                            f"no upload {upload_id!r}") from None
        except OffsetConflict as exc:
            self.registry.counter("serve.uploads.conflicts").inc()
            raise HttpError(
                409, "offset_conflict", str(exc),
                headers={UPLOAD_OFFSET_HEADER: str(exc.offset)},
            ) from exc
        except UploadError as exc:
            raise HttpError(400, "bad_request", str(exc)) from exc
        if data:
            self.registry.counter("serve.bytes_in").inc(len(data))
            self.registry.counter("serve.uploads.parts").inc()
        if session.state == "open" and session.received == session.declared:
            # Last byte (or an empty re-finalize PUT at the declared
            # offset): promote through the ordinary durable put, under
            # the reservation made at create.
            try:
                record = await self._offload(lambda: self.uploads.finalize(
                    upload_id, self.store, deadline=deadline))
            except UploadError as exc:
                raise HttpError(400, "bad_request", str(exc)) from exc
            session = self.uploads.get(upload_id)
            self.registry.counter("serve.uploads.completed").inc()
            self.registry.counter("serve.files.stored").inc()
            self.registry.gauge("serve.uploads.open").set(
                self.uploads.open_sessions())
            status = 201
        elif session.state == "completed":
            # Idempotent re-finalize: the client lost the completion ack.
            record, status = self.store.files[session.file_id], 200
        else:
            body, headers = json_body(session.describe())
            headers[UPLOAD_OFFSET_HEADER] = str(session.received)
            headers[UPLOAD_STATE_HEADER] = session.state
            await self._send(writer, request, "/uploads/{id}", 200,
                             body, headers)
            return
        body, headers = self._file_response(session.file_id, record,
                                            session.tenant)
        headers[UPLOAD_STATE_HEADER] = "completed"
        await self._send(writer, request, "/uploads/{id}", status,
                         body, headers)

    async def _get_file(self, request, reader, writer, deadline) -> None:
        started = time.monotonic()
        file_id = request.path.rstrip("/").rsplit("/", 1)[-1]
        record = self.store.files.get(file_id)
        if record is None:
            raise HttpError(404, "not_found", f"no file {file_id!r}")
        window = parse_range(request.headers.get("range"), record.size)
        headers = {
            "Content-Type": "image/jpeg",
            "Accept-Ranges": "bytes",
        }
        if window is None:
            start, stop, status = 0, record.size, 200
        else:
            start, stop = window
            status = 206
            headers["Content-Range"] = f"bytes {start}-{stop - 1}/{record.size}"
        pieces = self.store.stream_range(file_id, start, stop,
                                         deadline=deadline)
        # Decode the first piece *before* committing to a response head:
        # a deadline that expires during the first chunk's decode can
        # still answer with a clean 504 instead of a severed stream.
        piece = await self._offload(next, pieces, _DONE)
        writer.write(render_head(status, headers,
                                 content_length=stop - start))
        if piece is not _DONE:
            self.registry.histogram("serve.ttfb_seconds").observe(
                time.monotonic() - started)
        sent = 0
        while piece is not _DONE:
            writer.write(piece)
            sent += len(piece)
            await writer.drain()
            try:
                # Each chunk decodes on the executor; the loop stays free
                # and decoded pieces stream out ahead of the rest.
                piece = await self._offload(next, pieces, _DONE)
            except Exception as exc:
                # Head and some bytes are already out: any failure now
                # must sever, never pad or append an error response — the
                # client sees a short read against Content-Length (§5.7).
                raise self._sever(request, "/files/{id}", exc) from exc
        await writer.drain()
        self.registry.counter("serve.bytes_out").inc(sent)
        self._count(request.method, "/files/{id}", status)


async def run_server(config: ServeConfig,
                     stop: Optional[asyncio.Event] = None,
                     on_ready=None) -> LeptonServer:
    """Start a server, run until ``stop`` is set, drain, and return it.

    ``on_ready(server)`` fires once the socket is bound (the CLI prints
    the chosen port there; tests wire their client to it).
    """
    server = LeptonServer(config)
    await server.start()
    if on_ready is not None:
        on_ready(server)
    if stop is None:
        stop = asyncio.Event()
    await server.serve_until(stop)
    return server
