"""A small asyncio HTTP/1.1 client for ``lepton serve``.

Used by the test suite, ``repro.serve.smoke``, the runnable blocks in
``docs/serve.md``, and ``benchmarks/bench_serve_latency.py`` — all of
which need the same three things a general client library would bury:
keep-alive reuse, a measured time-to-first-byte, and zero dependencies.
"""

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs import get_registry
from repro.storage.retry import RetryPolicy

#: Methods safe to replay blindly: a GET/HEAD that died on the wire can
#: be reissued without risking a double side effect.
IDEMPOTENT_METHODS = ("GET", "HEAD")

#: Wire failures of one exchange.
_WIRE_ERRORS = (ConnectionError, asyncio.IncompleteReadError, OSError)


@dataclass
class Response:
    """One complete HTTP response, body fully read."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: Seconds from request written to first body byte read (None for
    #: bodiless responses).
    ttfb: Optional[float] = None

    def json(self) -> dict:
        return json.loads(self.body.decode())


class RetriesExhausted(ConnectionError):
    """The retry budget ran out while the server kept answering 503."""


class UploadIncomplete(ConnectionError):
    """An upload could not be driven to completion within its resume
    budget (the server stayed down, or kept conflicting)."""


class _Unanswered(ConnectionError):
    """The connection failed before any byte of the response arrived."""


class ServeClient:
    """One keep-alive connection to a server; reconnects transparently.

    A request is sent again in three cases, all in :meth:`request`'s one
    loop:

    * a reused keep-alive socket fails before any response byte arrives:
      the server closed it before reading the request, so any method is
      sent once more on a fresh connection (with or without a policy);
    * with a :class:`~repro.storage.retry.RetryPolicy` attached, an
      idempotent request (:data:`IDEMPOTENT_METHODS`) whose exchange died
      on the wire — reset, refused, or severed — is retried with the
      policy's seeded capped-exponential backoff, e.g. riding out a fault
      plan's network-loss window.  Other methods are never replayed
      blindly: the server may have applied them before the cut;
    * with a policy attached, a ``503`` is retried for any method (the
      server refused it without work).  Its ``Retry-After`` is obeyed
      *ahead of* the policy's backoff: the server knows exactly how long
      its breaker or drain will refuse traffic, so its number beats the
      client's guess.

    The policy bounds the attempts of the last two cases, which count
    under ``retry.attempts{scope=serve_client}``.
    """

    def __init__(self, host: str, port: int,
                 retry: Optional[RetryPolicy] = None, retry_seed: int = 0):
        self.host = host
        self.port = port
        self.retry = retry
        self._retry_rng = None
        if retry is not None:
            import numpy as np

            self._retry_rng = np.random.default_rng(retry_seed)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None

    async def __aenter__(self):
        return self

    async def __aexit__(self, exc_type, exc, tb):
        await self.close()
        return False

    async def request(self, method: str, target: str,
                      body: bytes = b"",
                      headers: Optional[Dict[str, str]] = None) -> Response:
        """Issue one request and return its response, sending it again
        only in the cases the class docstring lists."""
        headers = headers or {}
        policy = self.retry
        started = time.monotonic()
        attempt = 1
        while True:
            reused = self._writer is not None
            try:
                if not reused:
                    await self._connect()
                response = await self._round_trip(method, target, body,
                                                  headers)
            except _WIRE_ERRORS as exc:
                await self.close()
                if reused and isinstance(exc, _Unanswered):
                    continue  # a stale keep-alive socket; now a fresh one
                if (policy is None
                        or method.upper() not in IDEMPOTENT_METHODS
                        or not policy.should_retry(
                            attempt, time.monotonic() - started)):
                    raise
                delay = policy.backoff(attempt, rng=self._retry_rng)
            else:
                if (response.status != 503 or policy is None
                        or not policy.should_retry(
                            attempt, time.monotonic() - started)):
                    return response
                delay = self._retry_after(response, attempt)
            await asyncio.sleep(delay)
            get_registry().counter("retry.attempts",
                                   scope="serve_client").inc()
            attempt += 1

    def _retry_after(self, response: Response, attempt: int) -> float:
        """The server's ``Retry-After``, else the policy's backoff."""
        try:
            return max(0.0, float(response.headers["retry-after"]))
        except (KeyError, ValueError):
            return self.retry.backoff(attempt, rng=self._retry_rng)

    async def _round_trip(self, method, target, body, headers) -> Response:
        lines = [f"{method} {target} HTTP/1.1",
                 f"Host: {self.host}:{self.port}"]
        if body or method in ("PUT", "POST"):
            lines.append(f"Content-Length: {len(body)}")
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        try:
            self._writer.write(
                ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
            self._writer.write(body)
            started = time.monotonic()
            await self._writer.drain()
            first = await self._reader.read(1)
        except _WIRE_ERRORS as exc:
            raise _Unanswered(f"{method} {target}: {exc}") from exc
        if not first:
            raise _Unanswered(f"{method} {target}: connection closed")
        head = first + await self._reader.readuntil(b"\r\n\r\n")
        head_lines = head.decode("latin-1").split("\r\n")
        status = int(head_lines[0].split(" ")[1])
        resp_headers: Dict[str, str] = {}
        for line in head_lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            resp_headers[name.strip().lower()] = value.strip()

        # A HEAD response ends at its head, whatever its Content-Length.
        length = (0 if method == "HEAD"
                  else int(resp_headers.get("content-length", "0")))
        ttfb = None
        pieces = []
        remaining = length
        while remaining:
            piece = await self._reader.read(min(64 * 1024, remaining))
            if not piece:
                raise asyncio.IncompleteReadError(b"".join(pieces), length)
            if ttfb is None:
                ttfb = time.monotonic() - started
            pieces.append(piece)
            remaining -= len(piece)
        response = Response(status=status, headers=resp_headers,
                            body=b"".join(pieces), ttfb=ttfb)
        if resp_headers.get("connection", "").lower() == "close":
            await self.close()
        return response

    async def put_file(self, data: bytes, tenant: Optional[str] = None,
                       deadline: Optional[float] = None) -> Response:
        headers = {}
        if tenant:
            headers["x-lepton-tenant"] = tenant
        if deadline is not None:
            headers["X-Lepton-Deadline"] = str(deadline)
        return await self.request("PUT", "/files", body=data, headers=headers)

    async def get_file(self, file_id: str,
                       byte_range: Optional[str] = None,
                       deadline: Optional[float] = None) -> Response:
        headers = {}
        if byte_range:
            headers["Range"] = byte_range
        if deadline is not None:
            headers["X-Lepton-Deadline"] = str(deadline)
        return await self.request("GET", f"/files/{file_id}", headers=headers)

    # -- resumable uploads (docs/serve.md, "Request lifecycle") -----------

    async def upload_file(self, data: bytes, tenant: Optional[str] = None,
                          part_size: int = 64 * 1024,
                          upload_id: Optional[str] = None,
                          max_resumes: int = 8) -> Response:
        """Upload ``data`` through the resumable-session protocol.

        Creates a session (or adopts ``upload_id`` — e.g. one interrupted
        in a previous process life), streams parts of ``part_size``, and
        finalizes.  Any wire failure — reset mid-part, refused connection
        while the server restarts — triggers a *resume*: reconnect, ask
        ``HEAD /uploads/{id}`` for the durable offset, continue from
        there.  At most ``max_resumes`` resumes are attempted before
        :class:`UploadIncomplete` — the bounded-retries guarantee the
        chaos drill asserts.  A ``409`` offset conflict self-heals from
        the server's answer without costing a resume.

        Returns the finalize response (``201``/``200`` with the stored
        file's JSON) or the first non-retryable error response.
        """
        declared = len(data)
        base = {"x-lepton-tenant": tenant} if tenant else {}
        registry = get_registry()
        resumes = 0
        offset: Optional[int] = 0 if upload_id is None else None
        while True:
            try:
                if upload_id is None:
                    created = await self.request(
                        "POST", "/uploads",
                        headers={**base,
                                 "X-Lepton-Upload-Length": str(declared)})
                    if created.status != 201:
                        return created
                    upload_id = created.json()["upload"]
                    offset = 0
                if offset is None:
                    # Resuming: the server's durable offset is the truth.
                    head = await self.request("HEAD", f"/uploads/{upload_id}")
                    if head.status != 200:
                        return head
                    offset = int(head.headers["x-lepton-upload-offset"])
                while True:
                    part = data[offset:offset + part_size]
                    response = await self.request(
                        "PUT", f"/uploads/{upload_id}", body=part,
                        headers={**base,
                                 "X-Lepton-Upload-Offset": str(offset)})
                    if response.status == 409:
                        offset = int(
                            response.headers["x-lepton-upload-offset"])
                        continue
                    if response.status not in (200, 201):
                        return response
                    if (response.headers.get("x-lepton-upload-state")
                            == "completed"):
                        return response
                    offset = int(response.headers.get(
                        "x-lepton-upload-offset",
                        str(min(offset + len(part), declared))))
            except (ConnectionError, asyncio.IncompleteReadError,
                    OSError) as exc:
                resumes += 1
                if resumes > max_resumes:
                    raise UploadIncomplete(
                        f"upload {upload_id or '<uncreated>'} still "
                        f"incomplete after {max_resumes} resumes"
                    ) from exc
                registry.counter("retry.attempts",
                                 scope="serve_upload").inc()
                await self.close()
                await asyncio.sleep(self._resume_delay(resumes))
                if upload_id is not None:
                    offset = None  # re-probe durable progress via HEAD

    def _resume_delay(self, resumes: int) -> float:
        if self.retry is not None:
            return self.retry.backoff(resumes, rng=self._retry_rng)
        return min(0.05 * resumes, 1.0)
