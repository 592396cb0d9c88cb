"""Resumable upload sessions: partial-put state kept as backend blobs.

An interrupted ``PUT /files`` today loses every byte that crossed the
wire.  At photo-service scale connection churn mid-transfer is the
common case (§5 deployment story), so the front-end needs a protocol
where progress is *durable per part*: the client declares a length,
appends chunks at explicit offsets, and after any disconnect — or a
server crash — asks the server how far it got and resumes from there.

The :class:`UploadLedger` is that protocol's storage half.  Each session
is a set of self-describing blobs in the store's backend:
``upload/<id>/session`` holds the tenant, the declared length and, once
finalized, the file id, and each part is one blob under
``upload/<id>/part-<offset>``.  Every step of the protocol is a single
blob write, which the backend makes durable before it returns (tmp +
fsync + rename on the filesystem backend, a write quorum on the
replicated one), so a part is **acked** as soon as its blob write
returns and no journal is needed: a journal exists to make several
writes atomic.  Finalize assembles the parts and promotes them through
the store's ordinary ``put_file`` — the journaled put — under the quota
reservation made at session create, so a finished upload is
indistinguishable from a one-shot put.

Crash recovery lists the ``upload/`` blobs and groups them by session.
An id without an intact session blob was never acknowledged, and all its
blobs go; a completed session loses any leftover part; an open session
keeps the contiguous intact parts from offset 0, deletes the rest, and
re-reserves its quota (``force=True`` — an admitted upload must not be
stranded by a shrunk limit).  The ``upload.*`` kill points
(:mod:`repro.faults.killpoints`) pin each step of the protocol for the
crash sweeps.

Session ids are sequential (``u00000001``), continuing past every id
found in the backend — no ambient entropy, so a replayed workload
allocates the same ids (lint D2).
"""

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.killpoints import KillPoints
from repro.storage.backends import (
    BlobError,
    MemoryBackend,
    StorageBackend,
    blob_ok,
    decode_blob,
    encode_blob,
)
from repro.storage.journal import MemoryJournal
from repro.storage.quotas import QuotaBoard


class UploadError(RuntimeError):
    """The request is malformed against the session state (HTTP 400)."""


class UnknownUpload(KeyError):
    """No session with that id (HTTP 404)."""


class OffsetConflict(RuntimeError):
    """The declared append offset is not the durable offset (HTTP 409).

    Carries the server's truth so the client can resume without a
    separate ``HEAD``: ``offset`` is where the next byte must land.
    """

    def __init__(self, upload_id: str, offset: int, declared: int):
        super().__init__(
            f"upload {upload_id}: next byte is {offset}, not {declared}"
        )
        self.upload_id = upload_id
        self.offset = offset


@dataclass
class UploadSession:
    """One resumable upload: identity, progress, and outcome."""

    upload_id: str
    tenant: str
    declared: int            # total logical bytes the client promised
    received: int = 0        # durable, acked, contiguous prefix
    state: str = "open"      # "open" | "completed"
    file_id: Optional[str] = None  # set once finalize promotes the bytes
    #: ``(offset, length)`` per acked part, in offset order.
    parts: List[Tuple[int, int]] = field(default_factory=list)

    def describe(self) -> dict:
        """JSON-friendly progress row (the ``HEAD /uploads/{id}`` truth)."""
        return {
            "upload": self.upload_id,
            "tenant": self.tenant,
            "bytes": self.declared,
            "offset": self.received,
            "state": self.state,
            "file": self.file_id,
        }


def _session_key(upload_id: str) -> str:
    return f"upload/{upload_id}/session"


def _part_key(upload_id: str, offset: int) -> str:
    return f"upload/{upload_id}/part-{offset:012d}"


class UploadLedger:
    """Registry of resumable upload sessions, kept as backend blobs.

    Every state transition is one blob write that returns before it is
    acknowledged.  The default backend keeps the blobs in RAM; the serve
    front-end hands over the store's backend.  All mutation is
    lock-guarded: the serve front-end drives the ledger from executor
    threads.
    """

    def __init__(self, backend: Optional[StorageBackend] = None,
                 quotas: Optional[QuotaBoard] = None,
                 kill: Optional[KillPoints] = None):
        self.backend = backend or MemoryBackend()
        self.quotas = quotas
        self.kill = kill
        #: Records nothing; ``perfbench/loadgen.py`` still closes
        #: ``server.uploads.journal`` when it tears a server down.
        self.journal = MemoryJournal()
        self.recovered_sessions = 0
        self.dropped_parts = 0
        self._lock = threading.Lock()
        self._sessions: Dict[str, UploadSession] = {}
        self._seq = 0

    # -- crash injection ---------------------------------------------------

    def _reach(self, name: str) -> None:
        if self.kill is not None:
            self.kill.reach(name)

    # -- blobs -------------------------------------------------------------

    def _write_session(self, session: UploadSession,
                       file_id: Optional[str] = None) -> None:
        # The state is the payload, not the meta, so the blob's md5
        # covers it.
        state = {"tenant": session.tenant, "bytes": session.declared,
                 "file": file_id}
        self.backend.write(_session_key(session.upload_id), encode_blob(
            {"upload": session.upload_id},
            json.dumps(state, sort_keys=True).encode()))

    def _intact(self, key: str) -> Optional[Tuple[dict, bytes]]:
        """The blob's meta and payload, or ``None`` if it is missing or
        fails its own digest."""
        try:
            blob = self.backend.read(key)
        except (KeyError, BlobError):
            return None
        return decode_blob(blob) if blob_ok(blob) else None

    # -- the protocol ------------------------------------------------------

    def create(self, tenant: str, declared: int) -> UploadSession:
        """Open a session for ``declared`` logical bytes.

        Reserves the full declared budget up front (raising
        :class:`~repro.storage.quotas.QuotaExceeded` over limit) so a
        doomed upload is refused before any byte crosses the wire.
        """
        if declared <= 0:
            raise UploadError(f"declared length must be positive, "
                              f"got {declared}")
        if self.quotas is not None:
            self.quotas.reserve(tenant, declared)
        try:
            with self._lock:
                self._seq += 1
                upload_id = f"u{self._seq:08d}"
                session = UploadSession(upload_id=upload_id, tenant=tenant,
                                        declared=declared)
                self._write_session(session)
                self._reach("upload.create.post")
                self._sessions[upload_id] = session
        except Exception:
            if self.quotas is not None:
                self.quotas.release(tenant, declared)
            raise
        return session

    def get(self, upload_id: str) -> UploadSession:
        with self._lock:
            session = self._sessions.get(upload_id)
            if session is None:
                raise UnknownUpload(upload_id)
            return session

    def append(self, upload_id: str, offset: int, data: bytes,
               ) -> UploadSession:
        """Durably append ``data`` at ``offset``; ack only after the part's
        blob write returned.

        ``offset`` must equal the durable offset (strictly sequential
        parts keep resume logic trivial); a mismatch raises
        :class:`OffsetConflict` carrying the server's truth.  Appending
        an *already-acked* range again is the one sanctioned replay: a
        client that lost the ack re-sends, the ledger recognises the
        duplicate and re-acks without rewriting anything.
        """
        with self._lock:
            session = self._sessions.get(upload_id)
            if session is None:
                raise UnknownUpload(upload_id)
            if session.state != "open":
                if offset + len(data) <= session.received:
                    # Lost-ack replay against a finished upload: re-ack so
                    # the front-end can re-serve the completion response.
                    return session
                raise UploadError(f"upload {upload_id} is {session.state}")
            if offset != session.received:
                if offset + len(data) <= session.received:
                    return session  # duplicate of an acked part: re-ack
                raise OffsetConflict(upload_id, session.received, offset)
            if not data:
                return session
            if offset + len(data) > session.declared:
                raise UploadError(
                    f"upload {upload_id}: {offset + len(data)} bytes "
                    f"exceed the declared {session.declared}"
                )
            self.backend.write(_part_key(upload_id, offset), encode_blob(
                {"upload": upload_id, "offset": offset, "len": len(data)},
                data,
            ))
            self._reach("upload.part.post")
            session.parts.append((offset, len(data)))
            session.received += len(data)
            return session

    def assemble(self, upload_id: str) -> bytes:
        """All received bytes, digest-verified part by part.

        Only meaningful once ``received == declared`` (finalize), but
        callable earlier for diagnostics.  A part blob that fails its
        own digest raises :class:`UploadError` — finalize must never
        promote a wrong byte.
        """
        with self._lock:
            session = self._sessions.get(upload_id)
            if session is None:
                raise UnknownUpload(upload_id)
            pieces = []
            for offset, length in session.parts:
                part = self._intact(_part_key(upload_id, offset))
                if part is None or len(part[1]) != length:
                    raise UploadError(
                        f"upload {upload_id}: part at {offset} fails "
                        f"verification"
                    )
                pieces.append(part[1])
            return b"".join(pieces)

    def finalize(self, upload_id: str, store, deadline=None):
        """Promote a complete session into the store; returns the
        :class:`~repro.storage.blockstore.FileRecord`.

        The file id is the SHA-256 of the assembled bytes — the same
        content addressing as one-shot ``PUT /files`` — and the quota
        reservation made at create is handed to ``put_file``, which
        commits or releases it.  Idempotent: re-finalizing a completed
        session re-serves the recorded outcome (the lost-ack case).
        """
        session = self.get(upload_id)
        if session.state == "completed":
            return store.files[session.file_id]
        if session.received != session.declared:
            raise UploadError(
                f"upload {upload_id}: {session.received} of "
                f"{session.declared} bytes received"
            )
        data = self.assemble(upload_id)
        self._reach("upload.finalize.pre")
        file_id = hashlib.sha256(data).hexdigest()
        record = store.put_file(file_id, data, tenant=session.tenant,
                                reserved=session.declared,
                                deadline=deadline)
        with self._lock:
            self._write_session(session, file_id)
            self._reach("upload.finalize.post")
            session.state = "completed"
            session.file_id = file_id
            self._prune_parts(session)
        return record

    def _prune_parts(self, session: UploadSession) -> None:
        """Drop part payloads once the completed session blob is durable
        (they are re-derivable from the promoted file; keeping them
        would double the stored footprint)."""
        for offset, _ in session.parts:
            self.backend.delete(_part_key(session.upload_id, offset))
        session.parts = []

    # -- introspection -----------------------------------------------------

    def open_sessions(self) -> int:
        with self._lock:
            return sum(1 for s in self._sessions.values()
                       if s.state == "open")

    def describe(self) -> dict:
        """JSON-friendly summary (the ``/healthz`` surface)."""
        with self._lock:
            open_count = sum(1 for s in self._sessions.values()
                             if s.state == "open")
            completed = sum(1 for s in self._sessions.values()
                            if s.state == "completed")
        return {
            "open": open_count,
            "completed": completed,
            "recovered": self.recovered_sessions,
            "dropped_parts": self.dropped_parts,
        }

    # -- recovery ----------------------------------------------------------

    def recover(self) -> dict:
        """Rebuild sessions from the backend's ``upload/`` blobs; returns
        a summary dict.

        Runs after :meth:`BlockStore.recover` (a completed session
        re-serves a file the store must already index).  Every blob a
        rebuilt session does not keep is deleted; an open session's are
        counted in ``dropped_parts``.  Open sessions re-reserve their
        declared budget (``force=True``).
        """
        by_id: Dict[str, List[str]] = {}
        for key in self.backend.keys("upload/"):
            by_id.setdefault(key.split("/")[1], []).append(key)
        with self._lock:
            self._sessions.clear()
            for upload_id in sorted(by_id):
                self._seq = max(self._seq, int(upload_id.lstrip("u")))
                session = self._load(upload_id)
                kept = set()
                if session is not None:
                    self._sessions[upload_id] = session
                    kept = {_session_key(upload_id)} | {
                        _part_key(upload_id, offset)
                        for offset, _ in session.parts}
                for key in by_id[upload_id]:
                    if key not in kept:
                        self.backend.delete(key)
                        if session is not None and session.state == "open":
                            self.dropped_parts += 1
            opened = [session for session in self._sessions.values()
                      if session.state == "open"]
            self.recovered_sessions = len(opened)
            summary = {"sessions": len(self._sessions), "open": len(opened),
                       "dropped_parts": self.dropped_parts}
        # Quota re-reservation outside the ledger lock (the board has its
        # own lock; holding both invites ordering trouble).
        if self.quotas is not None:
            for session in opened:
                self.quotas.reserve(session.tenant, session.declared,
                                    force=True)
        return summary

    def _load(self, upload_id: str) -> Optional[UploadSession]:
        """The session ``upload_id``'s blobs describe, or ``None`` if its
        session blob is missing or damaged.

        A completed session has received everything it declared.  An
        open one has received its contiguous intact parts from offset 0:
        the first part that is missing, fails its digest or names
        another offset or length ends them, since a strictly sequential
        resume can never reach past it.
        """
        found = self._intact(_session_key(upload_id))
        if found is None:
            return None
        state = json.loads(found[1])
        session = UploadSession(upload_id=upload_id, tenant=state["tenant"],
                                declared=state["bytes"])
        if state["file"] is not None:
            session.state = "completed"
            session.file_id = state["file"]
            session.received = session.declared
            return session
        while session.received < session.declared:
            offset = session.received
            part = self._intact(_part_key(upload_id, offset))
            if part is None:
                break
            meta, payload = part
            if (not payload or meta.get("offset") != offset
                    or meta.get("len") != len(payload)):
                break
            session.parts.append((offset, len(payload)))
            session.received += len(payload)
        return session
