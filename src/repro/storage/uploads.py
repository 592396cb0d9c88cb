"""Resumable upload sessions: journal-backed partial-put state.

An interrupted ``PUT /files`` today loses every byte that crossed the
wire.  At photo-service scale connection churn mid-transfer is the
common case (§5 deployment story), so the front-end needs a protocol
where progress is *durable per part*: the client declares a length,
appends chunks at explicit offsets, and after any disconnect — or a
server crash — asks the server how far it got and resumes from there.

The :class:`UploadLedger` is that protocol's storage half.  Each open
session is a row in a dedicated write-ahead journal (``uploads.wal``,
same CRC-framed :class:`~repro.storage.journal.Journal` as the durable
put path) plus one self-describing blob per part under
``upload/<id>/part-<offset>``.  A part is **acked** only once its
journal record is fsynced — the same owed-to-the-client line the put
protocol draws at ``journal.commit.post``.  Finalize assembles the
parts and promotes them through the store's ordinary ``put_file`` under
the quota reservation made at session create, so a finished upload is
indistinguishable from a one-shot put.

Crash recovery replays the journal, keeps exactly the contiguous acked
prefix whose blobs still verify, deletes orphan part blobs (written but
never acked), and re-reserves quota for open sessions (``force=True`` —
an admitted upload must not be stranded by a shrunk limit).  The
``upload.*`` kill points (:mod:`repro.faults.killpoints`) pin each step
of the protocol for the crash sweeps.

Session ids are sequential (``u00000001``), assigned from the journal's
own history — no ambient entropy, so a replayed workload allocates the
same ids (lint D2).
"""

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.faults.killpoints import KillPoints
from repro.storage.backends import (
    MemoryBackend,
    StorageBackend,
    blob_ok,
    decode_blob,
    encode_blob,
)
from repro.storage.journal import Journal, MemoryJournal
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
    #: ``(offset, length, sha256)`` per acked part, in offset order.
    parts: List[Tuple[int, int, str]] = field(default_factory=list)

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


def _part_key(upload_id: str, offset: int) -> str:
    return f"upload/{upload_id}/part-{offset:012d}"


class UploadLedger:
    """Journal-backed registry of resumable upload sessions.

    Every state transition is journaled before it is acknowledged.  The
    defaults keep the part blobs and the journal in RAM; the serve
    front-end hands over the store's backend and, with ``--data-dir``,
    an ``uploads.wal`` file journal.  All mutation is lock-guarded: the
    serve front-end drives the ledger from executor threads.
    """

    def __init__(self, backend: Optional[StorageBackend] = None,
                 journal: Union[Journal, MemoryJournal, None] = None,
                 quotas: Optional[QuotaBoard] = None,
                 kill: Optional[KillPoints] = None):
        self.backend = backend or MemoryBackend()
        self.journal = journal or MemoryJournal()
        self.quotas = quotas
        self.kill = kill
        self.recovered_sessions = 0
        self.dropped_parts = 0
        self._lock = threading.Lock()
        self._sessions: Dict[str, UploadSession] = {}
        self._seq = 0

    # -- crash injection ---------------------------------------------------

    def _reach(self, name: str) -> None:
        if self.kill is not None:
            self.kill.reach(name)

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
                self.journal.append({
                    "type": "upload.create",
                    "upload": upload_id,
                    "tenant": tenant,
                    "bytes": declared,
                })
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
        journal record is fsynced.

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
            sha = hashlib.sha256(data).hexdigest()
            blob = encode_blob(
                {"upload": upload_id, "offset": offset, "len": len(data)},
                data,
            )
            self.backend.write(_part_key(upload_id, offset), blob)
            self._reach("upload.part.blob")
            self.journal.append({
                "type": "upload.part",
                "upload": upload_id,
                "offset": offset,
                "len": len(data),
                "sha": sha,
            }, kill_point="upload.part.torn")
            self._reach("upload.part.post")
            session.parts.append((offset, len(data), sha))
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
            for offset, length, sha in session.parts:
                blob = self.backend.read(_part_key(upload_id, offset))
                _, payload = decode_blob(blob)
                if (len(payload) != length
                        or hashlib.sha256(payload).hexdigest() != sha):
                    raise UploadError(
                        f"upload {upload_id}: part at {offset} fails "
                        f"verification"
                    )
                pieces.append(payload)
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
            self.journal.append({
                "type": "upload.done",
                "upload": upload_id,
                "file": file_id,
            })
            self._reach("upload.finalize.post")
            session.state = "completed"
            session.file_id = file_id
            self._prune_parts(session)
        return record

    def _prune_parts(self, session: UploadSession) -> None:
        """Drop part payloads once the done record is durable (they are
        re-derivable from the promoted file; keeping them would double
        the stored footprint)."""
        for offset, _, _ in session.parts:
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
        """Rebuild sessions from the journal; returns a summary dict.

        Runs after :meth:`BlockStore.recover` (the done-record redo path
        relies on promoted files already being indexed).  For each open
        session only the contiguous acked prefix whose blobs still
        verify is kept; orphan part blobs — written but never journaled,
        or past a damaged part — are deleted.  Open sessions re-reserve
        their declared budget (``force=True``).  Finally the journal is
        compacted to the live state.
        """
        records = self.journal.replay()
        with self._lock:
            self._sessions.clear()
            self._replay_records(records)
            self._verify_parts()
            self._drop_orphan_blobs()
            keep = self._live_records()
        # Quota re-reservation outside the ledger lock (the board has its
        # own lock; holding both invites ordering trouble).
        for session in self._recoverable_sessions():
            if self.quotas is not None and session.state == "open":
                self.quotas.reserve(session.tenant, session.declared,
                                    force=True)
        self.journal.checkpoint(keep=keep)
        with self._lock:
            open_count = sum(1 for s in self._sessions.values()
                             if s.state == "open")
            self.recovered_sessions = open_count
            return {
                "sessions": len(self._sessions),
                "open": open_count,
                "dropped_parts": self.dropped_parts,
            }

    def _recoverable_sessions(self) -> List[UploadSession]:
        with self._lock:
            return [self._sessions[k] for k in sorted(self._sessions)]

    def _replay_records(self, records: List[dict]) -> None:
        for record in records:
            kind = record.get("type")
            if kind == "upload.create":
                upload_id = record["upload"]
                session = UploadSession(
                    upload_id=upload_id,
                    tenant=record["tenant"],
                    declared=int(record["bytes"]),
                )
                self._sessions[upload_id] = session
                seq = int(upload_id.lstrip("u"))
                self._seq = max(self._seq, seq)
            elif kind == "upload.part":
                session = self._sessions.get(record["upload"])
                if session is None or session.state != "open":
                    continue
                offset = int(record["offset"])
                length = int(record["len"])
                if offset != session.received:
                    continue  # non-contiguous: debris past a damaged part
                session.parts.append((offset, length, record["sha"]))
                session.received += length
            elif kind == "upload.done":
                session = self._sessions.get(record["upload"])
                if session is None:
                    continue
                session.state = "completed"
                session.file_id = record["file"]
                session.parts = []

    def _verify_parts(self) -> None:
        """Truncate each open session at the first part whose blob is
        missing or fails its digest — everything after it is unreachable
        for a strictly-sequential resume anyway."""
        for upload_id in sorted(self._sessions):
            session = self._sessions[upload_id]
            if session.state != "open":
                continue
            good: List[Tuple[int, int, str]] = []
            received = 0
            for offset, length, sha in session.parts:
                try:
                    blob = self.backend.read(_part_key(upload_id, offset))
                except KeyError:
                    break
                if not blob_ok(blob):
                    break
                _, payload = decode_blob(blob)
                if hashlib.sha256(payload).hexdigest() != sha:
                    break
                good.append((offset, length, sha))
                received += length
            self.dropped_parts += len(session.parts) - len(good)
            session.parts = good
            session.received = received

    def _drop_orphan_blobs(self) -> None:
        """Delete part blobs no live session acknowledges: the crash fell
        between the blob write and the journal fsync, so the bytes were
        never owed to anyone."""
        acked = {
            _part_key(upload_id, offset)
            for upload_id in self._sessions
            for offset, _, _ in self._sessions[upload_id].parts
        }
        for key in self.backend.keys("upload/"):
            if key not in acked:
                self.backend.delete(key)

    def _live_records(self) -> List[dict]:
        """The compacted journal: every record still describing live
        state, in replay order."""
        keep: List[dict] = []
        for upload_id in sorted(self._sessions):
            session = self._sessions[upload_id]
            keep.append({
                "type": "upload.create",
                "upload": upload_id,
                "tenant": session.tenant,
                "bytes": session.declared,
            })
            for offset, length, sha in session.parts:
                keep.append({
                    "type": "upload.part",
                    "upload": upload_id,
                    "offset": offset,
                    "len": length,
                    "sha": sha,
                })
            if session.state == "completed":
                keep.append({
                    "type": "upload.done",
                    "upload": upload_id,
                    "file": session.file_id,
                })
        return keep
