"""Content-addressed chunk store with round-trip admission (§5.7).

"The blockservers never admit chunks to the storage system that fail to
round-trip — meaning, to decode identically to their input."  This store
enforces that rule with real bytes through the real codec, plus the
production md5-style integrity check of the stored payload.
"""

import hashlib
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.chunks import StoredChunk, compress_chunked, decompress_chunk
from repro.core.errors import LeptonError, TimeoutExceeded
from repro.core.lepton import FORMAT_LEPTON, LeptonConfig
from repro.faults.killpoints import KillPoints
from repro.obs import get_registry
from repro.storage.backends import (
    BackendError,
    BlobError,
    FilesystemBackend,
    MemoryBackend,
    ReplicatedBackend,
    StorageBackend,
    decode_blob,
    encode_blob,
)
from repro.storage.chunking import CHUNK_SIZE
from repro.storage.journal import Journal, MemoryJournal
from repro.storage.quotas import QuotaBoard
from repro.storage.retry import RetryPolicy


def file_blob_key(name: str) -> str:
    """Backend key of a file record (names may hold unsafe characters)."""
    return "file/" + hashlib.sha256(name.encode()).hexdigest()


#: Chunk format recovery assigns when no replica held an intact blob.
DAMAGED_FORMAT = "damaged"


class IntegrityError(RuntimeError):
    """Stored payload no longer matches its recorded digest."""


@dataclass
class StoreEntry:
    """One admitted chunk's metadata; the payload lives in the backend."""

    index: int
    format: str
    original_size: int
    stored_size: int
    payload_md5: str
    original_sha256: str


@dataclass
class FileRecord:
    """A stored file: an ordered list of chunk keys."""

    name: str
    chunk_keys: List[str]
    size: int


@dataclass
class BlockStore:
    """The chunk store: a metadata index over a key-to-blob backend.

    Every put runs the journaled protocol of :meth:`_admit_file` and every
    read fetches its payload from ``backend``.  The defaults keep both the
    blobs and the journal in RAM; :func:`open_durable_store` puts them on
    filesystem replicas instead.
    """

    chunk_size: int = CHUNK_SIZE
    config: LeptonConfig = field(default_factory=LeptonConfig)
    entries: Dict[str, StoreEntry] = field(default_factory=dict)
    files: Dict[str, FileRecord] = field(default_factory=dict)
    admissions: int = 0
    rejected_roundtrips: int = 0
    lepton_bytes_in: int = 0
    lepton_bytes_out: int = 0
    # Per-conversion exit codes are tabulated by the compress() layer into
    # the global registry (lepton.compress.exit_codes — docs/observability.md).
    # -- degraded-read mode (repro.faults / docs/deployment.md) ----------
    #: Keep a deflate copy of every admitted chunk's original bytes so a
    #: persistently corrupt Lepton payload can still serve the file.
    keep_originals: bool = False
    #: Bounded re-read on verification failure before falling back; the
    #: store re-reads immediately (production would back off).
    read_retry: Optional[RetryPolicy] = None
    #: Fault-injection hook ``(key, payload, attempt) -> payload`` applied
    #: to every payload read (see repro.faults.ReadFaultInjector).
    read_fault: Optional[Callable[[str, bytes, int], bytes]] = None
    degraded_fallbacks: int = 0
    #: Per-tenant admission ledger (repro.storage.quotas); ``None`` keeps the
    #: store unmetered.  ``put_file`` charges logical (uploaded) bytes against
    #: the tenant's budget and records the stored footprint after compression.
    quotas: Optional[QuotaBoard] = None
    # -- storage (repro.storage.backends / docs/durability.md) -----------
    #: Key→blob backend holding the authoritative bytes; every read
    #: fetches its payload from here.
    backend: StorageBackend = field(default_factory=MemoryBackend)
    #: Write-ahead journal making multi-chunk puts atomic (see
    #: :meth:`recover`).
    journal: Union[Journal, MemoryJournal] = field(
        default_factory=MemoryJournal)
    #: Crash-injection harness; ``None`` in production paths.
    kill: Optional[KillPoints] = None
    #: Recovery outcome counters (mirrored into ``storage.recovery.*``).
    recovered_files: int = 0
    rolled_back_puts: int = 0
    damaged_entries: int = 0
    _put_lock: threading.Lock = field(default_factory=threading.Lock,
                                      repr=False)
    _put_seq: int = 0

    def _reach(self, name: str) -> None:
        if self.kill is not None:
            self.kill.reach(name)

    def put_file(self, name: str, data: bytes, tenant: str = "default",
                 reserved: int = 0,
                 deadline: Optional[float] = None) -> FileRecord:
        """Chunk, compress, verify, and admit a file.

        With a :class:`~repro.storage.quotas.QuotaBoard` attached, the
        tenant is charged ``len(data)`` logical bytes (raising
        :class:`~repro.storage.quotas.QuotaExceeded` over budget) and the
        stored footprint is recorded after compression.  ``reserved`` is
        budget the caller already claimed via ``quotas.reserve`` — a
        front-end reserves from the declared ``Content-Length`` before
        reading the body, then hands the reservation over here.  Re-putting
        an existing ``name`` replaces the record without charging again.
        ``deadline`` (monotonic) propagates into the segment coder so an
        expired request budget aborts the compression with
        :class:`~repro.core.errors.TimeoutExceeded` instead of finishing
        work nobody will acknowledge.
        """
        if self.quotas is not None:
            # Idempotent re-put: detect before reserving, so a duplicate
            # near the budget edge is not spuriously quota-rejected.
            if self._is_duplicate_put(name, data):
                if reserved:
                    self.quotas.release(tenant, reserved)
                return self.files[name]
            shortfall = max(0, len(data) - reserved)
            if shortfall:
                try:
                    self.quotas.reserve(tenant, shortfall)
                except Exception:
                    if reserved:
                        self.quotas.release(tenant, reserved)
                    raise
            reserved = max(reserved, len(data))
        try:
            record, stored = self._admit_file(name, data, tenant,
                                              deadline=deadline)
        except Exception:
            if self.quotas is not None:
                self.quotas.release(tenant, reserved)
            raise
        if self.quotas is not None:
            if record is None:
                self.quotas.release(tenant, reserved)
            else:
                self.quotas.commit(tenant, reserved, len(data), stored)
        return record if record is not None else self.files[name]

    def _is_duplicate_put(self, name: str, data: bytes) -> bool:
        """Is ``name`` already stored with exactly these bytes, all of its
        chunk entries intact?  (Content compare is by chunk SHA-256 — the
        store's own addressing — so a popped or rotted entry re-admits.)"""
        record = self.files.get(name)
        if record is None or record.size != len(data):
            return False
        pos = 0
        for key in record.chunk_keys:
            entry = self.entries.get(key)
            if entry is None:
                return False
            size = entry.original_size
            if hashlib.sha256(data[pos:pos + size]).hexdigest() != key:
                return False
            pos += size
        return pos == len(data)

    def _compress_verified(self, name: str, data: bytes,
                           deadline: Optional[float] = None,
                           ) -> List[Tuple[str, StoredChunk, bytes]]:
        """Compress ``data`` and run every chunk through the round-trip
        admission gate; pure compute, no store mutation."""
        chunks = compress_chunked(data, self.chunk_size, self.config,
                                  deadline=deadline)
        verified = []
        for chunk in chunks:
            a, b = chunk.original_range
            original = data[a:b]
            # Admission rule: the stored payload must decode identically.
            if decompress_chunk(chunk) != original:
                self.rejected_roundtrips += 1
                raise IntegrityError(
                    f"chunk {chunk.index} of {name!r} failed the round-trip gate"
                )
            verified.append(
                (hashlib.sha256(original).hexdigest(), chunk, original))
        return verified

    def _admit_file(self, name: str, data: bytes, tenant: str = "default",
                    deadline: Optional[float] = None):
        """Journaled crash-safe admission; returns ``(record,
        stored_bytes)`` — ``record`` is ``None`` when ``name`` was already
        stored byte-identically (the put is idempotent: no recompression,
        no re-charge).

        Protocol order (each step is a registered kill point — see
        ``repro.faults.killpoints.KILL_POINTS``):

        1. append the **intent** record (names the put and its chunk keys);
        2. write every chunk blob, then every kept-original blob;
        3. append the **commit** record carrying the *full* file meta —
           this fsync is the point of no return: before it, recovery
           rolls the put back; after it, recovery redoes it;
        4. write the file-record blob (redo-able from the commit record,
           which is why it comes *after* the commit: a crash between a
           re-put's file-blob overwrite and its commit could otherwise
           lose the previously acknowledged version);
        5. update the metadata index and checkpoint the journal.
        """
        if self._is_duplicate_put(name, data):
            return None, 0
        verified = self._compress_verified(name, data, deadline=deadline)
        keys = [key for key, _chunk, _original in verified]
        stored = sum(len(chunk.payload) for _key, chunk, _original in verified)
        with self._put_lock:
            self._put_seq += 1
            put_id = self._put_seq
            self.journal.append(
                {"type": "intent", "put": put_id, "name": name,
                 "keys": keys, "size": len(data)},
                kill_point="journal.intent.torn",
            )
            self._reach("journal.intent.post")
            for i, (key, chunk, original) in enumerate(verified):
                meta = {"index": chunk.index, "format": chunk.format,
                        "osize": len(original)}
                self.backend.write(f"chunk/{key}",
                                   encode_blob(meta, chunk.payload))
                if i == 0:
                    self._reach("backend.chunk.first")
            self._reach("backend.chunk.rest")
            if self.keep_originals:
                for key, _chunk, original in verified:
                    self.backend.write(
                        f"orig/{key}",
                        encode_blob({"osize": len(original)},
                                    zlib.compress(original, 6)),
                    )
                self._reach("backend.originals")
            file_meta = {"name": name, "keys": keys, "size": len(data),
                         "tenant": tenant, "stored": stored}
            self.journal.append(
                {"type": "commit", "put": put_id, "file": file_meta},
                kill_point="journal.commit.torn",
            )
            self._reach("journal.commit.post")
            self.backend.write(file_blob_key(name), encode_blob(file_meta, b""))
            self._reach("backend.file_record")
            for key, chunk, _original in verified:
                self._index(key, StoreEntry(
                    chunk.index, chunk.format, chunk.original_size,
                    len(chunk.payload), hashlib.md5(chunk.payload).hexdigest(),
                    key))
            record = FileRecord(name, keys, len(data))
            self.files[name] = record
            self._reach("store.index.post")
            # Every journaled effect is now in the backend: bound replay.
            self.journal.checkpoint()
        return record, stored

    def _index(self, key: str, entry: StoreEntry) -> None:
        """Admit one intact chunk into the metadata index (dedup-aware)."""
        if key in self.entries:
            return
        self.entries[key] = entry
        self.admissions += 1
        if entry.format == FORMAT_LEPTON:
            self.lepton_bytes_in += entry.original_size
            self.lepton_bytes_out += entry.stored_size

    def recover(self) -> dict:
        """Startup recovery: make backend + index agree with the journal.

        Replays the journal (truncating any torn tail), **redoes** every
        committed put whose file-record blob may be missing (the commit
        record carries the full meta, so the redo is a pure idempotent
        blob write), **rolls back** every intent without a commit by
        deleting its chunk/original blobs — unless a committed file also
        references them (content-addressed dedup) — and rebuilds the
        metadata index, byte accounting, and quota ledger from the
        backend's file records.  Chunks whose blobs are unreadable on
        every replica become *damaged* placeholder entries: they still
        serve via the kept-original fallback and are rebuilt by the
        scrubber.  Idempotent: recovering twice is a no-op.
        """
        registry = get_registry()
        records = self.journal.replay()
        intents: Dict[int, dict] = {}
        commits: Dict[int, dict] = {}
        for record in records:
            put_id = int(record.get("put", 0))
            self._put_seq = max(self._put_seq, put_id)
            if record.get("type") == "intent":
                intents[put_id] = record
            elif record.get("type") == "commit":
                commits[put_id] = record
        # Redo committed puts: the file-record blob write may have been
        # lost in the crash; rewriting it from the commit meta is safe.
        for put_id in sorted(commits):
            file_meta = commits[put_id]["file"]
            self.backend.write(file_blob_key(file_meta["name"]),
                               encode_blob(file_meta, b""))
        # Load the authoritative file set, then roll back orphan intents.
        file_metas = self._load_file_metas()
        referenced = set()
        for file_meta in file_metas:
            referenced.update(file_meta["keys"])
        rolled_back = 0
        for put_id in sorted(intents):
            if put_id in commits:
                continue
            for key in intents[put_id]["keys"]:
                if key not in referenced:
                    self.backend.delete(f"chunk/{key}")
                    self.backend.delete(f"orig/{key}")
            rolled_back += 1
        self._rebuild_index(file_metas)
        self.journal.checkpoint()
        self.recovered_files = len(file_metas)
        self.rolled_back_puts = rolled_back
        registry.counter("storage.recovery.files").inc(len(file_metas))
        registry.counter("storage.recovery.redone").inc(len(commits))
        registry.counter("storage.recovery.rolled_back").inc(rolled_back)
        registry.counter("storage.recovery.damaged").inc(self.damaged_entries)
        return {
            "files": len(file_metas),
            "redone": len(commits),
            "rolled_back": rolled_back,
            "damaged": self.damaged_entries,
        }

    def _load_file_metas(self) -> List[dict]:
        """All intact file-record metas in the backend, sorted by name."""
        metas = []
        for blob_key in self.backend.keys("file/"):
            try:
                meta, _payload = decode_blob(self.backend.read(blob_key))
            except (KeyError, BackendError):
                continue  # a torn file blob: its put never committed
            if isinstance(meta.get("name"), str) and "keys" in meta:
                metas.append(meta)
        return sorted(metas, key=lambda m: m["name"])

    def _rebuild_index(self, file_metas: List[dict]) -> None:
        self.files.clear()
        self.entries.clear()
        self.admissions = 0
        self.lepton_bytes_in = 0
        self.lepton_bytes_out = 0
        self.damaged_entries = 0
        for file_meta in file_metas:
            name = file_meta["name"]
            keys = list(file_meta["keys"])
            size = int(file_meta["size"])
            self.files[name] = FileRecord(name, keys, size)
            for i, key in enumerate(keys):
                if key in self.entries:
                    continue
                # Chunking is fixed-size, so the original size of every
                # chunk is derivable from its position — the one fact a
                # damaged blob cannot tell us itself.
                osize = min(self.chunk_size, size - i * self.chunk_size)
                self._load_entry(key, osize)
            if self.quotas is not None:
                self.quotas.commit(str(file_meta.get("tenant", "default")),
                                   0, size, int(file_meta.get("stored", 0)))

    def _load_entry(self, key: str, osize: int) -> None:
        """Index one chunk from its backend blob; a damaged placeholder if
        no replica holds an intact blob (originals fallback still serves
        it, and the scrubber rebuilds it from a healed replica).  The
        payload is checked and dropped: the index keeps metadata only."""
        try:
            meta, payload = decode_blob(self.backend.read(f"chunk/{key}"))
            digest = meta["md5"]
            if hashlib.md5(payload).hexdigest() != digest:
                raise IntegrityError(f"rotten chunk blob {key[:12]}")
            entry = StoreEntry(int(meta["index"]), str(meta["format"]),
                               int(meta.get("osize", osize)), len(payload),
                               digest, key)
        except (KeyError, BackendError, IntegrityError, TypeError, ValueError):
            self.damaged_entries += 1
            self.entries[key] = StoreEntry(
                index=0, format=DAMAGED_FORMAT, original_size=osize,
                stored_size=0, payload_md5="", original_sha256=key)
            return
        self._index(key, entry)

    def _verify_and_decode(self, key: str, entry: StoreEntry,
                           payload: bytes,
                           deadline: Optional[float] = None) -> bytes:
        """Both integrity gates over one (possibly faulted) payload read.

        The decode is the put gate's own ``decompress_chunk``, with or
        without a deadline (the session cancels between row bands once it
        passes), so every read records the same decode telemetry.
        """
        if hashlib.md5(payload).hexdigest() != entry.payload_md5:
            raise IntegrityError(f"payload digest mismatch for {key[:12]}")
        data = decompress_chunk(StoredChunk(
            entry.index, entry.format, payload, (0, entry.original_size)),
            deadline=deadline)
        if hashlib.sha256(data).hexdigest() != entry.original_sha256:
            raise IntegrityError(f"decode digest mismatch for {key[:12]}")
        return data

    def _payload(self, key: str) -> bytes:
        """One payload read from the backend (so at-rest faults and
        replica repair are actually exercised)."""
        try:
            raw = self.backend.read(f"chunk/{key}")
        except KeyError:
            raise IntegrityError(f"chunk blob missing for {key[:12]}") from None
        try:
            _meta, payload = decode_blob(raw)
        except BlobError as exc:
            raise IntegrityError(
                f"chunk blob unparseable for {key[:12]}") from exc
        return payload

    def _original(self, key: str) -> Optional[bytes]:
        """The kept deflate-compressed original, if the backend has one."""
        try:
            _meta, payload = decode_blob(self.backend.read(f"orig/{key}"))
        except (KeyError, BackendError):
            return None
        return payload

    def get_chunk(self, key: str, deadline: Optional[float] = None) -> bytes:
        """Retrieve and decode one chunk, verifying payload integrity.

        A verification failure triggers a bounded re-read (``read_retry``)
        and then the original-JPEG fallback (``keep_originals``); corrupt
        Lepton output is *never* returned — both digest gates sit in front
        of every exit.
        """
        entry = self.entries[key]
        registry = get_registry()
        attempts = (self.read_retry.max_attempts
                    if self.read_retry is not None else 1)
        error: Exception = IntegrityError(f"unreadable chunk {key[:12]}")
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                registry.counter("retry.attempts", scope="blockstore").inc()
            try:
                payload = self._payload(key)
                if self.read_fault is not None:
                    payload = self.read_fault(key, payload, attempt)
                return self._verify_and_decode(key, entry, payload,
                                               deadline=deadline)
            except TimeoutExceeded:
                # A deadline abort is the *request* giving up, not the
                # payload rotting: re-reading or serving the fallback
                # would defeat the cancellation.
                raise
            except (IntegrityError, LeptonError, BackendError) as exc:
                error = exc
        # Out of re-reads: the payload is rotten at rest.  Serve the kept
        # original if we have one — the §5.7 durability promise.
        original = self._original(key)
        if original is not None:
            try:
                data = zlib.decompress(original)
            except zlib.error as exc:
                raise IntegrityError(
                    f"fallback blob rotten for {key[:12]}") from exc
            if hashlib.sha256(data).hexdigest() != entry.original_sha256:
                raise IntegrityError(
                    f"fallback digest mismatch for {key[:12]}"
                )
            self.degraded_fallbacks += 1
            registry.counter("degraded_read.fallbacks").inc()
            return data
        raise error

    def get_file(self, name: str) -> bytes:
        """Reassemble a stored file from its chunks."""
        record = self.files[name]
        return b"".join(self.get_chunk(key) for key in record.chunk_keys)

    def chunk_spans(self, name: str) -> List["tuple[str, int, int]"]:
        """``(key, start, stop)`` byte spans of a stored file's chunks.

        Spans are recomputed from each entry's original size:
        content-addressed dedup can alias one entry into many files at
        different offsets.
        """
        record = self.files[name]
        spans = []
        pos = 0
        for key in record.chunk_keys:
            size = self.entries[key].original_size
            spans.append((key, pos, pos + size))
            pos += size
        return spans

    def stream_file(self, name: str) -> Iterator[bytes]:
        """Reassemble a stored file as a chunk stream, measuring TTFB.

        Feeds the ``blockstore.read.ttfb_seconds`` and
        ``blockstore.read.seconds`` histograms — the serving-side view of
        the paper's time-to-first-byte argument (Figure 1): the first
        piece arrives after decoding and verifying the first chunk, not
        after decoding the whole file.
        """
        yield from self.stream_range(name, 0, self.files[name].size)

    def stream_range(self, name: str, start: int, stop: int,
                     deadline: Optional[float] = None) -> Iterator[bytes]:
        """Stream the decoded bytes ``[start, stop)`` of a stored file.

        Chunk independence (§1, §3.4) is what makes this cheap: only the
        chunks overlapping the range are decoded — an HTTP ``Range``
        request for a file tail never touches its head.  Each chunk passes
        both digest gates of :meth:`get_chunk` *before* any of its bytes
        are yielded (the degraded-read contract forbids streaming bytes a
        later check could disown).  Feeds the same ``blockstore.read.*``
        histograms as whole-file reads.  ``deadline`` cancels the decode
        between row bands once it passes; the ``store.stream.first`` kill
        point fires after the first verified piece is handed to the
        caller — the mid-stream crash the live chaos harness drills.
        """
        record = self.files[name]
        start = max(0, start)
        stop = min(stop, record.size)
        registry = get_registry()
        # Telemetry only: never feeds a coded decision.
        begin = time.monotonic()  # lint: disable=D2
        first = True
        for key, a, b in self.chunk_spans(name):
            if b <= start or a >= stop:
                continue
            data = self.get_chunk(key, deadline=deadline)
            if first:
                registry.histogram("blockstore.read.ttfb_seconds").observe(
                    time.monotonic() - begin  # lint: disable=D2
                )
            yield data[max(start, a) - a:min(stop, b) - a]
            if first:
                first = False
                self._reach("store.stream.first")
        registry.histogram("blockstore.read.seconds").observe(
            time.monotonic() - begin  # lint: disable=D2
        )

    def stored_bytes_for(self, record: FileRecord) -> int:
        """Stored (compressed) footprint of one file's chunks, from the
        index (a damaged placeholder counts as zero until repaired)."""
        return sum(self.entries[key].stored_size
                   for key in record.chunk_keys if key in self.entries)

    @property
    def stored_bytes(self) -> int:
        return sum(e.stored_size for e in self.entries.values())

    @property
    def savings_fraction(self) -> float:
        if self.lepton_bytes_in == 0:
            return 0.0
        return 1.0 - self.lepton_bytes_out / self.lepton_bytes_in


def open_durable_store(
    root: str,
    *,
    replicas: int = 1,
    backends: Optional[List[StorageBackend]] = None,
    chunk_size: int = CHUNK_SIZE,
    config: Optional[LeptonConfig] = None,
    keep_originals: bool = True,
    quotas: Optional[QuotaBoard] = None,
    read_retry: Optional[RetryPolicy] = None,
    read_fault: Optional[Callable[[str, bytes, int], bytes]] = None,
    kill: Optional[KillPoints] = None,
) -> BlockStore:
    """Open (or create) a crash-consistent store rooted at ``root``.

    Layout: ``root/replica-<i>/`` per filesystem replica (wrapped in a
    :class:`~repro.storage.backends.ReplicatedBackend` when ``replicas``
    > 1, with blob self-validation driving read-repair) plus
    ``root/journal.wal``.  ``backends`` overrides the replica set — the
    chaos harness passes :class:`~repro.storage.backends.FaultyBackend`
    wrappers here.  Startup recovery runs before the store is returned,
    so an acknowledged put from the previous life is readable and a
    partial one is gone.
    """
    if backends is None:
        backends = [
            FilesystemBackend(os.path.join(str(root), f"replica-{i}"))
            for i in range(max(1, replicas))
        ]
    backend: StorageBackend
    backend = backends[0] if len(backends) == 1 else ReplicatedBackend(backends)
    journal = Journal(os.path.join(str(root), "journal.wal"), kill=kill)
    store = BlockStore(
        chunk_size=chunk_size,
        config=config if config is not None else LeptonConfig(),
        keep_originals=keep_originals,
        quotas=quotas,
        read_retry=read_retry,
        read_fault=read_fault,
        backend=backend,
        journal=journal,
        kill=kill,
    )
    store.recover()
    return store
