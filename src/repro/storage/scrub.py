"""Background scrub/repair: the at-rest half of "never a wrong byte".

Checksummed reads catch rot *when a chunk is read*; a petabyte archive
has chunks nobody reads for years, and a replica that rots silently is a
replica that cannot help when its peers rot too (§5.7, and the in-place
recompression deployment of arXiv:1912.11145 rides on exactly this kind
of scrub loop).  The :class:`Scrubber` walks every chunk the store
knows, deep-verifies each replica's blob through the *full* verified-
decode path — blob framing, payload md5, Lepton/Deflate decode, SHA-256
against the content address — and repairs every bad or missing replica
by writing back a blob that passed.  A chunk with no intact replica is
counted ``unrepairable`` (the kept-original fallback still serves it);
one the recovery pass loaded as a *damaged* placeholder gets its
index entry rebuilt once a healthy blob is found.

Counters (docs/observability.md): ``scrub.runs``, ``scrub.chunks_checked``,
``scrub.corruptions_detected``, ``scrub.repairs``, ``scrub.unrepairable``.
The last :class:`ScrubReport` is surfaced by ``GET /healthz``.
"""

import hashlib
import zlib
from dataclasses import asdict, dataclass
from typing import List, Optional

from repro.core.chunks import StoredChunk, decompress_chunk
from repro.core.errors import LeptonError
from repro.obs import MetricsRegistry, get_registry
from repro.storage.backends import (
    BackendError,
    BackendUnavailable,
    BlobError,
    ReplicatedBackend,
    StorageBackend,
    decode_blob,
)
from repro.storage.blockstore import DAMAGED_FORMAT, BlockStore, StoreEntry


@dataclass
class ScrubReport:
    """Outcome of one full scrub pass (JSON-friendly via :meth:`to_dict`)."""

    chunks_checked: int = 0
    corruptions_detected: int = 0  # replica blobs that failed deep verify
    repairs: int = 0               # replica blobs rewritten from a good copy
    rebuilt_entries: int = 0       # damaged placeholders restored in the index
    unrepairable: int = 0          # chunks with no intact replica anywhere

    def to_dict(self) -> dict:
        return asdict(self)


class Scrubber:
    """Walks the store's chunks, deep-verifying and healing every replica.

    Synchronous by design: the serve front-end runs :meth:`run_once` on
    its thread executor (lint D7 — no blocking I/O on the event loop),
    the chaos harness calls it inline.
    """

    def __init__(self, store: BlockStore,
                 registry: Optional[MetricsRegistry] = None):
        self.store = store
        self.registry = registry if registry is not None else get_registry()
        self.runs = 0
        self.last_report: Optional[ScrubReport] = None

    def _replicas(self) -> List[StorageBackend]:
        backend = self.store.backend
        if isinstance(backend, ReplicatedBackend):
            return list(backend.replicas)
        return [backend]

    @staticmethod
    def deep_ok(key: str, data: bytes) -> bool:
        """The full verified-decode gate over one replica's chunk blob.

        Independent of the index entry on purpose: a damaged
        placeholder carries no digests, but the blob is self-describing
        and the key *is* the SHA-256 of the original bytes.
        """
        try:
            meta, payload = decode_blob(data)
        except BlobError:
            return False
        if hashlib.md5(payload).hexdigest() != meta.get("md5"):
            return False
        try:
            chunk = StoredChunk(int(meta["index"]), str(meta["format"]),
                                payload, (0, int(meta["osize"])))
            original = decompress_chunk(chunk)
        except (LeptonError, zlib.error, KeyError, TypeError, ValueError):
            return False
        return hashlib.sha256(original).hexdigest() == key

    def run_once(self) -> ScrubReport:
        """One full pass over every chunk on every replica."""
        report = ScrubReport()
        replicas = self._replicas()
        for key in sorted(self.store.entries):
            report.chunks_checked += 1
            self._scrub_chunk(key, replicas, report)
        self.runs += 1
        self.last_report = report
        self.registry.counter("scrub.runs").inc()
        self.registry.counter("scrub.chunks_checked").inc(
            report.chunks_checked)
        self.registry.counter("scrub.corruptions_detected").inc(
            report.corruptions_detected)
        self.registry.counter("scrub.repairs").inc(report.repairs)
        self.registry.counter("scrub.unrepairable").inc(report.unrepairable)
        return report

    def _scrub_chunk(self, key: str, replicas: List[StorageBackend],
                     report: ScrubReport) -> None:
        blob_key = f"chunk/{key}"
        good: Optional[bytes] = None
        heal: List[StorageBackend] = []
        for replica in replicas:
            try:
                data = replica.read(blob_key)
            except KeyError:
                heal.append(replica)  # missing: repair, but not corruption
                continue
            except BackendUnavailable:
                continue  # cannot judge an unreachable replica this pass
            if self.deep_ok(key, data):
                if good is None:
                    good = data
            else:
                report.corruptions_detected += 1
                heal.append(replica)
        if good is None:
            if heal:
                report.unrepairable += 1
            return
        for replica in heal:
            try:
                replica.write(blob_key, good)
                report.repairs += 1
            except BackendError:
                pass  # still down; the next pass retries
        self._maybe_rebuild_entry(key, good, report)

    def _maybe_rebuild_entry(self, key: str, good: bytes,
                             report: ScrubReport) -> None:
        """Restore a recovery-damaged index entry from a healed blob."""
        entry = self.store.entries.get(key)
        if entry is None or entry.format != DAMAGED_FORMAT:
            return
        meta, payload = decode_blob(good)
        self.store.entries[key] = StoreEntry(
            int(meta["index"]), str(meta["format"]),
            int(meta.get("osize", entry.original_size)), len(payload),
            str(meta["md5"]), key)
        report.rebuilt_entries += 1

    def describe(self) -> dict:
        """JSON-friendly health blurb for ``GET /healthz``."""
        return {
            "runs": self.runs,
            "last": (self.last_report.to_dict()
                     if self.last_report is not None else None),
        }
