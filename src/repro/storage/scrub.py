"""Background scrub/repair: the at-rest half of "never a wrong byte".

Checksummed reads catch rot *when a chunk is read*; a petabyte archive
has chunks nobody reads for years, and a replica that rots silently is a
replica that cannot help when its peers rot too (§5.7, and the in-place
recompression deployment of arXiv:1912.11145 rides on exactly this kind
of scrub loop).  The :class:`Scrubber` walks every chunk the store
knows and judges each replica's blob as the store does: through its one
reader (:func:`~repro.storage.blockstore.chunk_entry`: blob framing, the
meta's keys, payload md5) and its one verified decode (Lepton/Deflate
decode, SHA-256 against the content address).  It repairs every bad or
missing replica by writing back a blob that passed.  A chunk with no
intact replica is counted ``unrepairable`` (the kept-original fallback
still serves it); when every replica answered and none holds a blob
recovery would index, its entry becomes the *damaged* placeholder
recovery would make
(:meth:`~repro.storage.blockstore.BlockStore.mark_damaged`), so the next
put of its bytes writes it again.  A blob that fails only its decode (a
decoder bug, §6.7) keeps its entry: a put must not overwrite an intact
blob with the failing build's encode.  A placeholder is handed to the
store with a healthy blob, which indexes it
(:meth:`~repro.storage.blockstore.BlockStore.heal`).  A replica whose
read raises a :class:`~repro.storage.backends.BackendError` is skipped
for the pass, never the end of it.

Counters (docs/observability.md): ``scrub.runs``, ``scrub.chunks_checked``,
``scrub.corruptions_detected``, ``scrub.repairs``, ``scrub.unrepairable``.
The last :class:`ScrubReport` is surfaced by ``GET /healthz``.
"""

from dataclasses import asdict, dataclass
from typing import List, Optional

from repro.obs import MetricsRegistry, get_registry
from repro.storage.backends import (
    BackendError,
    ReplicatedBackend,
    StorageBackend,
)
from repro.storage.blockstore import (
    BlockStore,
    InProcessCodec,
    IntegrityError,
    chunk_entry,
)

#: The scrubber decodes in its own thread, never on the codec workers.
_CODEC = InProcessCodec()


def _indexable(key: str, data: bytes) -> bool:
    """Would recovery index ``data``?  Its one test is the store's one
    reader, :func:`~repro.storage.blockstore.chunk_entry`; no decode."""
    try:
        chunk_entry(key, data)
    except IntegrityError:
        return False
    return True


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
        and the key *is* the SHA-256 of the original bytes.  As on the
        read path, any failure fails the blob, a decoder that raises on
        intact bytes included (§6.7); a scrub pass has no deadline.
        """
        try:
            entry, chunk = chunk_entry(key, data)
            entry.original(_CODEC.decode(chunk))
        except Exception:
            return False
        return True

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
        seen = self.store.entries.get(key)
        good: Optional[bytes] = None
        heal: List[StorageBackend] = []
        skipped = indexable = False
        for replica in replicas:
            try:
                data = replica.read(blob_key)
            except KeyError:
                heal.append(replica)  # missing: repair, but not corruption
                continue
            except BackendError:
                # Unreachable or failing: this replica cannot be judged
                # this pass; the chunks after it still are.
                skipped = True
                continue
            if self.deep_ok(key, data):
                if good is None:
                    good = data
            else:
                report.corruptions_detected += 1
                heal.append(replica)
                indexable = indexable or _indexable(key, data)
        if good is None:
            if heal:
                report.unrepairable += 1
                # Recovery's own test: with every replica read, and no
                # blob recovery would index (one that fails only its
                # decode, §6.7, it would), recovery makes a placeholder.
                if not (skipped or indexable):
                    self.store.mark_damaged(key, seen)
            return
        for replica in heal:
            try:
                replica.write(blob_key, good)
                report.repairs += 1
            except BackendError:
                pass  # still down; the next pass retries
        if self.store.heal(key, good):
            report.rebuilt_entries += 1

    def describe(self) -> dict:
        """JSON-friendly health blurb for ``GET /healthz``."""
        return {
            "runs": self.runs,
            "last": (self.last_report.to_dict()
                     if self.last_report is not None else None),
        }
