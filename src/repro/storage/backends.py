"""Pluggable storage backends under the block store (§5.7 durability).

The paper's deployment promise — "never loses or corrupts a byte across
crashes" — rests on a storage layer with real failure modes, not a Python
dict.  This module is that layer: a tiny key→blob contract
(:class:`StorageBackend`) with four implementations spanning the
latency/failure spectrum:

* :class:`MemoryBackend` — a lock-guarded dict; fast, forgets on restart.
* :class:`FilesystemBackend` — real files with the classic crash-safe
  write discipline: tmp file → ``fsync`` → atomic ``rename`` → directory
  ``fsync``.  A crash mid-write leaves either the old blob or the new
  blob, never a torn hybrid.
* :class:`FaultyBackend` — wraps any backend and injects deterministic
  faults from a PR-4 :class:`~repro.faults.plan.StorageFaultConfig`:
  read-path corruption, silent torn writes, unavailability windows.
* :class:`ReplicatedBackend` — places every blob on N backends, serves
  reads from the first replica whose blob *validates*, and write-repairs
  the replicas that were missing or rotten (read-repair); the background
  :class:`~repro.storage.scrub.Scrubber` walks the full key space.

Blobs are self-describing (:func:`encode_blob`): a JSON meta header
carrying the payload's md5 in front of the payload bytes, so any replica
can be judged healthy or rotten without consulting another store.

Telemetry (docs/observability.md): ``backend.ops{backend=,op=}``,
``replication.read_repairs``, ``replication.partial_writes``, and
``faults.injected{kind=backend_*}``.
"""

import abc
import hashlib
import json
import os
import struct
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import MetricsRegistry, get_registry

#: Magic prefix of every self-describing blob (Lepton Durable Blob v1).
BLOB_MAGIC = b"LDB1"

_META_LEN = struct.Struct(">I")


class BackendError(RuntimeError):
    """A backend operation failed (distinct from data *corruption*)."""


class BackendUnavailable(BackendError):
    """The backend is temporarily unreachable; a retry may succeed."""


class BlobError(BackendError):
    """Stored bytes do not parse as a self-describing blob (rot or tear)."""


# -- self-describing blobs -------------------------------------------------


def encode_blob(meta: dict, payload: bytes) -> bytes:
    """Serialise ``meta`` + ``payload`` into one self-describing blob.

    The payload's md5 is stamped into the meta header, so a reader (or a
    replicated read) can detect rot without any external metadata.
    """
    stamped = dict(meta)
    stamped["md5"] = hashlib.md5(payload).hexdigest()
    head = json.dumps(stamped, sort_keys=True).encode()
    return BLOB_MAGIC + _META_LEN.pack(len(head)) + head + payload


def decode_blob(data: bytes) -> Tuple[dict, bytes]:
    """Parse a blob; raises :class:`BlobError` on any structural damage."""
    if len(data) < len(BLOB_MAGIC) + _META_LEN.size:
        raise BlobError(f"blob truncated at {len(data)} bytes")
    if data[:len(BLOB_MAGIC)] != BLOB_MAGIC:
        raise BlobError("bad blob magic")
    (head_len,) = _META_LEN.unpack_from(data, len(BLOB_MAGIC))
    start = len(BLOB_MAGIC) + _META_LEN.size
    if start + head_len > len(data):
        raise BlobError("blob meta header truncated")
    try:
        meta = json.loads(data[start:start + head_len].decode())
    except (UnicodeDecodeError, ValueError) as exc:
        raise BlobError(f"unparseable blob meta: {exc}") from exc
    if not isinstance(meta, dict):
        raise BlobError("blob meta is not an object")
    return meta, data[start + head_len:]


def blob_ok(data: bytes) -> bool:
    """Structural + digest check: does this blob describe its own payload?"""
    try:
        meta, payload = decode_blob(data)
    except BlobError:
        return False
    digest = meta.get("md5")
    return (isinstance(digest, str)
            and hashlib.md5(payload).hexdigest() == digest)


# -- the backend contract --------------------------------------------------


class StorageBackend(abc.ABC):
    """Key → blob storage with distinct latency and failure profiles.

    Keys are restricted path-like names (``chunk/<sha256>``); values are
    opaque byte strings written atomically — a reader never observes a
    half-written value from a *completed* ``write`` call (crash-torn
    writes are a different matter, and exactly what the journal +
    scrubber exist to catch).
    """

    #: Human-readable backend kind (healthz / metrics label).
    name = "abstract"

    @abc.abstractmethod
    def write(self, key: str, data: bytes) -> None:
        """Durably store ``data`` under ``key`` (overwrite allowed)."""

    @abc.abstractmethod
    def read(self, key: str) -> bytes:
        """Return the blob under ``key``; :class:`KeyError` if absent."""

    @abc.abstractmethod
    def delete(self, key: str) -> None:
        """Remove ``key`` if present (idempotent)."""

    @abc.abstractmethod
    def keys(self, prefix: str = "") -> List[str]:
        """All stored keys starting with ``prefix``, sorted."""

    def exists(self, key: str) -> bool:
        try:
            self.read(key)
        except KeyError:
            return False
        return True

    def describe(self) -> dict:
        """JSON-friendly health blurb (the ``/healthz`` surface); it does
        no I/O, so a probe costs the same whatever the store holds."""
        return {"backend": self.name}


class MemoryBackend(StorageBackend):
    """The in-process profile: microsecond access, zero durability."""

    name = "memory"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._blobs: Dict[str, bytes] = {}

    def write(self, key: str, data: bytes) -> None:
        with self._lock:
            self._blobs[key] = bytes(data)

    def read(self, key: str) -> bytes:
        with self._lock:
            return self._blobs[key]

    def delete(self, key: str) -> None:
        with self._lock:
            self._blobs.pop(key, None)

    def keys(self, prefix: str = "") -> List[str]:
        with self._lock:
            return sorted(k for k in self._blobs if k.startswith(prefix))


class FilesystemBackend(StorageBackend):
    """Real files under a root directory, written crash-atomically.

    The write discipline is the journal's foundation: payload bytes are
    flushed and ``fsync``\\ ed into a ``.tmp`` sibling, atomically renamed
    over the final name, and the parent directory is ``fsync``\\ ed so the
    rename itself survives a power cut.  Readers therefore observe either
    the previous blob or the complete new one.  A missing blob reads as
    :class:`KeyError`; any other ``OSError`` (a blob that turned into a
    directory, an I/O error) is a :class:`BackendError`.
    """

    name = "filesystem"

    #: Characters allowed in key path segments.
    _SAFE = frozenset("abcdefghijklmnopqrstuvwxyz"
                      "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")

    def __init__(self, root: str):
        self.root = os.path.abspath(str(root))
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        if not key:
            raise BackendError("empty key")
        parts = key.split("/")
        for part in parts:
            if not part or part in (".", "..") or set(part) - self._SAFE:
                raise BackendError(f"unsafe key {key!r}")
        return os.path.join(self.root, *parts)

    @staticmethod
    def _fsync_dir(path: str) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def write(self, key: str, data: bytes) -> None:
        path = self._path(key)
        parent = os.path.dirname(path)
        tmp = path + ".tmp"
        try:
            os.makedirs(parent, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            self._fsync_dir(parent)
        except OSError as exc:
            raise BackendError(f"cannot write {key!r}: {exc}") from exc

    def read(self, key: str) -> bytes:
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise KeyError(key) from None
        except OSError as exc:
            raise BackendError(f"cannot read {key!r}: {exc}") from exc

    def delete(self, key: str) -> None:
        try:
            os.remove(self._path(key))
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise BackendError(f"cannot delete {key!r}: {exc}") from exc

    def keys(self, prefix: str = "") -> List[str]:
        # Only the directory named by the prefix's segments before its last
        # "/" can hold a match: "upload/" walks root/upload, "chunk/ab"
        # root/chunk, "" the root.  A missing directory walks nothing.
        folder = prefix[:prefix.rfind("/") + 1]
        top = self._path(folder[:-1]) if folder else self.root
        found = []
        for dirpath, _dirnames, filenames in os.walk(top):
            rel = os.path.relpath(dirpath, self.root)
            base = "" if rel == "." else rel.replace(os.sep, "/") + "/"
            for filename in filenames:
                if filename.endswith(".tmp"):
                    continue  # an interrupted write; never a visible blob
                key = base + filename
                if key.startswith(prefix):
                    found.append(key)
        return sorted(found)


class FaultyBackend(StorageBackend):
    """Deterministic fault wrapper around any backend.

    Driven by a PR-4 :class:`~repro.faults.plan.StorageFaultConfig` plus an
    explicit seed, so a chaos run's fault sequence replays byte for byte:

    * reads are corrupted in flight with ``read_corrupt_probability``
      (the inner blob stays clean — a re-read heals it);
    * writes are silently *torn* with ``write_torn_probability`` — the
      inner backend keeps only a prefix, exactly the §5.7 nightmare a
      checksummed blob + scrubber must catch;
    * any operation fails with :class:`BackendUnavailable` with
      ``unavailable_probability`` (the slow/partitioned replica).
    """

    name = "faulty"

    def __init__(self, inner: StorageBackend, config, seed: int = 0,
                 registry: Optional[MetricsRegistry] = None):
        import numpy as np

        self.inner = inner
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.registry = registry if registry is not None else get_registry()
        self.injected = 0

    def _count(self, kind: str) -> None:
        self.injected += 1
        self.registry.counter("faults.injected", kind=kind).inc()

    def _maybe_unavailable(self) -> None:
        p = getattr(self.config, "unavailable_probability", 0.0)
        if p > 0.0 and float(self.rng.random()) < p:
            self._count("backend_unavailable")
            raise BackendUnavailable(f"{self.inner.name} backend unreachable")

    def write(self, key: str, data: bytes) -> None:
        self._maybe_unavailable()
        p = getattr(self.config, "write_torn_probability", 0.0)
        if p > 0.0 and data and float(self.rng.random()) < p:
            keep = int(self.rng.integers(len(data)))
            self._count("backend_torn_write")
            self.inner.write(key, data[:keep])
            return  # silent: the caller believes the write landed whole
        self.inner.write(key, data)

    def read(self, key: str) -> bytes:
        self._maybe_unavailable()
        data = self.inner.read(key)
        if data and float(self.rng.random()) < self.config.read_corrupt_probability:
            from repro.faults.injector import _corrupt_payload

            kinds = self.config.kinds
            kind = kinds[int(self.rng.integers(len(kinds)))]
            self._count(f"backend_read_{kind}")
            return _corrupt_payload(data, kind, self.rng)
        return data

    def delete(self, key: str) -> None:
        self._maybe_unavailable()
        self.inner.delete(key)

    def keys(self, prefix: str = "") -> List[str]:
        return self.inner.keys(prefix)

    def describe(self) -> dict:
        inner = self.inner.describe()
        inner["faulty"] = True
        inner["injected"] = self.injected
        return inner


class ReplicatedBackend(StorageBackend):
    """One logical backend over N replicas with quorum writes and
    validated, self-healing reads.

    * ``write`` lands the blob on every replica and succeeds when at
      least ``write_quorum`` (default: majority) accepted it; a partial
      success is counted (``replication.partial_writes``) and left for
      the scrubber to finish healing.
    * ``read`` walks replicas in order and serves the first blob that
      passes :func:`blob_ok`; replicas that were missing or held an
      invalid blob are repaired in-band with the good copy
      (``replication.read_repairs``).  A replica whose read raises any
      :class:`BackendError` does not respond; at least ``read_quorum``
      replicas must *respond* (healthy or not) or the read raises
      :class:`BackendUnavailable`.  With no valid blob, the read raises
      :class:`BlobError` if a replica held an invalid one,
      :class:`BackendUnavailable` if a replica did not respond, and
      :class:`KeyError` if the blob is missing from every replica.
    """

    name = "replicated"

    def __init__(self, replicas: Sequence[StorageBackend],
                 write_quorum: Optional[int] = None,
                 read_quorum: int = 1,
                 registry: Optional[MetricsRegistry] = None):
        if not replicas:
            raise BackendError("a replicated backend needs >= 1 replica")
        self.replicas = list(replicas)
        n = len(self.replicas)
        self.write_quorum = (write_quorum if write_quorum is not None
                             else n // 2 + 1)
        if not 1 <= self.write_quorum <= n:
            raise BackendError(f"write_quorum {self.write_quorum} out of "
                               f"range for {n} replicas")
        self.read_quorum = max(1, min(read_quorum, n))
        self.registry = registry if registry is not None else get_registry()

    def write(self, key: str, data: bytes) -> None:
        ok = 0
        last: Optional[Exception] = None
        for replica in self.replicas:
            try:
                replica.write(key, data)
                ok += 1
            except BackendError as exc:
                last = exc
        if 0 < ok < len(self.replicas):
            self.registry.counter("replication.partial_writes").inc()
        if ok < self.write_quorum:
            raise BackendError(
                f"write quorum not met for {key!r}: {ok}/{len(self.replicas)} "
                f"replicas accepted (need {self.write_quorum})"
            ) from last

    def read(self, key: str) -> bytes:
        stale: List[StorageBackend] = []
        responded = 0
        good: Optional[bytes] = None
        skipped = invalid = False
        for replica in self.replicas:
            try:
                data = replica.read(key)
            except KeyError:
                responded += 1
                stale.append(replica)
                continue
            except BackendError:
                # Unreachable or failing: this replica does not answer
                # this time, and is not repaired in-band either.
                skipped = True
                continue
            responded += 1
            if blob_ok(data):
                good = data
                break
            invalid = True
            stale.append(replica)
        if responded < self.read_quorum:
            raise BackendUnavailable(
                f"read quorum not met for {key!r}: {responded}/"
                f"{len(self.replicas)} replicas responded "
                f"(need {self.read_quorum})")
        if good is None:
            if invalid:
                raise BlobError(f"no replica holds a valid blob for {key!r}")
            if skipped:
                # Missing wherever a replica answered: the blob may sit
                # on one that did not, so it is not known to be gone.
                raise BackendUnavailable(
                    f"{key!r} is missing from every replica that answered")
            raise KeyError(key)
        for replica in stale:
            try:
                replica.write(key, good)
                self.registry.counter("replication.read_repairs").inc()
            except BackendError:
                pass  # the scrubber will come back for this replica
        return good

    def delete(self, key: str) -> None:
        for replica in self.replicas:
            try:
                replica.delete(key)
            except BackendError:
                pass  # an orphan on a flaky replica; the scrub sweep retries

    def keys(self, prefix: str = "") -> List[str]:
        union: Dict[str, None] = {}
        for replica in self.replicas:
            try:
                names = replica.keys(prefix)
            except BackendError:
                continue
            for key in names:
                union[key] = None
        return sorted(union)

    def exists(self, key: str) -> bool:
        for replica in self.replicas:
            try:
                if replica.exists(key):
                    return True
            except BackendError:
                continue
        return False

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "replicas": [replica.describe() for replica in self.replicas],
            "write_quorum": self.write_quorum,
            "read_quorum": self.read_quorum,
        }
