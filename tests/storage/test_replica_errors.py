"""A replica that errors is skipped, not fatal: startup recovery, reads
and the scrubber treat any ``BackendError`` from one replica as that
replica not answering this time (docs/durability.md)."""

import os

import pytest

from repro.corpus.builder import corpus_jpeg
from repro.obs import MetricsRegistry
from repro.storage.backends import (
    BackendError,
    BackendUnavailable,
    FilesystemBackend,
)
from repro.storage.blockstore import file_blob_key, open_durable_store
from repro.storage.scrub import Scrubber

pytestmark = pytest.mark.durability

CHUNK = 1024


def _stored(root, replicas=2):
    """Put a two-chunk photo into a fresh store at ``root`` and close it;
    returns the photo and its chunk keys in the scrubber's order."""
    photo = corpus_jpeg(seed=1, height=64, width=64)
    store = open_durable_store(str(root), replicas=replicas, chunk_size=CHUNK)
    keys = sorted(store.put_file("a.jpg", photo).chunk_keys)
    assert len(keys) == 2
    store.journal.close()
    return photo, keys


def _blob_path(root, replica: int, key: str) -> str:
    return os.path.join(str(root), f"replica-{replica}", *key.split("/"))


def _blob_to_directory(root, replica: int, key: str) -> None:
    """Replace one replica's blob of ``key`` with a directory: every read
    of it fails with an ``OSError`` that is not a missing file."""
    path = _blob_path(root, replica, key)
    os.remove(path)
    os.mkdir(path)


@pytest.mark.parametrize("blob", ["chunk", "file record"])
def test_a_restart_skips_a_replica_whose_blob_errors(tmp_path, blob):
    """Replica 0's blob of a chunk, or of the file record, is a directory;
    replica 1 holds every blob intact.  Startup recovery reads replica 1,
    and the file reads back byte-exact from its stored chunks."""
    photo, keys = _stored(tmp_path)
    key = f"chunk/{keys[0]}" if blob == "chunk" else file_blob_key("a.jpg")
    _blob_to_directory(tmp_path, 0, key)
    store = open_durable_store(str(tmp_path), replicas=2, chunk_size=CHUNK)
    assert store.damaged_entries == 0
    assert store.get_file("a.jpg") == photo
    assert store.degraded_fallbacks == 0  # not the kept originals
    store.journal.close()


def test_an_error_on_the_last_copy_of_a_file_record_stops_startup(
        tmp_path, monkeypatch):
    """A committed file is never dropped unseen: with no other replica to
    read its record from, an I/O error stops startup."""
    _stored(tmp_path, replicas=1)
    record = file_blob_key("a.jpg")
    read = FilesystemBackend.read

    def failing(self, key):
        if key == record:
            raise BackendError(f"cannot read {key!r}: I/O error")
        return read(self, key)

    monkeypatch.setattr(FilesystemBackend, "read", failing)
    with pytest.raises(BackendError):
        open_durable_store(str(tmp_path), chunk_size=CHUNK)


def test_a_record_missing_wherever_a_replica_answered_stops_startup(
        tmp_path, monkeypatch):
    """The file record is only on replica 0, whose read errors, and
    replica 1 has none: the record is not known to be gone, so the read
    raises ``BackendUnavailable`` and startup stops rather than drop the
    file unseen."""
    _stored(tmp_path)
    record = file_blob_key("a.jpg")
    os.remove(_blob_path(tmp_path, 1, record))
    read = FilesystemBackend.read

    def failing(self, key):
        if key == record and self.root.endswith("replica-0"):
            raise BackendError(f"cannot read {key!r}: I/O error")
        return read(self, key)

    monkeypatch.setattr(FilesystemBackend, "read", failing)
    with pytest.raises(BackendUnavailable):
        open_durable_store(str(tmp_path), replicas=2, chunk_size=CHUNK)


def test_a_scrub_pass_skips_a_replica_whose_blob_errors(tmp_path):
    """Replica 1's blob of the first chunk is a directory and replica 0's
    blob of the last chunk is rotten: one pass checks both chunks, leaves
    the replica it could not read alone and rewrites the rotten blob from
    replica 1."""
    _photo, keys = _stored(tmp_path)
    store = open_durable_store(str(tmp_path), replicas=2, chunk_size=CHUNK)
    first, last = (f"chunk/{key}" for key in keys)
    _blob_to_directory(tmp_path, 1, first)
    with open(_blob_path(tmp_path, 0, last), "wb") as handle:
        handle.write(b"bitrot")
    report = Scrubber(store, registry=MetricsRegistry()).run_once()
    assert report.chunks_checked == 2
    assert (report.corruptions_detected, report.repairs,
            report.unrepairable) == (1, 1, 0)
    replica_0, replica_1 = store.backend.replicas
    assert replica_0.read(last) == replica_1.read(last)
    assert os.path.isdir(_blob_path(tmp_path, 1, first))
    store.journal.close()
