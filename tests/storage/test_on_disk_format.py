"""The durable store's on-disk bytes are a frozen contract.

A data directory written by one version must recover under the next, so
the blob keys, the blob meta headers and the journal records may not
drift.  ``durable_store.manifest`` pins every file a reference workload
leaves under the store root: its SHA-256, size and path.  The workload
ends in a put that crashes before its checkpoint, so the journal holds
records too.  The Deflate payloads come from the interpreter's zlib, so
a zlib build with a different compressor also changes them.  Regenerate
the manifest only for a deliberate format change::

    PYTHONPATH=src python -m tests.storage.test_on_disk_format \\
        > tests/storage/durable_store.manifest
"""

import hashlib
import os
import pathlib
import sys
import tempfile

import pytest

from repro.corpus.builder import corpus_jpeg
from repro.faults.killpoints import KillPointError, KillPoints
from repro.storage.blockstore import open_durable_store

pytestmark = pytest.mark.durability

MANIFEST = pathlib.Path(__file__).with_name("durable_store.manifest")

PHOTO = dict(seed=1, height=96, width=96)
NOTES = b"".join(b"line %04d of the reference notes\n" % i for i in range(60))
LATE = b"committed, then the power went out\n" * 4


def build_reference_store(root: str) -> None:
    """The reference workload over 1 KiB chunks: a multi-chunk JPEG, a
    Deflate text file, an idempotent re-put, a dedup alias, and a put
    that commits but crashes before the journal checkpoint."""
    kill = KillPoints()
    store = open_durable_store(root, chunk_size=1024, kill=kill)
    photo = corpus_jpeg(**PHOTO)
    store.put_file("photo.jpg", photo)
    store.put_file("notes.txt", NOTES)
    store.put_file("photo.jpg", photo)
    store.put_file("alias.jpg", photo)
    kill.arm("journal.checkpoint.pre")
    with pytest.raises(KillPointError):
        store.put_file("late.txt", LATE)
    store.journal.close()


def manifest(root: str) -> str:
    """``<sha256> <size> <relative path>`` per file under ``root``, sorted."""
    rows = []
    for path, _dirs, names in os.walk(root):
        for name in names:
            full = os.path.join(path, name)
            with open(full, "rb") as handle:
                data = handle.read()
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            rows.append((rel, len(data), hashlib.sha256(data).hexdigest()))
    return "".join(f"{digest} {size} {rel}\n"
                   for rel, size, digest in sorted(rows))


def test_reference_store_reproduces_the_pinned_bytes(tmp_path):
    build_reference_store(str(tmp_path))
    assert manifest(str(tmp_path)) == MANIFEST.read_text()


def test_reference_store_recovers_byte_exact(tmp_path):
    build_reference_store(str(tmp_path))
    store = open_durable_store(str(tmp_path), chunk_size=1024)
    photo = corpus_jpeg(**PHOTO)
    assert store.get_file("photo.jpg") == photo
    assert store.get_file("alias.jpg") == photo
    assert store.get_file("notes.txt") == NOTES
    assert store.get_file("late.txt") == LATE
    store.journal.close()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        build_reference_store(scratch)
        sys.stdout.write(manifest(scratch))
