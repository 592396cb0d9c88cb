"""One chunk gate: recovery, reads and the scrubber judge a stored chunk
blob one way, through the store's one reader and one verified decode
(docs/durability.md)."""

import asyncio

import pytest

from repro.core import chunks
from repro.corpus.builder import corpus_jpeg
from repro.obs import MetricsRegistry
from repro.serve.app import LeptonServer, ServeConfig
from repro.storage.backends import (
    MemoryBackend,
    ReplicatedBackend,
    blob_ok,
    decode_blob,
    encode_blob,
)
from repro.storage.blockstore import (
    DAMAGED_FORMAT,
    BlockStore,
    IntegrityError,
    file_blob_key,
    open_durable_store,
)
from repro.storage.retry import RetryPolicy
from repro.storage.scrub import Scrubber

pytestmark = pytest.mark.durability

CHUNK = 1024


def _photo() -> bytes:
    return corpus_jpeg(seed=1, height=64, width=64)  # two 1-KiB chunks


def _open(root, members):
    rep = ReplicatedBackend(members, registry=MetricsRegistry())
    return open_durable_store(str(root), backends=[rep], chunk_size=CHUNK)


def _undecodable(*_args, **_kwargs):
    raise IndexError("decoder bug on intact bytes")


def test_a_decoder_bug_fails_every_chunk_without_ending_the_pass(
        monkeypatch):
    """§6.7: a build that cannot decode intact bytes.  Reads serve the
    kept originals, and the scrub pass counts every chunk unrepairable
    instead of raising."""
    photo = _photo()
    store = BlockStore(chunk_size=CHUNK, keep_originals=True,
                       read_retry=RetryPolicy(max_attempts=2))
    keys = store.put_file("a.jpg", photo).chunk_keys
    assert len(keys) == 2
    monkeypatch.setattr(chunks, "decompress", _undecodable)
    assert store.get_file("a.jpg") == photo
    assert store.degraded_fallbacks == len(keys)
    entries, admissions = dict(store.entries), store.admissions
    report = Scrubber(store, registry=MetricsRegistry()).run_once()
    assert report.chunks_checked == len(keys)
    assert report.corruptions_detected == len(keys)
    assert report.unrepairable == len(keys)
    assert report.repairs == 0
    # Recovery would index the md5-intact blobs, so the pass keeps their
    # entries: a put must not re-encode them under the failing build.
    assert store.entries == entries
    assert store.admissions == admissions


def test_a_rebuilt_placeholder_is_indexed_as_recovery_would(tmp_path):
    """A chunk rotten on every replica recovers as a damaged placeholder.
    Once one replica is restored, a scrub pass leaves the index and its
    byte accounting as a fresh recovery of the healed replicas makes
    them."""
    members = [MemoryBackend() for _ in range(3)]
    store = _open(tmp_path, members)
    photo = _photo()
    key = store.put_file("a.jpg", photo).chunk_keys[0]
    intact = members[0].read(f"chunk/{key}")
    for member in members:
        member.write(f"chunk/{key}", b"rotten on every replica")
    store.journal.close()
    healed = _open(tmp_path, members)
    assert healed.entries[key].format == DAMAGED_FORMAT
    members[0].write(f"chunk/{key}", intact)  # the operator restores one
    report = Scrubber(healed, registry=MetricsRegistry()).run_once()
    assert report.rebuilt_entries == 1
    assert report.repairs == len(members) - 1
    healed.journal.close()
    fresh = _open(tmp_path, members)
    for name in ("entries", "admissions", "lepton_bytes_in",
                 "lepton_bytes_out"):
        assert getattr(healed, name) == getattr(fresh, name), name
    assert healed.damaged_entries == 1  # still recovery's outcome
    assert fresh.damaged_entries == 0
    assert healed.get_file("a.jpg") == photo
    assert healed.degraded_fallbacks == 0  # served from the blob again
    fresh.journal.close()


def _restamped(change):
    """Change a blob's meta and stamp its md5 afresh: the payload still
    matches, only the meta is wrong."""
    def damage(blob: bytes) -> bytes:
        meta, payload = decode_blob(blob)
        change(meta)
        return encode_blob(meta, payload)
    return damage


DAMAGE = {
    "payload_bit_flip": lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]),
    "torn_tail": lambda blob: blob[:-16],
    "meta_without_osize": _restamped(lambda meta: meta.pop("osize")),
    "non_numeric_index": _restamped(lambda meta: meta.update(index="one")),
}


@pytest.mark.parametrize("kind", sorted(DAMAGE))
def test_a_damaged_blob_is_damaged_to_recovery_and_scrubber_alike(
        tmp_path, kind):
    backend = MemoryBackend()
    store = open_durable_store(str(tmp_path), backends=[backend],
                               chunk_size=CHUNK)
    photo = _photo()
    key = store.put_file("a.jpg", photo).chunk_keys[0]
    intact = backend.read(f"chunk/{key}")
    assert Scrubber.deep_ok(key, intact)
    damaged = DAMAGE[kind](intact)
    backend.write(f"chunk/{key}", damaged)
    store.journal.close()
    recovered = open_durable_store(str(tmp_path), backends=[backend],
                                   chunk_size=CHUNK)
    assert recovered.entries[key].format == DAMAGED_FORMAT
    assert recovered.damaged_entries == 1
    assert not Scrubber.deep_ok(key, damaged)
    assert recovered.get_file("a.jpg") == photo  # the kept original
    recovered.journal.close()


# A blob's md5 covers its payload only, so a bit flipped in its meta
# passes every blob check: the read path checks the sizes it places by.


def _flip(backend, key: str, old: bytes, new: bytes) -> None:
    """Rewrite one blob with ``old`` (one bit away from ``new``) replaced."""
    blob = backend.read(key)
    assert blob.count(old) == 1
    backend.write(key, blob.replace(old, new))
    assert blob_ok(backend.read(key))


def _sized_photo() -> bytes:
    photo = corpus_jpeg(seed=21, height=64, width=64)
    assert len(photo) == 1179  # chunks of 1024 and 155 bytes
    return photo


def test_a_flipped_chunk_size_never_places_a_verified_chunk(tmp_path):
    """``"osize": 1024`` flipped to 1020 in chunk 0's meta: a range read
    fails before its first byte instead of shifting the file's bytes, a
    full read fails too, and a scrub pass counts the blob rotten."""
    photo = _sized_photo()
    store = open_durable_store(str(tmp_path), chunk_size=CHUNK)
    key = store.put_file("a.jpg", photo).chunk_keys[0]
    store.journal.close()
    _flip(store.backend, f"chunk/{key}", b'"osize": 1024', b'"osize": 1020')
    store = open_durable_store(str(tmp_path), chunk_size=CHUNK)
    assert store.damaged_entries == 0  # the blob alone looks intact
    with pytest.raises(IntegrityError):
        next(store.stream_range("a.jpg", 1020, 1030))
    with pytest.raises(IntegrityError):
        b"".join(store.stream_file("a.jpg"))
    with pytest.raises(IntegrityError):
        store.get_chunk(key)  # the kept original fails the size check too
    report = Scrubber(store, registry=MetricsRegistry()).run_once()
    assert report.corruptions_detected == 1
    store.journal.close()


def test_the_scrubber_repairs_a_flipped_chunk_size_from_a_good_replica(
        tmp_path):
    photo = _sized_photo()
    store = open_durable_store(str(tmp_path), replicas=2, chunk_size=CHUNK)
    key = store.put_file("a.jpg", photo).chunk_keys[0]
    store.journal.close()
    first = store.backend.replicas[0]
    _flip(first, f"chunk/{key}", b'"osize": 1024', b'"osize": 1020')
    store = open_durable_store(str(tmp_path), replicas=2, chunk_size=CHUNK)
    report = Scrubber(store, registry=MetricsRegistry()).run_once()
    assert (report.corruptions_detected, report.repairs) == (1, 1)
    store.journal.close()
    store = open_durable_store(str(tmp_path), replicas=2, chunk_size=CHUNK)
    assert b"".join(store.stream_file("a.jpg")) == photo
    store.journal.close()


def test_a_flipped_file_size_fails_the_stream_before_its_first_byte(
        tmp_path):
    """``"size": 1179`` flipped to 1171 in the file record: the chunk
    sizes no longer add up to it, so a read returns nothing rather than
    a file cut short."""
    photo = _sized_photo()
    store = open_durable_store(str(tmp_path), chunk_size=CHUNK)
    store.put_file("a.jpg", photo)
    store.journal.close()
    _flip(store.backend, file_blob_key("a.jpg"), b'"size": 1179',
          b'"size": 1171')
    store = open_durable_store(str(tmp_path), chunk_size=CHUNK)
    assert store.files["a.jpg"].size == 1171
    with pytest.raises(IntegrityError):
        next(store.stream_file("a.jpg"))
    with pytest.raises(IntegrityError):
        next(store.stream_range("a.jpg", 0, 10))
    store.journal.close()


def test_a_re_put_writes_a_chunk_no_replica_holds_intact_again(tmp_path):
    """One replica, kept originals, one flipped payload bit: the scrub
    pass that finds no intact blob marks the entry damaged, as recovery
    would, so re-putting the same bytes writes the chunk again, with no
    restart."""
    backend = MemoryBackend()
    store = open_durable_store(str(tmp_path / "a"), backends=[backend],
                               chunk_size=CHUNK)
    photo = _photo()
    key = store.put_file("a.jpg", photo).chunk_keys[0]
    intact = backend.read(f"chunk/{key}")
    backend.write(f"chunk/{key}", DAMAGE["payload_bit_flip"](intact))
    scrubber = Scrubber(store, registry=MetricsRegistry())
    assert scrubber.run_once().unrepairable == 1
    assert store.entries[key].format == DAMAGED_FORMAT
    fresh = open_durable_store(str(tmp_path / "b"), backends=[backend],
                               chunk_size=CHUNK)
    for name in ("entries", "admissions", "lepton_bytes_in",
                 "lepton_bytes_out"):
        assert getattr(store, name) == getattr(fresh, name), name
    fresh.journal.close()
    store.put_file("a.jpg", photo)
    assert backend.read(f"chunk/{key}") == intact
    report = scrubber.run_once()
    assert (report.corruptions_detected, report.unrepairable) == (0, 0)
    fallbacks = store.degraded_fallbacks
    assert store.get_file("a.jpg") == photo
    assert store.degraded_fallbacks == fallbacks  # served from the blob
    store.journal.close()


def test_a_damaged_entry_takes_its_size_from_its_place_in_the_file(
        tmp_path):
    """Recovery indexed chunk 0 by a flipped ``osize`` (1020), then its
    payload rotted too.  The pass's placeholder takes recovery's size,
    1024 from the chunk's place in the file, so the kept original serves
    the file again."""
    photo = _sized_photo()
    backend = MemoryBackend()
    store = open_durable_store(str(tmp_path / "a"), backends=[backend],
                               chunk_size=CHUNK)
    key = store.put_file("a.jpg", photo).chunk_keys[0]
    store.journal.close()
    _flip(backend, f"chunk/{key}", b'"osize": 1024', b'"osize": 1020')
    store = open_durable_store(str(tmp_path / "a"), backends=[backend],
                               chunk_size=CHUNK)
    assert store.entries[key].original_size == 1020
    backend.write(f"chunk/{key}",
                  DAMAGE["payload_bit_flip"](backend.read(f"chunk/{key}")))
    assert Scrubber(store, registry=MetricsRegistry()).run_once(
        ).unrepairable == 1
    fresh = open_durable_store(str(tmp_path / "b"), backends=[backend],
                               chunk_size=CHUNK)
    assert store.entries == fresh.entries
    assert store.entries[key].original_size == CHUNK
    fresh.journal.close()
    assert store.get_file("a.jpg") == photo
    store.journal.close()


def test_a_re_put_during_a_scrub_pass_keeps_the_chunk_it_wrote(
        tmp_path, monkeypatch):
    """The pass reads a damaged chunk's rotten blob; a re-put then
    writes the chunk and indexes it before the pass gives its verdict.
    The verdict was on the placeholder, so the fresh entry stays."""
    backend = MemoryBackend()
    store = open_durable_store(str(tmp_path / "a"), backends=[backend],
                               chunk_size=CHUNK)
    photo = _photo()
    key = store.put_file("a.jpg", photo).chunk_keys[0]
    backend.write(f"chunk/{key}",
                  DAMAGE["payload_bit_flip"](backend.read(f"chunk/{key}")))
    scrubber = Scrubber(store, registry=MetricsRegistry())
    scrubber.run_once()
    assert store.entries[key].format == DAMAGED_FORMAT
    read, landed = backend.read, []

    def read_then_re_put(blob_key):
        data = read(blob_key)
        if blob_key == f"chunk/{key}" and not landed:
            landed.append(blob_key)
            store.put_file("a.jpg", photo)
        return data

    monkeypatch.setattr(backend, "read", read_then_re_put)
    assert scrubber.run_once().unrepairable == 1
    assert landed
    monkeypatch.undo()
    fresh = open_durable_store(str(tmp_path / "b"), backends=[backend],
                               chunk_size=CHUNK)
    assert fresh.damaged_entries == 0
    for name in ("entries", "admissions", "lepton_bytes_in",
                 "lepton_bytes_out"):
        assert getattr(store, name) == getattr(fresh, name), name
    fresh.journal.close()
    store.journal.close()


@pytest.mark.serve
def test_a_scrub_pass_that_raises_is_followed_by_one_that_completes(
        monkeypatch):
    """Under ``lepton serve --scrub-interval``, a pass that raises (a
    replica's OSError) is counted, and the loop runs the next pass."""
    async def main():
        server = LeptonServer(ServeConfig(chunk_size=CHUNK,
                                          scrub_interval=0.02))
        server.store.put_file("a.jpg", _photo())
        real_pass = server.scrubber.run_once
        passes = []

        def one_broken_pass():
            passes.append(None)
            if len(passes) == 1:
                raise OSError("a replica failed mid-pass")
            return real_pass()

        monkeypatch.setattr(server.scrubber, "run_once", one_broken_pass)
        failed = server.registry.counter("scrub.failed_passes")
        before = failed.value
        await server.start()
        try:
            for _ in range(500):  # at most 10 s
                if server.scrubber.runs:
                    break
                await asyncio.sleep(0.02)
        finally:
            await server.drain()
        return failed.value - before, server.scrubber

    failed, scrubber = asyncio.run(main())
    assert failed == 1
    assert scrubber.runs >= 1
    assert scrubber.last_report.chunks_checked == len(scrubber.store.entries)
