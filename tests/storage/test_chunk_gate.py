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
    decode_blob,
    encode_blob,
)
from repro.storage.blockstore import (
    DAMAGED_FORMAT,
    BlockStore,
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
    report = Scrubber(store, registry=MetricsRegistry()).run_once()
    assert report.chunks_checked == len(keys)
    assert report.corruptions_detected == len(keys)
    assert report.unrepairable == len(keys)
    assert report.repairs == 0


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
