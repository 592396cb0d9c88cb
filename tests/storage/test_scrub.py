"""Scrub/repair loop suite: at-rest rot detected, healed, never served
(docs/durability.md)."""

import numpy as np
import pytest

from repro.corpus.builder import corpus_jpeg
from repro.faults.injector import corrupt_backend_at_rest
from repro.faults.plan import StorageFaultConfig
from repro.obs import MetricsRegistry
from repro.storage.backends import (
    FaultyBackend,
    MemoryBackend,
    ReplicatedBackend,
    encode_blob,
)
from repro.storage.blockstore import (
    DAMAGED_FORMAT,
    BlockStore,
    open_durable_store,
)
from repro.storage.scrub import Scrubber

pytestmark = pytest.mark.durability

CHUNK = 1024


def _open_replicated(tmp_path, members=3, registry=None, **kwargs):
    backends = [MemoryBackend() for _ in range(members)]
    rep = ReplicatedBackend(
        backends, registry=registry if registry is not None
        else MetricsRegistry())
    store = open_durable_store(str(tmp_path), backends=[rep],
                               chunk_size=CHUNK, **kwargs)
    return store, backends


def test_scrubber_detects_rot_in_a_memory_store():
    """A store with no data directory keeps its blobs in a MemoryBackend;
    the scrubber deep-verifies them like any other replica."""
    store = BlockStore(chunk_size=CHUNK, keep_originals=True)
    data = corpus_jpeg(seed=1, height=64, width=64)
    store.put_file("a.jpg", data)
    key = store.files["a.jpg"].chunk_keys[0]
    store.backend.write(f"chunk/{key}", b"rotten in RAM")
    report = Scrubber(store, registry=MetricsRegistry()).run_once()
    assert report.chunks_checked == len(store.entries)
    assert report.corruptions_detected == 1
    assert report.unrepairable == 1  # one replica: nothing to heal from
    assert store.get_file("a.jpg") == data  # originals fallback


def test_clean_store_scrubs_clean(tmp_path):
    store, _members = _open_replicated(tmp_path)
    store.put_file("a.jpg", corpus_jpeg(seed=1, height=64, width=64))
    report = Scrubber(store, registry=MetricsRegistry()).run_once()
    assert report.chunks_checked == len(store.entries) > 0
    assert report.corruptions_detected == 0
    assert report.repairs == 0
    assert report.unrepairable == 0
    store.journal.close()


def test_scrub_repairs_every_at_rest_corruption(tmp_path):
    registry = MetricsRegistry()
    store, members = _open_replicated(tmp_path, registry=registry)
    data = {}
    for seed in (1, 2, 3):
        name = f"f{seed}.jpg"
        data[name] = corpus_jpeg(seed=seed, height=64, width=64)
        store.put_file(name, data[name])
    rng = np.random.default_rng(5)
    corrupted = corrupt_backend_at_rest(
        members[0], StorageFaultConfig(at_rest_corruptions=4), rng,
        registry=registry)
    assert corrupted == 4
    scrubber = Scrubber(store, registry=registry)
    first = scrubber.run_once()
    assert first.corruptions_detected == 4
    assert first.repairs == 4          # 100% of detected rot healed
    assert first.unrepairable == 0
    second = scrubber.run_once()
    assert second.corruptions_detected == 0  # converged
    # Every replica now byte-identical, and every file still serves.
    for key in members[0].keys("chunk/"):
        blobs = {m.read(key) for m in members}
        assert len(blobs) == 1
    for name, original in data.items():
        assert store.get_file(name) == original
    runs = sum(c.value for _l, c in registry.series("scrub.runs"))
    assert runs == 2
    store.journal.close()


def test_scrub_restores_missing_replica_blobs_without_corruption_count(
        tmp_path):
    store, members = _open_replicated(tmp_path)
    store.put_file("a.jpg", corpus_jpeg(seed=1, height=64, width=64))
    key = next(iter(store.entries))
    members[1].delete(f"chunk/{key}")
    report = Scrubber(store, registry=MetricsRegistry()).run_once()
    assert report.corruptions_detected == 0  # missing != rotten
    assert report.repairs == 1
    assert members[1].exists(f"chunk/{key}")
    store.journal.close()


def test_scrub_counts_unrepairable_but_store_still_serves(tmp_path):
    """All replicas rotten: the scrubber cannot heal the blob, but the
    kept-original fallback still serves the bytes — never a wrong byte,
    never an unnecessary unavailability."""
    store, members = _open_replicated(tmp_path)
    data = corpus_jpeg(seed=1, height=64, width=64)
    store.put_file("a.jpg", data)
    key = store.files["a.jpg"].chunk_keys[0]
    for member in members:
        member.write(f"chunk/{key}", b"rotten everywhere")
    report = Scrubber(store, registry=MetricsRegistry()).run_once()
    assert report.unrepairable == 1
    assert report.repairs == 0
    assert store.get_file("a.jpg") == data  # degraded, correct
    assert store.degraded_fallbacks >= 1
    store.journal.close()


def test_scrub_skips_unavailable_replica_and_retries_next_pass(tmp_path):
    registry = MetricsRegistry()
    flaky_inner = MemoryBackend()
    down = StorageFaultConfig(unavailable_probability=1.0)
    flaky = FaultyBackend(flaky_inner, down, seed=1, registry=registry)
    healthy = MemoryBackend()
    rep = ReplicatedBackend([healthy, flaky], write_quorum=1,
                            registry=registry)
    store = open_durable_store(str(tmp_path), backends=[rep],
                               chunk_size=CHUNK)
    store.put_file("a.jpg", corpus_jpeg(seed=1, height=64, width=64))
    scrubber = Scrubber(store, registry=registry)
    first = scrubber.run_once()
    # The flaky replica could not even be judged: no corruption counted,
    # no unrepairable chunk — just skipped until it answers.
    assert first.corruptions_detected == 0
    assert first.unrepairable == 0
    flaky.config = StorageFaultConfig(unavailable_probability=0.0)
    second = scrubber.run_once()
    assert second.repairs == len(store.entries)  # now healed over
    assert sorted(flaky_inner.keys("chunk/")) == healthy.keys("chunk/")
    store.journal.close()


def test_scrub_rebuilds_damaged_recovery_placeholders(tmp_path):
    """A chunk unreadable at recovery becomes a damaged placeholder; the
    scrubber rebuilds the in-memory entry once a healthy blob exists."""
    root = tmp_path / "store"
    store, members = _open_replicated(root)
    data = corpus_jpeg(seed=1, height=64, width=64)
    store.put_file("a.jpg", data)
    key = store.files["a.jpg"].chunk_keys[0]
    good_blob = members[0].read(f"chunk/{key}")
    for member in members:  # rot the blob on every replica, then restart
        member.write(f"chunk/{key}", b"all replicas rotten")
    store.journal.close()
    rep = ReplicatedBackend(members, registry=MetricsRegistry())
    recovered = open_durable_store(str(root), backends=[rep],
                                   chunk_size=CHUNK)
    assert recovered.entries[key].format == DAMAGED_FORMAT
    assert recovered.damaged_entries == 1
    assert recovered.get_file("a.jpg") == data  # originals fallback
    members[0].write(f"chunk/{key}", good_blob)  # the operator restores one
    report = Scrubber(recovered, registry=MetricsRegistry()).run_once()
    assert report.repairs == len(members) - 1
    assert report.rebuilt_entries == 1
    assert recovered.entries[key].format != DAMAGED_FORMAT
    assert recovered.get_file("a.jpg") == data  # now served from blobs
    recovered.journal.close()


def test_scrub_never_trusts_a_blob_whose_payload_mismatches_its_key(
        tmp_path):
    """Deep verify ends at the SHA-256 content address: a blob that is
    internally consistent but holds the WRONG original must not be used
    to 'repair' the other replicas."""
    store, members = _open_replicated(tmp_path)
    data = corpus_jpeg(seed=1, height=64, width=64)
    store.put_file("a.jpg", data)
    key = store.files["a.jpg"].chunk_keys[0]
    import zlib

    wrong = encode_blob(
        {"index": 0, "format": "deflate", "osize": 5},
        zlib.compress(b"wrong", 6))  # valid blob, wrong content
    for member in members:
        member.write(f"chunk/{key}", wrong)
    report = Scrubber(store, registry=MetricsRegistry()).run_once()
    assert report.corruptions_detected == len(members)
    assert report.unrepairable == 1
    assert store.get_file("a.jpg") == data  # fallback, not the imposter
    store.journal.close()
