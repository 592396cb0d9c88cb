"""Degraded reads: bounded retry, original-JPEG fallback, zero wrong bytes."""

import numpy as np
import pytest

from repro.corpus.builder import corpus_jpeg
from repro.faults.injector import ReadFaultInjector, corrupt_backend_at_rest
from repro.faults.plan import StorageFaultConfig
from repro.obs import MetricsRegistry, get_registry
from repro.storage.backends import decode_blob, encode_blob
from repro.storage.blockstore import BlockStore, IntegrityError
from repro.storage.retry import RetryPolicy


def _store(**kwargs) -> BlockStore:
    store = BlockStore(**kwargs)
    for seed in (21, 22):
        store.put_file(f"photo-{seed}.jpg",
                       corpus_jpeg(seed=seed, height=32, width=32))
    return store


def _rot(store: BlockStore, key: str, damage) -> None:
    """Damage one chunk's payload at rest; the index digests stay put."""
    blob_key = f"chunk/{key}"
    meta, payload = decode_blob(store.backend.read(blob_key))
    store.backend.write(blob_key, encode_blob(meta, damage(payload)))


class TestFallback:
    def test_at_rest_truncation_served_from_original(self):
        store = _store(keep_originals=True,
                       read_retry=RetryPolicy(max_attempts=2))
        name = "photo-21.jpg"
        original = corpus_jpeg(seed=21, height=32, width=32)
        key = store.files[name].chunk_keys[0]
        _rot(store, key, lambda payload: payload[:7])
        assert store.get_file(name) == original
        assert store.degraded_fallbacks == 1
        assert get_registry().counter("degraded_read.fallbacks").value == 1

    def test_stream_file_uses_the_fallback_too(self):
        store = _store(keep_originals=True)
        name = "photo-22.jpg"
        original = corpus_jpeg(seed=22, height=32, width=32)
        key = store.files[name].chunk_keys[0]
        _rot(store, key, lambda payload: b"\x00garbage")
        assert b"".join(store.stream_file(name)) == original
        assert store.degraded_fallbacks == 1

    def test_no_fallback_configured_still_raises(self):
        store = _store(read_retry=RetryPolicy(max_attempts=2))
        key = store.files["photo-21.jpg"].chunk_keys[0]
        _rot(store, key, lambda payload: b"rotten")
        with pytest.raises(IntegrityError):
            store.get_file("photo-21.jpg")

    def test_healthy_reads_never_touch_the_fallback(self):
        store = _store(keep_originals=True,
                       read_retry=RetryPolicy(max_attempts=2))
        for seed in (21, 22):
            assert (store.get_file(f"photo-{seed}.jpg")
                    == corpus_jpeg(seed=seed, height=32, width=32))
        assert store.degraded_fallbacks == 0


class TestTransientFaults:
    def test_retry_heals_transient_corruption(self):
        """A fault that corrupts every odd read attempt: the bounded
        re-read always lands on a clean copy."""
        flips = {"n": 0}

        def flaky(key, payload, attempt):
            flips["n"] += 1
            return payload[:-1] if attempt == 1 else payload

        store = _store(read_retry=RetryPolicy(max_attempts=2),
                       read_fault=flaky)
        assert (store.get_file("photo-21.jpg")
                == corpus_jpeg(seed=21, height=32, width=32))
        assert flips["n"] == 2  # corrupted once, clean on the re-read
        assert store.degraded_fallbacks == 0

    def test_retry_budget_exhausted_without_fallback(self):
        store = _store(read_retry=RetryPolicy(max_attempts=2),
                       read_fault=lambda k, p, a: p[:-1])
        with pytest.raises(IntegrityError):
            store.get_file("photo-21.jpg")


@pytest.mark.chaos
class TestZeroWrongBytes:
    def test_thousand_faulted_reads_serve_only_right_bytes(self):
        """The §5.7 invariant under sustained storage chaos: across ≥1,000
        reads with transient corruption, persistent at-rest rot, and the
        degraded-read machinery active, not one wrong byte is served."""
        registry = MetricsRegistry()
        config = StorageFaultConfig(read_corrupt_probability=0.4,
                                    at_rest_corruptions=1)
        store = _store(keep_originals=True,
                       read_retry=RetryPolicy(max_attempts=3))
        rng = np.random.default_rng(17)
        assert corrupt_backend_at_rest(store.backend, config, rng,
                                       registry=registry) == 1
        injector = ReadFaultInjector(config, seed=18, registry=registry)
        store.read_fault = injector
        originals = {
            name: corpus_jpeg(seed=seed, height=32, width=32)
            for seed, name in ((21, "photo-21.jpg"), (22, "photo-22.jpg"))
        }
        names = sorted(originals)
        reads = served = wrong = failed = 0
        for _ in range(1000):
            name = names[int(rng.integers(len(names)))]
            reads += 1
            try:
                data = store.get_file(name)
            except IntegrityError:
                failed += 1
                continue
            served += 1
            if data != originals[name]:
                wrong += 1
        assert reads == 1000
        assert wrong == 0
        assert injector.injected > 100      # chaos actually happened
        assert store.degraded_fallbacks > 0  # the rotten chunk was hit
        assert failed == 0                   # and always recovered
        assert served == reads
