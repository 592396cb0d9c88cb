"""Content-addressed store, metaserver scanning, backfill workers."""

import pytest

from repro.core.chunks import split_chunks
from repro.core.errors import ExitCode
from repro.core.lepton import LeptonConfig
from repro.corpus import corruptions
from repro.corpus.builder import corpus_jpeg
from repro.storage.backfill import (
    BackfillWorker,
    DropSpot,
    Metaserver,
    UserFile,
)
from repro.storage.backends import decode_blob, encode_blob
from repro.storage.blockstore import BlockStore, IntegrityError
from repro.storage.simclock import SimClock


class TestChunking:
    def test_split_covers_input(self):
        data = bytes(range(256)) * 10
        chunks = split_chunks(data, 300)
        assert b"".join(chunks) == data
        assert all(len(c) <= 300 for c in chunks)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            split_chunks(b"x", 0)


class TestBlockStore:
    @pytest.fixture()
    def store(self):
        return BlockStore(chunk_size=800, config=LeptonConfig(threads=1))

    def test_put_get_roundtrip(self, store):
        data = corpus_jpeg(seed=70, height=96, width=96)
        store.put_file("a.jpg", data)
        assert store.get_file("a.jpg") == data

    def test_lepton_savings_tracked(self):
        # Whole-file chunks: per-chunk container overhead (the replicated
        # JPEG header) is negligible only when chunks are large, as in
        # production's 4 MiB.
        store = BlockStore(chunk_size=1 << 20, config=LeptonConfig(threads=1))
        data = corpus_jpeg(seed=70, height=128, width=128)
        store.put_file("a.jpg", data)
        assert store.savings_fraction > 0.05
        assert store.lepton_bytes_in == len(data)

    def test_deduplication(self, store):
        data = corpus_jpeg(seed=71, height=64, width=64)
        store.put_file("a.jpg", data)
        admitted = store.admissions
        store.put_file("copy.jpg", data)
        assert store.admissions == admitted  # same chunks, no new entries

    def test_non_jpeg_stored_deflate(self, store):
        store.put_file("notes.txt", b"hello " * 500)
        assert store.get_file("notes.txt") == b"hello " * 500

    def test_integrity_check_on_read(self, store):
        data = corpus_jpeg(seed=72, height=64, width=64)
        record = store.put_file("a.jpg", data)
        blob_key = f"chunk/{record.chunk_keys[0]}"
        meta, payload = decode_blob(store.backend.read(blob_key))
        tampered = bytearray(payload)
        tampered[-1] ^= 0xFF
        store.backend.write(blob_key, encode_blob(meta, bytes(tampered)))
        with pytest.raises(IntegrityError):
            store.get_chunk(record.chunk_keys[0])

    def test_stream_file_matches_get_file(self, store):
        data = corpus_jpeg(seed=74, height=96, width=96)
        store.put_file("a.jpg", data)
        pieces = list(store.stream_file("a.jpg"))
        assert b"".join(pieces) == store.get_file("a.jpg") == data
        assert len(pieces) > 1  # actually streamed, not one blob

    def test_stream_file_records_ttfb(self, store):
        from repro.obs import get_registry

        data = corpus_jpeg(seed=75, height=64, width=64)
        store.put_file("a.jpg", data)
        registry = get_registry()
        before = registry.histogram("blockstore.read.ttfb_seconds").count
        assert b"".join(store.stream_file("a.jpg")) == data
        assert registry.histogram("blockstore.read.ttfb_seconds").count == before + 1
        assert registry.histogram("blockstore.read.seconds").count >= before + 1

    def test_stream_file_verifies_decode_digest(self, store):
        data = corpus_jpeg(seed=76, height=64, width=64)
        record = store.put_file("a.jpg", data)
        entry = store.entries[record.chunk_keys[0]]
        # The payload md5 gate passes; the decode no longer matches the
        # recorded content digest, so the stream must refuse the chunk
        # rather than yield a byte of it.
        entry.original_sha256 = "0" * 64
        pieces = []
        with pytest.raises(IntegrityError):
            for piece in store.stream_file("a.jpg"):
                pieces.append(piece)
        assert pieces == []


class TestMetaserver:
    def _users(self):
        jpeg = corpus_jpeg(seed=73, height=48, width=48)
        return {
            1: [UserFile("holiday.JPG", jpeg), UserFile("notes.txt", b"x" * 100)],
            2: [UserFile("img.jpeg", jpeg)],
            3: [UserFile("doc.pdf", b"y" * 100)],
            4: [UserFile("pic.jpg", jpeg)],
        }

    def test_filename_filter(self):
        assert UserFile("a.JPG", b"").backfill_candidate
        assert UserFile("b.jpeg", b"").backfill_candidate
        assert UserFile("c.jpe", b"").backfill_candidate  # ".jp" substring
        assert not UserFile("d.png", b"").backfill_candidate

    def test_scan_returns_only_jpeg_named_chunks(self):
        meta = Metaserver(self._users(), n_shards=1, chunk_size=1 << 20)
        work = meta.request_work(0)
        assert len(work.chunk_hashes) == 3  # three .jp* files
        assert set(work.user_ids) == {1, 2, 3, 4}

    def test_sharding_partitions_users(self):
        meta = Metaserver(self._users(), n_shards=2, chunk_size=1 << 20)
        w0 = meta.request_work(0)
        w1 = meta.request_work(1)
        assert set(w0.user_ids) == {2, 4}
        assert set(w1.user_ids) == {1, 3}

    def test_exhaustion(self):
        meta = Metaserver(self._users(), n_shards=1, chunk_size=1 << 20)
        meta.request_work(0)
        assert meta.exhausted

    def test_chunk_cap_produces_resume_token(self):
        jpeg = corpus_jpeg(seed=74, height=48, width=48)
        users = {1: [UserFile(f"f{i}.jpg", jpeg) for i in range(5)]}
        meta = Metaserver(users, n_shards=1, chunk_size=64)
        import repro.storage.backfill as bf

        original = bf.MAX_CHUNKS_PER_RESPONSE
        bf.MAX_CHUNKS_PER_RESPONSE = 10
        try:
            work = meta.request_work(0)
            assert work.resume_token is not None
            assert len(work.chunk_hashes) >= 10
        finally:
            bf.MAX_CHUNKS_PER_RESPONSE = original


class TestBackfillWorker:
    def test_worker_compresses_and_uploads(self):
        jpeg = corpus_jpeg(seed=75, height=64, width=64)
        users = {1: [UserFile("a.jpg", jpeg)], 2: [UserFile("b.jpg", jpeg)]}
        meta = Metaserver(users, n_shards=1, chunk_size=1 << 20)
        uploaded = {}
        worker = BackfillWorker(meta, uploaded.__setitem__,
                                LeptonConfig(threads=1))
        worker.process_shard(0)
        assert worker.stats.chunks_processed == 2
        assert worker.stats.exit_codes[ExitCode.SUCCESS] == 2
        assert worker.stats.savings_fraction > 0.05
        assert len(uploaded) >= 1

    def test_worker_records_reject_exit_codes(self):
        jpeg = corpus_jpeg(seed=76, height=48, width=48)
        users = {
            1: [UserFile("ok.jpg", jpeg)],
            2: [UserFile("prog.jpg", corruptions.make_progressive(jpeg))],
            3: [UserFile("junk.jpg", corruptions.not_an_image(seed=1))],
        }
        meta = Metaserver(users, n_shards=1, chunk_size=1 << 20)
        worker = BackfillWorker(meta, lambda k, v: None, LeptonConfig(threads=1))
        worker.process_shard(0)
        codes = worker.stats.exit_codes
        assert codes[ExitCode.SUCCESS] == 1
        assert codes[ExitCode.PROGRESSIVE] == 1
        assert codes[ExitCode.NOT_AN_IMAGE] == 1

    def _flaky_worker(self, bad_attempts, retry=None):
        """A worker whose compressor emits a valid-but-wrong payload for
        the first ``bad_attempts`` attempts (the §6.6 flaky-machine case:
        verification fails, the chunk itself is fine)."""
        from repro.core.lepton import compress
        from repro.storage.retry import RetryPolicy

        jpeg = corpus_jpeg(seed=77, height=48, width=48)
        decoy = corpus_jpeg(seed=78, height=48, width=48)
        calls = {"n": 0}

        def flaky_compress(chunk, config):
            calls["n"] += 1
            source = decoy if calls["n"] <= bad_attempts else chunk
            return compress(source, config)

        meta = Metaserver({1: [UserFile("a.jpg", jpeg)]}, n_shards=1,
                          chunk_size=1 << 20)
        uploaded = {}
        worker = BackfillWorker(
            meta, uploaded.__setitem__, LeptonConfig(threads=1),
            retry=retry or RetryPolicy(max_attempts=3),
            compress_fn=flaky_compress)
        return worker, uploaded

    def test_verification_retry_rescues_flaky_machine(self):
        worker, uploaded = self._flaky_worker(bad_attempts=1)
        worker.process_shard(0)
        assert worker.stats.retries == 1
        assert worker.stats.verification_failures == 0
        assert len(uploaded) == 1
        assert worker.registry.counter("backfill.retries").value == 1

    def test_exhausted_retries_count_verification_failure(self):
        from repro.storage.retry import RetryPolicy

        worker, uploaded = self._flaky_worker(
            bad_attempts=99, retry=RetryPolicy(max_attempts=2))
        worker.process_shard(0)
        assert worker.stats.retries == 1  # one granted retry, then give up
        assert worker.stats.verification_failures == 1
        assert uploaded == {}  # a failed chunk is never uploaded


class TestDropSpot:
    def test_allocates_above_threshold(self):
        clock = SimClock()
        spot = DropSpot(clock, free_machines=30, allocate_above=20)
        spot.poll()
        assert spot.imaging == 10
        clock.run_all()
        assert spot.active == 10

    def test_imaging_takes_hours(self):
        clock = SimClock()
        spot = DropSpot(clock, free_machines=25, allocate_above=20)
        spot.poll()
        clock.run_until(3600.0)  # one hour: still imaging
        assert spot.active == 0
        clock.run_until(5 * 3600.0)
        assert spot.active == 5

    def test_releases_when_reserve_low(self):
        clock = SimClock()
        spot = DropSpot(clock, free_machines=30, allocate_above=20,
                        release_below=8)
        spot.poll()
        clock.run_all()
        spot.free_machines = 2  # demand spike elsewhere
        spot.poll()
        assert spot.free_machines == 8
        assert spot.active == 4

    def test_machine_seconds_integral(self):
        clock = SimClock()
        spot = DropSpot(clock, free_machines=30, allocate_above=20)
        spot.poll()
        clock.run_all()
        clock.run_until(clock.now + 1000.0)
        assert spot.machine_seconds() >= 10 * 1000.0
