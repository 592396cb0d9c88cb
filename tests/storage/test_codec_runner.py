"""The store's codec runner: in this process, or on the worker pool.

``BlockStore`` makes its codec calls through one runner: ``encode`` for
a put's work, ``read`` for a read's, ``decode`` for a decode of its own.
Whichever runs them, a put and a get leave the same ``lepton.*``
telemetry: a worker sends its job's registry rows and spans back with
the result, a failed job's included, and the server replays them.  A put of content the
store already holds, under a new name, calls neither.  The in-process
runner runs a request's work in order and starts nothing early; a pool
that no server counts requests for is never alone.  An idle worker that
a waiting job is owed is never taken by work started early.
"""

import time

import pytest

from repro.core.chunks import StoredChunk
from repro.core.errors import TimeoutExceeded
from repro.core.lepton import FORMAT_LEPTON, LeptonConfig, compress
from repro.corpus.builder import corpus_jpeg
from repro.obs import get_registry, get_tracer, reset
from repro.storage import blockstore
from repro.storage.blockstore import BlockStore, InProcessCodec
from repro.storage.workers import CodecPool, shared_pool

from tests.conftest import in_background

PHOTO = corpus_jpeg(seed=11, height=96, width=96)


def _lepton_telemetry():
    """Every ``lepton.*`` counter, and the count of every ``lepton.*``
    histogram and ``span.lepton.*`` span histogram."""
    seen = {}
    for kind, name, labels, value in get_registry().export():
        if name.startswith(("lepton.", "span.lepton.")):
            key = (name, tuple(sorted(labels.items())))
            seen[key] = value["count"] if kind == "histogram" else value
    return seen


def _put_and_get(codec):
    reset()
    store = BlockStore(chunk_size=1024, codec=codec)
    store.put_file("a.jpg", PHOTO)
    assert b"".join(store.stream_range("a.jpg", 0, len(PHOTO))) == PHOTO
    return store, _lepton_telemetry()


def test_a_put_and_a_get_leave_the_same_telemetry_either_way():
    store, in_process = _put_and_get(InProcessCodec())
    assert len(store.files["a.jpg"].chunk_keys) == 2
    assert {store.entries[k].format for k in store.entries} == {FORMAT_LEPTON}
    _store, pooled = _put_and_get(shared_pool())
    assert pooled == in_process
    # One encode, and two decodes per chunk: the verify and the read.
    assert in_process["lepton.compress.attempts", ()] == 1
    assert in_process["lepton.decompress.count",
                      (("format", "lepton"),)] == 4


def test_a_job_that_raises_still_returns_its_telemetry():
    payload = compress(PHOTO, LeptonConfig(threads=1)).payload
    chunk = StoredChunk(0, FORMAT_LEPTON, payload, (0, len(PHOTO)))
    with pytest.raises(TimeoutExceeded):
        shared_pool().decode(chunk, deadline=time.monotonic() - 1.0)
    assert get_registry().histogram(
        "span.lepton.decompress.wall_seconds").count == 1
    (span,) = [s for s in get_tracer().spans if s.name == "lepton.decompress"]
    assert span.error == "TimeoutExceeded"


def _wait(predicate, seconds=30.0):
    limit = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < limit
        time.sleep(0.005)


def _big_chunk():
    """A chunk whose decode keeps a worker busy for a while."""
    big = corpus_jpeg(seed=12, height=256, width=256)
    payload = compress(big, LeptonConfig(threads=1)).payload
    return big, StoredChunk(0, FORMAT_LEPTON, payload, (0, len(big)))


def test_a_wait_for_a_busy_pool_ends_at_the_deadline():
    """The ``X-Lepton-Deadline`` budget bounds the wait for a worker too:
    with every worker busy, a decode due in 20 ms raises, which the
    server answers ``504``."""
    pool = shared_pool()
    big, chunk = _big_chunk()
    _wait(lambda: pool.idle_workers() == pool.size)
    jobs = [in_background(pool.decode, chunk) for _ in range(pool.size)]
    _wait(lambda: pool.idle_workers() == 0)
    with pytest.raises(TimeoutExceeded, match="no codec worker was free"):
        pool.decode(chunk, deadline=time.monotonic() + 0.02)
    assert all(job.result(timeout=60) == big for job in jobs)


def test_a_freed_worker_goes_to_the_waiting_decode_not_to_early_work():
    """The one worker is busy and a decode waits for it.  The worker
    frees, and in that instant, before the waiting decode can take it,
    work started early asks for an idle worker: it gets none."""
    pool = CodecPool(1)
    try:
        big, chunk = _big_chunk()
        small = compress(PHOTO, LeptonConfig(threads=1)).payload
        small_chunk = StoredChunk(0, FORMAT_LEPTON, small, (0, len(PHOTO)))
        _wait(lambda: pool.idle_workers() == 1)
        early = {}
        free = pool._free

        def free_then_race(worker):  # once, for the busy decode's worker
            pool._free = free
            with pool._cond:  # the woken decode cannot take the worker yet
                free(worker)
                pool._ahead([lambda: small_chunk], range(1), early, None)

        busy = in_background(pool.decode, chunk)
        _wait(lambda: pool.idle_workers() == 0)
        waiting = in_background(pool.decode, small_chunk)
        _wait(lambda: pool._waiting == 1)
        pool._free = free_then_race
        assert busy.result(timeout=60) == big
        assert waiting.result(timeout=60) == PHOTO
        assert early == {}
    finally:
        pool.close()


@pytest.mark.parametrize("codec", [InProcessCodec, shared_pool],
                         ids=["in_process", "pool"])
def test_stored_content_under_a_new_name_skips_the_codec(codec):
    store = BlockStore(chunk_size=1024, codec=codec())
    store.put_file("a.jpg", PHOTO)
    attempts = get_registry().counter("lepton.compress.attempts")
    decodes = get_registry().counter("lepton.decompress.count",
                                     format=FORMAT_LEPTON)
    before = attempts.value, decodes.value
    record = store.put_file("b.jpg", PHOTO)
    assert (attempts.value, decodes.value) == before
    assert record.chunk_keys == store.files["a.jpg"].chunk_keys
    assert store.stored_bytes_for(record) == store.stored_bytes_for(
        store.files["a.jpg"])
    assert store.get_file("b.jpg") == PHOTO


def test_the_in_process_runner_gets_the_calls_it_always_got(monkeypatch):
    """A put encodes, then verifies each chunk in turn; a read decodes
    each chunk at its turn, after the one before it is yielded."""
    calls = []
    compress_chunked = blockstore.compress_chunked
    decompress_chunk = blockstore.decompress_chunk

    def encode(*args, **kwargs):
        calls.append("encode")
        return compress_chunked(*args, **kwargs)

    def decode(chunk, deadline=None):
        calls.append(f"decode {chunk.index}")
        return decompress_chunk(chunk, deadline=deadline)

    monkeypatch.setattr(blockstore, "compress_chunked", encode)
    monkeypatch.setattr(blockstore, "decompress_chunk", decode)
    store = BlockStore(chunk_size=-(-len(PHOTO) // 4), codec=InProcessCodec())
    store.put_file("a.jpg", PHOTO)
    pieces = []
    for i, piece in enumerate(store.stream_range("a.jpg", 0, len(PHOTO))):
        calls.append(f"yield {i}")
        pieces.append(piece)
    assert b"".join(pieces) == PHOTO
    assert calls == (["encode"] + [f"decode {i}" for i in range(4)]
                     + [call for i in range(4)
                        for call in (f"decode {i}", f"yield {i}")])
