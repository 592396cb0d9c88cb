"""The store's codec runner: in this process, or on the worker pool.

``BlockStore`` makes its two codec calls through one runner.  Whichever
runs them, a put and a get leave the same ``lepton.*`` telemetry: a
worker sends its job's registry rows and spans back with the result, a
failed job's included, and the server replays them.  A put of content
the store already holds, under a new name, calls neither.
"""

import time

import pytest

from repro.core.chunks import StoredChunk
from repro.core.errors import TimeoutExceeded
from repro.core.lepton import FORMAT_LEPTON, LeptonConfig, compress
from repro.corpus.builder import corpus_jpeg
from repro.obs import get_registry, get_tracer, reset
from repro.storage.blockstore import BlockStore, InProcessCodec
from repro.storage.workers import shared_pool

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


def test_a_wait_for_a_busy_pool_ends_at_the_deadline():
    """The ``X-Lepton-Deadline`` budget bounds the wait for a worker too:
    with every worker busy, a decode due in 20 ms raises, which the
    server answers ``504``."""
    pool = shared_pool()
    big = corpus_jpeg(seed=12, height=256, width=256)
    payload = compress(big, LeptonConfig(threads=1)).payload
    chunk = StoredChunk(0, FORMAT_LEPTON, payload, (0, len(big)))
    limit = time.monotonic() + 30
    while pool.idle_workers() < pool.size:
        assert time.monotonic() < limit
        time.sleep(0.01)
    jobs = [pool.start(chunk) for _ in range(pool.size)]
    assert None not in jobs
    with pytest.raises(TimeoutExceeded, match="no codec worker was free"):
        pool.decode(chunk, deadline=time.monotonic() + 0.02)
    assert all(job.result(timeout=60) == big for job in jobs)


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
