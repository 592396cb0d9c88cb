"""A put that fails the §5.7 verify decode is stored as Deflate.

The store decodes every chunk a put is about to admit; a payload that
does not decode to its input is never admitted as Lepton.  The whole file
is stored as Deflate instead (a file is never a mix of formats): the put
succeeds, the read returns the original bytes, and no breaker counts it.
A chunk the store already holds keeps its verified blob, whatever format
another file's put chose for the same bytes.  A verify decode whose
worker died gave no verdict: it is decoded again, and never counted as a
round-trip failure.
"""

import pytest

from repro.core.lepton import FORMAT_LEPTON
from repro.corpus.builder import corpus_jpeg
from repro.obs import get_registry
from repro.serve.app import ServeConfig
from repro.storage.blockstore import BlockStore
from repro.storage.workers import WorkerLost

from tests.serve.conftest import with_server

PHOTO = corpus_jpeg(seed=1, height=64, width=64)


class _FlippingCodec:
    """A store's codec runner whose Lepton decodes come back with their
    first byte flipped: every decode, the verify's included, runs
    through :meth:`decode`, which counts them."""

    def __init__(self, runner):
        self.runner = runner
        self.decodes = 0

    def encode(self, *args):
        return self.runner.encode(*args)

    def decode(self, chunk, deadline=None):
        data = self.runner.decode(chunk, deadline)
        if chunk.format == FORMAT_LEPTON:
            self.decodes += 1
            data = bytes([data[0] ^ 1]) + data[1:]
        return data

    def start(self, chunk, deadline=None):
        return None

    def idle_workers(self):
        return 0


class _LosingCodec:
    """A store's codec runner whose first ``losses`` decodes raise
    :class:`WorkerLost`, as when the worker running them is SIGKILLed or
    OOM-killed; it starts nothing ahead, so every verify runs through
    :meth:`decode`."""

    def __init__(self, runner, losses=1):
        self.runner = runner
        self.losses = losses
        self.lost = 0

    def encode(self, *args):
        return self.runner.encode(*args)

    def decode(self, chunk, deadline=None):
        if self.lost < self.losses:
            self.lost += 1
            raise WorkerLost(f"codec worker {self.lost} exited with -9")
        return self.runner.decode(chunk, deadline)

    def start(self, chunk, deadline=None):
        return None

    def idle_workers(self):
        return 0


def _roundtrip_failures() -> float:
    return get_registry().counter("lepton.verify.roundtrip_failures").value


@pytest.mark.serve
def test_failed_verify_decode_stores_the_file_as_deflate(monkeypatch):
    async def scenario(server, client):
        before = _roundtrip_failures()
        monkeypatch.setattr(server.store, "codec",
                            _FlippingCodec(server.store.codec))
        put = await client.put_file(PHOTO)
        got = await client.get_file(put.json()["id"])
        failures = server.breakers.describe()["/files"]["failures"]
        return put, got, _roundtrip_failures() - before, failures

    put, got, roundtrip_failures, failures = with_server(
        scenario, ServeConfig(chunk_size=len(PHOTO) // 2))
    assert put.status == 201, put.body
    meta = put.json()
    assert meta["format"] == "deflate"
    assert meta["chunks"] >= 2
    assert got.status == 200
    assert got.body == PHOTO
    assert roundtrip_failures == 1
    assert failures == 0


def test_a_failed_verify_leaves_a_stored_chunk_alone():
    """A photo with trailing bytes shares the photo's first chunk: the
    Deflate fallback of its failed verify must not overwrite that
    chunk's verified Lepton blob, which the photo still reads without
    any fallback."""
    photo = corpus_jpeg(seed=1, height=96, width=96)
    tailed = photo + b"trailing bytes"
    store = BlockStore(keep_originals=False, chunk_size=1024)
    store.put_file("a.jpg", photo)
    runner = store.codec
    store.codec = flipping = _FlippingCodec(runner)
    store.put_file("b.jpg", tailed)
    store.codec = runner
    assert flipping.decodes >= 1
    shared = store.files["a.jpg"].chunk_keys[0]
    assert store.files["b.jpg"].chunk_keys[0] == shared
    assert store.entries[shared].format == FORMAT_LEPTON
    assert store.entries[store.files["b.jpg"].chunk_keys[1]].format \
        == "deflate"
    assert store.get_file("a.jpg") == photo
    assert store.get_file("b.jpg") == tailed
    assert store.degraded_fallbacks == 0


def test_a_deflate_copy_leaves_a_stored_lepton_chunk_alone():
    """A truncated copy is a §6.2 reject stored as Deflate, yet its first
    chunk has the photo's bytes: writing its Deflate payload over the
    photo's Lepton blob left both files failing the md5 gate."""
    photo = corpus_jpeg(seed=1, height=96, width=96)
    store = BlockStore(keep_originals=False, chunk_size=1024)
    store.put_file("a.jpg", photo)
    store.put_file("partial.jpg", photo[:-300])
    shared = store.files["a.jpg"].chunk_keys[0]
    assert store.files["partial.jpg"].chunk_keys[0] == shared
    assert store.get_file("a.jpg") == photo
    assert store.get_file("partial.jpg") == photo[:-300]
    assert store.degraded_fallbacks == 0


@pytest.mark.serve
def test_a_verify_whose_worker_died_is_decoded_again(monkeypatch):
    async def scenario(server, client):
        before = _roundtrip_failures()
        losing = _LosingCodec(server.store.codec)
        monkeypatch.setattr(server.store, "codec", losing)
        put = await client.put_file(PHOTO)
        got = await client.get_file(put.json()["id"])
        return put, got, _roundtrip_failures() - before, losing.lost

    put, got, roundtrip_failures, lost = with_server(
        scenario, ServeConfig(chunk_size=len(PHOTO) // 2))
    assert put.status == 201, put.body
    assert put.json()["format"] == "lepton"
    assert got.status == 200
    assert got.body == PHOTO
    assert lost == 1
    assert roundtrip_failures == 0


def test_a_verify_lost_twice_stores_deflate_without_a_verdict():
    """No decode answered, so nothing is admitted as Lepton, and nothing
    counts as a round-trip failure."""
    store = BlockStore(keep_originals=False, chunk_size=1024)
    runner = store.codec
    store.codec = _LosingCodec(runner, losses=2)
    store.put_file("a.jpg", PHOTO)
    store.codec = runner
    assert {store.entries[k].format for k in store.files["a.jpg"].chunk_keys} \
        == {"deflate"}
    assert store.get_file("a.jpg") == PHOTO
    assert _roundtrip_failures() == 0
