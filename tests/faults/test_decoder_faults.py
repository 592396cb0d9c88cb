"""A decoder that raises on intact bytes: fall back, or sever — never lie.

The §6.7 rollback incident was a build that could not decode another
build's files.  A read that fails that way must still serve the kept
original (§5.7's safety copy), and a GET whose stream has already
started must be severed, not completed with an error response written
into the body.
"""

import asyncio

import pytest

from repro.corpus.builder import corpus_jpeg
from repro.obs import get_registry
from repro.serve.app import ServeConfig
from repro.serve.client import ServeClient
from repro.storage import blockstore
from repro.storage.blockstore import BlockStore
from repro.storage.retry import RetryPolicy

from tests.serve.conftest import with_server

pytestmark = pytest.mark.chaos


def _undecodable(*_args, **_kwargs):
    raise IndexError("decoder bug on intact bytes")


def _fallbacks() -> float:
    return sum(c.value for _l, c in
               get_registry().series("degraded_read.fallbacks"))


def test_decoder_bug_falls_back_to_the_kept_original(monkeypatch):
    photo = corpus_jpeg(seed=1, height=64, width=64)
    store = BlockStore(keep_originals=True,
                       read_retry=RetryPolicy(max_attempts=2))
    store.put_file("a.jpg", photo)
    monkeypatch.setattr(blockstore, "decompress_chunk", _undecodable)
    before = _fallbacks()
    assert store.get_file("a.jpg") == photo
    assert store.degraded_fallbacks == 1
    assert _fallbacks() == before + 1


def test_decoder_bug_without_an_original_still_raises(monkeypatch):
    store = BlockStore(keep_originals=False)
    store.put_file("a.jpg", corpus_jpeg(seed=1, height=64, width=64))
    monkeypatch.setattr(blockstore, "decompress_chunk", _undecodable)
    with pytest.raises(IndexError):
        store.get_file("a.jpg")
    assert store.degraded_fallbacks == 0


@pytest.mark.serve
def test_mid_stream_failure_severs_the_get(monkeypatch):
    """The second chunk's read raises after the ``200`` head and the first
    chunk went out.  The tail is shorter than an error response, so an
    error written into the stream would fill the promised length."""
    photo = corpus_jpeg(seed=1, height=64, width=64)
    tail = 60

    async def scenario(server, client):
        created = await client.put_file(photo)
        assert created.status == 201
        file_id = created.json()["id"]
        keys = server.store.files[file_id].chunk_keys
        assert len(keys) == 2
        real_get_chunk = server.store.get_chunk
        reads = []

        def failing(key, deadline=None, ahead=None):
            reads.append(key)
            if key == keys[1]:
                raise IndexError("decoder bug on intact bytes")
            return real_get_chunk(key, deadline=deadline, ahead=ahead)

        monkeypatch.setattr(server.store, "get_chunk", failing)
        with pytest.raises((ConnectionError, asyncio.IncompleteReadError)):
            await client.get_file(file_id)
        aborted = server.registry.counter(
            "serve.requests", method="GET", route="/files/{id}",
            status="aborted").value
        failures = server.breakers.describe()["/files/{id}"]["failures"]
        monkeypatch.setattr(server.store, "get_chunk", real_get_chunk)
        async with ServeClient(server.config.host, server.port) as fresh:
            served = await fresh.get_file(file_id)
        return aborted, failures, reads, served

    aborted, failures, reads, served = with_server(
        scenario, ServeConfig(chunk_size=len(photo) - tail))
    # Response bytes had arrived, so the client does not send the GET
    # again: one aborted request, one breaker failure, two chunk reads.
    assert aborted == 1
    assert failures == 1
    assert len(reads) == 2
    assert served.status == 200
    assert served.body == photo
