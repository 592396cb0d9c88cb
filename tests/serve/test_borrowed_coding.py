"""A lone one-chunk put borrows a second worker for its coding stage.

The encode job models each MCU row band and sends its words on; the
server relays them to a ``code`` job on an idle worker, which runs the
arithmetic coder one band behind and sends each segment's bytes back
the same way.  Whatever happens to either worker, the put is answered
as it would be without the split: a lost helper's segment is coded
again by the encode job, a lost encoder stores Deflate, a deadline
answers 504, and every worker comes back.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.corpus.builder import corpus_jpeg
from repro.obs import get_registry, get_tracer
from repro.serve.app import ServeConfig
from repro.serve.client import ServeClient
from repro.storage.workers import shared_pool

from tests.serve.conftest import with_server

pytestmark = pytest.mark.serve

#: One chunk whose encode takes long enough to be killed midway.
PHOTO = corpus_jpeg(seed=5, height=256, width=256)
ONE_CHUNK = ServeConfig(chunk_size=1 << 22)


@pytest.fixture(autouse=True)
def _two_workers():
    if shared_pool().size < 2:
        pytest.skip(f"a {shared_pool().size}-worker pool has none to lend")


async def _idle(server, seconds=30.0):
    limit = time.monotonic() + seconds
    while server.codec.idle_workers() < server.codec.size:
        assert time.monotonic() < limit
        await asyncio.sleep(0.005)


def _code_jobs() -> float:
    return get_registry().counter("workers.jobs", kind="code").value


async def _kill_when_running(server, kind) -> int:
    """SIGKILL the worker running a ``kind`` job as soon as one is."""
    limit = time.monotonic() + 30
    while True:
        busy = [w for w in list(server.codec._live.values())
                if w.job is not None and w.job.kind == kind]
        if busy:
            os.kill(busy[0].proc.pid, signal.SIGKILL)
            return busy[0].proc.pid
        assert time.monotonic() < limit, f"no {kind} job ever ran"
        await asyncio.sleep(0.0005)


def _jobs(kind, since):
    """``(started, ended)`` of each ``workers.job`` span of ``kind`` that
    started after ``since`` (the host's monotonic clock), by start."""
    return sorted((s.labels["started"], s.labels["started"] + s.wall_seconds)
                  for s in get_tracer().spans
                  if s.name == "workers.job" and s.labels["kind"] == kind
                  and s.labels["started"] >= since)


def test_a_lone_put_codes_on_a_second_worker_while_it_models():
    async def scenario(server, client):
        await _idle(server)
        since = time.monotonic()
        put = await client.put_file(PHOTO)
        # The helper's reply, and so its span, may land after the put's.
        limit = time.monotonic() + 30
        while not _jobs("code", since):
            assert time.monotonic() < limit, "no code job was replayed"
            await asyncio.sleep(0.005)
        return put, _jobs("encode", since), _jobs("code", since)

    put, encodes, codes = with_server(scenario, ONE_CHUNK)
    assert put.status == 201 and put.json()["format"] == "lepton"
    assert put.json()["chunks"] == 1
    [(_encode_start, encode_end)] = encodes
    [(code_start, _code_end)] = codes
    assert code_start < encode_end


def test_a_helper_killed_mid_encode_leaves_the_put_to_its_encoder():
    """The encode job codes the lost segment itself: the put is stored
    as Lepton, and reads back byte for byte."""
    def restarts():
        return get_registry().counter("workers.restarts").value

    async def scenario(server, client):
        await _idle(server)
        before = restarts()
        put = asyncio.ensure_future(client.put_file(PHOTO))
        await _kill_when_running(server, "code")
        put = await asyncio.wait_for(put, 60)
        got = await client.get_file(put.json()["id"])
        await _idle(server)
        return put, got, restarts() - before

    put, got, restarted = with_server(scenario, ONE_CHUNK)
    assert put.status == 201
    assert put.json()["format"] == "lepton"
    assert got.status == 200 and got.body == PHOTO
    assert restarted == 1


def test_an_encoder_killed_mid_encode_stores_deflate_and_frees_its_helper():
    async def scenario(server, client):
        await _idle(server)
        put = asyncio.ensure_future(client.put_file(PHOTO))
        await _kill_when_running(server, "encode")
        put = await asyncio.wait_for(put, 60)
        got = await client.get_file(put.json()["id"])
        await _idle(server)
        return put, got, server.codec.describe()

    put, got, workers = with_server(scenario, ONE_CHUNK)
    assert put.status == 201
    assert put.json()["format"] == "deflate"
    assert got.status == 200 and got.body == PHOTO
    assert workers["live"] == workers["size"]
    assert workers["busy"] == []


def test_a_deadline_that_passes_mid_encode_answers_504_and_frees_both():
    photo = corpus_jpeg(seed=7, height=256, width=256)
    timing = corpus_jpeg(seed=8, height=256, width=256)

    async def scenario(server, client):
        await _idle(server)
        begin = time.monotonic()
        put = await client.put_file(timing)
        assert put.status == 201 and put.json()["format"] == "lepton"
        budget = (time.monotonic() - begin) / 4
        await _idle(server)
        before = _code_jobs()
        late = await client.put_file(photo, deadline=budget)
        borrowed = _code_jobs() - before
        await _idle(server)
        return late, borrowed, server.codec.describe()

    late, borrowed, workers = with_server(scenario, ONE_CHUNK)
    assert late.status == 504
    assert late.json()["error"] == "deadline_exceeded"
    assert borrowed == 1
    assert workers["live"] == workers["size"] and workers["busy"] == []


def test_two_puts_admitted_together_borrow_no_worker():
    photos = [corpus_jpeg(seed=30 + i, height=96, width=96) for i in range(2)]

    async def scenario(server, client):
        others = [ServeClient(server.config.host, server.port)
                  for _ in photos]
        try:
            for other in others:  # connected before the puts are sent
                assert (await other.request("GET", "/healthz")).status == 200
            await _idle(server)
            before = _code_jobs()
            puts = await asyncio.gather(*(other.put_file(photo) for other,
                                          photo in zip(others, photos)))
        finally:
            for other in others:
                await other.close()
        return puts, _code_jobs() - before

    puts, borrowed = with_server(scenario, ONE_CHUNK)
    assert [p.status for p in puts] == [201, 201]
    assert borrowed == 0
