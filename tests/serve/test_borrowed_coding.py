"""A lone one-chunk put borrows a second CPU for its coding stage.

The encode job models each MCU row band and sends its words to its
worker's coder, a child process forked before the worker's first job,
which runs the arithmetic coder one band behind and sends each segment's
bytes back; an idle worker is reserved meanwhile, so the coder has its
CPU.  Whatever happens to the encoder, its coder or the reserved worker,
the put is answered as it would be without the split: a lost coder's
segment is coded again by the encode job, a lost encoder stores Deflate,
a deadline answers 504, and every worker comes back.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.corpus.builder import corpus_jpeg
from repro.obs import get_registry
from repro.serve.app import ServeConfig
from repro.serve.client import ServeClient
from repro.storage.workers import shared_pool

from tests.serve.conftest import gone, parent, with_server

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


def _coded() -> float:
    """Segments coded by a worker's coder so far."""
    return get_registry().counter("workers.coder.segments").value


def _restarts() -> float:
    return get_registry().counter("workers.restarts").value


async def _mid_encode(server) -> dict:
    """The pids of a borrowing encode, as soon as a worker runs one: its
    ``encoder``, the encoder's ``coder`` (found through ``/healthz``'s
    ``coders``) and the ``reserved`` worker whose CPU the coder uses."""
    pool = server.codec
    limit = time.monotonic() + 30
    while True:
        live = [w for w in list(pool._live.values()) if not w.dead]
        encoders = [w for w in live
                    if w.job is not None and w.job.kind == "encode"]
        if encoders:
            [encoder] = encoders
            [reserved] = [w for w in live
                          if w.job is None and w not in pool._idle]
            [coder] = [pid for pid in pool.describe()["coders"]
                       if parent(pid) == encoder.proc.pid]
            return {"encoder": encoder.proc.pid, "coder": coder,
                    "reserved": reserved.proc.pid}
        assert time.monotonic() < limit, "no encode ever ran"
        await asyncio.sleep(0.0005)


class _Encodes:
    """Whether each encode ``pool`` sends borrowed a second CPU for its
    coder (the job header's ``coding``), in the order they were sent."""

    def __init__(self, pool, monkeypatch):
        self.coding = []
        submit = pool._submit

        def logged(worker, kind, header, *args, **kwargs):
            if kind == "encode":
                self.coding.append(header["coding"])
            return submit(worker, kind, header, *args, **kwargs)

        monkeypatch.setattr(pool, "_submit", logged)


def test_a_lone_put_codes_on_a_second_worker_while_it_models(monkeypatch):
    async def scenario(server, client):
        await _idle(server)
        encodes = _Encodes(server.codec, monkeypatch)
        before = _coded()
        put = await client.put_file(PHOTO)
        got = await client.get_file(put.json()["id"])
        return put, got, encodes.coding, _coded() - before

    put, got, coding, coded = with_server(scenario, ONE_CHUNK)
    assert put.status == 201 and put.json()["format"] == "lepton"
    assert put.json()["chunks"] == 1
    assert got.status == 200 and got.body == PHOTO
    assert coding == [True]
    assert coded == 1  # its one segment, by the encoder's coder


def test_a_coder_killed_mid_encode_leaves_the_put_to_its_encoder():
    """The encode job codes the lost segment itself: the put is stored
    as Lepton and reads back byte for byte.  The worker then retires,
    and the pool respawns it."""
    async def scenario(server, client):
        await _idle(server)
        before = _restarts()
        put = asyncio.ensure_future(client.put_file(PHOTO))
        os.kill((await _mid_encode(server))["coder"], signal.SIGKILL)
        put = await asyncio.wait_for(put, 60)
        got = await client.get_file(put.json()["id"])
        limit = time.monotonic() + 30
        while _restarts() == before:
            assert time.monotonic() < limit, "the worker never retired"
            await asyncio.sleep(0.005)
        await _idle(server)
        return put, got, _restarts() - before, server.codec.describe()

    put, got, restarted, workers = with_server(scenario, ONE_CHUNK)
    assert put.status == 201
    assert put.json()["format"] == "lepton"
    assert got.status == 200 and got.body == PHOTO
    assert restarted == 1
    assert len(workers["coders"]) == workers["live"] == workers["size"]


def test_an_encoder_killed_mid_encode_stores_deflate_and_frees_its_helper():
    async def scenario(server, client):
        await _idle(server)
        put = asyncio.ensure_future(client.put_file(PHOTO))
        pids = await _mid_encode(server)
        os.kill(pids["encoder"], signal.SIGKILL)
        put = await asyncio.wait_for(put, 60)
        got = await client.get_file(put.json()["id"])
        await _idle(server)
        limit = time.monotonic() + 30
        while not gone(pids["coder"]):
            assert time.monotonic() < limit, "the coder outlived its worker"
            await asyncio.sleep(0.01)
        return put, got, server.codec.describe()

    put, got, workers = with_server(scenario, ONE_CHUNK)
    assert put.status == 201
    assert put.json()["format"] == "deflate"
    assert got.status == 200 and got.body == PHOTO
    assert workers["live"] == workers["size"]
    assert workers["busy"] == []


def test_the_reserved_worker_killed_mid_encode_costs_the_put_nothing():
    """The encode never needed the reserved worker, only its CPU: the put
    is stored as Lepton.  The dead worker is respawned, and is not put
    back on the idle list beside its replacement when the encode ends."""
    async def scenario(server, client):
        await _idle(server)
        before = _restarts()
        put = asyncio.ensure_future(client.put_file(PHOTO))
        os.kill((await _mid_encode(server))["reserved"], signal.SIGKILL)
        put = await asyncio.wait_for(put, 60)
        got = await client.get_file(put.json()["id"])
        limit = time.monotonic() + 30
        while _restarts() == before:
            assert time.monotonic() < limit, "the worker never respawned"
            await asyncio.sleep(0.005)
        await _idle(server)
        return put, got, server.codec.idle_workers(), server.codec.size

    put, got, idle, size = with_server(scenario, ONE_CHUNK)
    assert put.status == 201 and put.json()["format"] == "lepton"
    assert got.status == 200 and got.body == PHOTO
    assert idle == size


def test_a_deadline_that_passes_mid_encode_answers_504_and_frees_both(
        monkeypatch):
    """The encode abandons its segment between bands; the coder discards
    it at the next segment it is sent, and lives on."""
    photo = corpus_jpeg(seed=7, height=256, width=256)
    timing = corpus_jpeg(seed=8, height=256, width=256)

    async def scenario(server, client):
        await _idle(server)
        begin = time.monotonic()
        put = await client.put_file(timing)
        assert put.status == 201 and put.json()["format"] == "lepton"
        budget = (time.monotonic() - begin) / 4
        await _idle(server)
        encodes = _Encodes(server.codec, monkeypatch)
        before = _restarts()
        late = await client.put_file(photo, deadline=budget)
        await _idle(server)
        return late, encodes.coding, _restarts() - before, \
            server.codec.describe()

    late, coding, restarted, workers = with_server(scenario, ONE_CHUNK)
    assert late.status == 504
    assert late.json()["error"] == "deadline_exceeded"
    assert coding == [True]
    assert restarted == 0
    assert len(workers["coders"]) == workers["live"] == workers["size"]
    assert workers["busy"] == []


def test_two_puts_admitted_together_borrow_no_worker():
    photos = [corpus_jpeg(seed=30 + i, height=96, width=96) for i in range(2)]

    async def scenario(server, client):
        others = [ServeClient(server.config.host, server.port)
                  for _ in photos]
        try:
            for other in others:  # connected before the puts are sent
                assert (await other.request("GET", "/healthz")).status == 200
            await _idle(server)
            before = _coded()
            puts = await asyncio.gather(*(other.put_file(photo) for other,
                                          photo in zip(others, photos)))
        finally:
            for other in others:
                await other.close()
        return puts, _coded() - before

    puts, coded = with_server(scenario, ONE_CHUNK)
    assert [p.status for p in puts] == [201, 201]
    assert [p.json()["format"] for p in puts] == ["lepton", "lepton"]
    assert coded == 0
