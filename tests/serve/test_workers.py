"""Codec worker processes under failure (repro.storage.workers).

A SIGKILLed worker costs a request nothing it can see: a GET retries the
chunk on another worker, a PUT stores the file as Deflate (the §6.2
reject path), and the pool respawns the worker and counts it.  No
codec process, worker or coder, outlives its server, whether the server
is SIGKILLed or exits, and more concurrent requests than workers all
finish: a request never waits for a worker while it holds one.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.corpus.builder import corpus_jpeg
from repro.obs import get_registry
from repro.serve.app import ServeConfig
from repro.serve.client import ServeClient
from repro.storage.workers import shared_pool

from tests.conftest import in_background
from tests.serve.conftest import gone, parent, with_server

pytestmark = pytest.mark.serve

#: Four chunks whose decodes take long enough to be killed midway.
PHOTO = corpus_jpeg(seed=5, height=256, width=256)
CHUNK = -(-len(PHOTO) // 4)


async def _kill_workers_when_busy(server, busy: int = 1) -> list:
    """SIGKILL the workers running a job as soon as ``busy`` are."""
    limit = time.monotonic() + 30
    while len(pids := server.codec.describe()["busy"]) < busy:
        assert time.monotonic() < limit, f"{busy} codec jobs never ran"
        await asyncio.sleep(0.001)
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    return pids


async def _until(predicate, seconds=30.0):
    limit = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < limit
        await asyncio.sleep(0.01)


def _wait_gone(pids, seconds=30.0) -> None:
    limit = time.monotonic() + seconds
    while not all(gone(pid) for pid in pids):
        assert time.monotonic() < limit, pids
        time.sleep(0.05)


@pytest.mark.parametrize("busy", [1, 2], ids=["first_chunk", "fan_out"])
def test_a_worker_killed_mid_get_costs_the_client_nothing(busy):
    """Killed on the first chunk, which decodes alone, or once two later
    chunks decode at once on the read-ahead: either way each lost chunk
    is read again and the body arrives whole and in order."""
    if shared_pool().size < busy:
        pytest.skip(f"a {shared_pool().size}-worker pool")

    async def scenario(server, client):
        put = await client.put_file(PHOTO)
        assert put.status == 201 and put.json()["format"] == "lepton"
        get = asyncio.ensure_future(client.get_file(put.json()["id"]))
        await _kill_workers_when_busy(server, busy)
        got = await asyncio.wait_for(get, 60)
        retries = get_registry().counter("retry.attempts",
                                         scope="blockstore").value
        fallbacks = server.store.degraded_fallbacks
        return got, retries, fallbacks

    got, retries, fallbacks = with_server(scenario,
                                          ServeConfig(chunk_size=CHUNK))
    assert got.status == 200
    assert got.body == PHOTO
    assert retries >= 1          # get_chunk read the chunk again ...
    assert fallbacks == 0        # ... and did not need the original


def _conversions() -> dict:
    """The ``lepton.compress.*`` rows a conversion adds to, with the
    ``OOM kill`` exit code's."""
    registry = get_registry()
    counters = {name: registry.counter("lepton.compress." + name).value
                for name in ("attempts", "fallbacks", "input_bytes",
                             "output_bytes")}
    return {**counters,
            "oom_kills": registry.counter("lepton.compress.exit_codes",
                                          code="OOM kill").value,
            "seconds": registry.histogram("lepton.compress.seconds").count,
            "spans": registry.histogram(
                "span.lepton.compress.wall_seconds").count}


def test_a_worker_killed_mid_put_stores_the_file_as_deflate():
    """The killed conversion counts as a §6.2 reject under SIGKILL's
    exit code, with the rows an in-process reject records."""
    async def scenario(server, client):
        # Every worker is up before the put, so the kill lands in it.
        await _until(lambda: server.codec.idle_workers()
                     == server.codec.size)
        before = _conversions()
        put = asyncio.ensure_future(client.put_file(PHOTO))
        await _kill_workers_when_busy(server)
        put = await asyncio.wait_for(put, 60)
        after = _conversions()
        got = await client.get_file(put.json()["id"])
        return put, got, {k: after[k] - before[k] for k in after}

    put, got, counted = with_server(scenario, ServeConfig(chunk_size=CHUNK))
    assert put.status == 201
    assert put.json()["format"] == "deflate"
    assert got.status == 200 and got.body == PHOTO
    assert counted == {"attempts": 1, "fallbacks": 1,
                       "input_bytes": len(PHOTO),
                       "output_bytes": put.json()["stored_bytes"],
                       "oom_kills": 1, "seconds": 1, "spans": 1}


def test_a_chunk_rotten_on_every_replica_is_served_from_its_original(
        tmp_path):
    """The read-ahead reads a later chunk whose blob no replica holds
    intact: that read fails, and get_chunk reads it again, retries and
    serves the kept original, as it does without read-ahead."""
    photo = corpus_jpeg(seed=6, height=96, width=96)
    config = ServeConfig(chunk_size=-(-len(photo) // 4), replicas=2,
                         data_dir=str(tmp_path / "data"))

    async def scenario(server, client):
        put = await client.put_file(photo)
        assert put.status == 201 and put.json()["format"] == "lepton"
        keys = server.store.files[put.json()["id"]].chunk_keys
        assert len(keys) == 4
        for replica in server.store.backend.replicas:
            replica.write(f"chunk/{keys[1]}", b"rotten bytes at rest")
        got = await client.get_file(put.json()["id"])
        failures = server.breakers.describe()["/files"]["failures"]
        return got, server.store.degraded_fallbacks, failures

    got, fallbacks, failures = with_server(scenario, config)
    assert got.status == 200
    assert got.body == photo
    assert fallbacks == 1
    assert failures == 0


def test_the_pool_respawns_a_killed_worker_and_counts_it():
    def counted():
        return get_registry().counter("workers.restarts").value

    async def scenario(server, client):
        await _until(lambda: server.codec.idle_workers()
                     == server.codec.size)
        before, counted_before = server.codec.describe(), counted()
        victim = before["pids"][0]
        [coder] = [pid for pid in before["coders"] if parent(pid) == victim]
        os.kill(victim, signal.SIGKILL)
        await _until(lambda: server.codec.describe()["restarts"]
                     > before["restarts"])
        await _until(lambda: server.codec.idle_workers()
                     == server.codec.size)
        await _until(lambda: gone(coder))
        health = (await client.request("GET", "/healthz")).json()
        return before, victim, coder, health["workers"], \
            counted() - counted_before

    before, victim, coder, workers, restarts = with_server(scenario)
    assert workers["restarts"] == before["restarts"] + 1
    assert workers["live"] == workers["size"] == before["size"]
    assert victim not in workers["pids"]
    assert coder not in workers["coders"]
    assert len(workers["coders"]) == workers["live"]
    assert restarts == 1


def test_a_killed_server_leaves_no_worker_alive(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(
        os.path.dirname(__file__), "..", "..", "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--data-dir", str(tmp_path)],
        env=env, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stderr.readline()
        assert "serving on http://" in line, line
        url = line.split("serving on ", 1)[1].strip()
        limit = time.monotonic() + 30
        while True:  # until every worker has said hello and named its coder
            with urllib.request.urlopen(url + "/healthz", timeout=30) as resp:
                workers = json.loads(resp.read())["workers"]
            if len(workers["coders"]) == workers["live"]:
                break
            assert time.monotonic() < limit, workers
            time.sleep(0.05)
        assert workers["live"] == workers["size"] >= 1
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        _wait_gone(workers["pids"] + workers["coders"])
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stderr.close()


#: A server run as perfbench runs one: in this process, on a durable
#: store, drained before a normal exit.  It puts one lone one-chunk
#: photo, so that a coder codes, and prints what ``/healthz`` and the
#: registry said.
_SERVE_ONE_PUT = """
import asyncio, json, sys
from repro.corpus.builder import corpus_jpeg
from repro.obs import get_registry
from repro.serve.app import LeptonServer, ServeConfig
from repro.serve.client import ServeClient

async def main():
    server = LeptonServer(ServeConfig(data_dir=sys.argv[1],
                                      chunk_size=1 << 22))
    await server.start()
    try:
        while server.codec.idle_workers() < server.codec.size:
            await asyncio.sleep(0.01)
        async with ServeClient(server.config.host, server.port) as client:
            put = await client.put_file(
                corpus_jpeg(seed=5, height=256, width=256))
            health = (await client.request("GET", "/healthz")).json()
    finally:
        await server.drain()
    print(json.dumps({
        "status": put.status, "format": put.json()["format"],
        "workers": health["workers"],
        "coded": get_registry().counter("workers.coder.segments").value}))

asyncio.run(main())
"""


def test_a_server_that_exits_leaves_no_codec_process_alive(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(
        os.path.dirname(__file__), "..", "..", "src")}
    # Not a pipe: every worker and coder holds the server's stderr, and
    # reading a pipe to its end would wait for the last of them to exit.
    with open(tmp_path / "stderr", "w+") as stderr:
        run = subprocess.run(
            [sys.executable, "-c", _SERVE_ONE_PUT, str(tmp_path / "data")],
            env=env, stdout=subprocess.PIPE, stderr=stderr, text=True,
            timeout=120)
        stderr.seek(0)
        assert run.returncode == 0, stderr.read()
    report = json.loads(run.stdout.splitlines()[-1])
    workers = report["workers"]
    assert report["status"] == 201 and report["format"] == "lepton"
    assert len(workers["coders"]) == workers["live"] == workers["size"] >= 1
    assert report["coded"] == (1 if workers["size"] > 1 else 0)
    _wait_gone(workers["pids"] + workers["coders"])


def test_more_requests_than_workers_all_finish():
    """N+1 concurrent 4-chunk GETs and N+1 PUTs on N workers: each GET
    reads ahead on idle workers only, so none can hold one worker while
    it waits for another."""
    photos = [corpus_jpeg(seed=20 + i, height=96, width=96)
              for i in range(8)]

    async def scenario(server, client):
        n = server.codec.size + 1
        stored = photos[:n]
        ids = [(await client.put_file(p)).json()["id"] for p in stored]
        fresh = photos[n:2 * n]
        clients = [ServeClient(server.config.host, server.port)
                   for _ in range(2 * n)]
        try:
            calls = ([c.get_file(i) for c, i in zip(clients, ids)]
                     + [c.put_file(p) for c, p in zip(clients[n:], fresh)])
            results = await asyncio.wait_for(asyncio.gather(*calls), 120)
        finally:
            for c in clients:
                await c.close()
        return stored, fresh, results, n

    stored, fresh, results, n = with_server(
        scenario, ServeConfig(chunk_size=min(map(len, photos)) // 4))
    assert len(fresh) == n
    for photo, got in zip(stored, results[:n]):
        assert got.status == 200 and got.body == photo
    for put in results[n:]:
        assert put.status == 201 and put.json()["chunks"] >= 4


class _BrokenGate:
    """An admission gate whose count cannot be read: the pool's handler
    of each coded window, which asks it, raises."""

    @property
    def inflight(self):
        raise BrokenPipeError("the gate's server is gone")


def test_a_raising_window_handler_fails_its_job_and_keeps_the_worker():
    """An encode's window handler that raises fails that encode, within a
    bounded time, and its worker's listener keeps reading: the worker is
    freed and serves the next job."""
    from repro.core.chunks import compress_chunked
    from repro.core.lepton import LeptonConfig
    from repro.storage.workers import CodecPool

    pool = CodecPool(1)
    gate = _BrokenGate()
    pool.add_gate(gate)
    try:
        limit = time.monotonic() + 30
        while pool.idle_workers() < pool.size:
            assert time.monotonic() < limit
            time.sleep(0.01)
        encode = in_background(list, pool.encode(PHOTO, CHUNK,
                                                 LeptonConfig()))
        with pytest.raises(BrokenPipeError):
            encode.result(timeout=60)
        while pool.idle_workers() < pool.size:
            assert time.monotonic() < limit
            time.sleep(0.01)
        [chunk, *_] = compress_chunked(PHOTO, CHUNK)
        assert pool.decode(chunk) == PHOTO[:CHUNK]
    finally:
        pool.close()


def test_a_reply_the_listener_cannot_handle_fails_its_job_and_keeps_the_worker(
        monkeypatch):
    """A reply whose handling raises in the listener (here the telemetry
    replay) fails that job, within a bounded time, instead of ending the
    listener: the worker is freed and serves the next job."""
    from repro.core.chunks import compress_chunked
    from repro.storage.workers import CodecPool

    registry = get_registry()
    replay, calls = registry.replay, []

    def replay_once(rows):
        calls.append(rows)
        if len(calls) == 1:
            raise RuntimeError("a registry row this server cannot read")
        replay(rows)

    [chunk, *_] = compress_chunked(PHOTO, CHUNK)
    pool = CodecPool(1)
    try:
        limit = time.monotonic() + 30
        while pool.idle_workers() < pool.size:
            assert time.monotonic() < limit
            time.sleep(0.01)
        monkeypatch.setattr(registry, "replay", replay_once)
        decode = in_background(pool.decode, chunk)
        with pytest.raises(RuntimeError, match="cannot read"):
            decode.result(timeout=60)
        assert pool.decode(chunk) == PHOTO[:CHUNK]
        assert len(calls) == 2
    finally:
        pool.close()


def test_a_worker_that_dies_while_held_is_not_freed():
    """A worker taken off the idle list dies, say while its request reads
    a chunk, and its slot respawns: freeing the dead one afterwards
    leaves the pool at its size, with no dead worker to hand out."""
    from repro.storage.workers import CodecPool

    pool = CodecPool(1)
    try:
        limit = time.monotonic() + 30
        while pool.idle_workers() < pool.size:
            assert time.monotonic() < limit
            time.sleep(0.01)
        held = pool._acquire(None, wait=False)
        os.kill(held.proc.pid, signal.SIGKILL)
        while pool.restarts < 1 or pool.idle_workers() < pool.size:
            assert time.monotonic() < limit
            time.sleep(0.01)
        pool._free(held)
        assert pool.idle_workers() == pool.size
    finally:
        pool.close()


def test_a_coder_that_dies_while_its_worker_is_idle_retires_the_worker():
    """Both coders of a two-worker pool are killed while their workers
    are idle.  Each worker runs its next job as usual, then finds its
    coder gone, retires and is respawned with a fresh coder."""
    from repro.core.chunks import compress_chunked
    from repro.storage.workers import CodecPool

    chunks = compress_chunked(PHOTO, CHUNK)[:2]
    pool = CodecPool(2)
    try:
        limit = time.monotonic() + 30
        while pool.idle_workers() < pool.size:
            assert time.monotonic() < limit
            time.sleep(0.01)
        killed = pool.describe()["coders"]
        assert len(killed) == 2
        for pid in killed:
            os.kill(pid, signal.SIGKILL)
        # At once, so that each worker takes one.
        decodes = [in_background(pool.decode, chunk) for chunk in chunks]
        assert [d.result(timeout=60) for d in decodes] == [
            PHOTO[:CHUNK], PHOTO[CHUNK:2 * CHUNK]]
        limit = time.monotonic() + 30
        while True:
            coders = pool.describe()["coders"]
            if (pool.restarts == 2 and len(coders) == 2
                    and not any(gone(pid) for pid in coders)):
                break
            assert time.monotonic() < limit, (pool.restarts, coders)
            time.sleep(0.01)
        assert not set(coders) & set(killed)
    finally:
        pool.close()
