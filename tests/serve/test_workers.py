"""Codec worker processes under failure (repro.storage.workers).

A SIGKILLed worker costs a request nothing it can see: a GET retries the
chunk on another worker, a PUT stores the file as Deflate (the §6.2
reject path), and the pool respawns the worker and counts it.  A
SIGKILLed server leaves no worker behind, and more concurrent requests
than workers all finish: a request never waits for a worker while it
holds one.
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

from tests.serve.conftest import with_server

pytestmark = pytest.mark.serve

#: Four chunks whose decodes take long enough to be killed midway.
PHOTO = corpus_jpeg(seed=5, height=256, width=256)
CHUNK = -(-len(PHOTO) // 4)


def _gone(pid: int) -> bool:
    """Has ``pid`` exited (a zombie counts: it runs no code)?"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


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
        os.kill(victim, signal.SIGKILL)
        await _until(lambda: server.codec.describe()["restarts"]
                     > before["restarts"])
        await _until(lambda: server.codec.idle_workers()
                     == server.codec.size)
        health = (await client.request("GET", "/healthz")).json()
        return before, victim, health["workers"], counted() - counted_before

    before, victim, workers, restarts = with_server(scenario)
    assert workers["restarts"] == before["restarts"] + 1
    assert workers["live"] == workers["size"] == before["size"]
    assert victim not in workers["pids"]
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
        with urllib.request.urlopen(url + "/healthz", timeout=30) as resp:
            workers = json.loads(resp.read())["workers"]
        assert workers["live"] == workers["size"] >= 1
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        limit = time.monotonic() + 30
        while not all(_gone(pid) for pid in workers["pids"]):
            assert time.monotonic() < limit, workers["pids"]
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stderr.close()


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
    from concurrent.futures import ThreadPoolExecutor

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
        with ThreadPoolExecutor(1) as runner:
            encode = runner.submit(list, pool.encode(PHOTO, CHUNK,
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
