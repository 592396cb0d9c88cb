"""End-to-end tests for ``lepton serve`` over real sockets.

Each test boots an in-process :class:`LeptonServer` on an ephemeral port
and drives it with the asyncio client — the same wire path production
traffic takes, including the codec, the verified chunk store, and the
admission gate.
"""

import asyncio
import json

import pytest

from repro.corpus.builder import jpeg_sweep
from repro.faults.plan import FaultPlan, SlowFault, StorageFaultConfig
from repro.serve.app import LeptonServer, ServeConfig
from repro.serve.client import ServeClient
from repro.storage.safety import ShutoffSwitch

from tests.serve.conftest import with_server

pytestmark = pytest.mark.serve


def _corpus(n=6):
    """The fig. 1 sweep at the sizes the pure-Python codec handles quickly."""
    return jpeg_sweep(n, seed=1000, sizes=(64, 96, 128), qualities=(75, 85, 92))


# -- PUT → GET byte identity ----------------------------------------------

def test_put_get_roundtrip_full_corpus():
    corpus = _corpus()

    async def scenario(server, client):
        ids = {}
        for entry in corpus:
            put = await client.put_file(entry.data)
            assert put.status == 201, put.body
            meta = put.json()
            assert meta["bytes"] == len(entry.data)
            assert put.headers["location"] == f"/files/{meta['id']}"
            ids[meta["id"]] = entry.data
        for file_id, original in ids.items():
            got = await client.get_file(file_id)
            assert got.status == 200
            assert got.body == original   # the one unforgivable outcome
            assert got.headers["accept-ranges"] == "bytes"
        return ids

    ids = with_server(scenario)
    assert len(ids) == len(corpus)   # distinct content → distinct ids


def test_duplicate_put_returns_200_not_201(small_jpeg):
    async def scenario(server, client):
        first = await client.put_file(small_jpeg)
        second = await client.put_file(small_jpeg)
        assert first.status == 201
        assert second.status == 200
        assert first.json()["id"] == second.json()["id"]
        assert server.store.files[first.json()["id"]].size == len(small_jpeg)

    with_server(scenario)


def test_roundtrip_under_corrupting_fault_plan():
    """No wrong byte is ever served, even with live at-rest + read faults."""
    corpus = _corpus(4)
    plan = FaultPlan(
        storage=StorageFaultConfig(read_corrupt_probability=0.3,
                                   at_rest_corruptions=3),
        slowdowns=[SlowFault(start=0.0, duration=3600.0, server=0, factor=1)],
    )
    config = ServeConfig(chunk_size=2048, fault_plan=plan, fault_seed=7,
                         read_retry_attempts=4)

    async def scenario(server, client):
        ids = []
        for entry in corpus:
            put = await client.put_file(entry.data)
            assert put.status == 201
            ids.append((put.json()["id"], entry.data))
        for file_id, original in ids:
            for _ in range(3):   # repeated reads re-roll the transient faults
                got = await client.get_file(file_id)
                assert got.status == 200
                assert got.body == original
        render = server.registry.render()
        assert "faults.injected" in render  # the plan actually fired

    with_server(scenario, config)


# -- Range reads -----------------------------------------------------------

def test_range_reads_cross_chunk_boundaries(small_jpeg):
    # chunk_size far below the file size forces multi-chunk records.
    config = ServeConfig(chunk_size=512)

    async def scenario(server, client):
        put = await client.put_file(small_jpeg)
        file_id = put.json()["id"]
        assert put.json()["chunks"] > 2
        size = len(small_jpeg)
        # Windows chosen to start mid-chunk and cross chunk boundaries
        # (chunk_size=512), plus the tail and a single byte.
        windows = [(0, 100), (500, min(1300, size)), (size - 50, size),
                   (700, 701)]
        for start, stop in windows:
            got = await client.get_file(
                file_id, byte_range=f"bytes={start}-{stop - 1}")
            assert got.status == 206
            assert got.body == small_jpeg[start:stop]
            assert (got.headers["content-range"]
                    == f"bytes {start}-{stop - 1}/{size}")
        suffix = await client.get_file(file_id, byte_range="bytes=-64")
        assert suffix.status == 206
        assert suffix.body == small_jpeg[-64:]
        open_ended = await client.get_file(file_id, byte_range="bytes=1000-")
        assert open_ended.body == small_jpeg[1000:]

    with_server(scenario, config)


def test_unsatisfiable_range_is_416(small_jpeg):
    async def scenario(server, client):
        put = await client.put_file(small_jpeg)
        got = await client.get_file(put.json()["id"],
                                    byte_range=f"bytes={len(small_jpeg)}-")
        assert got.status == 416
        assert got.headers["content-range"] == f"bytes */{len(small_jpeg)}"

    with_server(scenario)


# -- error surface ---------------------------------------------------------

def test_error_statuses(small_jpeg):
    async def scenario(server, client):
        missing = await client.get_file("f" * 64)
        assert missing.status == 404
        assert missing.json()["error"] == "not_found"

        wrong_method = await client.request("GET", "/files")
        assert wrong_method.status == 405
        assert wrong_method.headers["allow"] == "PUT"

        unrouted = await client.request("GET", "/nope")
        assert unrouted.status == 404

        huge = await client.request(
            "PUT", "/files", headers={"Content-Length": str(10**12)})
        assert huge.status == 413
        assert huge.json()["error"] == "file_too_large"

    with_server(scenario)


def test_quota_rejection_is_413(small_jpeg):
    # Room for the original twice over (so an idempotent re-put's reserve
    # clears), but not for the oversized second upload.
    config = ServeConfig(chunk_size=4096,
                         quota_bytes=2 * len(small_jpeg) + 50)

    async def scenario(server, client):
        ok = await client.put_file(small_jpeg, tenant="alice")
        assert ok.status == 201
        over = await client.put_file(small_jpeg + b"\x00" * 100,
                                     tenant="alice")
        assert over.status == 413
        assert over.json()["error"] == "quota_exceeded"
        dup = await client.put_file(small_jpeg, tenant="alice")
        assert dup.status == 200     # idempotent re-put: never double-charged
        other = await client.put_file(small_jpeg[: len(small_jpeg) // 2],
                                      tenant="bob")
        assert other.status == 201   # bob has his own untouched budget

        tenants = await client.request("GET", "/tenants")
        snap = tenants.json()
        assert snap["limit_bytes"] == config.quota_bytes
        alice = snap["tenants"]["alice"]
        assert alice["rejections"] == 1
        assert alice["files"] == 1
        assert alice["logical_bytes"] == len(small_jpeg)  # charged once
        assert snap["tenants"]["bob"]["files"] == 1
        render = server.registry.render()
        assert "serve.quota.rejected" in render

    with_server(scenario, config)


# -- admission control -----------------------------------------------------

def test_saturated_gate_returns_503_with_retry_after(small_jpeg):
    config = ServeConfig(chunk_size=4096, max_inflight=1, queue_depth=0,
                         retry_after=3)

    async def scenario(server, client):
        # Occupy the only slot directly, then hit the gate over the wire.
        await server.gate.admit()
        try:
            refused = await client.put_file(small_jpeg)
            assert refused.status == 503
            assert refused.json()["error"] == "saturated"
            assert refused.headers["retry-after"] == "3"
            read_refused = await client.get_file("a" * 64)
            assert read_refused.status == 503
            # The monitoring plane bypasses the gate entirely.
            health = await client.request("GET", "/healthz")
            metrics = await client.request("GET", "/metrics")
            assert health.status == 200 and metrics.status == 200
        finally:
            server.gate.release()
        admitted = await client.put_file(small_jpeg)
        assert admitted.status == 201
        assert "serve.admission.rejected" in server.registry.render()

    with_server(scenario, config)


def test_queue_admits_up_to_depth_then_rejects(small_jpeg):
    config = ServeConfig(chunk_size=4096, max_inflight=1, queue_depth=2)

    async def scenario(server, client):
        await server.gate.admit()            # slot taken
        waiters = [asyncio.ensure_future(server.gate.admit())
                   for _ in range(2)]        # fills the queue
        await asyncio.sleep(0)
        refused = await client.put_file(small_jpeg)
        assert refused.status == 503         # queue full → shed immediately
        server.gate.release()                # frees the held slot; w1 admits
        for waiter in waiters:
            await waiter
            server.gate.release()
        assert server.gate.inflight == 0

    with_server(scenario, config)


# -- health, shutoff, drain ------------------------------------------------

def test_healthz_flips_with_shutoff_switch(small_jpeg, tmp_path):
    config = ServeConfig(chunk_size=4096, shutoff_dir=str(tmp_path))

    async def scenario(server, client):
        assert (await client.request("GET", "/healthz")).json()["status"] == "ok"
        switch = ShutoffSwitch(directory=str(tmp_path))
        switch.engage()
        try:
            health = await client.request("GET", "/healthz")
            assert health.status == 503
            assert health.json()["status"] == "shutoff"
            assert "retry-after" in health.headers
            # §5.7: the switch stops *encoding*; reads must survive it.
            put = await client.put_file(small_jpeg)
            assert put.status == 503
            assert put.json()["error"] == "shutoff"
        finally:
            switch.release()
        put = await client.put_file(small_jpeg)
        assert put.status == 201
        got = await client.get_file(put.json()["id"])
        assert got.body == small_jpeg

    with_server(scenario, config)


def test_drain_refuses_new_work_and_closes():
    async def _main():
        server = LeptonServer(ServeConfig(chunk_size=4096))
        await server.start()
        client = ServeClient(server.config.host, server.port)
        assert (await client.request("GET", "/healthz")).status == 200
        # Simulated in-flight work holds the gate open, so the drain has a
        # window during which health must already report "draining".
        await server.gate.admit()
        drain = asyncio.ensure_future(server.drain())
        await asyncio.sleep(0.05)
        health = await client.request("GET", "/healthz")
        assert health.status == 503
        assert health.json()["status"] == "draining"
        server.gate.release()                # the in-flight work finishes
        await drain
        await client.close()
        # The listener is gone: a fresh connection must fail.
        with pytest.raises((ConnectionError, OSError)):
            await asyncio.open_connection(server.config.host, server.port)

    asyncio.run(_main())


# -- metrics surface -------------------------------------------------------

def test_metrics_scrape_has_full_serve_surface(small_jpeg):
    async def scenario(server, client):
        await client.put_file(small_jpeg)
        await client.get_file((await client.put_file(small_jpeg)).json()["id"])
        scrape = (await client.request("GET", "/metrics")).body.decode()
        for name in ("serve.requests", "serve.request.seconds",
                     "serve.ttfb_seconds", "serve.bytes_in",
                     "serve.bytes_out", "serve.files.stored",
                     "serve.inflight", "serve.admission.queue_depth",
                     "serve.admission.rejected", "serve.quota.rejected",
                     "serve.drain.seconds"):
            assert name in scrape, name

    with_server(scenario)


def test_metrics_show_the_exit_code_of_a_put():
    """A put's conversion records its §6.2 exit code in the one registry
    ``/metrics`` renders, the same as a ``compress`` call does."""
    async def scenario(server, client):
        put = await client.put_file(b"plain text, not an image " * 40)
        assert put.status == 201, put.body
        scrape = (await client.request("GET", "/metrics")).body.decode()
        assert "lepton.compress.exit_codes{code=Not an image}" in scrape
        assert "lepton.compress.fallbacks" in scrape

    with_server(scenario)


def test_out_of_range_jpeg_is_stored_not_a_server_error(drifting_dc_jpeg,
                                                        small_jpeg):
    """A JPEG the coder cannot represent is a §6.2 reject stored as
    Deflate: repeated uploads of it neither fail nor open the breaker."""
    async def scenario(server, client):
        for attempt in range(5):
            put = await client.put_file(drifting_dc_jpeg)
            assert put.status == (201 if attempt == 0 else 200), put.body
        got = await client.get_file(put.json()["id"])
        assert got.body == drifting_dc_jpeg
        assert (await client.put_file(small_jpeg)).status == 201

    with_server(scenario)


def test_keep_alive_and_connection_close(small_jpeg):
    async def scenario(server, client):
        for _ in range(3):   # several requests over one connection
            assert (await client.request("GET", "/healthz")).status == 200
        closing = await client.request("GET", "/healthz",
                                       headers={"Connection": "close"})
        assert closing.status == 200

    with_server(scenario)
