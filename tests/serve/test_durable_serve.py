"""`lepton serve --data-dir`: the HTTP front-end over the durable store
(docs/durability.md).  Files survive a server restart, /healthz surfaces
backend + scrub state, and a rotted replica is healed — never served."""

import asyncio

import pytest

from repro.serve.app import LeptonServer, ServeConfig
from repro.serve.client import ServeClient

from tests.serve.conftest import with_server

pytestmark = [pytest.mark.serve, pytest.mark.durability]


def _config(tmp_path, **kwargs):
    return ServeConfig(chunk_size=4096, data_dir=str(tmp_path / "data"),
                       replicas=2, **kwargs)


def test_files_survive_a_server_restart(tmp_path, small_jpeg):
    config = _config(tmp_path)

    async def put_round(server, client):
        response = await client.put_file(small_jpeg, tenant="t1")
        assert response.status == 201
        return response.json()["id"]

    file_id = with_server(put_round, config)

    async def get_round(server, client):
        response = await client.get_file(file_id)
        assert response.status == 200
        assert response.body == small_jpeg
        tenants = await client.request("GET", "/tenants")
        return tenants.json()

    # A brand-new process over the same data dir: recovery rebuilt the
    # index AND the quota ledger before the socket opened.
    tenants = with_server(get_round, _config(tmp_path))
    assert tenants["tenants"]["t1"]["logical_bytes"] == len(small_jpeg)


def test_healthz_surfaces_backend_and_scrub(tmp_path, small_jpeg):
    async def scenario(server, client):
        await client.put_file(small_jpeg)
        response = await client.request("GET", "/healthz")
        return response.json()

    health = with_server(scenario, _config(tmp_path))
    assert health["backend"]["backend"] == "replicated"
    assert len(health["backend"]["replicas"]) == 2
    assert health["backend"]["write_quorum"] == 2
    assert health["backend"]["damaged_entries"] == 0
    assert health["scrub"]["runs"] == 0  # no interval configured
    assert health["scrub"]["last"] is None


def test_scrub_loop_heals_a_rotted_replica(tmp_path, small_jpeg):
    config = _config(tmp_path, scrub_interval=0.1)

    async def scenario(server, client):
        put = await client.put_file(small_jpeg)
        file_id = put.json()["id"]
        # Rot one replica's blob behind the server's back.
        replica = server.store.backend.replicas[0]
        key = next(iter(server.store.entries))
        replica.write(f"chunk/{key}", b"rotten bytes at rest")
        deadline = asyncio.get_running_loop().time() + 5.0
        while asyncio.get_running_loop().time() < deadline:
            health = (await client.request("GET", "/healthz")).json()
            last = health["scrub"]["last"]
            if last is not None and last["repairs"] >= 1:
                break
            await asyncio.sleep(0.05)
        else:
            pytest.fail("scrub loop never repaired the rotted replica")
        got = await client.get_file(file_id)
        assert got.status == 200 and got.body == small_jpeg
        return health

    health = with_server(scenario, config)
    assert health["scrub"]["runs"] >= 1
    assert health["scrub"]["last"]["corruptions_detected"] >= 1


def test_memory_mode_reports_memory_backend_and_scrub(small_jpeg):
    """Without --data-dir the server still runs one storage mode: its
    blobs sit in a MemoryBackend that /healthz and the scrubber see."""
    async def scenario(server, client):
        await client.put_file(small_jpeg)
        response = await client.request("GET", "/healthz")
        return response.json()

    health = with_server(scenario, ServeConfig(chunk_size=4096))
    assert health["backend"]["backend"] == "memory"
    assert health["backend"]["keys"] > 0
    assert health["backend"]["damaged_entries"] == 0
    assert health["scrub"] == {"runs": 0, "last": None}
