"""Resumable uploads over the wire (docs/serve.md, "Request lifecycle").

POST /uploads opens a session kept as backend blobs, PUT /uploads/{id}
appends parts at explicit offsets, HEAD reports durable progress, and
the final part promotes through the ordinary durable put.  The
protocol's crash half lives in ``tests/storage/test_upload_recovery.py``
and the live SIGKILL sweep in ``tests/faults/test_live_chaos.py``; here
we pin the HTTP semantics: status codes, conflict self-healing,
idempotent re-finalize, client auto-resume across server restarts.
"""

import asyncio

import pytest

from repro.serve.app import LeptonServer, ServeConfig
from repro.serve.client import ServeClient

from tests.serve.conftest import with_server

pytestmark = pytest.mark.serve

DATA = bytes(i % 251 for i in range(50_000))


def _config(tmp_path=None, **kwargs):
    if tmp_path is not None:
        kwargs.setdefault("data_dir", str(tmp_path / "data"))
    return ServeConfig(chunk_size=4096, **kwargs)


def test_upload_protocol_end_to_end(tmp_path):
    async def scenario(server, client):
        created = await client.request(
            "POST", "/uploads",
            headers={"X-Lepton-Upload-Length": str(len(DATA))})
        assert created.status == 201
        session = created.json()
        assert session["state"] == "open" and session["offset"] == 0
        upload_id = session["upload"]
        assert created.headers["location"] == f"/uploads/{upload_id}"

        offset, part = 0, 16_000
        while offset < len(DATA):
            chunk = DATA[offset:offset + part]
            response = await client.request(
                "PUT", f"/uploads/{upload_id}", body=chunk,
                headers={"X-Lepton-Upload-Offset": str(offset)})
            offset += len(chunk)
            if offset < len(DATA):
                assert response.status == 200
                assert response.headers["x-lepton-upload-offset"] == str(offset)
                assert response.headers["x-lepton-upload-state"] == "open"
            else:
                # The last part finalizes: the response is the stored file.
                assert response.status == 201
                assert response.headers["x-lepton-upload-state"] == "completed"
                file_id = response.json()["id"]

        head = await client.request("HEAD", f"/uploads/{upload_id}")
        assert head.status == 200
        assert head.headers["x-lepton-upload-state"] == "completed"
        assert head.headers["x-lepton-file"] == file_id

        got = await client.get_file(file_id)
        assert got.status == 200 and got.body == DATA

        health = (await client.request("GET", "/healthz")).json()
        assert health["uploads"]["completed"] == 1
        assert health["uploads"]["open"] == 0
        rendered = server.registry.render()
        for metric in ("serve.uploads.created", "serve.uploads.parts",
                       "serve.uploads.completed"):
            assert metric in rendered
        return None

    with_server(scenario, _config(tmp_path))


def test_offset_conflict_is_409_carrying_the_truth(tmp_path):
    async def scenario(server, client):
        created = await client.request(
            "POST", "/uploads", headers={"X-Lepton-Upload-Length": "1000"})
        upload_id = created.json()["upload"]
        await client.request("PUT", f"/uploads/{upload_id}", body=b"x" * 400,
                             headers={"X-Lepton-Upload-Offset": "0"})
        conflict = await client.request(
            "PUT", f"/uploads/{upload_id}", body=b"y" * 400,
            headers={"X-Lepton-Upload-Offset": "800"})
        assert conflict.status == 409
        assert conflict.json()["error"] == "offset_conflict"
        assert conflict.headers["x-lepton-upload-offset"] == "400"
        # A duplicate of an acked range re-acks instead of conflicting.
        replay = await client.request(
            "PUT", f"/uploads/{upload_id}", body=b"x" * 400,
            headers={"X-Lepton-Upload-Offset": "0"})
        assert replay.status == 200
        assert replay.headers["x-lepton-upload-offset"] == "400"
        assert "serve.uploads.conflicts" in server.registry.render()

    with_server(scenario, _config(tmp_path))


def test_upload_error_statuses(tmp_path):
    async def scenario(server, client):
        missing = await client.request("POST", "/uploads")
        assert missing.status == 411
        bad = await client.request(
            "POST", "/uploads", headers={"X-Lepton-Upload-Length": "nope"})
        assert bad.status == 400
        zero = await client.request(
            "POST", "/uploads", headers={"X-Lepton-Upload-Length": "0"})
        assert zero.status == 400
        unknown = await client.request("HEAD", "/uploads/u99999999")
        assert unknown.status == 404
        ghost_put = await client.request(
            "PUT", "/uploads/u99999999", body=b"x",
            headers={"X-Lepton-Upload-Offset": "0"})
        assert ghost_put.status == 404
        created = await client.request(
            "POST", "/uploads", headers={"X-Lepton-Upload-Length": "10"})
        upload_id = created.json()["upload"]
        no_offset = await client.request(
            "PUT", f"/uploads/{upload_id}", body=b"x")
        assert no_offset.status == 400
        overflow = await client.request(
            "PUT", f"/uploads/{upload_id}", body=b"x" * 11,
            headers={"X-Lepton-Upload-Offset": "0"})
        assert overflow.status == 400

    with_server(scenario, _config(tmp_path))


def test_client_upload_file_resumes_across_restart(tmp_path):
    """The client's auto-resume: half the parts land in one server life,
    a fresh process over the same data dir takes the rest — the client
    re-probes durable progress with HEAD and never re-sends acked bytes."""
    config = _config(tmp_path)

    async def first_half(server, client):
        created = await client.request(
            "POST", "/uploads",
            headers={"X-Lepton-Upload-Length": str(len(DATA))})
        upload_id = created.json()["upload"]
        await client.request("PUT", f"/uploads/{upload_id}",
                             body=DATA[:20_000],
                             headers={"X-Lepton-Upload-Offset": "0"})
        return upload_id

    upload_id = with_server(first_half, config)

    async def second_half(server, client):
        head = await client.request("HEAD", f"/uploads/{upload_id}")
        assert head.status == 200  # recovery resurrected the session
        assert head.headers["x-lepton-upload-offset"] == "20000"
        final = await client.upload_file(DATA, part_size=16_000,
                                         upload_id=upload_id)
        assert final.status == 201
        assert final.headers["x-lepton-upload-state"] == "completed"
        got = await client.get_file(final.json()["id"])
        assert got.body == DATA
        assert server.uploads.recovered_sessions == 1
        assert "serve.uploads.recovered" in server.registry.render()

    with_server(second_half, _config(tmp_path))


def test_refinalize_after_lost_ack_is_200(tmp_path):
    async def scenario(server, client):
        first = await client.upload_file(DATA, part_size=16_000)
        assert first.status == 201
        upload_id = "u00000001"
        # The client lost the completion ack and re-sends the empty
        # finalize PUT: same outcome, 200 instead of 201.
        again = await client.request(
            "PUT", f"/uploads/{upload_id}", body=b"",
            headers={"X-Lepton-Upload-Offset": str(len(DATA))})
        assert again.status == 200
        assert again.headers["x-lepton-upload-state"] == "completed"
        assert again.json()["id"] == first.json()["id"]

    with_server(scenario, _config(tmp_path))


def test_a_completed_upload_keeps_its_offset_across_restarts(tmp_path):
    """A finished session's progress survives every restart, not only
    the first: HEAD still reports the whole length, and a client that
    lost the final ack and resumes gets the stored file back."""

    async def complete(server, client):
        final = await client.upload_file(DATA, part_size=16_000)
        assert final.status == 201
        return final.json()["id"]

    file_id = with_server(complete, _config(tmp_path))

    async def after_restart(server, client):
        head = await client.request("HEAD", "/uploads/u00000001")
        assert head.status == 200
        assert head.headers["x-lepton-upload-offset"] == str(len(DATA))
        assert head.headers["x-lepton-upload-state"] == "completed"
        again = await client.upload_file(DATA, part_size=16_000,
                                         upload_id="u00000001")
        assert again.status == 200
        assert again.json()["id"] == file_id

    for _ in range(2):
        with_server(after_restart, _config(tmp_path))


def test_head_answers_while_draining(tmp_path):
    """HEAD /uploads/{id} is deliberately ungated and un-drained: a
    resuming client must learn its durable offset even while the data
    plane is refusing writes."""

    async def _main():
        server = LeptonServer(_config(tmp_path))
        await server.start()
        # A draining server answers at most one more request per live
        # connection, so each in-drain probe gets its own pre-established
        # keep-alive connection (the listener itself is already closed).
        prober = ServeClient(server.config.host, server.port)
        writer = ServeClient(server.config.host, server.port)
        try:
            created = await prober.request(
                "POST", "/uploads", headers={"X-Lepton-Upload-Length": "100"})
            upload_id = created.json()["upload"]
            assert (await writer.request("GET", "/healthz")).status == 200
            await server.gate.admit()  # hold the drain open
            drain = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0.05)
            refused = await writer.request(
                "PUT", f"/uploads/{upload_id}", body=b"x" * 10,
                headers={"X-Lepton-Upload-Offset": "0"})
            assert refused.status == 503  # writes are draining
            assert refused.json()["error"] == "draining"
            head = await prober.request("HEAD", f"/uploads/{upload_id}")
            assert head.status == 200     # progress still answers
            server.gate.release()
            await drain
        finally:
            await prober.close()
            await writer.close()

    asyncio.run(_main())


def test_upload_quota_rejection_is_413(tmp_path):
    config = _config(tmp_path, quota_bytes=10_000)

    async def scenario(server, client):
        refused = await client.request(
            "POST", "/uploads", headers={"X-Lepton-Upload-Length": "20000"})
        assert refused.status == 413
        assert refused.json()["error"] == "quota_exceeded"
        # The doomed session reserved nothing: a fitting one still opens.
        ok = await client.request(
            "POST", "/uploads", headers={"X-Lepton-Upload-Length": "5000"})
        assert ok.status == 201

    with_server(scenario, config)
