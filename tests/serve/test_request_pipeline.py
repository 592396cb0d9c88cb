"""One request pipeline: every data-plane route meets the same gates.

``LeptonServer._handle`` applies each route's gates from the route table
in one order — breaker, fault injection, drain, shutoff on encoding
routes, deadline, admission — before the handler runs.  These tests pin
what a client sees for each data-plane route under each refusing
condition: the status, the JSON error token, and whether ``Retry-After``
comes with it (docs/serve.md, "Request pipeline").
"""

import asyncio

import pytest

from repro.serve.app import BREAKER_ROUTES, MAX_FILE_BYTES, ServeConfig
from repro.storage.safety import ShutoffSwitch

from tests.serve.conftest import with_server

pytestmark = pytest.mark.serve

STORED = b"not an image, stored as Deflate " * 40

ROUTES = ("PUT /files", "GET /files/{id}", "POST /uploads",
          "PUT /uploads/{id}", "HEAD /uploads/{id}")

REFUSED = {
    "breaker": (503, "breaker_open", True),
    "draining": (503, "draining", True),
    "shutoff": (503, "shutoff", True),
    "saturated": (503, "saturated", True),
    "deadline": (504, "deadline_exceeded", False),
}
OK = (200, None, False)

#: condition -> route -> (status, error token, Retry-After present).
EXPECTED = {
    condition: dict.fromkeys(ROUTES, refused)
    for condition, refused in REFUSED.items()
}
# Reads stay up under the shutoff, which disables encoding only.
EXPECTED["shutoff"]["GET /files/{id}"] = OK
# The resume probe passes only the breaker: a resuming client learns its
# durable offset while the data plane drains or sheds load.
for _condition in ("draining", "shutoff", "saturated", "deadline"):
    EXPECTED[_condition]["HEAD /uploads/{id}"] = OK


def _config(tmp_path, queue_depth=0):
    return ServeConfig(chunk_size=4096, max_inflight=1,
                       queue_depth=queue_depth, breaker_threshold=1,
                       breaker_reset=60.0, shutoff_dir=str(tmp_path))


async def _raw(server, head: bytes, body: bytes = b""):
    """One exchange on a fresh socket: ``(status, headers, body)``."""
    reader, writer = await asyncio.open_connection(server.config.host,
                                                   server.port)
    try:
        writer.write(head + body)
        await writer.drain()
        lines = (await reader.readuntil(b"\r\n\r\n")).decode().split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        return (int(lines[0].split(" ")[1]), headers,
                await reader.readexactly(length))
    finally:
        writer.close()


async def _head(server, target: str, headers: dict):
    """A HEAD on a fresh socket: ``(status, headers, bytes after the
    head)``.  A HEAD response ends at its head, so nothing may follow it
    before the server closes the connection or goes quiet."""
    reader, writer = await asyncio.open_connection(server.config.host,
                                                   server.port)
    try:
        writer.write(f"HEAD {target} HTTP/1.1\r\n".encode() + b"".join(
            f"{name}: {value}\r\n".encode()
            for name, value in headers.items()) + b"\r\n")
        await writer.drain()
        lines = (await reader.readuntil(b"\r\n\r\n")).decode().split("\r\n")
        response_headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name:
                response_headers[name.strip().lower()] = value.strip()
        try:
            after = await asyncio.wait_for(reader.read(1), 0.2)
        except asyncio.TimeoutError:
            after = b""
        return int(lines[0].split(" ")[1]), response_headers, after
    finally:
        writer.close()


async def _prepare(client):
    """A stored file and an open upload for the routes that need them."""
    put = await client.put_file(STORED)
    assert put.status == 201, put.body
    created = await client.request(
        "POST", "/uploads", headers={"X-Lepton-Upload-Length": "100"})
    assert created.status == 201, created.body
    return put.json()["id"], created.json()["upload"]


def _request(route, file_id, upload_id):
    """``(method, target, headers, body)`` of one valid request."""
    return {
        "PUT /files": ("PUT", "/files", {}, STORED + b"!"),
        "GET /files/{id}": ("GET", f"/files/{file_id}", {}, b""),
        "POST /uploads": ("POST", "/uploads",
                          {"X-Lepton-Upload-Length": "50"}, b""),
        "PUT /uploads/{id}": ("PUT", f"/uploads/{upload_id}",
                              {"X-Lepton-Upload-Offset": "0"}, b"x" * 10),
        "HEAD /uploads/{id}": ("HEAD", f"/uploads/{upload_id}", {}, b""),
    }[route]


@pytest.mark.parametrize("condition", sorted(REFUSED))
@pytest.mark.parametrize("route", ROUTES)
def test_each_data_plane_route_meets_each_gate(route, condition, tmp_path):
    async def scenario(server, client):
        file_id, upload_id = await _prepare(client)
        method, target, headers, body = _request(route, file_id, upload_id)
        if condition == "breaker":
            for breaker in BREAKER_ROUTES:
                server.breakers.failure(breaker)
        elif condition == "draining":
            server.draining = True
        elif condition == "shutoff":
            ShutoffSwitch(directory=str(tmp_path)).engage()
        elif condition == "saturated":
            await server.gate.admit()
        else:
            headers["X-Lepton-Deadline"] = "0"
        try:
            if method == "HEAD":
                return await _head(server, target, headers)
            response = await client.request(method, target, body=body,
                                            headers=headers)
        finally:
            if condition == "saturated":
                server.gate.release()
        return response

    response = with_server(scenario, _config(tmp_path))
    status, error, retry_after = EXPECTED[condition][route]
    if route.startswith("HEAD"):
        got, response_headers, after = response
        assert got == status
        assert ("retry-after" in response_headers) == retry_after
        assert after == b""
        return
    assert response.status == status, response.body
    if error is None:
        assert response.body in (b"", STORED)   # HEAD, or the stored bytes
    else:
        assert response.json()["error"] == error
    assert ("retry-after" in response.headers) == retry_after


#: Upload requests whose own headers are wrong.  Before the one gate
#: order they were judged before admission (400/411/413); now a full or
#: slow gate answers first, as it does for every other route.
BAD_UPLOADS = {
    "POST without length": (b"POST /uploads HTTP/1.1\r\n", {}),
    "POST with bad length": (b"POST /uploads HTTP/1.1\r\n",
                             {"X-Lepton-Upload-Length": "nope"}),
    "POST over the file cap": (b"POST /uploads HTTP/1.1\r\n",
                               {"X-Lepton-Upload-Length":
                                str(MAX_FILE_BYTES + 1)}),
    "POST with bad Content-Length": (b"POST /uploads HTTP/1.1\r\n",
                                     {"X-Lepton-Upload-Length": "10",
                                      "Content-Length": "nope"}),
    "PUT with bad Content-Length": (b"PUT /uploads/{id} HTTP/1.1\r\n",
                                    {"Content-Length": "nope",
                                     "X-Lepton-Upload-Offset": "0"}),
    "PUT without Content-Length": (b"PUT /uploads/{id} HTTP/1.1\r\n",
                                   {"X-Lepton-Upload-Offset": "0"}),
    "PUT without offset": (b"PUT /uploads/{id} HTTP/1.1\r\n",
                           {"Content-Length": "0"}),
    "PUT with bad offset": (b"PUT /uploads/{id} HTTP/1.1\r\n",
                            {"Content-Length": "0",
                             "X-Lepton-Upload-Offset": "nope"}),
}


@pytest.mark.parametrize("gate", ["saturated", "slow"])
@pytest.mark.parametrize("case", sorted(BAD_UPLOADS))
def test_a_full_or_slow_gate_answers_before_upload_headers(case, gate,
                                                           tmp_path):
    line, headers = BAD_UPLOADS[case]
    if gate == "slow":
        headers = {**headers, "X-Lepton-Deadline": "0.05"}

    async def scenario(server, client):
        _file_id, upload_id = await _prepare(client)
        head = line.replace(b"{id}", upload_id.encode()) + b"".join(
            f"{name}: {value}\r\n".encode() for name, value in headers.items())
        await server.gate.admit()
        try:
            return await _raw(server, head + b"\r\n")
        finally:
            server.gate.release()

    status, response_headers, body = with_server(
        scenario, _config(tmp_path, queue_depth=0 if gate == "saturated"
                          else 1))
    if gate == "saturated":
        assert status == 503
        assert b'"saturated"' in body
        assert "retry-after" in response_headers
    else:
        assert status == 504
        assert b'"deadline_exceeded"' in body
        assert "retry-after" not in response_headers
