"""``ServeClient`` without a retry policy sends a request twice only when
a reused keep-alive socket died before any response byte arrived.

A stub server plays each case: the stale socket (closed before the
request was read) is the one failure a resend is known to be safe for;
a response cut off mid-body, or a fresh socket that dies, is raised.
"""

import asyncio

import pytest

from repro.serve.client import ServeClient

pytestmark = pytest.mark.serve

OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
CUT = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"


def _run(script, requests):
    """Serve ``script[i]`` (bytes to send, or ``None`` to close without
    answering) to the i-th request; return what the client saw and the
    requests the stub received."""
    seen = []

    async def _stub(reader, writer):
        try:
            while True:
                seen.append(await reader.readuntil(b"\r\n\r\n"))
                answer = script[min(len(seen), len(script)) - 1]
                if answer is None:
                    break
                writer.write(answer)
                await writer.drain()
                if answer is CUT:
                    break
        except asyncio.IncompleteReadError:
            pass
        finally:
            writer.close()

    async def _main():
        stub = await asyncio.start_server(_stub, "127.0.0.1", 0)
        client = ServeClient("127.0.0.1", stub.sockets[0].getsockname()[1])
        outcomes = []
        try:
            for method in requests:
                try:
                    response = await client.request(method, "/thing",
                                                    body=b"x")
                    outcomes.append(response.status)
                except (ConnectionError, asyncio.IncompleteReadError) as exc:
                    outcomes.append(type(exc).__name__)
        finally:
            await client.close()
            stub.close()
            await stub.wait_closed()
        return outcomes, len(seen)

    return asyncio.run(_main())


def test_a_stale_keep_alive_socket_is_sent_once_more():
    # The second request meets a socket the server closed unanswered;
    # the client sends it again on a fresh connection, PUT included.
    outcomes, received = _run([OK, None, OK], ["GET", "PUT"])
    assert outcomes == [200, 200]
    assert received == 3


def test_a_response_cut_off_mid_body_is_not_sent_again():
    outcomes, received = _run([OK, CUT, OK], ["GET", "GET"])
    assert outcomes == [200, "IncompleteReadError"]
    assert received == 2


def test_a_fresh_socket_that_dies_is_not_sent_again():
    outcomes, received = _run([None, OK], ["PUT"])
    assert len(outcomes) == 1 and outcomes[0] != 200
    assert received == 1
