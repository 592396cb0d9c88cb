"""Serve-suite helpers: run coroutines against an in-process server.

pytest-asyncio is not a dependency; every test is a plain sync function
that drives its scenario with ``asyncio.run`` via :func:`with_server`.
:func:`gone` and :func:`parent` read a codec process's state in
``/proc``.
"""

import asyncio

from repro.serve.app import LeptonServer, ServeConfig
from repro.serve.client import ServeClient


def with_server(scenario, config=None):
    """Boot a server, run ``scenario(server, client)``, always drain.

    Returns whatever the coroutine returns, so tests can assert on
    collected state after the loop has shut down.
    """

    async def _main():
        server = LeptonServer(config or ServeConfig(chunk_size=4096))
        await server.start()
        try:
            async with ServeClient(server.config.host, server.port) as client:
                return await scenario(server, client)
        finally:
            await server.drain()

    return asyncio.run(_main())


def gone(pid: int) -> bool:
    """Has ``pid`` exited (a zombie counts: it runs no code)?"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def parent(pid: int) -> int:
    """The pid of ``pid``'s parent: a coder's is its worker's."""
    with open(f"/proc/{pid}/stat") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[1])
