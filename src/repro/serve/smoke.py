"""``python -m repro.serve.smoke``: boot, call every route, scrape, exit.

The ``make serve-smoke`` target runs this: start an in-process server on
an ephemeral port and call every ``(method, route)`` of the route table
once over a real socket — PUT one fig. 1 corpus file of four chunks and
GET it back (full and ranged), upload it again through a resumable
session and probe the session, then read ``/healthz``, ``/metrics`` and
``/tenants`` — asserting byte identity and each status, and that
``/healthz`` reports every codec worker live.  The PUT and the full GET
are each alone in the server, so they take both fan-out paths: the put
verifies each coded window while the next encodes, and the GET starts
every chunk with its first.  The server's own
``serve.requests`` accounting must show exactly the routes in
:data:`~repro.serve.app.ENDPOINTS`.  Any broken link in the chain —
routing, codec, store, uploads, quota accounting, metrics — is a
non-zero exit.
"""

import asyncio
import sys
from collections import Counter

from repro.corpus.builder import jpeg_sweep
from repro.serve.app import ENDPOINTS, LeptonServer, ServeConfig
from repro.serve.client import ServeClient


class SmokeFailure(Exception):
    """One step of the smoke run returned the wrong answer."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise SmokeFailure(what)


def _served(server: LeptonServer) -> Counter:
    """Responses so far per ``(method, route)``, from the server's own
    ``serve.requests`` counters (the registry is process-wide)."""
    totals: Counter = Counter()
    for labels, counter in server.registry.series("serve.requests"):
        totals[labels["method"], labels["route"]] += counter.value
    return totals


async def _calls(client: ServeClient, jpeg: bytes) -> dict:
    """One request per route; returns the PUT's stored-file JSON."""
    put = await client.put_file(jpeg)
    _check(put.status == 201, f"PUT /files returned {put.status}")
    meta = put.json()
    _check(meta["format"] == "lepton" and meta["chunks"] >= 3,
           f"PUT /files stored {meta['chunks']} {meta['format']} chunks")
    got = await client.get_file(meta["id"])
    _check(got.status == 200 and got.body == jpeg, "GET round-trip mismatch")
    ranged = await client.get_file(meta["id"], byte_range="bytes=0-99")
    _check(ranged.status == 206 and ranged.body == jpeg[:100],
           "Range read mismatch")
    created = await client.request(
        "POST", "/uploads", headers={"X-Lepton-Upload-Length": str(len(jpeg))})
    _check(created.status == 201, f"POST /uploads returned {created.status}")
    upload = f"/uploads/{created.json()['upload']}"
    half = len(jpeg) // 2
    for offset, part, status in ((0, jpeg[:half], 200),
                                 (half, jpeg[half:], 201)):
        response = await client.request(
            "PUT", upload, body=part,
            headers={"X-Lepton-Upload-Offset": str(offset)})
        _check(response.status == status,
               f"PUT {upload} at {offset} returned {response.status}")
    _check(response.json()["id"] == meta["id"], "upload stored other bytes")
    head = await client.request("HEAD", upload)
    _check(head.status == 200
           and head.headers.get("x-lepton-file") == meta["id"],
           f"HEAD {upload} returned {head.status}")
    health = await client.request("GET", "/healthz")
    metrics = await client.request("GET", "/metrics")
    tenants = await client.request("GET", "/tenants")
    _check(health.status == metrics.status == tenants.status == 200,
           "monitoring endpoints unhealthy")
    scrape = metrics.body.decode()
    for name in ("serve.requests", "serve.bytes_in", "serve.ttfb_seconds"):
        _check(name in scrape, f"{name} missing from /metrics")
    _check("default" in tenants.json()["tenants"], "tenant ledger empty")
    workers = health.json()["workers"]
    _check(workers["live"] == workers["size"] == len(workers["pids"]) >= 1,
           f"/healthz reports {workers['live']} of {workers['size']} "
           "codec workers live")
    return {**meta, "workers": workers["live"]}


async def _smoke() -> int:
    corpus = jpeg_sweep(1, seed=1000, sizes=(96,), qualities=(85,))
    jpeg = corpus[0].data
    server = LeptonServer(ServeConfig(chunk_size=-(-len(jpeg) // 4)))
    await server.start()
    try:
        before = _served(server)
        async with ServeClient(server.config.host, server.port) as client:
            meta = await _calls(client, jpeg)
        after = _served(server)
        called = {key for key in after if after[key] > before[key]}
        _check(called == set(ENDPOINTS),
               f"routes called {sorted(called)} differ from ENDPOINTS: "
               f"missing {sorted(set(ENDPOINTS) - called)}, "
               f"extra {sorted(called - set(ENDPOINTS))}")
    except SmokeFailure as exc:
        print(f"smoke: {exc}", file=sys.stderr)
        return 1
    finally:
        await server.drain()
    print(
        f"serve-smoke ok: {len(called)} routes; {meta['bytes']} bytes -> "
        f"{meta['stored_bytes']} stored ({meta['format']}, "
        f"{meta['chunks']} chunks, savings {meta['savings']:.3f}); "
        f"{meta['workers']} codec workers"
    )
    return 0


def main() -> int:
    return asyncio.run(_smoke())


if __name__ == "__main__":
    sys.exit(main())
