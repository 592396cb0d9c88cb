"""A request alone in the server fans out across the codec pool.

A GET that the admission gate shows alone starts every chunk's decode on
idle workers with its first; a put alone verifies each coded window
while the next one encodes.  A request with company behaves as it would
without the rule: its first chunk decodes alone and its verifies start
after the encode.  Company is counted over every server that shares the
pool.  Whatever ran early, the verdicts stay in the server: a window a
later one rejected is stored as Deflate with no round-trip failure
counted, and a deadline that passes mid-encode stores nothing.
"""

import asyncio
import hashlib
import threading
import time

import pytest

from repro.corpus.builder import corpus_jpeg
from repro.obs import get_registry, get_tracer
from repro.serve.app import LeptonServer, ServeConfig
from repro.serve.client import ServeClient
from repro.storage.workers import shared_pool

from tests.serve.conftest import with_server

pytestmark = pytest.mark.serve

#: Four chunks whose decodes take a few milliseconds each.
PHOTO = corpus_jpeg(seed=5, height=256, width=256)
CHUNK = -(-len(PHOTO) // 4)


@pytest.fixture(autouse=True)
def _two_workers():
    if shared_pool().size < 2:
        pytest.skip(f"a {shared_pool().size}-worker pool cannot fan out")


class _Dispatches:
    """Logs each decode ``pool`` sends to a worker, in the order they
    were sent: ``(index, format, payload md5)``."""

    def __init__(self, pool, monkeypatch):
        self.sent = []
        lock = threading.Lock()
        submit = pool._submit

        def logged(worker, kind, header, body, *args, **kwargs):
            if kind == "decode":
                index, fmt, _start, _stop = header["chunk"]
                with lock:
                    self.sent.append((index, fmt,
                                      hashlib.md5(body).hexdigest()))
            return submit(worker, kind, header, body, *args, **kwargs)

        monkeypatch.setattr(pool, "_submit", logged)


async def _idle(server, seconds=30.0):
    """Wait until every worker is idle (earlier jobs may still run)."""
    limit = time.monotonic() + seconds
    while server.codec.idle_workers() < server.codec.size:
        assert time.monotonic() < limit
        await asyncio.sleep(0.005)


def _jobs(kind, since):
    """``(started, ended)`` of each ``workers.job`` span of ``kind`` that
    started after ``since`` (the host's monotonic clock), by start."""
    return sorted((s.labels["started"], s.labels["started"] + s.wall_seconds)
                  for s in get_tracer().spans
                  if s.name == "workers.job" and s.labels["kind"] == kind
                  and s.labels["started"] >= since)


def _roundtrip_failures():
    return get_registry().counter("lepton.verify.roundtrip_failures").value


def test_a_lone_get_starts_its_second_chunk_before_its_first_is_yielded(
        monkeypatch):
    async def scenario(server, client):
        put = await client.put_file(PHOTO)
        assert put.status == 201 and put.json()["chunks"] == 4
        yielded = []
        stream_range = server.store.stream_range

        def timed(*args, **kwargs):
            for piece in stream_range(*args, **kwargs):
                yielded.append(time.monotonic())
                yield piece

        monkeypatch.setattr(server.store, "stream_range", timed)
        await _idle(server)
        since = time.monotonic()
        got = await client.get_file(put.json()["id"])
        return got, yielded, _jobs("decode", since)

    got, yielded, decodes = with_server(scenario, ServeConfig(chunk_size=CHUNK))
    assert got.status == 200 and got.body == PHOTO
    assert len(decodes) == 4
    first_chunk_out = yielded[0]
    assert decodes[1][0] < first_chunk_out


def test_two_gets_admitted_together_start_both_first_chunks_first(
        monkeypatch):
    """Neither GET is alone, so neither reads ahead before its first chunk
    is out: both first chunks take the two workers.  Each admitted GET
    waits until the other is admitted too, so neither can count itself
    alone however the host schedules the two requests."""
    photos = [PHOTO, corpus_jpeg(seed=6, height=256, width=256)]

    async def scenario(server, client):
        ids = []
        for photo in photos:
            put = await client.put_file(photo)
            assert put.status == 201 and put.json()["format"] == "lepton"
            ids.append(put.json()["id"])
        chunks = {}
        for n, file_id in enumerate(ids):
            for index, key in enumerate(server.store.files[file_id].chunk_keys):
                entry = server.store.entries[key]
                chunks[index, entry.format, entry.payload_md5] = (n, index)
        log = _Dispatches(server.codec, monkeypatch)
        others = [ServeClient(server.config.host, server.port)
                  for _ in ids]
        try:
            for other in others:  # connected before the GETs are sent
                assert (await other.request("GET", "/healthz")).status == 200
            await _idle(server)
            both_admitted = asyncio.Event()
            admit = server.gate.admit

            async def held(*args, **kwargs):
                await admit(*args, **kwargs)
                if server.gate.inflight == len(ids):
                    both_admitted.set()
                await both_admitted.wait()

            answers = []
            alone = server.codec._alone

            def recorded():
                answers.append(alone())
                return answers[-1]

            monkeypatch.setattr(server.gate, "admit", held)
            monkeypatch.setattr(server.codec, "_alone", recorded)
            got = await asyncio.gather(*(other.get_file(file_id)
                                         for other, file_id in zip(others, ids)))
        finally:
            for other in others:
                await other.close()
        return (got, [chunks[sent] for sent in log.sent],
                sorted(chunks.values()), answers)

    got, order, every_chunk, answers = with_server(scenario, ServeConfig(
        chunk_size=min(map(len, photos)) // 4))
    assert [g.body for g in got] == photos
    assert sorted(order) == every_chunk
    assert answers == [False, False]
    seconds = [order.index((n, 1)) for n in (0, 1)]
    firsts = [order.index((n, 0)) for n in (0, 1)]
    assert max(firsts) < min(seconds), order


def test_a_lone_put_verifies_window_zero_while_it_encodes():
    async def scenario(server, client):
        await _idle(server)
        since = time.monotonic()
        put = await client.put_file(PHOTO)
        return put, _jobs("encode", since), _jobs("decode", since)

    put, encodes, decodes = with_server(scenario,
                                        ServeConfig(chunk_size=CHUNK))
    assert put.status == 201 and put.json()["format"] == "lepton"
    assert put.json()["chunks"] == 4
    [(_encode_start, encode_end)] = encodes
    assert len(decodes) == 4
    assert decodes[0][0] < encode_end


def test_a_put_with_company_starts_no_verify_before_its_encode_returns():
    """Another admitted request is in the server, so the put verifies
    none of its windows while it encodes."""
    async def scenario(server, client):
        await _idle(server)
        await server.gate.admit()  # a request that holds its slot
        try:
            since = time.monotonic()
            put = await client.put_file(PHOTO)
        finally:
            server.gate.release()
        return put, _jobs("encode", since), _jobs("decode", since)

    put, encodes, decodes = with_server(scenario,
                                        ServeConfig(chunk_size=CHUNK))
    assert put.status == 201 and put.json()["format"] == "lepton"
    [(_encode_start, encode_end)] = encodes
    assert len(decodes) == 4
    assert all(start > encode_end for start, _end in decodes)


def test_a_get_sees_the_requests_of_another_server_on_the_pool(
        monkeypatch):
    """Two servers in one process share the codec pool, so a request
    admitted by one is company for a GET on the other: that GET starts
    its second chunk only after its first is yielded."""
    async def scenario(server, client):
        put = await client.put_file(PHOTO)
        assert put.status == 201 and put.json()["chunks"] == 4
        other = LeptonServer(ServeConfig(chunk_size=CHUNK))
        yielded = []
        stream_range = server.store.stream_range

        def timed(*args, **kwargs):
            for piece in stream_range(*args, **kwargs):
                yielded.append(time.monotonic())
                yield piece

        monkeypatch.setattr(server.store, "stream_range", timed)
        await _idle(server)
        await other.gate.admit()
        try:
            since = time.monotonic()
            got = await client.get_file(put.json()["id"])
        finally:
            other.gate.release()
        return got, yielded, _jobs("decode", since)

    got, yielded, decodes = with_server(scenario, ServeConfig(chunk_size=CHUNK))
    assert got.status == 200 and got.body == PHOTO
    assert len(decodes) == 4
    assert decodes[1][0] > yielded[0]


def test_a_put_rejected_after_a_reported_window_stores_deflate(
        drifting_dc_jpeg, monkeypatch):
    """The first two 160-byte windows hold only the JPEG header and code
    fine; the third holds DC values past the coder's range, so the file
    is a §6.2 reject.  The verifies already started decoded Lepton
    windows the store no longer holds: they are dropped, and no
    round-trip failure is counted."""
    async def scenario(server, client):
        log = _Dispatches(server.codec, monkeypatch)
        await _idle(server)
        before = _roundtrip_failures()
        put = await client.put_file(drifting_dc_jpeg)
        got = await client.get_file(put.json()["id"])
        return put, got, log.sent, _roundtrip_failures() - before

    put, got, sent, failures = with_server(scenario,
                                           ServeConfig(chunk_size=160))
    assert put.status == 201
    assert put.json()["format"] == "deflate"
    assert put.json()["chunks"] == 4
    assert got.status == 200 and got.body == drifting_dc_jpeg
    # Window 0's verify went out as a Lepton container, before the reject.
    assert sent[0][:2] == (0, "lepton")
    assert failures == 0


def test_a_deadline_that_passes_mid_encode_answers_504_and_stores_nothing():
    """The budget is a quarter of a lone put's time, so it runs out
    while the file encodes: nothing is stored, the reservation is
    released, no verdict is counted, and every worker comes back."""
    photo = corpus_jpeg(seed=7, height=256, width=256)
    timing = corpus_jpeg(seed=8, height=256, width=256)

    async def scenario(server, client):
        await _idle(server)
        begin = time.monotonic()
        put = await client.put_file(timing)
        assert put.status == 201 and put.json()["format"] == "lepton"
        budget = (time.monotonic() - begin) / 4
        await _idle(server)
        before = _roundtrip_failures()
        blobs = len(server.store.backend.keys("chunk/"))
        late = await client.put_file(photo, deadline=budget)
        stored = (hashlib.sha256(photo).hexdigest() in server.store.files,
                  len(server.store.backend.keys("chunk/")) - blobs)
        await _idle(server)
        tenants = (await client.request("GET", "/tenants")).json()["tenants"]
        again = await client.put_file(photo)
        return (late, stored, tenants["default"], len(timing),
                _roundtrip_failures() - before, again)

    late, stored, tenant, kept, failures, again = with_server(
        scenario, ServeConfig(chunk_size=-(-len(photo) // 4)))
    assert late.status == 504
    assert late.json()["error"] == "deadline_exceeded"
    assert stored == (False, 0)
    assert (tenant["logical_bytes"], tenant["reserved_bytes"]) == (kept, 0)
    assert failures == 0
    assert again.status == 201 and again.json()["format"] == "lepton"


def test_a_lone_get_hashes_each_payload_once(monkeypatch):
    """The read-ahead md5-checks each payload it reads; the chunk's turn
    takes that very object and does not hash it again."""
    from repro.storage import blockstore

    hashed = []

    class _Counting:
        sha256 = staticmethod(hashlib.sha256)

        @staticmethod
        def md5(data):
            hashed.append(hashlib.md5(data).hexdigest())
            return hashlib.md5(data)

    async def scenario(server, client):
        put = await client.put_file(PHOTO)
        assert put.status == 201 and put.json()["chunks"] == 4
        entries = [server.store.entries[key] for key in
                   server.store.files[put.json()["id"]].chunk_keys]
        await _idle(server)
        monkeypatch.setattr(blockstore, "hashlib", _Counting)
        got = await client.get_file(put.json()["id"])
        monkeypatch.undo()
        return got, entries

    got, entries = with_server(scenario, ServeConfig(chunk_size=CHUNK))
    assert got.status == 200 and got.body == PHOTO
    assert sorted(hashed) == sorted(e.payload_md5 for e in entries)
