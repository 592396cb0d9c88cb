"""Closed-loop load against an in-process ``lepton serve`` on a durable store.

One process runs the server and its clients on one event loop; the codec
runs on the server's executor threads as it does in production.  Every
client is a keep-alive :class:`~repro.serve.client.ServeClient` that waits
for each reply before it sends its next request.
"""

import asyncio
import hashlib
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.serve.app import LeptonServer, ServeConfig
from repro.serve.client import ServeClient

import hostprobe
import inputs
from inputs import GET, PUT, RANGE, REPUT, Op

#: Set-ups per run; ``setup_s`` is their median and the last one serves
#: the timed load.
SETUPS = 3
#: Probe calls between rounds, and after each set-up outside its timing.
#: Each call probes every CPU once (see :mod:`hostprobe`).
PROBES = 2
SETUP_PROBES = 6
#: Gaps between rounds on each side of a round whose probes scale it.
NEIGHBOURS = 3
#: Upper bound on timed ops per second of run; inputs are generated for
#: this many ops before the first set-up, and a run whose inputs run out
#: ends early.
MAX_OPS_PER_SECOND = 8


@dataclass(frozen=True)
class Workload:
    name: str
    clients: int
    chunk_size: int
    #: Photo side in pixels and tiles per side (see :mod:`inputs`).
    side: int
    tiles: int
    #: Photos PUT during set-up; the GETs of the timed load read them.
    pool: int
    #: Serve from a second server recovered from the first one's directory.
    recover: bool
    #: ``stored_ratio`` is read after this many timed ops, so it repeats
    #: exactly for a seed however many ops a run fits.
    ratio_after: int


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
#: ``get`` and ``mixed`` photos span 4 chunks of 1 KiB, the way a
#: multi-MB photo spans 4-MiB chunks; ``put`` photos are one chunk at the
#: production chunk size, the common case.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("get", 1, 1024, 144, 3, pool=8, recover=True, ratio_after=0),
    Workload("put", 1, 1 << 22, 112, 2, pool=0, recover=False,
             ratio_after=16),
    Workload("mixed", 2, 1024, 144, 3, pool=8, recover=False,
             ratio_after=20),
)}


#: Request header naming the op, so a traced run can pair each server-side
#: request with the client's view of it; the server ignores it.
OP_HEADER = "X-Perfbench-Op"


@dataclass
class Sample:
    """One request as the client saw it."""

    op: str             # unique within a set-up or a load phase
    kind: str
    traced: bool
    start: float        # perf-counter times around the exchange
    end: float
    ttfb: float
    nbytes: int         # user bytes moved by a successful op
    failed: bool
    wrong: bool         # a 2xx answer with a wrong byte or id

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Rig:
    """One set-up: a serving server, its clients and its directory."""

    server: LeptonServer
    clients: List[ServeClient]
    data_dir: str
    setup_seconds: float = 0.0
    recover_seconds: float = 0.0
    #: User bytes of every 2xx PUT the serving store holds.
    accepted: int = 0
    samples: List[Sample] = field(default_factory=list)


def file_id(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def logical_bytes(root: str) -> int:
    """Sum of file sizes under ``root`` (not allocated blocks)."""
    return sum(os.path.getsize(os.path.join(path, name))
               for path, _dirs, names in os.walk(root) for name in names)


async def issue(client: ServeClient, op: str, op_kind: str, data: bytes,
                window: Optional[Tuple[int, int]], traced: bool) -> Sample:
    """Send one request and check its answer byte for byte (§5.7)."""
    name = file_id(data)
    headers = {OP_HEADER: op}
    if op_kind == RANGE:
        headers["Range"] = f"bytes={window[0]}-{window[1] - 1}"
    start = time.perf_counter()
    try:
        if op_kind in (PUT, REPUT):
            response = await client.request("PUT", "/files", body=data,
                                            headers=headers)
        else:
            response = await client.request("GET", f"/files/{name}",
                                            headers=headers)
    except (OSError, asyncio.IncompleteReadError):
        end = time.perf_counter()
        return Sample(op, op_kind, traced, start, end, end - start, 0, True,
                      False)
    end = time.perf_counter()
    seconds = end - start
    if op_kind in (PUT, REPUT):
        status_ok = response.status == (201 if op_kind == PUT else 200)
        try:
            content_ok = response.json().get("id") == name
        except ValueError:
            content_ok = False
        nbytes = len(data)
    else:
        expected = data if op_kind == GET else data[window[0]:window[1]]
        status_ok = response.status == (200 if op_kind == GET else 206)
        content_ok = response.body == expected
        nbytes = len(response.body)
    ok = status_ok and content_ok
    ttfb = response.ttfb if response.ttfb is not None else seconds
    return Sample(op, op_kind, traced, start, end, ttfb, nbytes if ok else 0,
                  not ok, 200 <= response.status < 300 and not content_ok)


async def settle(server: LeptonServer, tracer=None) -> None:
    """Wait until the server has finished every request it was sent."""
    limit = time.perf_counter() + 5.0
    while server.gate.inflight or (tracer is not None and tracer.active):
        if time.perf_counter() > limit:
            raise RuntimeError("server still busy 5 s after its last reply")
        await asyncio.sleep(0.0002)


async def close_server(server: LeptonServer) -> None:
    await server.drain()
    server.store.journal.close()
    server.uploads.journal.close()


async def tear_down(rig: Rig) -> None:
    for client in rig.clients:
        await client.close()
    await close_server(rig.server)
    shutil.rmtree(rig.data_dir)


def accepted_bytes(samples: Sequence[Sample]) -> int:
    """User bytes of the successful PUTs among ``samples``."""
    return sum(s.nbytes for s in samples if s.kind in (PUT, REPUT))


async def _sequential(client: ServeClient, ops, first: int,
                      traced: bool) -> List[Sample]:
    return [await issue(client, f"setup-{first + i}", op_kind, data, window,
                        traced)
            for i, (op_kind, data, window) in enumerate(ops)]


async def set_up(workload: Workload, work_root: str, pool: Sequence[bytes],
                 warm: Optional[bytes], traced: bool = False) -> Rig:
    """Construct, preload and warm one server; times ``setup_s``.

    Input generation happens before this is called and is not timed.
    """
    obs.reset()
    data_dir = tempfile.mkdtemp(dir=work_root)
    config = ServeConfig(data_dir=data_dir, chunk_size=workload.chunk_size)
    preload = [(PUT, data, None) for data in pool]
    samples: List[Sample] = []
    start = time.perf_counter()
    if workload.recover:
        loader = LeptonServer(config)
        await loader.start()
        client = ServeClient(config.host, loader.port)
        samples += await _sequential(client, preload, len(samples), traced)
        await client.close()
        await close_server(loader)
        preload = []
    recover_start = time.perf_counter()
    server = LeptonServer(config)
    recover_seconds = time.perf_counter() - recover_start
    await server.start()
    clients = [ServeClient(config.host, server.port)
               for _ in range(workload.clients)]
    if warm is not None:
        preload.append((PUT, warm, None))
    samples += await _sequential(clients[0], preload, len(samples), traced)
    target = warm if warm is not None else pool[0]
    reads = [(GET, target, None),
             (RANGE, target, (0, min(len(target), workload.chunk_size) // 2))]
    for i, read in enumerate(reads):
        samples += await _sequential(clients[i % len(clients)], [read],
                                     len(samples), traced)
    return Rig(server, clients, data_dir,
               setup_seconds=time.perf_counter() - start,
               recover_seconds=recover_seconds,
               accepted=accepted_bytes(samples), samples=samples)


@dataclass
class Round:
    """One round of the timed load: one op per client."""

    traced: bool
    start: float
    end: float
    samples: List[Sample]
    #: Probes taken right after the round, while nothing was in flight.
    probes: List[float]


@dataclass
class LoadResult:
    rounds: List[Round]
    stored_ratio: float
    #: Growth of the repo's own always-on tracer per timed op.
    spans_per_op: float

    @property
    def samples(self) -> List[Sample]:
        return [s for r in self.rounds for s in r.samples]


def _probes(calls: int) -> List[float]:
    return [t for _ in range(calls) for t in hostprobe.probe_ms()]


async def drive(rig: Rig, workload: Workload, ops: Sequence[Op],
                pool: Sequence[bytes], fresh: Sequence[bytes],
                seconds: float, tracer=None) -> LoadResult:
    """The timed closed loop: rounds of one op per client.

    A round ends when every client has its reply; the host probe runs
    between rounds, when no request is in flight.  With a tracer, odd
    rounds are traced and even rounds are not, so both halves see the
    same host drift.
    """
    width = workload.clients
    batches = [ops[i:i + width] for i in range(0, len(ops) - width + 1, width)]
    rounds: List[Round] = []
    done = 0
    stored_ratio = None
    spans_before = len(obs.get_tracer().spans)
    if workload.ratio_after == 0:
        stored_ratio = logical_bytes(rig.data_dir) / rig.accepted
    deadline = time.perf_counter() + seconds
    for index, batch in enumerate(batches):
        # Two rounds at least, so that a traced run has both halves.
        if index >= 2 and time.perf_counter() >= deadline:
            break
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.begin("load")
        calls = []
        for client, op in zip(rig.clients, batch):
            data = fresh[op.photo] if op.kind == PUT else pool[op.photo]
            calls.append(issue(client, f"load-{done + len(calls)}", op.kind,
                               data, op.window, traced))
        start = time.perf_counter()
        got = await asyncio.gather(*calls)
        end = time.perf_counter()
        await settle(rig.server, tracer if traced else None)
        if traced:
            tracer.end()
        done += len(got)
        rig.accepted += accepted_bytes(got)
        if stored_ratio is None and done >= workload.ratio_after:
            stored_ratio = logical_bytes(rig.data_dir) / rig.accepted
        rounds.append(Round(traced, start, end, list(got), _probes(PROBES)))
    if stored_ratio is None:
        raise RuntimeError(
            f"run ended after {done} ops, before the "
            f"{workload.ratio_after} that stored_ratio is read at")
    spans = len(obs.get_tracer().spans) - spans_before
    return LoadResult(rounds, stored_ratio, spans / max(1, done))


def quantile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99), interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean of the middle 80% of ``values``.

    A mean, because this host slows in bursts shorter than an op, and an
    op pays for a burst by its share of the op's time, which a mean counts
    and a median ignores.  Trimmed, because one preemption can make a 2 ms
    probe read several times slow while it slows a 150 ms op by a few
    percent.
    """
    cut = len(values) // 10
    return statistics.mean(sorted(values)[cut:len(values) - cut])


def latency_figures(rounds: Sequence[Round],
            factors: Sequence[float]) -> Dict[str, float]:
    """Latency and goodput over ``rounds``, each round's times multiplied
    by its factor (1 for the raw, host-speed figures)."""
    scaled = [(s, f) for r, f in zip(rounds, factors) for s in r.samples]
    seconds = [s.seconds * f for s, f in scaled]
    # TTFB is the first chunk's decode: over full GETs, or over the PUT
    # acknowledgements of a workload that has none.
    firsts = [s.ttfb * f for s, f in scaled if s.kind == GET] or [
        s.ttfb * f for s, f in scaled]
    busy = sum((r.end - r.start) * f for r, f in zip(rounds, factors))
    return {
        "op_p50_ms": statistics.median(seconds) * 1e3,
        "op_p90_ms": quantile(seconds, 90) * 1e3,
        "ttfb_p50_ms": statistics.median(firsts) * 1e3,
        "goodput_mbit_s": sum(s.nbytes for s, _f in scaled) * 8 / 1e6 / busy,
    }


@dataclass
class Run:
    """Everything one invocation measured."""

    setups: List[float]
    recovers: List[float]
    setup_samples: List[Sample]
    #: Probes taken right after each set-up, outside its timing.
    setup_probes: List[List[float]]
    load: LoadResult

    @property
    def all_samples(self) -> List[Sample]:
        return self.setup_samples + self.load.samples

    @property
    def probe_ms(self) -> float:
        return trimmed_mean([p for probes in self.setup_probes for p in probes]
                            + [p for r in self.load.rounds for p in r.probes])

    def round_factors(self) -> List[float]:
        """Per load round, the factor to the reference host: from the
        probes of the :data:`NEIGHBOURS` gaps on either side of it, so a
        host that changes speed within a run is followed."""
        gaps = [r.probes for r in self.load.rounds]
        return [hostprobe.scale(trimmed_mean([
            p for gap in gaps[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
            for p in gap])) for i in range(len(gaps))]

    def end_to_end(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """The end-to-end figures at the reference host speed, and the raw
        figures they were scaled from."""
        rounds = self.load.rounds
        raw = latency_figures(rounds, [1.0] * len(rounds))
        raw["setup_s"] = statistics.median(self.setups)
        scaled = latency_figures(rounds, self.round_factors())
        scaled["setup_s"] = statistics.median(
            seconds * hostprobe.scale(trimmed_mean(probes))
            for seconds, probes in zip(self.setups, self.setup_probes))
        scaled["stored_ratio"] = self.load.stored_ratio
        return scaled, raw


async def execute(workload: Workload, seed: int, seconds: float,
                  work_root: str, tracer=None) -> Run:
    """Generate inputs, set up :data:`SETUPS` times, drive the last one."""
    max_ops = int(MAX_OPS_PER_SECOND * seconds)
    pool = inputs.photos(seed, 0, workload.pool, workload.side,
                         workload.tiles)
    warm = None
    if workload.name == "get":
        ops = inputs.get_ops(seed, workload.pool, max_ops)
    elif workload.name == "put":
        ops = inputs.put_ops(max_ops)
        warm = inputs.photo(seed, 2, 0, workload.side, workload.tiles)
    else:
        ops = inputs.mixed_ops(seed, [len(p) for p in pool],
                               workload.chunk_size,
                               -(-max_ops // (2 * len(inputs.MIXED_ROUNDS))))
    fresh = inputs.photos(seed, 1, sum(op.kind == PUT for op in ops),
                          workload.side, workload.tiles)
    setups, recovers, setup_probes, setup_samples = [], [], [], []
    rig = None
    for attempt in range(SETUPS):
        if rig is not None:
            await tear_down(rig)
        last = attempt == SETUPS - 1
        if tracer is not None and last:
            tracer.begin("setup")
        rig = await set_up(workload, work_root, pool, warm,
                           traced=tracer is not None and last)
        if tracer is not None and last:
            await settle(rig.server, tracer)
            tracer.end()
        setups.append(rig.setup_seconds)
        recovers.append(rig.recover_seconds)
        setup_samples.extend(rig.samples)
        setup_probes.append(_probes(SETUP_PROBES))
    try:
        load = await drive(rig, workload, ops, pool, fresh, seconds, tracer)
    finally:
        await tear_down(rig)
    return Run(setups, recovers, setup_samples, setup_probes, load)
