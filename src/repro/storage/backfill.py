"""Backfill: DropSpot, metaservers, and workers (§5.6).

Backfill gradually re-compresses JPEGs that were stored before Lepton
shipped, using spare datacenter capacity:

* **DropSpot** watches each room's free-machine pool; machines above a
  threshold are wiped, reimaged (2–4 hours), and handed to Lepton.
* **Metaservers** scan a sharded user table: 128 users at a time, files
  whose names contain ".jp" case-insensitively, SHA-256 per 4-MiB chunk,
  up to 16,384 chunks per response, with a resume token for partial users.
* **Workers** download each chunk, compress it, decode it again with both
  qualification builds, and upload.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import hashlib

from repro.core.errors import ExitCode
from repro.core.lepton import LeptonConfig, compress
from repro.obs import ExitCodeSink, MetricsRegistry, get_registry, trace_span
from repro.storage.chunking import CHUNK_SIZE, split_chunks
from repro.storage.qualification import BUILDS
from repro.storage.retry import RetryPolicy
from repro.storage.simclock import SimClock

USERS_PER_REQUEST = 128
MAX_CHUNKS_PER_RESPONSE = 16384
IMAGING_HOURS = (2.0, 4.0)


@dataclass
class UserFile:
    """One file in a user's synthetic filesystem."""

    name: str
    data: bytes

    @property
    def backfill_candidate(self) -> bool:
        """The metaserver's filter: name contains ".jp" case-insensitively."""
        return ".jp" in self.name.lower()


@dataclass
class WorkResponse:
    """A metaserver's reply to a worker's request (§5.6)."""

    shard: int
    chunk_hashes: List[str]
    user_ids: List[int]
    resume_token: Optional[Tuple[int, int]]  # (user_id, file_index)


class Metaserver:
    """Sharded user-table scanner."""

    def __init__(self, users: Dict[int, List[UserFile]], n_shards: int = 4,
                 chunk_size: int = CHUNK_SIZE):
        self.n_shards = n_shards
        self.chunk_size = chunk_size
        self._shards: Dict[int, List[int]] = {s: [] for s in range(n_shards)}
        for user_id in sorted(users):
            self._shards[user_id % n_shards].append(user_id)
        self._users = users
        self._cursor: Dict[int, int] = {s: 0 for s in range(n_shards)}
        self._chunk_index: Dict[str, bytes] = {}

    def chunk_data(self, sha: str) -> bytes:
        """The blockserver download a worker performs per hash."""
        return self._chunk_index[sha]

    def request_work(self, shard: int,
                     resume: Optional[Tuple[int, int]] = None) -> WorkResponse:
        """Scan the next batch of users on ``shard`` for JPEG-ish files."""
        user_list = self._shards[shard]
        start = self._cursor[shard]
        batch = user_list[start : start + USERS_PER_REQUEST]
        self._cursor[shard] = start + len(batch)
        hashes: List[str] = []
        served_users: List[int] = []
        resume_token = None
        start_file = 0
        if resume is not None and resume[0] in batch:
            start_file = resume[1]
        for user_id in batch:
            files = self._users[user_id]
            first = start_file if resume and user_id == resume[0] else 0
            for file_index in range(first, len(files)):
                user_file = files[file_index]
                if not user_file.backfill_candidate:
                    continue
                for chunk in split_chunks(user_file.data, self.chunk_size):
                    sha = hashlib.sha256(chunk).hexdigest()
                    self._chunk_index[sha] = chunk
                    hashes.append(sha)
                if len(hashes) >= MAX_CHUNKS_PER_RESPONSE:
                    resume_token = (user_id, file_index + 1)
                    return WorkResponse(shard, hashes, served_users, resume_token)
            served_users.append(user_id)
        return WorkResponse(shard, hashes, served_users, resume_token)

    @property
    def exhausted(self) -> bool:
        return all(
            self._cursor[s] >= len(self._shards[s]) for s in range(self.n_shards)
        )


@dataclass
class BackfillStats:
    """Counters a worker accumulates (feeds the §6.2 exit-code table)."""

    chunks_processed: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    exit_codes: Dict[ExitCode, int] = field(default_factory=dict)
    verification_failures: int = 0
    retries: int = 0

    def record(self, code: ExitCode) -> None:
        self.exit_codes[code] = self.exit_codes.get(code, 0) + 1

    @property
    def savings_fraction(self) -> float:
        if self.bytes_in == 0:
            return 0.0
        return 1.0 - self.bytes_out / self.bytes_in


class BackfillWorker:
    """Downloads, compresses, triple-checks, uploads (§5.6).

    The "three extraneous decodes" of §5.6.1: before upload the result is
    re-decoded once with the whole-payload build and twice with the
    streamed build (:data:`~repro.storage.qualification.BUILDS`), the
    slots of production's multithreaded build and its sanitising build.
    """

    def __init__(self, metaserver: Metaserver,
                 upload: Callable[[str, bytes], None],
                 config: Optional[LeptonConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 shutoff=None,
                 retry: Optional[RetryPolicy] = None,
                 compress_fn: Callable = compress):
        self.metaserver = metaserver
        self.upload = upload
        self.config = config or LeptonConfig()
        self.stats = BackfillStats()
        self.registry = registry if registry is not None else get_registry()
        #: §6.6: a verification failure on one machine is usually the
        #: machine, not the chunk — recompress a bounded number of times
        #: before writing the chunk off.
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=3)
        #: Injection point for tests (a flaky compressor exercises the
        #: retry loop without a genuinely broken codec).
        self.compress_fn = compress_fn
        #: Optional §5.7 kill switch (:class:`~repro.storage.safety.ShutoffSwitch`);
        #: when it engages mid-shard the worker drains instead of converting.
        self.shutoff = shutoff
        #: §6.2 tabulation over this worker's chunks; bench_exit_codes
        #: reads the table from here rather than from private state.
        self.exit_sink = ExitCodeSink(self.registry, metric="backfill.exit_codes")

    def process_shard(self, shard: int) -> None:
        resume = None
        while True:
            work = self.metaserver.request_work(shard, resume)
            for sha in work.chunk_hashes:
                if self.shutoff is not None and self.shutoff.engaged:
                    # The §5.7 drain path: a worker seeing the kill file
                    # stops converting and reports the chunk it was about
                    # to process as "Server shutdown" — the conversion
                    # still lands in the §6.2 table instead of vanishing.
                    self.stats.record(ExitCode.SERVER_SHUTDOWN)
                    self.exit_sink.record(ExitCode.SERVER_SHUTDOWN)
                    return
                self._process_chunk(sha)
            resume = work.resume_token
            if resume is None and not work.chunk_hashes and not work.user_ids:
                break

    def _process_chunk(self, sha: str) -> None:
        chunk = self.metaserver.chunk_data(sha)
        self.stats.chunks_processed += 1
        self.stats.bytes_in += len(chunk)
        self.registry.counter("backfill.chunks_processed").inc()
        self.registry.counter("backfill.bytes_in").inc(len(chunk))
        with trace_span("backfill.process_chunk", sha=sha[:12]):
            attempt = 1
            while True:
                result = self.compress_fn(chunk, self.config)
                self.stats.record(result.exit_code)
                self.exit_sink.record(result.exit_code)
                if not result.ok:
                    break  # fallback/skip outcome: not a verification issue
                whole, streamed = BUILDS
                verified = all(
                    decode(result.payload) == chunk
                    for decode in (whole, streamed, streamed)
                )
                if verified:
                    break
                if not self.retry.should_retry(attempt):
                    self.stats.verification_failures += 1
                    self.registry.counter(
                        "backfill.verification_failures"
                    ).inc()
                    return
                attempt += 1
                self.stats.retries += 1
                self.registry.counter("backfill.retries").inc()
            self.stats.bytes_out += result.output_size
            self.registry.counter("backfill.bytes_out").inc(result.output_size)
            self.upload(sha, result.payload)


@dataclass
class DropSpot:
    """Spare-capacity manager (§5.6): allocates machines above a threshold.

    Simulated against a :class:`SimClock`; imaging a machine takes 2–4
    hours, so a "sufficiently diverse reserve" must stay available.
    """

    clock: SimClock
    free_machines: int
    allocate_above: int = 20
    release_below: int = 8
    imaging_hours: Tuple[float, float] = IMAGING_HOURS
    active: int = 0
    imaging: int = 0
    events: List[Tuple[float, str, int]] = field(default_factory=list)

    def poll(self) -> None:
        """One monitoring pass (call periodically from the clock)."""
        if self.free_machines > self.allocate_above:
            take = self.free_machines - self.allocate_above
            self.free_machines -= take
            self.imaging += take
            delay = sum(self.imaging_hours) / 2.0 * 3600.0
            self.events.append((self.clock.now, "imaging", take))

            def ready(count=take):
                self.imaging -= count
                self.active += count
                self.events.append((self.clock.now, "active", count))

            self.clock.after(delay, ready)
        elif self.free_machines < self.release_below and self.active > 0:
            give = min(self.active, self.release_below - self.free_machines)
            self.active -= give
            self.free_machines += give
            self.events.append((self.clock.now, "released", give))

    def machine_seconds(self) -> float:
        """Integrated active machine time (feeds the power model)."""
        total = 0.0
        last_t, last_active = 0.0, 0
        for t, kind, count in self.events:
            total += last_active * (t - last_t)
            if kind == "active":
                last_active += count
            elif kind == "released":
                last_active -= count
            last_t = t
        total += last_active * (self.clock.now - last_t)
        return total
