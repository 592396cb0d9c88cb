"""Chaos harness: one ``(seed, plan)`` pair → one reproducible report.

Two halves, mirroring the system's two failure surfaces:

* **Fleet**: a :class:`~repro.storage.fleet.FleetSim` run under the plan's
  crash/slow/network events, with the recovery policies (retry, hedging,
  circuit breakers) on or off.
* **Storage**: a :class:`~repro.storage.blockstore.BlockStore` holding
  real coded JPEGs, subjected to transient read-path corruption and
  persistent at-rest bit-flips, read back ``reads`` times and compared
  byte-for-byte with the originals.

``lepton chaos --backend`` (:func:`run_backend_chaos`) stores and reads
the same corpus with the same helpers, on replicated durable storage.
Each drill returns one :class:`~repro.faults.report.ChaosReport`, judged
by :func:`no_wrong_bytes` or :func:`durable`.

This module imports the fleet, which imports :mod:`repro.faults` — so it
is deliberately *not* re-exported from the package ``__init__``; import it
as ``repro.faults.chaos``.
"""

import shutil
import tempfile
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.errors import LeptonError
from repro.corpus.builder import corpus_jpeg
from repro.faults.injector import ReadFaultInjector, corrupt_backend_at_rest
from repro.faults.killpoints import PUT_KILL_POINTS, KillPointError, KillPoints
from repro.faults.plan import FaultPlan, StorageFaultConfig
from repro.faults.report import ChaosReport
from repro.obs import MetricsRegistry
from repro.storage.backends import MemoryBackend, ReplicatedBackend
from repro.storage.blockstore import (
    BlockStore,
    IntegrityError,
    open_durable_store,
)
from repro.storage.fleet import FleetConfig, FleetMetrics, FleetSim
from repro.storage.outsourcing import Strategy
from repro.storage.retry import RetryPolicy
from repro.storage.scrub import Scrubber

#: Synthetic corpus backing the storage half: (seed, height, width).
_CORPUS_SHAPES: Tuple[Tuple[int, int, int], ...] = (
    (11, 64, 64),
    (12, 48, 80),
    (13, 80, 48),
    (14, 64, 96),
)


def run_fleet_chaos(
    plan: FaultPlan,
    seed: int = 0,
    hours: float = 0.5,
    policies: bool = True,
) -> Tuple[FleetMetrics, Optional[object]]:
    """Run the fleet under ``plan``; returns (metrics, breaker board)."""
    config = FleetConfig(
        duration_hours=hours,
        strategy=Strategy.TO_SELF,
        seed=seed,
        fault_plan=plan,
        retry=RetryPolicy() if policies else None,
        hedging=policies,
        breakers_enabled=policies,
    )
    sim = FleetSim(config)
    metrics = sim.run()
    return metrics, sim.breakers


def _store_corpus(store: BlockStore) -> Dict[str, bytes]:
    """Put the chaos corpus into ``store``; returns name → original."""
    files: Dict[str, bytes] = {}
    for jpeg_seed, height, width in _CORPUS_SHAPES:
        name = f"photo-{jpeg_seed}.jpg"
        data = corpus_jpeg(seed=jpeg_seed, height=height, width=width)
        store.put_file(name, data)
        files[name] = data
    return files


def _read_back(store: BlockStore, files: Dict[str, bytes],
               rng: np.random.Generator, reads: int) -> Dict[str, int]:
    """Read ``reads`` random corpus files and compare each served byte.

    A mismatch counts under ``wrong_bytes`` (the §5.7 never-wrong-bytes
    invariant — expected to be zero no matter what is injected).
    """
    counts = dict.fromkeys(("reads_attempted", "reads_served",
                            "reads_degraded", "reads_failed",
                            "wrong_bytes"), 0)
    names = sorted(files)
    for _ in range(reads):
        name = names[int(rng.integers(len(names)))]
        counts["reads_attempted"] += 1
        fallbacks_before = store.degraded_fallbacks
        try:
            data = store.get_file(name)
        except (IntegrityError, LeptonError):
            counts["reads_failed"] += 1
            continue
        counts["reads_served"] += 1
        if store.degraded_fallbacks > fallbacks_before:
            counts["reads_degraded"] += 1
        if data != files[name]:
            counts["wrong_bytes"] += 1
    return counts


def run_storage_chaos(
    plan: FaultPlan,
    seed: int = 0,
    reads: int = 200,
    policies: bool = True,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, int]:
    """Store real JPEGs, corrupt them per the plan, read them back."""
    registry = registry if registry is not None else MetricsRegistry()
    store = BlockStore(keep_originals=policies)
    files = _store_corpus(store)
    rng = np.random.default_rng(seed)
    if plan.storage is not None:
        corrupt_backend_at_rest(store.backend, plan.storage, rng,
                                registry=registry)
        store.read_fault = ReadFaultInjector(plan.storage, seed=seed + 1,
                                             registry=registry)
    if policies:
        store.read_retry = RetryPolicy(max_attempts=3)
    return _read_back(store, files, rng, reads)


#: The kill points whose crash lands *after* the commit record is
#: durable: recovery owes the client the put (redo); everything earlier
#: must vanish without trace (rollback).
_COMMITTED_POINTS = frozenset((
    "journal.commit.post",
    "backend.file_record",
    "store.index.post",
    "journal.checkpoint.pre",
))

#: Chunk size for the durability drill: small enough that every drill
#: file spans multiple chunks (the protocol's interesting regime).
_DRILL_CHUNK = 1024


def _kill_sweep() -> Dict[str, str]:
    """Crash a scripted put workload at every put-protocol kill point.

    Sweeps :data:`PUT_KILL_POINTS` — the one-shot durable put protocol
    this workload can actually reach.  The upload-session and streamed-
    read partitions have their own sweeps: an in-process one in
    ``tests/storage/test_upload_recovery.py`` and the live subprocess
    sweep in :mod:`repro.faults.livechaos` (``lepton chaos --live``).

    For each point: put file A (survives), arm the point, put file B (the
    crash), then recover into a fresh store and judge the wreckage — A
    must read back byte-identical always; B must be fully present
    (post-commit crash) or fully absent with no orphan blobs
    (pre-commit).  Outcomes land in the report; anything but
    ``rolled_back``/``redone`` marks the sweep failed.
    """
    file_a = corpus_jpeg(seed=21, height=64, width=64)
    file_b = corpus_jpeg(seed=22, height=64, width=96)
    outcomes: Dict[str, str] = {}
    for point in PUT_KILL_POINTS:
        root = tempfile.mkdtemp(prefix="lepton-durability-")
        try:
            kill = KillPoints()
            store = open_durable_store(root, chunk_size=_DRILL_CHUNK,
                                       kill=kill)
            store.put_file("a.jpg", file_a)
            kill.arm(point)
            try:
                store.put_file("b.jpg", file_b)
                outcomes[point] = "FAILED: kill point never fired"
                continue
            except KillPointError:
                pass
            store.journal.close()
            recovered = open_durable_store(root, chunk_size=_DRILL_CHUNK)
            if recovered.get_file("a.jpg") != file_a:
                outcomes[point] = "FAILED: acknowledged put lost"
            elif point in _COMMITTED_POINTS:
                outcomes[point] = (
                    "redone" if recovered.get_file("b.jpg") == file_b
                    else "FAILED: committed put lost")
            elif "b.jpg" in recovered.files:
                outcomes[point] = "FAILED: partial put visible"
            else:
                a_keys = set(recovered.files["a.jpg"].chunk_keys)
                orphans = [k for k in recovered.backend.keys("chunk/")
                           if k[len("chunk/"):] not in a_keys]
                outcomes[point] = (
                    "rolled_back" if not orphans
                    else "FAILED: orphan blobs survive rollback")
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return outcomes


def run_backend_chaos(
    plan: FaultPlan,
    seed: int = 0,
    reads: int = 120,
    replicas: int = 3,
) -> ChaosReport:
    """The ``lepton chaos --backend`` drill: crash sweep + scrub drill.

    Half one crashes a scripted workload at every registered kill point
    and judges recovery (:func:`_kill_sweep`).  Half two stores the chaos
    corpus on ``replicas`` in-memory replicas and rots one replica at
    rest in two rounds per the plan's storage profile: round one is
    found and healed by the scrubber alone (no reads in between), round
    two is read through while damaged — validated replicated reads must
    repair in-band and serve zero wrong bytes.  A final scrub pass must
    then find nothing, and every replica must hold byte-identical blobs.
    Deterministic for a given ``(seed, plan)``; judged by :func:`durable`.
    """
    registry = MetricsRegistry()
    storage_cfg = (plan.storage if plan.storage is not None
                   else StorageFaultConfig())
    kill_points = _kill_sweep()
    root = tempfile.mkdtemp(prefix="lepton-durability-")
    try:
        members = [MemoryBackend() for _ in range(replicas)]
        backend = ReplicatedBackend(members, registry=registry)
        store = open_durable_store(
            root, backends=[backend], chunk_size=_DRILL_CHUNK,
            read_retry=RetryPolicy(max_attempts=3),
        )
        files = _store_corpus(store)
        rng = np.random.default_rng(seed)
        scrubber = Scrubber(store, registry=registry)
        # Round one: rot at rest, then let the scrub loop — not a read —
        # find and heal it from the surviving replicas.
        at_rest = corrupt_backend_at_rest(members[0], storage_cfg, rng,
                                          registry=registry)
        first = scrubber.run_once()
        # Round two: rot again and read straight through the damage;
        # validated replicated reads repair in-band.
        at_rest += corrupt_backend_at_rest(members[0], storage_cfg, rng,
                                           registry=registry)
        read_counts = _read_back(store, files, rng, reads)
        heal = scrubber.run_once()  # sweep up anything the reads missed
        final = scrubber.run_once()
        fields = {
            "seed": seed,
            "replicas": replicas,
            "plan": dict(sorted(plan.summary().items())),
            "kill_points": dict(sorted(kill_points.items())),
            "scrub_drill": {
                "files": len(files),
                "chunks": len(store.entries),
                "at_rest_corruptions": at_rest,
                **read_counts,
                "read_repairs": sum(
                    int(counter.value) for _labels, counter
                    in registry.series("replication.read_repairs")),
                "scrub_detected": (first.corruptions_detected
                                   + heal.corruptions_detected),
                "scrub_repaired": first.repairs + heal.repairs,
                "scrub_unrepairable": (first.unrepairable + heal.unrepairable
                                       + final.unrepairable),
                "second_pass_clean": (final.corruptions_detected == 0
                                      and final.repairs == 0),
                "replicas_converged": _replicas_converged(members),
            },
            "faults_injected": _fault_counts(registry),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return ChaosReport("durability report", fields, "durable",
                       durable(fields))


def durable(fields: dict) -> bool:
    """The ``--backend`` verdict (§5.7): every kill point rolled back or
    redone, no wrong byte served, no chunk left unrepairable, a clean
    final scrub pass, and converged replicas."""
    drill = fields["scrub_drill"]
    outcomes = fields["kill_points"].values()
    return (bool(outcomes)
            and all(o in ("rolled_back", "redone") for o in outcomes)
            and drill["wrong_bytes"] == 0
            and drill["scrub_unrepairable"] == 0
            and drill["second_pass_clean"]
            and drill["replicas_converged"])


def _replicas_converged(members) -> bool:
    """Every replica holds byte-identical blobs for every chunk key."""
    union = sorted({key for member in members for key in member.keys("chunk/")})
    for key in union:
        blobs = []
        for member in members:
            try:
                blobs.append(member.read(key))
            except KeyError:
                return False
        if any(blob != blobs[0] for blob in blobs[1:]):
            return False
    return True


def _fault_counts(*registries: MetricsRegistry) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for registry in registries:
        for labels, counter in registry.series("faults.injected"):
            kind = labels["kind"]
            out[kind] = out.get(kind, 0) + int(counter.value)
    return dict(sorted(out.items()))


def run_chaos(
    plan: Optional[FaultPlan] = None,
    seed: int = 0,
    hours: float = 0.5,
    reads: int = 200,
    policies: bool = True,
) -> ChaosReport:
    """The ``lepton chaos`` entry point: fleet + storage under one plan,
    judged by :func:`no_wrong_bytes`."""
    if plan is None:
        plan = FaultPlan.generate(seed=seed, duration=hours * 3600.0)
    metrics, breakers = run_fleet_chaos(plan, seed=seed, hours=hours,
                                        policies=policies)
    storage_registry = MetricsRegistry()
    read_counts = run_storage_chaos(plan, seed=seed, reads=reads,
                                    policies=policies,
                                    registry=storage_registry)
    percentiles = metrics.latency_percentiles(qs=(50, 99))
    attempted = read_counts["reads_attempted"]
    read_availability = (read_counts["reads_served"] / attempted
                         if attempted else 1.0)
    fields = {
        "seed": seed,
        "plan": dict(sorted(plan.summary().items())),
        "fleet": {
            "availability": f"{metrics.availability():.6f}",
            "jobs_submitted": metrics._counter_total("fleet.jobs.submitted"),
            "jobs_completed": metrics._counter_total("fleet.jobs.completed"),
            "jobs_abandoned": metrics.abandoned(),
            "retries": metrics._counter_total("retry.attempts"),
            "hedges_launched": metrics._counter_total("hedge.launched"),
            "hedges_won": metrics._counter_total("hedge.won"),
            "breaker_trips": (breakers.trip_count()
                              if breakers is not None else 0),
            "failures_by_reason": dict(
                sorted(metrics.failures_by_reason().items())),
            "latency_p50": f"{percentiles[50]:.6f}",
            "latency_p99": f"{percentiles[99]:.6f}",
        },
        "storage": {
            "read_availability": f"{read_availability:.6f}",
            **read_counts,
        },
        "faults_injected": _fault_counts(metrics.registry, storage_registry),
    }
    return ChaosReport("chaos report", fields, "no_wrong_bytes",
                       no_wrong_bytes(fields))


def no_wrong_bytes(fields: dict) -> bool:
    """The plain ``lepton chaos`` verdict: whatever the plan broke, no
    read served a wrong byte — the one unforgivable outcome (§5.7)."""
    return fields["storage"]["wrong_bytes"] == 0
