"""Chaos harness: one ``(seed, plan)`` pair → one reproducible report.

Two halves, mirroring the system's two failure surfaces:

* **Fleet**: a :class:`~repro.storage.fleet.FleetSim` run under the plan's
  crash/slow/network events, with the recovery policies (retry, hedging,
  circuit breakers) on or off.
* **Storage**: a :class:`~repro.storage.blockstore.BlockStore` holding
  real coded JPEGs, subjected to transient read-path corruption and
  persistent at-rest bit-flips, read back ``reads`` times and compared
  byte-for-byte with the originals.

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
from repro.faults.report import ChaosReport, DurabilityReport
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


def run_storage_chaos(
    plan: FaultPlan,
    seed: int = 0,
    reads: int = 200,
    policies: bool = True,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, int]:
    """Store real JPEGs, corrupt them per the plan, read them back.

    Every served read is compared byte-for-byte with the original upload;
    a mismatch counts under ``wrong_bytes`` (the §5.7 never-wrong-bytes
    invariant — expected to be zero no matter what is injected).
    """
    registry = registry if registry is not None else MetricsRegistry()
    storage = plan.storage
    store = BlockStore(keep_originals=policies)
    files: Dict[str, bytes] = {}
    for jpeg_seed, height, width in _CORPUS_SHAPES:
        name = f"photo-{jpeg_seed}.jpg"
        data = corpus_jpeg(seed=jpeg_seed, height=height, width=width)
        store.put_file(name, data)
        files[name] = data
    rng = np.random.default_rng(seed)
    injected_at_rest = 0
    if storage is not None:
        injected_at_rest = corrupt_backend_at_rest(store.backend, storage,
                                                   rng, registry=registry)
        store.read_fault = ReadFaultInjector(storage, seed=seed + 1,
                                             registry=registry)
    if policies:
        store.read_retry = RetryPolicy(max_attempts=3)
    names = sorted(files)
    stats = {
        "reads_attempted": 0,
        "reads_served": 0,
        "reads_degraded": 0,
        "reads_failed": 0,
        "wrong_bytes": 0,
        "at_rest_corruptions": injected_at_rest,
    }
    for _ in range(reads):
        name = names[int(rng.integers(len(names)))]
        stats["reads_attempted"] += 1
        fallbacks_before = store.degraded_fallbacks
        try:
            data = store.get_file(name)
        except (IntegrityError, LeptonError):
            stats["reads_failed"] += 1
            continue
        stats["reads_served"] += 1
        if store.degraded_fallbacks > fallbacks_before:
            stats["reads_degraded"] += 1
        if data != files[name]:
            stats["wrong_bytes"] += 1
    return stats


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
    registry: Optional[MetricsRegistry] = None,
) -> DurabilityReport:
    """The ``lepton chaos --backend`` drill: crash sweep + scrub drill.

    Half one crashes a scripted workload at every registered kill point
    and judges recovery (:func:`_kill_sweep`).  Half two stores the chaos
    corpus on ``replicas`` in-memory replicas and rots one replica at
    rest in two rounds per the plan's storage profile: round one is
    found and healed by the scrubber alone (no reads in between), round
    two is read through while damaged — validated replicated reads must
    repair in-band and serve zero wrong bytes.  A final scrub pass must
    then find nothing, and every replica must hold byte-identical blobs.
    Deterministic for a given ``(seed, plan)``.
    """
    registry = registry if registry is not None else MetricsRegistry()
    storage_cfg = (plan.storage if plan.storage is not None
                   else StorageFaultConfig())
    report = DurabilityReport(seed=seed, replicas=replicas,
                              plan_summary=plan.summary(),
                              kill_points=_kill_sweep())
    root = tempfile.mkdtemp(prefix="lepton-durability-")
    try:
        members = [MemoryBackend() for _ in range(replicas)]
        backend = ReplicatedBackend(members, registry=registry)
        store = open_durable_store(
            root, backends=[backend], chunk_size=_DRILL_CHUNK,
            read_retry=RetryPolicy(max_attempts=3),
        )
        files: Dict[str, bytes] = {}
        for jpeg_seed, height, width in _CORPUS_SHAPES:
            name = f"photo-{jpeg_seed}.jpg"
            data = corpus_jpeg(seed=jpeg_seed, height=height, width=width)
            store.put_file(name, data)
            files[name] = data
        report.files = len(files)
        report.chunks = len(store.entries)
        rng = np.random.default_rng(seed)
        scrubber = Scrubber(store, registry=registry)
        # Round one: rot at rest, then let the scrub loop — not a read —
        # find and heal it from the surviving replicas.
        report.at_rest_corruptions = corrupt_backend_at_rest(
            members[0], storage_cfg, rng, registry=registry)
        first = scrubber.run_once()
        # Round two: rot again and read straight through the damage;
        # validated replicated reads repair in-band.
        report.at_rest_corruptions += corrupt_backend_at_rest(
            members[0], storage_cfg, rng, registry=registry)
        names = sorted(files)
        for _ in range(reads):
            name = names[int(rng.integers(len(names)))]
            report.reads_attempted += 1
            fallbacks_before = store.degraded_fallbacks
            try:
                data = store.get_file(name)
            except (IntegrityError, LeptonError):
                report.reads_failed += 1
                continue
            report.reads_served += 1
            if store.degraded_fallbacks > fallbacks_before:
                report.reads_degraded += 1
            if data != files[name]:
                report.wrong_bytes += 1
        heal = scrubber.run_once()  # sweep up anything the reads missed
        final = scrubber.run_once()
        report.scrub_detected = (first.corruptions_detected
                                 + heal.corruptions_detected)
        report.scrub_repaired = first.repairs + heal.repairs
        report.scrub_unrepairable = (first.unrepairable + heal.unrepairable
                                     + final.unrepairable)
        report.second_pass_clean = (final.corruptions_detected == 0
                                    and final.repairs == 0)
        report.replicas_converged = _replicas_converged(members)
        report.read_repairs = sum(
            int(counter.value)
            for _labels, counter in registry.series("replication.read_repairs")
        )
        report.faults_injected = _fault_counts(registry)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return report


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
    return out


def run_chaos(
    plan: Optional[FaultPlan] = None,
    seed: int = 0,
    hours: float = 0.5,
    reads: int = 200,
    policies: bool = True,
) -> ChaosReport:
    """The ``lepton chaos`` entry point: fleet + storage under one plan."""
    if plan is None:
        plan = FaultPlan.generate(seed=seed, duration=hours * 3600.0)
    metrics, breakers = run_fleet_chaos(plan, seed=seed, hours=hours,
                                        policies=policies)
    storage_registry = MetricsRegistry()
    storage_stats = run_storage_chaos(plan, seed=seed, reads=reads,
                                      policies=policies,
                                      registry=storage_registry)
    percentiles = metrics.latency_percentiles(qs=(50, 99))
    return ChaosReport(
        seed=seed,
        plan_summary=plan.summary(),
        jobs_submitted=metrics._counter_total("fleet.jobs.submitted"),
        jobs_completed=metrics._counter_total("fleet.jobs.completed"),
        jobs_abandoned=metrics.abandoned(),
        retries=metrics._counter_total("retry.attempts"),
        hedges_launched=metrics._counter_total("hedge.launched"),
        hedges_won=metrics._counter_total("hedge.won"),
        breaker_trips=breakers.trip_count() if breakers is not None else 0,
        failures_by_reason=metrics.failures_by_reason(),
        latency_p50=percentiles[50],
        latency_p99=percentiles[99],
        reads_attempted=storage_stats["reads_attempted"],
        reads_served=storage_stats["reads_served"],
        reads_degraded=storage_stats["reads_degraded"],
        reads_failed=storage_stats["reads_failed"],
        wrong_bytes=storage_stats["wrong_bytes"],
        faults_injected=_fault_counts(metrics.registry, storage_registry),
    )
