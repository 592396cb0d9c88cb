"""Deterministic fault plans (§5.5, §5.7, §6.6).

A :class:`FaultPlan` is *data*: explicit lists of crash, slowdown, and
network-fault events plus a storage-corruption profile.  Nothing in a plan
reads a wall clock or ambient entropy — events carry simulated-time
stamps driven off :class:`~repro.storage.simclock.SimClock`, and
:meth:`FaultPlan.generate` derives a plan from an explicit seed, so the
same ``(seed, plan)`` pair replays the same faults byte for byte (the
determinism the §5.4 qualification story depends on).

Plans serialise to JSON (``lepton chaos --plan faults.json``) and back.
"""

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import List, Optional

import numpy as np


@dataclass(frozen=True)
class CrashFault:
    """A blockserver dies at ``time``, losing every in-flight job, and
    comes back ``restart_after`` seconds later (§5.7's crash story)."""

    time: float
    server: int
    restart_after: float = 120.0


@dataclass(frozen=True)
class SlowFault:
    """A degraded node: all work on ``server`` runs ``factor``× slower for
    ``duration`` seconds (the swapping/overheating machines of §6.6)."""

    start: float
    duration: float
    server: int
    factor: float = 4.0


@dataclass(frozen=True)
class NetworkFault:
    """A window during which outsourced conversions are lost in transit
    with probability ``loss_probability``; a lost conversion surfaces as a
    timeout ``timeout`` seconds after it was shipped (§5.5, §6.6)."""

    start: float
    duration: float
    loss_probability: float = 0.5
    timeout: float = 10.0

    def active(self, now: float) -> bool:
        return self.start <= now < self.start + self.duration


@dataclass(frozen=True)
class StorageFaultConfig:
    """Corruption profile for stored Lepton payloads (§5.7's nightmare).

    ``read_corrupt_probability`` injects *transient* read-path faults (a
    retry re-reads clean bytes); ``at_rest_corruptions`` flips bits in
    stored payloads *persistently* (only the original-JPEG fallback can
    serve those files).  Kinds: ``bitflip``, ``truncate``, ``torn`` (a
    torn write: the payload tail replaced with zeros).

    The backend-level probabilities drive
    :class:`~repro.storage.backends.FaultyBackend` (PR-8 durability):
    ``write_torn_probability`` silently truncates a replica's blob on
    write, ``unavailable_probability`` makes an operation fail with
    ``BackendUnavailable``.  Both default to 0 so existing plans are
    unchanged.
    """

    read_corrupt_probability: float = 0.3
    at_rest_corruptions: int = 2
    kinds: "tuple" = ("bitflip", "truncate", "torn")
    write_torn_probability: float = 0.0
    unavailable_probability: float = 0.0


@dataclass
class FaultPlan:
    """The full fault schedule one chaos run injects."""

    crashes: List[CrashFault] = field(default_factory=list)
    slowdowns: List[SlowFault] = field(default_factory=list)
    network: List[NetworkFault] = field(default_factory=list)
    storage: Optional[StorageFaultConfig] = None

    def network_fault_at(self, now: float) -> Optional[NetworkFault]:
        """The first network-fault window covering ``now``, if any."""
        for fault in self.network:
            if fault.active(now):
                return fault
        return None

    def summary(self) -> dict:
        """Event counts for the chaos report header."""
        return {
            "crashes": len(self.crashes),
            "slowdowns": len(self.slowdowns),
            "network_windows": len(self.network),
            "storage": self.storage is not None,
        }

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "crashes": [asdict(c) for c in self.crashes],
            "slowdowns": [asdict(s) for s in self.slowdowns],
            "network": [asdict(n) for n in self.network],
        }
        if self.storage is not None:
            storage = asdict(self.storage)
            storage["kinds"] = list(self.storage.kinds)
            out["storage"] = storage
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultPlan":
        storage = raw.get("storage")
        if storage is not None:
            # Missing fields take the dataclass defaults; unknown keys are
            # ignored.
            names = {f.name for f in fields(StorageFaultConfig)}
            storage = StorageFaultConfig(
                **{k: v for k, v in storage.items() if k in names})
            storage = replace(storage, kinds=tuple(storage.kinds))
        return cls(
            crashes=[CrashFault(**c) for c in raw.get("crashes", [])],
            slowdowns=[SlowFault(**s) for s in raw.get("slowdowns", [])],
            network=[NetworkFault(**n) for n in raw.get("network", [])],
            storage=storage,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- generation -------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int = 0,
        duration: float = 1800.0,
        n_servers: int = 12,
        crashes: int = 2,
        restart_seconds: float = 120.0,
        slowdowns: int = 2,
        slow_factor: float = 6.0,
        slow_duration: float = 300.0,
        network_windows: int = 1,
        network_duration: float = 180.0,
        loss_probability: float = 0.5,
        network_timeout: float = 10.0,
        storage: Optional[StorageFaultConfig] = None,
    ) -> "FaultPlan":
        """Derive a concrete plan from an explicit seed.

        Event times land in the first 80% of ``duration`` so their effects
        (restarts, recoveries) are observable before the run ends.  The
        same seed always yields the same plan.
        """
        rng = np.random.default_rng(seed)
        crash_events = sorted(
            (
                CrashFault(
                    time=float(rng.uniform(0.0, duration * 0.8)),
                    server=int(rng.integers(n_servers)),
                    restart_after=restart_seconds,
                )
                for _ in range(crashes)
            ),
            key=lambda c: (c.time, c.server),
        )
        slow_events = sorted(
            (
                SlowFault(
                    start=float(rng.uniform(0.0, duration * 0.8)),
                    duration=slow_duration,
                    server=int(rng.integers(n_servers)),
                    factor=slow_factor,
                )
                for _ in range(slowdowns)
            ),
            key=lambda s: (s.start, s.server),
        )
        network_events = sorted(
            (
                NetworkFault(
                    start=float(rng.uniform(0.0, duration * 0.8)),
                    duration=network_duration,
                    loss_probability=loss_probability,
                    timeout=network_timeout,
                )
                for _ in range(network_windows)
            ),
            key=lambda n: n.start,
        )
        return cls(
            crashes=crash_events,
            slowdowns=slow_events,
            network=network_events,
            storage=storage if storage is not None else StorageFaultConfig(),
        )
