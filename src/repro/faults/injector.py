"""Fault injectors: apply a :class:`~repro.faults.plan.FaultPlan`.

Two surfaces:

* :class:`FleetFaultInjector` arms crash/restart and slow-node events on a
  fleet simulation's :class:`~repro.storage.simclock.SimClock` (network
  faults are consulted at ship time by the fleet itself, via
  ``plan.network_fault_at``).
* :class:`ReadFaultInjector` + :func:`corrupt_backend_at_rest` corrupt
  stored Lepton payloads: per-read transient faults that a retry heals,
  and persistent blob rot that only a healthy replica or the
  original-JPEG fallback survives.

Everything is driven by explicit seeds and the simulated clock; injected
events are counted under ``faults.injected{kind=...}`` so a chaos report
can prove the plan actually ran.
"""

from typing import Optional

import numpy as np

from repro.faults.plan import FaultPlan, StorageFaultConfig
from repro.obs import MetricsRegistry, get_registry


class FleetFaultInjector:
    """Schedules a plan's crash and slowdown events against a fleet sim.

    ``sim`` needs ``clock``, ``registry``, and ``blockservers`` — which is
    exactly :class:`~repro.storage.fleet.FleetSim`'s surface; the injector
    stays duck-typed so tests can aim it at a bare server list too.
    """

    def __init__(self, plan: FaultPlan, sim):
        self.plan = plan
        self.sim = sim

    def _count(self, kind: str) -> None:
        self.sim.registry.counter("faults.injected", kind=kind).inc()

    def _server(self, index: int):
        servers = self.sim.blockservers
        return servers[index % len(servers)]

    def arm(self) -> None:
        """Schedule every planned event on the simulation clock."""
        for crash in self.plan.crashes:
            self._arm_crash(crash)
        for slow in self.plan.slowdowns:
            self._arm_slow(slow)
        # Network windows are data, not events: the fleet consults
        # ``plan.network_fault_at(now)`` when it ships a conversion.
        for _ in self.plan.network:
            self._count("network_window")

    def _arm_crash(self, crash) -> None:
        server = self._server(crash.server)

        def fire():
            self._count("crash")
            server.crash()

            def back():
                self._count("restart")
                server.restart()

            self.sim.clock.after(crash.restart_after, back)

        self.sim.clock.at(crash.time, fire)

    def _arm_slow(self, slow) -> None:
        server = self._server(slow.server)

        def begin():
            self._count("slow")
            server.set_slow(slow.factor)

            def end():
                server.set_slow(1.0)

            self.sim.clock.after(slow.duration, end)

        self.sim.clock.at(slow.start, begin)


# -- storage corruption ----------------------------------------------------


def _corrupt_payload(payload: bytes, kind: str, rng) -> bytes:
    """One deterministic corruption of ``payload`` (never a no-op)."""
    if not payload:
        return payload
    if kind == "bitflip":
        i = int(rng.integers(len(payload)))
        flipped = payload[i] ^ int(1 + rng.integers(255))
        return payload[:i] + bytes([flipped]) + payload[i + 1:]
    if kind == "truncate":
        cut = int(rng.integers(len(payload)))
        return payload[:cut]
    if kind == "torn":
        keep = int(rng.integers(len(payload)))
        return payload[:keep] + b"\x00" * (len(payload) - keep)
    raise ValueError(f"unknown corruption kind {kind!r}")


class ReadFaultInjector:
    """Transient read-path corruption hook for ``BlockStore.read_fault``.

    Each read draws from one seeded generator: with
    ``read_corrupt_probability`` the returned payload is corrupted *for
    this read only* — the store's recorded digests still describe the
    clean payload, so the md5 gate catches the fault and a retry re-reads
    clean bytes.  Reads happen in deterministic order in a chaos run, so
    the whole fault sequence replays from the seed.
    """

    def __init__(self, config: StorageFaultConfig, seed: int = 0,
                 registry: Optional[MetricsRegistry] = None):
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.registry = registry if registry is not None else get_registry()
        self.injected = 0

    def __call__(self, key: str, payload: bytes, attempt: int) -> bytes:
        if float(self.rng.random()) >= self.config.read_corrupt_probability:
            return payload
        kind = self.config.kinds[int(self.rng.integers(len(self.config.kinds)))]
        self.injected += 1
        self.registry.counter("faults.injected", kind=f"read_{kind}").inc()
        return _corrupt_payload(payload, kind, self.rng)


def corrupt_backend_at_rest(backend, config: StorageFaultConfig, rng,
                            registry: Optional[MetricsRegistry] = None
                            ) -> int:
    """Persistently rot up to ``at_rest_corruptions`` chunk *blobs* on one
    storage backend (repro.storage.backends).  The stored digests are left
    untouched: every later read of these keys fails verification, exactly
    like real at-rest rot under a checksummed store.

    Aim it at a single replica of a
    :class:`~repro.storage.backends.ReplicatedBackend` to model one
    machine's disk rotting while its peers stay clean: validated reads
    and the scrubber must then repair the replica without ever serving a
    wrong byte.  Keys are drawn over the sorted ``chunk/`` key list so
    the damage is a pure function of the rng state.
    """
    registry = registry if registry is not None else get_registry()
    keys = backend.keys("chunk/")
    if not keys or config.at_rest_corruptions <= 0:
        return 0
    count = min(config.at_rest_corruptions, len(keys))
    chosen = rng.choice(len(keys), size=count, replace=False)
    for index in sorted(int(i) for i in chosen):
        key = keys[index]
        kind = config.kinds[int(rng.integers(len(config.kinds)))]
        backend.write(key, _corrupt_payload(backend.read(key), kind, rng))
        registry.counter("faults.injected", kind=f"at_rest_{kind}").inc()
    return count
