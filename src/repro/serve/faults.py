"""Live fault injection: a PR-4 :class:`FaultPlan` applied to real sockets.

``lepton chaos`` replays a plan against the discrete-event fleet;
``lepton serve --fault-plan`` points the same plan at the running HTTP
service, so the degraded-read contract is exercised where it matters —
over the wire.  The mapping (documented in ``docs/deployment.md``):

* ``storage.read_corrupt_probability`` → the store's ``read_fault`` hook
  (transient read corruption; a bounded re-read heals it);
* ``storage.at_rest_corruptions`` → persistent payload rot, injected one
  payload per admission until the plan's budget is spent (the kept
  original is then the only way to serve those bytes);
* ``slowdowns`` → a per-response delay while a window is active, scaled
  by the window's ``factor`` (plan times are seconds since server start);
* ``network`` → connections dropped before the response head with the
  window's ``loss_probability``;
* ``crashes`` → **sim-only** (the live server never kills itself; crash
  drills stay in ``lepton chaos``).

Randomness comes from one generator seeded at construction, so a given
``(plan, seed)`` pair injects a reproducible fault *sequence* (the wire
interleaving, of course, is the client's problem).  Injections are
counted under the existing ``faults.injected{kind=...}`` family with
live-specific kinds ``live_slow`` and ``live_drop``.
"""

import numpy as np

from repro.faults.injector import ReadFaultInjector, _corrupt_payload
from repro.faults.plan import FaultPlan
from repro.obs import get_registry


class LiveFaultInjector:
    """Applies a :class:`FaultPlan` to a live server's request path."""

    #: Baseline injected delay per active slow window, seconds; multiplied
    #: by the window's ``factor``.
    SLOW_UNIT_SECONDS = 0.005

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.registry = get_registry()
        self.rng = np.random.default_rng(seed)
        self.read_fault = (
            ReadFaultInjector(plan.storage, seed=seed + 1)
            if plan.storage is not None else None
        )
        self._at_rest_budget = (
            plan.storage.at_rest_corruptions if plan.storage is not None else 0
        )

    def response_delay(self, now: float) -> float:
        """Injected latency for a response beginning at ``now`` (seconds
        since server start); 0.0 outside every slowdown window."""
        delay = 0.0
        for slow in self.plan.slowdowns:
            if slow.start <= now < slow.start + slow.duration:
                delay += self.SLOW_UNIT_SECONDS * slow.factor
        if delay:
            self.registry.counter("faults.injected", kind="live_slow").inc()
        return delay

    def should_drop(self, now: float) -> bool:
        """Whether to sever this connection (active network-loss window)."""
        fault = self.plan.network_fault_at(now)
        if fault is None:
            return False
        if float(self.rng.random()) >= fault.loss_probability:
            return False
        self.registry.counter("faults.injected", kind="live_drop").inc()
        return True

    def corrupt_after_put(self, store) -> int:
        """Persistently rot one stored payload, while budget remains.

        Called after each admission so rot lands on bytes that exist; the
        stored digests are untouched, exactly like at-rest decay under a
        checksummed store.  The rot lands on one replica's chunk *blob*
        (the first, when replicated), so validated reads and the scrubber
        do the healing.  Returns payloads corrupted (0 or 1).
        """
        if self._at_rest_budget <= 0 or not store.entries:
            return 0
        keys = sorted(store.entries)
        key = keys[int(self.rng.integers(len(keys)))]
        backend = store.backend
        replicas = getattr(backend, "replicas", None)
        if replicas:
            backend = replicas[0]
        try:
            blob = backend.read(f"chunk/{key}")
        except KeyError:
            return 0
        backend.write(f"chunk/{key}",
                      _corrupt_payload(blob, "bitflip", self.rng))
        self._at_rest_budget -= 1
        self.registry.counter("faults.injected", kind="at_rest_bitflip").inc()
        return 1
