"""Admission control for ``lepton serve`` (§5.5's backpressure, over HTTP).

The paper's fleet sheds load by outsourcing conversions when a machine's
concurrency crosses a threshold; a single front-end process has to shed it
at the door instead.  :class:`AdmissionGate` models the door: at most
``max_inflight`` file requests execute concurrently, at most
``queue_depth`` more may wait, and everything beyond that is refused
*immediately* with ``503`` + ``Retry-After`` — a bounded queue keeps p99
bounded under saturation, where an unbounded one would melt into collapse
(every queued request eventually times out at the client).

``/healthz`` and ``/metrics`` bypass the gate: the monitoring plane must
stay readable precisely when the data plane is saturated.
"""

import asyncio
from typing import Optional

from repro.obs import get_registry


class Saturated(Exception):
    """The gate's queue is full; the caller maps this to 503."""

    def __init__(self, inflight: int, waiting: int):
        super().__init__(
            f"admission queue full ({inflight} in flight, {waiting} queued)"
        )
        self.inflight = inflight
        self.waiting = waiting


class AdmitTimeout(Exception):
    """The request's deadline expired while it was still queued; the
    caller maps this to 504 — the work never started, so nothing needs
    cancelling."""


class AdmissionGate:
    """Bounded concurrency + bounded wait queue over an asyncio semaphore.

    All state mutates on the event-loop thread; the instruments it feeds
    (``serve.inflight``, ``serve.admission.queue_depth``,
    ``serve.admission.rejected``) are the registry's own lock-guarded
    series.
    """

    def __init__(self, max_inflight: int = 8, queue_depth: int = 16):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self.registry = get_registry()
        self._semaphore = asyncio.Semaphore(max_inflight)
        self._inflight = 0
        self._waiting = 0
        self._idle = asyncio.Event()
        self._idle.set()

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def waiting(self) -> int:
        return self._waiting

    async def admit(self, timeout: Optional[float] = None) -> None:
        """Wait for a slot, or raise :class:`Saturated` if the queue is full.

        ``timeout`` bounds the queued wait (the request's remaining
        deadline budget): expiry raises :class:`AdmitTimeout` and the
        queue slot is surrendered — exactly once, even when the waiter
        is concurrently cancelled by a client disconnect.
        """
        if self._semaphore.locked() and self._waiting >= self.queue_depth:
            self.registry.counter("serve.admission.rejected").inc()
            raise Saturated(self._inflight, self._waiting)
        self._waiting += 1
        self.registry.gauge("serve.admission.queue_depth").set(self._waiting)
        acquired = False
        try:
            if timeout is None:
                await self._semaphore.acquire()
            else:
                try:
                    # wait_for() wraps the acquire in a cancellable task:
                    # the loop is never blocked.
                    await asyncio.wait_for(
                        self._semaphore.acquire(),  # lint: disable=D7
                        timeout)
                except asyncio.TimeoutError:
                    raise AdmitTimeout() from None
            acquired = True
        finally:
            self._waiting -= 1
            self.registry.gauge("serve.admission.queue_depth").set(self._waiting)
            # A waiter that leaves without a slot (timeout / client
            # disconnect) may have been the last thing a drain was
            # waiting on; only the *failure* path may declare idleness
            # here — on success the request is about to be in flight.
            if not acquired and self._inflight == 0 and self._waiting == 0:
                self._idle.set()
        self._inflight += 1
        self._idle.clear()
        self.registry.gauge("serve.inflight").set(self._inflight)

    def release(self) -> None:
        self._inflight -= 1
        self.registry.gauge("serve.inflight").set(self._inflight)
        self._semaphore.release()
        # Idle means *nothing left to finish*: zero in flight AND zero
        # queued.  Setting it with waiters still queued would let a drain
        # close the listeners mid-handoff and cut the queued request's
        # (already admitted, soon-streaming) response — the drain race.
        if self._inflight == 0 and self._waiting == 0:
            self._idle.set()

    async def drained(self, timeout: Optional[float] = None) -> bool:
        """Wait until nothing is in flight; False if ``timeout`` expired."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True
