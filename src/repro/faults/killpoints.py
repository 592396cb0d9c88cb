"""Deterministic crash injection at named protocol steps (§5.7 proof).

The durable put protocol (docs/durability.md) is a fixed sequence of
journal appends and backend writes.  *Asserting* that a crash anywhere in
that sequence is recoverable is cheap; *proving* it means actually
crashing at every step.  This module names each step as a **kill point**:
the protocol calls :meth:`KillPoints.reach` as it passes each one, and an
armed harness raises :class:`KillPointError` there — a deterministic
power cut, minus the electrician.

The closed set :data:`KILL_POINTS` is the contract between the protocol
and the crash-recovery suite (``tests/storage/test_crash_recovery.py``):
``reach`` refuses names outside the set, so adding a journal step without
registering (and therefore testing) its kill point is a loud failure,
and the suite asserts a scripted workload *visits* every registered
point, so a registered-but-dead name fails too.

The registry is partitioned by protocol: :data:`PUT_KILL_POINTS` covers
the one-shot durable put, :data:`UPLOAD_KILL_POINTS` the resumable
upload-session protocol (docs/serve.md), and :data:`READ_KILL_POINTS`
the streamed read path.  Sweeps iterate the subset whose workload can
actually reach the points; :data:`KILL_POINTS` is the union and remains
the ``reach`` gate.

Points suffixed ``.torn`` are special: the journal consults
:meth:`KillPoints.will_fire` *before* appending so it can stage a torn
record — half a line fsynced to disk, then the crash — exercising the
CRC-framed tail-truncation path rather than a clean cut between records.

:class:`ProcessKillPoints` swaps the simulated power cut for a real one:
``reach`` delivers ``SIGKILL`` to the calling process.  The live chaos
harness (``lepton chaos --live``) arms it in a server subprocess via
:func:`kill_points_from_env`, so recovery is proven against a genuinely
dead process rather than an unwound Python stack.
"""

import os
import signal
from typing import Dict, Optional, Set, Tuple

#: Crash points in the one-shot durable put protocol, in protocol order.
#: Points up to and including ``journal.commit.torn`` must be invisible
#: after recovery (the put was never acknowledged); from
#: ``journal.commit.post`` on, recovery must *redo* the put (the commit
#: record is durable, so the write is owed to the client).
PUT_KILL_POINTS: Tuple[str, ...] = (
    "journal.intent.torn",    # crash mid-append of the intent record
    "journal.intent.post",    # intent durable, no payload written yet
    "backend.chunk.first",    # first chunk blob landed
    "backend.chunk.rest",     # all chunk blobs landed
    "backend.originals",      # kept-original blobs landed
    "journal.commit.torn",    # crash mid-append of the commit record
    "journal.commit.post",    # commit durable — the point of no return
    "backend.file_record",    # file-record blob landed
    "store.index.post",       # metadata index updated
    "journal.checkpoint.pre",  # about to truncate the journal
)

#: Crash points in the resumable upload-session protocol (docs/serve.md),
#: in protocol order.  A part is owed to the client only once its journal
#: record is durable (``upload.part.post``); a crash before that must
#: leave the session at the previous acked offset.  ``upload.finalize.pre``
#: crashes after the parts are assembled but before the durable put, so
#: the session must survive open and re-finalize; ``upload.finalize.post``
#: crashes after the done record, so the file must be served.
UPLOAD_KILL_POINTS: Tuple[str, ...] = (
    "upload.create.post",     # session record durable, nothing received
    "upload.part.blob",       # part blob landed, not yet journaled
    "upload.part.torn",       # crash mid-append of the part record
    "upload.part.post",       # part record durable — the part is acked
    "upload.finalize.pre",    # parts assembled, durable put not started
    "upload.finalize.post",   # done record durable, parts not yet pruned
)

#: Crash points in the streamed read path: the server dies mid-response,
#: after the first verified piece left the store.  Recovery must serve
#: the same bytes; the client must see a clean reset, never a wrong byte.
READ_KILL_POINTS: Tuple[str, ...] = (
    "store.stream.first",     # first verified piece yielded to the server
)

#: Every registered crash point — the closed set ``reach`` enforces.
KILL_POINTS: Tuple[str, ...] = (
    PUT_KILL_POINTS + UPLOAD_KILL_POINTS + READ_KILL_POINTS
)


class KillPointError(RuntimeError):
    """The simulated power cut.  Nothing in the protocol catches this."""

    def __init__(self, name: str):
        super().__init__(f"killed at {name}")
        self.name = name


class KillPoints:
    """Arms kill points and records which ones a workload visited.

    A disarmed instance is a pure tracer: ``reach`` records the visit and
    returns.  ``arm(name, hits=k)`` makes the *k*-th visit to ``name``
    raise — ``hits`` lets a sweep kill the second put of a workload after
    the first survived, proving recovery under pre-existing state.
    """

    def __init__(self) -> None:
        self._armed: Dict[str, int] = {}
        self.seen: Set[str] = set()
        self.fired: Tuple[str, ...] = ()

    def arm(self, name: str, hits: int = 1) -> None:
        """Crash at the ``hits``-th future visit to ``name``."""
        self._check(name)
        if hits < 1:
            raise ValueError(f"hits must be >= 1, got {hits}")
        self._armed[name] = hits

    def disarm(self) -> None:
        """Clear all armed points (visit tracking is kept)."""
        self._armed.clear()

    def will_fire(self, name: str) -> bool:
        """Would the *next* visit to ``name`` crash?  (Used by the journal
        to stage a torn record before reaching the point.)"""
        self._check(name)
        return self._armed.get(name) == 1

    def reach(self, name: str) -> None:
        """The protocol passed ``name``; crash here if armed."""
        self._check(name)
        self.seen.add(name)
        remaining = self._armed.get(name)
        if remaining is None:
            return
        if remaining > 1:
            self._armed[name] = remaining - 1
            return
        del self._armed[name]
        self.fired = self.fired + (name,)
        self._fire(name)

    def _fire(self, name: str) -> None:
        """Deliver the crash.  The base class raises; subclasses may be
        more literal about it."""
        raise KillPointError(name)

    @staticmethod
    def _check(name: str) -> None:
        if name not in KILL_POINTS:
            raise ValueError(
                f"unknown kill point {name!r}; register it in "
                f"repro.faults.killpoints.KILL_POINTS (and add it to the "
                f"crash-recovery sweep) first"
            )


class ProcessKillPoints(KillPoints):
    """Kill points that actually kill: ``reach`` on an armed point sends
    ``SIGKILL`` to the calling process — no exception to catch, no
    ``atexit``, no flushing.  The live chaos harness arms one of these in
    the server subprocess so recovery is proven against a real process
    death, torn on-disk bytes included.
    """

    def _fire(self, name: str) -> None:
        os.kill(os.getpid(), signal.SIGKILL)


#: Environment variables the live harness uses to arm a server subprocess.
KILL_POINT_ENV = "LEPTON_KILL_POINT"
KILL_HITS_ENV = "LEPTON_KILL_HITS"


def kill_points_from_env() -> Optional[KillPoints]:
    """Build an armed :class:`ProcessKillPoints` from the environment.

    Returns ``None`` when :data:`KILL_POINT_ENV` is unset — the normal,
    unarmed server boot.  Unknown point names fail loudly via ``arm``.
    """
    name = os.environ.get(KILL_POINT_ENV)
    if not name:
        return None
    hits = int(os.environ.get(KILL_HITS_ENV, "1"))
    kill = ProcessKillPoints()
    kill.arm(name, hits=hits)
    return kill
