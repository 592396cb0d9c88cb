"""Write-ahead journal: the crash-consistency spine of the durable store.

A durable ``put_file`` spans many backend writes (chunks, kept originals,
the file record).  A crash between any two of them would leave partial
state — the §5.7 failure the paper's deployment could never afford.  The
journal makes the multi-write put atomic: an **intent** record is forced
to disk before the first payload byte, a **commit** record (carrying the
full file meta) after the last, and startup recovery replays the journal
to *redo* committed puts and *roll back* everything between an intent and
its commit.

Record framing is self-verifying: each record is one line,

    ``crc32(json) as 8 hex chars`` + `` `` + ``json.dumps(record, sort_keys=True)`` + ``\\n``

so a torn append (the power cut mid-``write``) is detected by CRC or
framing failure and the tail is truncated — a torn *tail* is exactly a
clean cut one record earlier.  Appends are ``flush`` + ``fsync`` so an
acknowledged record survives the crash; :meth:`Journal.checkpoint`
atomically empties the journal once its records are reflected in the
backend, bounding replay work.

Crash injection: the :class:`~repro.faults.killpoints.KillPoints` harness
hooks ``append`` via the ``kill`` parameter — a ``.torn`` point stages a
genuinely half-written, fsynced record before raising, so recovery is
tested against real torn bytes, not a simulation of them.

A store kept in RAM runs the same put protocol over :class:`MemoryJournal`.
"""

import json
import os
import threading
import zlib
from typing import List, Optional

from repro.faults.killpoints import KillPoints


class JournalError(RuntimeError):
    """The journal file cannot be used (I/O or framing trouble on open)."""


def _frame(record: dict) -> bytes:
    body = json.dumps(record, sort_keys=True)
    return f"{zlib.crc32(body.encode()):08x} {body}\n".encode()


def _parse_line(line: bytes) -> Optional[dict]:
    """One framed record, or ``None`` if the line is torn/corrupt."""
    if not line.endswith(b"\n"):
        return None  # torn tail: the final write never finished
    try:
        text = line[:-1].decode()
    except UnicodeDecodeError:
        return None
    if len(text) < 10 or text[8] != " ":
        return None
    crc, body = text[:8], text[9:]
    try:
        if int(crc, 16) != zlib.crc32(body.encode()):
            return None
        record = json.loads(body)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class Journal:
    """Append-only, CRC-framed, fsync-on-append record log.

    The handle is owned by the instance for its whole life (opened in
    append mode at construction, swapped atomically on checkpoint) — the
    one sanctioned pattern for a resource that outlives a function
    (lint D10: self-assignment transfers ownership to :meth:`close`).
    """

    def __init__(self, path: str, kill: Optional[KillPoints] = None):
        self.path = str(path)
        self.kill = kill
        self._lock = threading.Lock()
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        try:
            self._handle = open(self.path, "ab")
        except OSError as exc:
            raise JournalError(f"cannot open journal {self.path!r}: {exc}") from exc

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writing ----------------------------------------------------------

    def append(self, record: dict, kill_point: Optional[str] = None) -> None:
        """Durably append one record (write + flush + fsync).

        ``kill_point`` names the ``.torn`` crash point covering this
        append: when the harness has it armed, only a prefix of the frame
        is written and fsynced before the simulated crash — the on-disk
        journal then ends in a genuinely torn record that replay must
        detect and truncate.
        """
        frame = _frame(record)
        with self._lock:
            if self._handle is None:
                raise JournalError(f"journal {self.path!r} is closed")
            if (self.kill is not None and kill_point is not None
                    and self.kill.will_fire(kill_point)):
                # Stage the torn write: half the frame reaches the disk.
                self._handle.write(frame[:max(1, len(frame) // 2)])
                self._handle.flush()
                os.fsync(self._handle.fileno())
            else:
                self._handle.write(frame)
                self._handle.flush()
                os.fsync(self._handle.fileno())
        if self.kill is not None and kill_point is not None:
            self.kill.reach(kill_point)

    # -- reading / recovery ----------------------------------------------

    def replay(self) -> List[dict]:
        """All intact records, oldest first; truncates any torn tail.

        Framing damage *anywhere* stops the replay there: records are
        appended strictly in order, so bytes after a bad frame can only
        be the debris of writes that were never acknowledged.  The file
        is truncated back to the last intact record so the damage is not
        re-parsed (or appended into) later.
        """
        records: List[dict] = []
        good = 0
        with self._lock:
            with open(self.path, "rb") as reader:
                for line in reader:
                    record = _parse_line(line)
                    if record is None:
                        break
                    records.append(record)
                    good += len(line)
            size = os.path.getsize(self.path)
            if size > good:
                if self._handle is not None:
                    self._handle.flush()
                with open(self.path, "r+b") as trimmer:
                    trimmer.truncate(good)
                    trimmer.flush()
                    os.fsync(trimmer.fileno())
        return records

    def checkpoint(self) -> None:
        """Atomically empty the journal.

        Called once every replayed record is reflected in the backend; an
        empty journal is the steady state.  The replacement uses the same
        tmp + fsync + rename discipline as the filesystem backend, so a
        crash during checkpoint leaves either the old journal (replayed
        again — recovery is idempotent) or the empty one.
        """
        if self.kill is not None:
            self.kill.reach("journal.checkpoint.pre")
        tmp = self.path + ".tmp"
        with self._lock:
            with open(tmp, "wb") as writer:
                os.fsync(writer.fileno())
            os.replace(tmp, self.path)
            parent = os.path.dirname(self.path) or "."
            fd = os.open(parent, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            if self._handle is not None:
                self._handle.close()
            self._handle = open(self.path, "ab")


class MemoryJournal:
    """:class:`Journal`'s four calls over a list, for a store kept in RAM.

    No framing and no fsync: nothing in RAM survives a crash, so there is
    no torn tail to detect and no disk to force.  Kill points are reached
    at the same steps as :class:`Journal`, so a crash harness sees one
    protocol whichever journal a store runs on.
    """

    def __init__(self, kill: Optional[KillPoints] = None):
        self.kill = kill
        self._lock = threading.Lock()
        self._records: List[dict] = []

    def close(self) -> None:
        """Nothing to release; kept so every journal closes alike."""

    def append(self, record: dict, kill_point: Optional[str] = None) -> None:
        with self._lock:
            self._records.append(record)
        if self.kill is not None and kill_point is not None:
            self.kill.reach(kill_point)

    def replay(self) -> List[dict]:
        with self._lock:
            return list(self._records)

    def checkpoint(self) -> None:
        if self.kill is not None:
            self.kill.reach("journal.checkpoint.pre")
        with self._lock:
            self._records = []
