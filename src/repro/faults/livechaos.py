"""Live kill-and-recover chaos: SIGKILL a real server, prove recovery.

The in-process crash sweeps (``tests/storage/test_crash_recovery.py``)
prove the durable protocols recover from a *simulated* power cut — a
:class:`~repro.faults.killpoints.KillPointError` unwinding a Python
stack.  This harness removes the simulation: it boots the real
``lepton serve`` process, arms one kill point via the environment
(:func:`~repro.faults.killpoints.kill_points_from_env` builds a
:class:`~repro.faults.killpoints.ProcessKillPoints` whose ``reach``
delivers ``SIGKILL``), drives a workload into the kill, restarts the
server over the same data directory, and then holds the survivor to the
§5.7 contract:

* every byte the dead server *acknowledged* is durable and readable;
* zero wrong bytes are served, before or after the crash;
* every interrupted resumable upload completes under a bounded number
  of client resumes;
* recovery-before-listen finishes inside a bounded downtime.

One sweep entry per kill point, three server lives per entry (baseline,
armed victim, recovery).  The sweep emits the one
:class:`~repro.faults.report.ChaosReport`, judged by :func:`survivable`
(``lepton chaos --live`` exits 0 iff it holds).  The report is
byte-reproducible for a given seed: the wall-clock measurements this
module necessarily takes (it times real process restarts — the reason it
sits outside lint rule D2's scope) are folded into booleans before they
reach the report's fields.
"""

import asyncio
import os
import queue
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import repro
from repro.faults.killpoints import (
    KILL_POINTS,
    KILL_HITS_ENV,
    KILL_POINT_ENV,
    READ_KILL_POINTS,
)
from repro.faults.report import ChaosReport
from repro.serve.client import ServeClient, UploadIncomplete

#: The cut-down sweep the test suite (and ``make live-chaos``) runs: one
#: point per protocol regime — an acked upload part, the put protocol's
#: point of no return (fired mid-finalize), and a severed streamed read.
REDUCED_SWEEP: Tuple[str, ...] = (
    "upload.part.post",
    "journal.commit.post",
    "store.stream.first",
)

_READY_RE = re.compile(r"serving on http://([^\s:]+):(\d+)")


class LiveChaosError(RuntimeError):
    """The harness itself failed (a server never became ready)."""


class _ServerProc:
    """One life of the real server: spawn, await readiness, stop.

    Readiness is the CLI's ``serving on http://host:port`` stderr line —
    printed only after recovery-before-listen finished, so the time to
    this line *is* the downtime the report bounds.
    """

    def __init__(self, data_dir: str, kill_point: Optional[str] = None,
                 boot_timeout: float = 60.0):
        self.data_dir = data_dir
        self.kill_point = kill_point
        self.boot_timeout = boot_timeout
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def start(self) -> "_ServerProc":
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src_root
        )
        env.pop(KILL_POINT_ENV, None)
        env.pop(KILL_HITS_ENV, None)
        if self.kill_point is not None:
            env[KILL_POINT_ENV] = self.kill_point
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--data-dir", self.data_dir,
             # Small chunks so the workload files span several: a
             # streamed read must have bytes still owed when the
             # mid-stream kill fires.
             "--chunk-size", "16384",
             "--drain-timeout", "10", "--quiet"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        threading.Thread(target=self._pump, daemon=True).start()
        deadline = time.monotonic() + self.boot_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stop_hard()
                raise LiveChaosError(
                    f"server on {self.data_dir} not ready "
                    f"within {self.boot_timeout}s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise LiveChaosError(
                    f"server exited before ready "
                    f"(rc={self.proc.poll()})")
            match = _READY_RE.search(line)
            if match:
                self.host = match.group(1)
                self.port = int(match.group(2))
                return self

    def _pump(self) -> None:
        assert self.proc is not None and self.proc.stderr is not None
        for raw in self.proc.stderr:
            self._lines.put(raw.decode("utf-8", errors="replace"))
        self._lines.put(None)

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def wait(self, timeout: float = 30.0) -> Optional[int]:
        assert self.proc is not None
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None

    def sigterm(self, timeout: float = 30.0) -> Optional[int]:
        """Graceful stop (drain); returns the exit code, or None on hang."""
        if not self.alive():
            return self.proc.poll() if self.proc else None
        self.proc.send_signal(signal.SIGTERM)
        code = self.wait(timeout)
        if code is None:
            self.stop_hard()
        return code

    def stop_hard(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# -- client-side workload drivers (one asyncio.run per phase) -------------

async def _put_baseline(host: str, port: int, data: bytes) -> str:
    """Store the streamed-read victim file; returns its id."""
    async with ServeClient(host, port) as client:
        response = await client.put_file(data)
        if response.status != 201:
            raise LiveChaosError(
                f"baseline put failed: {response.status} {response.body!r}")
        return response.json()["id"]


async def _read_fully(host: str, port: int, file_id: str) -> Optional[bytes]:
    """One full GET; ``None`` when the server died mid-response."""
    async with ServeClient(host, port) as client:
        try:
            response = await client.get_file(file_id)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            return None
        if response.status != 200:
            return None
        return response.body


async def _upload_until_severed(
        host: str, port: int, data: bytes, part_size: int,
) -> Tuple[Optional[str], int, bool]:
    """Drive a resumable upload into the armed server.

    Returns ``(upload_id, acked_offset, completed)``: every byte below
    ``acked_offset`` was explicitly acknowledged on the wire, so the
    recovery check may demand it back.  A severed connection (the
    SIGKILL) ends the drive; no client-side resume happens here — the
    harness restarts the server first.
    """
    upload_id: Optional[str] = None
    acked = 0
    async with ServeClient(host, port) as client:
        try:
            created = await client.request(
                "POST", "/uploads",
                headers={"X-Lepton-Upload-Length": str(len(data))})
            if created.status != 201:
                return upload_id, acked, False
            upload_id = created.json()["upload"]
            offset = 0
            while True:
                part = data[offset:offset + part_size]
                response = await client.request(
                    "PUT", f"/uploads/{upload_id}", body=part,
                    headers={"X-Lepton-Upload-Offset": str(offset)})
                if response.status not in (200, 201):
                    return upload_id, acked, False
                if (response.headers.get("x-lepton-upload-state")
                        == "completed"):
                    return upload_id, len(data), True
                acked = int(response.headers.get(
                    "x-lepton-upload-offset", str(offset + len(part))))
                offset = acked
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            return upload_id, acked, False


async def _head_upload(host: str, port: int,
                       upload_id: str) -> Optional[dict]:
    """Durable progress after recovery; ``None`` when the session has no
    journal trace (a pre-create crash)."""
    async with ServeClient(host, port) as client:
        response = await client.request("HEAD", f"/uploads/{upload_id}")
        if response.status != 200:
            return None
        return {
            "offset": int(response.headers["x-lepton-upload-offset"]),
            "state": response.headers["x-lepton-upload-state"],
        }


async def _resume_upload(host: str, port: int, data: bytes,
                         part_size: int, upload_id: Optional[str],
                         max_resumes: int):
    async with ServeClient(host, port) as client:
        return await client.upload_file(
            data, part_size=part_size, upload_id=upload_id,
            max_resumes=max_resumes)


# -- the sweep -------------------------------------------------------------

def _payloads(seed: int, file_bytes: int,
              upload_bytes: int) -> Tuple[bytes, bytes]:
    """Deterministic workload bytes (seeded generator, no ambient entropy)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return bytes(rng.bytes(file_bytes)), bytes(rng.bytes(upload_bytes))


def run_live_chaos(points: Optional[Sequence[str]] = None, seed: int = 0,
                   file_bytes: int = 48_000, upload_bytes: int = 120_000,
                   part_size: int = 24_000, max_resumes: int = 8,
                   downtime_bound: float = 60.0,
                   base_dir: Optional[str] = None) -> ChaosReport:
    """Run the kill-and-recover sweep; returns the report.

    ``points`` defaults to every registered kill point (the full
    ``lepton chaos --live`` sweep); tests pass :data:`REDUCED_SWEEP`.
    Each point gets a fresh data directory and three server lives:

    1. **baseline** — unarmed boot, store file A, clean SIGTERM drain;
    2. **victim** — boot armed at the point, drive the workload (a
       streamed read of A for read points, a resumable upload B
       otherwise) into the SIGKILL;
    3. **recovery** — unarmed boot over the same directory (recovery
       runs before listen), then verify A byte-for-byte, demand every
       acked upload byte back, resume B to completion, and verify B.
    """
    sweep = tuple(points) if points is not None else KILL_POINTS
    for point in sweep:
        if point not in KILL_POINTS:
            raise ValueError(f"unknown kill point {point!r}")
    data_a, data_b = _payloads(seed, file_bytes, upload_bytes)
    outcome = {
        "wrong_bytes": 0,
        "lost_acked_bytes": 0,
        "reads_interrupted": 0,
        "uploads_interrupted": 0,
        "uploads_resumed": 0,
        "downtime_bounded": True,
        "retries_bounded": True,
    }
    kill_points: Dict[str, str] = {}
    root = base_dir or tempfile.mkdtemp(prefix="lepton-livechaos-")
    for point in sweep:
        point_dir = os.path.join(root, point.replace(".", "_"))
        os.makedirs(point_dir, exist_ok=True)
        kill_points[point] = _run_point(
            point, point_dir, data_a, data_b, part_size,
            max_resumes, downtime_bound, outcome,
        )
    fields = {
        "seed": seed,
        "workload": {
            "file_bytes": file_bytes,
            "upload_bytes": upload_bytes,
            "part_size": part_size,
            "downtime_bound": f"{downtime_bound:.1f}",
        },
        "kill_points": dict(sorted(kill_points.items())),
        "outcome": outcome,
    }
    return ChaosReport("live chaos report", fields, "survivable",
                       survivable(fields))


def survivable(fields: dict) -> bool:
    """The ``--live`` verdict: every point swept and survived, nothing
    wrong served, nothing acked lost, every interrupted upload resumed,
    and downtime and client retries bounded."""
    outcome = fields["outcome"]
    words = fields["kill_points"].values()
    return (bool(words)
            and all(word == "survived" for word in words)
            and outcome["wrong_bytes"] == 0
            and outcome["lost_acked_bytes"] == 0
            and outcome["uploads_resumed"] == outcome["uploads_interrupted"]
            and outcome["downtime_bounded"]
            and outcome["retries_bounded"])


def _run_point(point: str, data_dir: str, data_a: bytes, data_b: bytes,
               part_size: int, max_resumes: int, downtime_bound: float,
               outcome: dict) -> str:
    """Sweep one kill point; returns its outcome word and tallies the
    sweep's ``outcome`` counters."""
    servers = []
    try:
        # Life 1: baseline — durable file A, clean drain.
        baseline = _ServerProc(data_dir)
        servers.append(baseline)
        baseline.start()
        file_a = asyncio.run(
            _put_baseline(baseline.host, baseline.port, data_a))
        if baseline.sigterm() != 7:
            return "baseline_failed"

        # Life 2: the victim — armed at `point`, driven into the kill.
        victim = _ServerProc(data_dir, kill_point=point)
        servers.append(victim)
        victim.start()
        upload_id: Optional[str] = None
        acked = 0
        if point in READ_KILL_POINTS:
            body = asyncio.run(_read_fully(victim.host, victim.port, file_a))
            if body is not None:
                # The armed point never severed the read.
                victim.sigterm()
                return "not_killed"
            outcome["reads_interrupted"] += 1
        else:
            upload_id, acked, completed = asyncio.run(
                _upload_until_severed(victim.host, victim.port,
                                      data_b, part_size))
            if completed:
                victim.sigterm()
                return "not_killed"
            outcome["uploads_interrupted"] += 1
        code = victim.wait(timeout=30.0)
        if code != -signal.SIGKILL:
            victim.stop_hard()
            return "not_killed"

        # Life 3: recovery — downtime runs from confirmed death to the
        # ready line (recovery-before-listen is inside this window).
        down_started = time.monotonic()
        recovery = _ServerProc(data_dir)
        servers.append(recovery)
        try:
            recovery.start()
        except LiveChaosError:
            return "recovery_failed"
        downtime = time.monotonic() - down_started
        if downtime > downtime_bound:
            outcome["downtime_bounded"] = False
            return "downtime_exceeded"

        # Acked-byte durability + zero wrong bytes on the victim file.
        body = asyncio.run(_read_fully(recovery.host, recovery.port, file_a))
        if body != data_a:
            outcome["wrong_bytes"] += 1
            return "wrong_bytes"

        # The interrupted upload: nothing acked may be lost, and the
        # session must resume to completion under the resume budget.
        if point not in READ_KILL_POINTS:
            if upload_id is not None:
                progress = asyncio.run(
                    _head_upload(recovery.host, recovery.port, upload_id))
                if progress is None:
                    # The create ack was never durable — only legal when
                    # nothing after it was acked either.
                    if acked > 0:
                        outcome["lost_acked_bytes"] += acked
                        return "lost_acked_bytes"
                    upload_id = None
                else:
                    durable = (len(data_b)
                               if progress["state"] == "completed"
                               else progress["offset"])
                    if durable < acked:
                        outcome["lost_acked_bytes"] += acked - durable
                        return "lost_acked_bytes"
            try:
                final = asyncio.run(_resume_upload(
                    recovery.host, recovery.port, data_b, part_size,
                    upload_id, max_resumes))
            except UploadIncomplete:
                outcome["retries_bounded"] = False
                return "resume_failed"
            if (final.status not in (200, 201)
                    or final.headers.get("x-lepton-upload-state")
                    != "completed"):
                return "resume_failed"
            outcome["uploads_resumed"] += 1
            body_b = asyncio.run(_read_fully(
                recovery.host, recovery.port, final.json()["id"]))
            if body_b != data_b:
                outcome["wrong_bytes"] += 1
                return "wrong_bytes"
        recovery.sigterm()
        return "survived"
    finally:
        for server in servers:
            server.stop_hard()
