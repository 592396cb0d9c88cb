"""Safety mechanisms (§5.7): shutoff switch and alert pipeline.

Production kept several independent controls: a sub-30-second kill switch
in /dev/shm, a temporary S3 "safety net" holding Deflate copies of every
Lepton upload, admission-time round-trip checks, and an automated triage
queue for decodes that exceed their timeout (§6.6).  The kill switch and
the triage queue live here.  The safety net is the block store's kept
originals (``BlockStore.keep_originals``), which its reads fall back to,
and the round-trip check is its admission gate (repro.storage.blockstore).
"""

import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.errors import ExitCode, LeptonError, TimeoutExceeded
from repro.obs import ExitCodeSink, MetricsRegistry, get_registry
from repro.storage.qualification import BUILDS

#: Config-file deployment takes 15–45 minutes; the shutoff file propagates
#: in ~30 seconds (§5.7).
CONFIG_DEPLOY_SECONDS = (15 * 60, 45 * 60)
SHUTOFF_PROPAGATION_SECONDS = 30.0


class ShutoffSwitch:
    """The /dev/shm kill switch: a file whose presence disables encoding."""

    def __init__(self, directory: Optional[str] = None,
                 name: str = "lepton_shutoff"):
        self._dir = directory or tempfile.gettempdir()
        self._path = os.path.join(self._dir, name)

    @property
    def path(self) -> str:
        return self._path

    def engage(self) -> None:
        """Place the shutoff file (the on-call playbook's first action)."""
        with open(self._path, "w") as handle:
            handle.write("lepton disabled\n")

    def release(self) -> None:
        if os.path.exists(self._path):
            os.remove(self._path)

    @property
    def engaged(self) -> bool:
        """Checked by every encoder before compressing a new chunk."""
        return os.path.exists(self._path)


@dataclass
class Alert:
    """A page sent to the on-call engineer."""

    kind: str
    detail: str
    payload_key: Optional[str] = None


@dataclass
class AlertPipeline:
    """Round-trip/timeout triage with automated re-checks (§6.6, §5.7).

    A decode that exceeds its timeout is *not* paged immediately: thousands
    of servers always include some that are swapping or overheating.  The
    chunk is queued and re-decoded three times on an isolated healthy
    cluster with both builds; only a real failure pages a human.
    """

    pages: List[Alert] = field(default_factory=list)
    timeout_queue: List[str] = field(default_factory=list)
    quarantine: Dict[str, bytes] = field(default_factory=dict)
    auto_cleared: int = 0
    #: Telemetry sink for triage outcomes (``safety.triage.exit_codes``);
    #: defaults to the global registry.
    registry: Optional[MetricsRegistry] = None

    def report_timeout(self, key: str, payload: bytes) -> None:
        self.timeout_queue.append(key)
        self.quarantine[key] = payload

    def drain_timeout_queue(
        self,
        decoders: Sequence[Callable[[bytes], bytes]] = BUILDS,
        attempts: int = 3,
    ) -> List[Alert]:
        """Re-decode each queued chunk ``attempts`` times with each build.

        Outcomes are typed, not lumped together:

        * decoders agree on one output → auto-cleared, quarantine released;
        * still timing out on healthy isolated hardware → ``decode_timeout``
          page (the machine was fine; the chunk is the problem);
        * a codec/container error → ``decode_failure`` page;
        * decoders *disagree* → the §6.2 "impossible" bucket: the
          determinism invariant itself broke.  Recorded under
          :attr:`~repro.core.errors.ExitCode.IMPOSSIBLE` in
          ``safety.triage.exit_codes`` and paged as ``impossible``.

        Anything else propagates — a broken test harness should crash the
        triage job, not masquerade as a decode failure.
        """
        sink = ExitCodeSink(
            self.registry if self.registry is not None else get_registry(),
            metric="safety.triage.exit_codes",
        )
        # Deduplicate while preserving order: a chunk reported twice is
        # still a single triage item.
        pending: List[str] = []
        for key in self.timeout_queue:
            if key not in pending:
                pending.append(key)
        self.timeout_queue.clear()
        new_pages: List[Alert] = []
        for key in pending:
            payload = self.quarantine[key]
            outputs = set()
            alert: Optional[Alert] = None
            try:
                for decoder in decoders:
                    for _ in range(attempts):
                        outputs.add(decoder(payload))
            except TimeoutExceeded as exc:
                sink.record(ExitCode.TIMEOUT)
                alert = Alert("decode_timeout", str(exc), key)
            except LeptonError as exc:
                alert = Alert("decode_failure", str(exc), key)
            else:
                if len(outputs) != 1:
                    sink.record(ExitCode.IMPOSSIBLE)
                    alert = Alert(
                        "impossible",
                        f"{len(outputs)} distinct outputs across "
                        f"{len(decoders)} decoders x {attempts} attempts",
                        key,
                    )
                else:
                    self.auto_cleared += 1
                    del self.quarantine[key]
            if alert is not None:
                self.pages.append(alert)
                new_pages.append(alert)
        return new_pages

    def page(self, kind: str, detail: str) -> Alert:
        alert = Alert(kind, detail)
        self.pages.append(alert)
        return alert
