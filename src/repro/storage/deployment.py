"""Build registry and the §6.7 accidental-rollback anomaly.

Lepton's file format evolved; old qualified builds cannot decode new files,
and new strict decoders reject some old encoders' output.  Production kept
*every* historically qualified build eligible for deployment, and the
deployment tool's hash field defaulted to the *first* qualified build —
so a blank field silently deployed an incompatible version.  This module
models the registry, the deploy tool (default pitfall included), and the
resulting availability incident, plus the remediation scan.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Build:
    """A Lepton build: its hash and the container version it speaks."""

    build_hash: str
    format_version: int
    qualified: bool = True

    def can_decode(self, payload_version: int) -> bool:
        """Old decoders cannot read newer formats (§6.7).

        The reverse problem — new, *stricter* decoders rejecting a small
        fraction of old encoders' output — is per-file, not per-version,
        and is modelled by ``strict_reject_rate`` in the incident
        simulation.
        """
        return payload_version <= self.format_version


@dataclass
class BuildRegistry:
    """Historically qualified builds, all eternally deployable (the bug)."""

    builds: Dict[str, Build] = field(default_factory=dict)
    #: The deploy tool's internal default: "set when Lepton was first
    #: deployed and never updated" (§6.7).
    default_hash: Optional[str] = None

    def qualify(self, build: Build) -> None:
        self.builds[build.build_hash] = build
        if self.default_hash is None:
            self.default_hash = build.build_hash

    def deploy(self, build_hash: Optional[str] = None) -> Build:
        """Deploy by hash; a blank field falls back to the stale default."""
        chosen = build_hash or self.default_hash
        if chosen is None or chosen not in self.builds:
            raise KeyError(f"no qualified build {chosen!r}")
        build = self.builds[chosen]
        if not build.qualified:
            raise ValueError(f"build {chosen} is not qualified")
        return build

    def latest(self) -> Build:
        return max(self.builds.values(), key=lambda b: b.format_version)


@dataclass
class IncidentReport:
    """Measured impact of the December 12 deployment mistake."""

    availability: float
    failed_decodes: int
    total_decodes: int
    cross_server_failures: int
    files_written_by_old_build: int
    files_needing_reencode: int
    hours_to_disable: float = 2.0


def simulate_rollback_incident(
    registry: BuildRegistry,
    affected_fraction: float = 0.25,
    uploads_during_incident: int = 200_000,
    downloads_during_incident: int = 400_000,
    new_feature_fraction: float = 0.012,
    strict_reject_rate: float = 1e-4,
    seed: int = 0,
) -> IncidentReport:
    """Replay §6.7: some blockservers get the oldest build via the default.

    Two failure modes interact:

    * the old build cannot decode recently written files that use "minor
      additions to the format" — availability drops to ~99.7%;
    * files *written* by blockservers running the old build are sometimes
      rejected by the strict decoders on healthy servers (18 files needed
      re-encoding in the paper).
    """
    rng = np.random.default_rng(seed)
    old = registry.deploy()  # the blank-field default: the first build
    new = registry.latest()
    failed = 0
    for _ in range(downloads_during_incident):
        on_old_server = rng.random() < affected_fraction
        uses_new_features = rng.random() < new_feature_fraction
        payload_version = new.format_version if uses_new_features else old.format_version
        build = old if on_old_server else new
        if not build.can_decode(payload_version):
            failed += 1
    old_written = int(uploads_during_incident * affected_fraction)
    # Cross-server failures: strict new decoders rejecting old output.
    cross_failures = int(rng.binomial(old_written, strict_reject_rate))
    availability = 1.0 - failed / max(downloads_during_incident, 1)
    return IncidentReport(
        availability=availability,
        failed_decodes=failed,
        total_decodes=downloads_during_incident,
        cross_server_failures=cross_failures,
        files_written_by_old_build=old_written,
        # Every cross-server failure is a file the remediation scan must
        # re-encode — no more, no less; zero is a legitimate outcome.
        files_needing_reencode=cross_failures,
    )


def remediation_scan(files_versions: List[int], current_version: int) -> Tuple[int, int]:
    """Post-incident scan: decode everything, re-encode what's stale.

    Returns ``(scanned, reencoded)`` — the paper scanned billions and
    ultimately re-encoded 18 files.
    """
    scanned = len(files_versions)
    reencoded = sum(1 for v in files_versions if v != current_version)
    return scanned, reencoded
