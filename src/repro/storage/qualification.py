"""Pre-deployment qualification (§5.2, §5.7).

Before any Lepton version ships, it must compress and decompress a corpus
(a billion images in production, 4 billion for the first release) with
*both* the optimised build and the sanitising build, yielding identical
results — the fail-safe that caught the §6.1 reversed-index bug "after just
a few million images".  Here the two builds are :data:`BUILDS`: one decode
of the whole payload, and the same payload streamed in small pieces.  A
context-divergence bug between encoder and decoder, or a container-reader
bug that only shows on partial input, surfaces as exactly the kind of
mismatch the production harness hunted.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.lepton import (
    FORMAT_LEPTON,
    CompressionResult,
    LeptonConfig,
    compress,
    decompress,
    decompress_chunks,
)
from repro.corpus.builder import CorpusFile

#: Piece size of the streamed build: small and odd, so pieces split the
#: fixed header, the secondary header and the section headers, and every
#: partial-input state of ``ContainerReader`` is taken.
STREAM_PIECE_BYTES = 97


def decompress_streamed(payload: bytes) -> bytes:
    """Decode ``payload`` fed to :func:`decompress_chunks` piece by piece."""
    return b"".join(decompress_chunks(
        payload[i:i + STREAM_PIECE_BYTES]
        for i in range(0, len(payload), STREAM_PIECE_BYTES)
    ))


#: The two builds every release must agree on (§5.2, §5.7), in the
#: paper's order: the optimised (icc) build is the whole-payload decode,
#: the sanitising (gcc-asan) build the streamed one.
BUILDS = (decompress, decompress_streamed)


@dataclass
class QualificationFailure:
    """One file that failed qualification."""

    name: str
    reason: str


@dataclass
class QualificationReport:
    """Outcome of a qualification run."""

    build_id: str
    files_total: int = 0
    compressed: int = 0
    skipped: int = 0
    failures: List[QualificationFailure] = field(default_factory=list)
    determinism_checks: int = 0
    #: Static-analysis findings against the shipped tree (docs/lint.md);
    #: each also lands in ``failures`` as ``lint:<rule>``.
    lint_findings: int = 0

    @property
    def qualified(self) -> bool:
        """Zero mismatches between builds = eligible for deployment."""
        return not self.failures


def qualify_build(
    corpus: Sequence[CorpusFile],
    build_id: str = "candidate",
    config: Optional[LeptonConfig] = None,
    existing_payloads: Sequence[bytes] = (),
    compress_fn: Optional[Callable[[bytes], CompressionResult]] = None,
    decoders: Sequence[Callable[[bytes], bytes]] = BUILDS,
    lint_gate: bool = True,
) -> QualificationReport:
    """Run the qualification pipeline over ``corpus``.

    ``existing_payloads`` models the second gate: a candidate "must be able
    to decompress another billion images already compressed in the store"
    (§5.7) — format compatibility, the gate the §6.7 incident bypassed.

    ``lint_gate`` runs the static determinism/safety analysis of
    docs/lint.md over the installed ``repro`` tree first: a build that
    carries a D1–D6 finding is rejected before a single file is compressed,
    the same way the production harness refused to ship a build whose two
    compilations disagreed (§5.2).
    """
    config = config or LeptonConfig()
    compress_fn = compress_fn or (lambda data: compress(data, config))
    report = QualificationReport(build_id)
    if lint_gate:
        from repro.lint import check_shipped_tree

        for finding in check_shipped_tree():
            report.lint_findings += 1
            report.failures.append(
                QualificationFailure(
                    f"lint:{finding.rule}",
                    f"{finding.location()}: {finding.message}",
                )
            )
        if report.failures:
            # A build that fails static analysis never reaches the corpus.
            return report
    for item in corpus:
        report.files_total += 1
        result = compress_fn(item.data)
        if result.format != FORMAT_LEPTON:
            report.skipped += 1
            continue
        report.compressed += 1
        outputs = []
        for decoder in decoders:
            try:
                outputs.append(decoder(result.payload))
            except Exception as exc:
                report.failures.append(
                    QualificationFailure(item.name, f"decoder raised: {exc}")
                )
                outputs.append(None)
        report.determinism_checks += 1
        if any(out != item.data for out in outputs):
            report.failures.append(
                QualificationFailure(item.name, "build outputs differ from input")
            )
    for index, payload in enumerate(existing_payloads):
        try:
            decoders[0](payload)
        except Exception as exc:
            report.failures.append(
                QualificationFailure(f"stored_{index}", f"cannot decode stored file: {exc}")
            )
    return report
