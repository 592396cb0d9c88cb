"""Safety mechanisms, qualification, deployment anomalies, sandbox."""

import zlib

import pytest

from repro.core.format import ContainerReader
from repro.core.lepton import LeptonConfig, compress
from repro.corpus.builder import build_corpus, corpus_jpeg
from repro.storage.deployment import (
    Build,
    BuildRegistry,
    IncidentReport,
    remediation_scan,
    simulate_rollback_incident,
)
from repro.storage.qualification import qualify_build
from repro.storage.safety import AlertPipeline, ShutoffSwitch
from repro.storage.sandbox import (
    ALLOWED_OPERATIONS,
    Sandbox,
    SandboxedLepton,
    SandboxViolation,
)


class TestShutoffSwitch:
    def test_engage_release(self, tmp_path):
        switch = ShutoffSwitch(str(tmp_path))
        assert not switch.engaged
        switch.engage()
        assert switch.engaged
        switch.release()
        assert not switch.engaged

    def test_release_idempotent(self, tmp_path):
        ShutoffSwitch(str(tmp_path)).release()  # no file: no error

    def test_encoders_respect_switch(self, tmp_path):
        """The §6.5 mitigation: compression stops when the switch is set."""
        switch = ShutoffSwitch(str(tmp_path))
        switch.engage()
        data = corpus_jpeg(seed=80, height=48, width=48)
        performed = [] if switch.engaged else [compress(data)]
        assert performed == []


class TestAlertPipeline:
    def test_healthy_chunk_auto_clears(self):
        data = corpus_jpeg(seed=81, height=48, width=48)
        payload = compress(data, LeptonConfig(threads=1)).payload
        pipeline = AlertPipeline()
        pipeline.report_timeout("c1", payload)
        pages = pipeline.drain_timeout_queue()
        assert pages == []
        assert pipeline.auto_cleared == 1
        assert not pipeline.timeout_queue

    def test_corrupt_chunk_pages_a_human(self):
        bad_deflate = bytearray(zlib.compress(b"stored as Deflate " * 20))
        bad_deflate[-1] ^= 0xFF  # breaks the Adler-32 trailer
        pipeline = AlertPipeline()
        pipeline.report_timeout("bad", b"\xCF\x84 definitely not valid")
        pipeline.report_timeout("bad_deflate", bytes(bad_deflate))
        pages = pipeline.drain_timeout_queue()
        assert [p.kind for p in pages] == ["decode_failure"] * 2
        assert "bad" in pipeline.quarantine  # evidence preserved
        assert "bad_deflate" in pipeline.quarantine

    def test_manual_page(self):
        pipeline = AlertPipeline()
        pipeline.page("assert_failed", "sanitising build only")
        assert pipeline.pages[0].kind == "assert_failed"


class TestTriageEdges:
    """The triage queue's awkward corners: empty drains, duplicate
    reports, re-checks that themselves misbehave."""

    def test_empty_queue_drains_to_nothing(self):
        pipeline = AlertPipeline()
        assert pipeline.drain_timeout_queue() == []
        assert pipeline.auto_cleared == 0

    def test_duplicate_reports_triage_once(self):
        data = corpus_jpeg(seed=82, height=48, width=48)
        payload = compress(data, LeptonConfig(threads=1)).payload
        pipeline = AlertPipeline()
        pipeline.report_timeout("dup", payload)
        pipeline.report_timeout("dup", payload)  # paged twice, one chunk
        assert pipeline.drain_timeout_queue() == []
        assert pipeline.auto_cleared == 1
        assert "dup" not in pipeline.quarantine

    def test_recheck_that_times_out_pages_and_keeps_evidence(self):
        """A chunk that still times out on healthy isolated hardware is a
        real problem: page, record TIMEOUT, keep the quarantined bytes."""
        from repro.core.errors import ExitCode, TimeoutExceeded
        from repro.obs import MetricsRegistry

        def stuck(_payload):
            raise TimeoutExceeded("decode exceeded 5.0s on recheck host")

        registry = MetricsRegistry()
        pipeline = AlertPipeline(registry=registry)
        pipeline.report_timeout("slow", b"payload under test")
        pages = pipeline.drain_timeout_queue(decoders=[stuck])
        assert [p.kind for p in pages] == ["decode_timeout"]
        assert "slow" in pipeline.quarantine
        assert registry.counter("safety.triage.exit_codes",
                                code=ExitCode.TIMEOUT.value).value == 1

    def test_nondeterministic_decoders_hit_the_impossible_bucket(self):
        """Decoders that disagree broke the determinism invariant itself —
        the §6.2 'impossible' exit code, not a decode failure."""
        from repro.core.errors import ExitCode
        from repro.obs import MetricsRegistry

        outputs = iter(b"%d" % i for i in range(100))

        registry = MetricsRegistry()
        pipeline = AlertPipeline(registry=registry)
        pipeline.report_timeout("flaky", b"payload under test")
        pages = pipeline.drain_timeout_queue(
            decoders=[lambda _p: next(outputs)])
        assert [p.kind for p in pages] == ["impossible"]
        assert "distinct outputs" in pages[0].detail
        assert "flaky" in pipeline.quarantine
        assert registry.counter("safety.triage.exit_codes",
                                code=ExitCode.IMPOSSIBLE.value).value == 1

    def test_harness_errors_propagate(self):
        """A broken recheck harness must crash the triage job, not be
        recorded as a decode failure.  A raw ``zlib.error`` is such a
        harness error too: every decode entry point maps zlib failures to
        ``FormatError``."""
        for error in (OSError("recheck cluster unreachable"),
                      zlib.error("inflate called outside the codec")):
            pipeline = AlertPipeline()
            pipeline.report_timeout("x", b"payload")

            def broken(_payload, error=error):
                raise error

            with pytest.raises(type(error)):
                pipeline.drain_timeout_queue(decoders=[broken])
            assert pipeline.pages == []


class TestQualification:
    def test_clean_corpus_qualifies(self):
        corpus = build_corpus(n_jpegs=4, seed=82)
        report = qualify_build(corpus, "v2", LeptonConfig(threads=2))
        assert report.qualified
        assert report.compressed >= 4
        assert report.skipped >= 1  # the reject categories

    def test_detects_divergent_decoder(self):
        """A build whose two decoders disagree must fail qualification —
        this is the harness that caught §6.1's reversed indices."""
        corpus = build_corpus(n_jpegs=2, seed=83, include_rejects=False)
        from repro.core.lepton import decompress

        evil = [
            lambda p: decompress(p),
            lambda p: decompress(p)[:-1] + b"\x00",  # sanitiser disagrees
        ]
        report = qualify_build(corpus, "broken", decoders=evil)
        assert not report.qualified

    def test_streamed_build_feeds_the_reader_in_pieces(self, monkeypatch):
        """The two builds take different paths through the container
        reader: one feeds it the whole payload, the other small pieces."""
        corpus = build_corpus(n_jpegs=1, seed=85, include_rejects=False)
        feeds = []
        real_feed = ContainerReader.feed

        def counting_feed(reader, data):
            feeds.append(len(data))
            return real_feed(reader, data)

        monkeypatch.setattr(ContainerReader, "feed", counting_feed)
        report = qualify_build(corpus, "pieces", lint_gate=False)
        assert report.qualified and report.compressed == 1
        assert len(feeds) > 2

    def test_detects_undecodable_stored_files(self):
        corpus = build_corpus(n_jpegs=1, seed=84, include_rejects=False)
        report = qualify_build(corpus, "v3",
                               existing_payloads=[b"\xCF\x84 garbage"])
        assert not report.qualified


class TestDeployment:
    def _registry(self):
        registry = BuildRegistry()
        registry.qualify(Build("aaaa0000", format_version=0))
        registry.qualify(Build("bbbb1111", format_version=1))
        registry.qualify(Build("cccc2222", format_version=2))
        return registry

    def test_blank_hash_deploys_stale_default(self):
        """The §6.7 trap: the tool's default is the *first* qualified
        build, not the latest."""
        registry = self._registry()
        assert registry.deploy().build_hash == "aaaa0000"
        assert registry.latest().build_hash == "cccc2222"

    def test_old_build_rejects_new_format(self):
        old = Build("old", format_version=0)
        assert not old.can_decode(2)

    def test_new_build_reads_older_formats(self):
        new = Build("new", format_version=2)
        assert new.can_decode(0)
        assert new.can_decode(1)
        assert not new.can_decode(3)

    def test_incident_availability_drop(self):
        registry = self._registry()
        report = simulate_rollback_incident(registry, seed=5)
        assert 0.95 < report.availability < 1.0  # ≈99.7% in the paper
        assert report.failed_decodes > 0
        assert report.files_needing_reencode >= 1

    def test_reencode_count_is_the_true_cross_failure_count(self):
        """files_needing_reencode is exactly the cross-server failure
        count — not clamped to a minimum of one."""
        registry = self._registry()
        report = simulate_rollback_incident(registry, seed=5)
        assert report.files_needing_reencode == report.cross_server_failures

    def test_reencode_count_can_be_zero(self):
        registry = self._registry()
        report = simulate_rollback_incident(registry, strict_reject_rate=0.0,
                                            seed=5)
        assert report.cross_server_failures == 0
        assert report.files_needing_reencode == 0

    def test_remediation_scan_counts(self):
        scanned, reencoded = remediation_scan([2, 2, 2, 0, 2, 1], 2)
        assert scanned == 6
        assert reencoded == 2

    def test_unknown_hash_rejected(self):
        with pytest.raises(KeyError):
            BuildRegistry().deploy("nope")

    def test_real_container_version_gate(self):
        """End to end with real bytes: a patched container version is
        rejected exactly as §6.7 describes."""
        from repro.core.errors import VersionError
        from repro.core.lepton import decompress

        data = corpus_jpeg(seed=85, height=48, width=48)
        payload = bytearray(compress(data, LeptonConfig(threads=1)).payload)
        payload[2] = 7  # future format version
        with pytest.raises(VersionError):
            decompress(bytes(payload))


class TestSandbox:
    def test_allowed_operations_match_seccomp(self):
        assert ALLOWED_OPERATIONS == {"read", "write", "exit", "sigreturn"}

    def test_privileged_ops_fine_before_seal(self):
        box = Sandbox()
        box.check("mmap")
        box.check("open")

    def test_sealed_box_rejects_privileged_ops(self):
        box = Sandbox()
        box.seal()
        with pytest.raises(SandboxViolation):
            box.check("open")
        assert box.violations == ["open"]

    def test_sealed_box_allows_read_write(self):
        box = Sandbox()
        box.seal()
        box.check("read")
        box.check("write")
        box.check("exit")

    def test_sandboxed_lepton_compresses_after_seal(self):
        worker = SandboxedLepton(LeptonConfig(threads=1))
        assert worker.sandbox.sealed
        data = corpus_jpeg(seed=86, height=48, width=48)
        result = worker.compress(data)
        assert result.ok
        assert worker.decompress(result.payload) == data

    def test_sandboxed_lepton_cannot_allocate(self):
        worker = SandboxedLepton()
        with pytest.raises(SandboxViolation):
            worker.allocate(1024)
