"""Regression tests for the real violations the first lint runs of the
shipped tree surfaced: the D2–D5 batch from the original rule set (the D1
fixed-point regressions live next to the model tests in
tests/core/test_model.py), and the D7/D4 batch the dataflow pass found —
a sha256 of the whole upload body computed on the event loop in
`serve.app`, and two unlocked module-global writes inside the linter
itself.

Each test pins the *behavioural* fix, so a revert re-fails here even
before the static pass catches the pattern again.
"""

import signal
import threading
from pathlib import Path

import pytest

import repro.cli as cli
import repro.core.chunks as chunks_mod
from repro.core.errors import ExitCode, FormatError
from repro.core.lepton import LeptonConfig, compress
from repro.corpus.builder import corpus_jpeg
from repro.obs import EXIT_STATUS, SIGNAL_EXIT_CODES, exit_code_for_signal
from repro.storage.backfill import BackfillWorker, Metaserver, UserFile
from repro.storage.blockserver import Job
from repro.storage.safety import ShutoffSwitch


class TestD4JobIdAllocator:
    """blockserver: job ids now come from a lock-guarded allocator."""

    def test_concurrent_jobs_get_unique_ids(self):
        ids = []
        ids_lock = threading.Lock()

        def spawn():
            batch = [Job("other", 1.0, 1, 0.0).job_id for _ in range(200)]
            with ids_lock:
                ids.extend(batch)

        threads = [threading.Thread(target=spawn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(ids) == len(set(ids)) == 1600

    def test_ids_monotone_within_a_thread(self):
        first = Job("other", 1.0, 1, 0.0).job_id
        second = Job("other", 1.0, 1, 0.0).job_id
        assert second > first


class TestExitCodeProduction:
    """§6.2: the operational codes are actually produced, not just pinned."""

    def test_signal_map_covers_the_fleet_deaths(self):
        assert SIGNAL_EXIT_CODES[int(signal.SIGTERM)] is ExitCode.SERVER_SHUTDOWN
        assert SIGNAL_EXIT_CODES[int(signal.SIGABRT)] is ExitCode.ABORT_SIGNAL
        assert SIGNAL_EXIT_CODES[int(signal.SIGKILL)] is ExitCode.OOM_KILL
        assert SIGNAL_EXIT_CODES[int(signal.SIGINT)] is ExitCode.OPERATOR_INTERRUPT

    def test_unknown_signal_counts_as_abort(self):
        assert exit_code_for_signal(int(signal.SIGSEGV)) is ExitCode.ABORT_SIGNAL

    def test_cli_maps_ctrl_c_to_operator_interrupt(self, monkeypatch, capsys):
        def interrupted(args, config):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dispatch", interrupted)
        status = cli.main(["verify", "-"])
        capsys.readouterr()
        assert status == EXIT_STATUS[ExitCode.OPERATOR_INTERRUPT] == 15

    def test_cli_maps_memory_error_to_oom_kill(self, monkeypatch, capsys):
        def oom(args, config):
            raise MemoryError

        monkeypatch.setattr(cli, "_dispatch", oom)
        status = cli.main(["verify", "-"])
        capsys.readouterr()
        assert status == EXIT_STATUS[ExitCode.OOM_KILL] == 14

    def test_internal_invariant_breakage_is_impossible_bucket(self, monkeypatch):
        def broken_write(lepton):
            raise FormatError("container writer invariant violated")

        monkeypatch.setattr(chunks_mod, "write_container", broken_write)
        result = compress(corpus_jpeg(seed=3, height=32, width=32))
        assert result.exit_code is ExitCode.IMPOSSIBLE
        assert "FormatError" in result.detail
        assert result.format == "deflate"  # the fallback still stores bytes


class TestBackfillShutoffDrain:
    """§5.7: a worker seeing the kill file drains instead of converting."""

    def make_worker(self, shutoff):
        users = {1: [UserFile("cat.jpg", corpus_jpeg(seed=5, height=32, width=32))]}
        meta = Metaserver(users, n_shards=1)
        uploads = {}
        worker = BackfillWorker(meta, uploads.__setitem__, LeptonConfig(),
                                shutoff=shutoff)
        return worker, uploads

    def test_engaged_shutoff_drains_the_shard(self, tmp_path):
        shutoff = ShutoffSwitch(directory=str(tmp_path))
        shutoff.engage()
        worker, uploads = self.make_worker(shutoff)
        worker.process_shard(0)
        assert uploads == {}
        assert worker.stats.chunks_processed == 0
        assert worker.stats.exit_codes == {ExitCode.SERVER_SHUTDOWN: 1}

    def test_released_shutoff_processes_normally(self, tmp_path):
        shutoff = ShutoffSwitch(directory=str(tmp_path))
        worker, uploads = self.make_worker(shutoff)
        worker.process_shard(0)
        assert worker.stats.chunks_processed == 1
        assert len(uploads) == 1
        assert ExitCode.SERVER_SHUTDOWN not in worker.stats.exit_codes


class TestD7ContentHashOffTheEventLoop:
    """serve.app: hashing the whole PUT body ran inline in the handler —
    CPU time proportional to the upload, serialising every connection.
    The dataflow pass (D7) flagged it; the digest now runs on the
    executor next to the codec."""

    def app_source(self):
        import repro.serve.app as app_mod
        return Path(app_mod.__file__).read_text()

    def test_shipped_handler_has_no_blocking_findings(self):
        from repro.lint import run_lint
        import repro.serve.app as app_mod
        findings = run_lint([Path(app_mod.__file__)])
        assert [f for f in findings if f.rule == "D7"] == []

    def test_reverting_to_an_inline_digest_refails_d7(self):
        """Put the old line back and the rule must fire again — proof the
        pass actually guards this site rather than happening to be quiet."""
        from repro.lint import lint_source
        source = self.app_source()
        fixed = ("file_id = await self._offload(\n"
                 "            lambda: hashlib.sha256(data).hexdigest())")
        assert fixed in source
        reverted = source.replace(
            fixed, "file_id = hashlib.sha256(data).hexdigest()")
        findings = [f for f in lint_source(reverted, module="repro.serve.app",
                                           in_package=True)
                    if f.rule == "D7"]
        assert any("sha256" in f.message for f in findings)

    def test_put_still_content_addresses_by_sha256(self):
        """The behavioural half: moving the digest onto the executor must
        not have changed *what* it computes — ids are still the body's
        sha256, so dedupe and GET-by-id survive the refactor."""
        import asyncio
        import hashlib

        from repro.serve.app import LeptonServer, ServeConfig
        from repro.serve.client import ServeClient
        from repro.corpus.builder import corpus_jpeg

        body = corpus_jpeg(seed=11, height=32, width=32)

        async def scenario():
            server = LeptonServer(ServeConfig(chunk_size=4096))
            await server.start()
            try:
                async with ServeClient(server.config.host,
                                       server.port) as client:
                    put = await client.put_file(body)
                    assert put.status == 201, put.body
                    return put.json()["id"]
            finally:
                await server.drain()

        assert asyncio.run(scenario()) == hashlib.sha256(body).hexdigest()


class TestD4LinterGlobalsAreLockGuarded:
    """repro.lint: the rule-set digest memo and the rule registry are
    module-level shared state; the first self-run of D4 over the linter's
    own tree flagged both writes as unlocked."""

    def test_ruleset_version_is_stable_under_concurrency(self):
        import repro.lint.cache as cache_mod
        with cache_mod._ruleset_lock:
            cache_mod._ruleset_memo.clear()
        out = []
        out_lock = threading.Lock()

        def probe():
            version = cache_mod.ruleset_version()
            with out_lock:
                out.append(version)

        threads = [threading.Thread(target=probe) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(out)) == 1 and len(out[0]) == 16

    def test_linter_tree_passes_its_own_lock_rule(self):
        import repro.lint as lint_pkg
        from repro.lint import run_lint
        findings = run_lint([Path(lint_pkg.__file__).parent])
        assert [f for f in findings if f.rule in ("D4", "D9", "D10")] == []
