"""Remaining behaviours: sandbox context manager, safety constants, store files."""

import pytest

from repro.core.lepton import LeptonConfig
from repro.corpus.builder import corpus_jpeg
from repro.storage.blockstore import BlockStore
from repro.storage.safety import (
    CONFIG_DEPLOY_SECONDS,
    SHUTOFF_PROPAGATION_SECONDS,
)
from repro.storage.sandbox import Sandbox, SandboxViolation


class TestSandboxContextManager:
    def test_privileged_block_before_seal(self):
        box = Sandbox()
        with box.privileged("open"):
            pass  # fine: not sealed yet

    def test_privileged_block_after_seal_raises(self):
        box = Sandbox()
        box.seal()
        with pytest.raises(SandboxViolation):
            with box.privileged("open"):
                pass

    def test_violations_accumulate(self):
        box = Sandbox()
        box.seal()
        for op in ("open", "fork", "mmap"):
            with pytest.raises(SandboxViolation):
                box.check(op)
        assert box.violations == ["open", "fork", "mmap"]


class TestSafetyConstants:
    def test_shutoff_faster_than_config_deploy(self):
        """§5.7: the kill switch beats a config rollout by two orders."""
        assert SHUTOFF_PROPAGATION_SECONDS * 10 < CONFIG_DEPLOY_SECONDS[0]


class TestBlockStoreFiles:
    def test_multiple_files_tracked_separately(self):
        store = BlockStore(chunk_size=1 << 20, config=LeptonConfig(threads=1))
        a = corpus_jpeg(seed=700, height=48, width=48)
        b = corpus_jpeg(seed=701, height=48, width=48)
        store.put_file("a.jpg", a)
        store.put_file("b.jpg", b)
        assert store.get_file("a.jpg") == a
        assert store.get_file("b.jpg") == b
        assert len(store.files) == 2

    def test_reupload_overwrites_record(self):
        store = BlockStore(chunk_size=1 << 20, config=LeptonConfig(threads=1))
        a = corpus_jpeg(seed=702, height=48, width=48)
        b = corpus_jpeg(seed=703, height=48, width=48)
        store.put_file("x.jpg", a)
        store.put_file("x.jpg", b)
        assert store.get_file("x.jpg") == b

    def test_stored_bytes_below_input_for_jpegs(self):
        store = BlockStore(chunk_size=1 << 20, config=LeptonConfig(threads=1))
        data = corpus_jpeg(seed=704, height=128, width=128)
        store.put_file("big.jpg", data)
        assert store.stored_bytes < len(data)
