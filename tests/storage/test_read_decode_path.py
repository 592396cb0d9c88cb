"""Every store read decodes one way, with or without a deadline.

The put gate and every read call ``blockstore.decompress_chunk``, so a
read that carries a deadline records the same ``lepton.decompress.*``
telemetry (and the same benchmark span) as one that does not.
"""

import time

from repro.core.lepton import FORMAT_LEPTON, LeptonConfig
from repro.corpus.builder import corpus_jpeg
from repro.obs import get_registry
from repro.storage import blockstore
from repro.storage.blockstore import BlockStore


def _lepton_decodes() -> int:
    return get_registry().counter(
        "lepton.decompress.count", format=FORMAT_LEPTON).value


def test_reads_with_and_without_deadline_share_one_decode_path(monkeypatch):
    data = corpus_jpeg(seed=61, height=64, width=64)
    store = BlockStore(config=LeptonConfig(threads=2))
    (key,) = store.put_file("photo.jpg", data).chunk_keys
    assert store.entries[key].format == FORMAT_LEPTON

    calls = []
    decode = blockstore.decompress_chunk

    def counting(chunk, **kwargs):
        calls.append(kwargs.get("deadline"))
        return decode(chunk, **kwargs)

    monkeypatch.setattr(blockstore, "decompress_chunk", counting)

    before = _lepton_decodes()
    plain = store.get_chunk(key)
    assert _lepton_decodes() == before + 1

    deadline = time.monotonic() + 60
    with_deadline = store.get_chunk(key, deadline=deadline)
    assert _lepton_decodes() == before + 2

    assert plain == with_deadline == data
    assert calls == [None, deadline]
