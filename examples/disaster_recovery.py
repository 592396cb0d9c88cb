"""The §5.7 disaster-recovery drill, replayed.

"Before enabling Lepton, the team did a mock disaster recovery training
(DRT) session where a file in a test account was intentionally corrupted
and recovered from the safety net."  Here the safety net is the store's
kept originals: every put also writes a Deflate copy of each chunk's
original bytes, and a read whose Lepton payload fails its digest gates
serves that copy instead.  This example runs the whole drill: upload,
corrupt the stored payload, read the file back from its kept original,
page the on-call through the alert pipeline, let a scrub pass find the
chunk with no intact copy, and re-admit the file.

Run:  python examples/disaster_recovery.py
"""

from repro.core.lepton import LeptonConfig
from repro.corpus.builder import corpus_jpeg
from repro.storage.blockstore import BlockStore
from repro.storage.safety import AlertPipeline
from repro.storage.scrub import Scrubber


def main() -> None:
    store = BlockStore(chunk_size=1 << 20, config=LeptonConfig(threads=2),
                       keep_originals=True)
    pipeline = AlertPipeline()
    name = "test-account/drt.jpg"

    # 1. A test-account upload; the store keeps its original (§5.7).
    original = corpus_jpeg(seed=404, height=128, width=128, quality=88)
    record = store.put_file(name, original)
    print(f"uploaded {len(original)} bytes as {len(record.chunk_keys)} chunk(s), "
          "original kept")

    # 2. Intentional corruption of the stored Lepton payload, at rest:
    #    flip a byte mid-payload (the payload is the tail of its blob).
    key = record.chunk_keys[0]
    blob_key = f"chunk/{key}"
    damaged = bytearray(store.backend.read(blob_key))
    damaged[-(store.entries[key].stored_size // 2)] ^= 0xFF
    store.backend.write(blob_key, bytes(damaged))
    print("stored payload intentionally corrupted")

    # 3. A download fails the payload's md5 gate and is served from the
    #    kept original: the right bytes, and a counted fallback to page on.
    recovered = store.get_file(name)
    assert recovered == original
    assert store.degraded_fallbacks == 1
    print("integrity check fired: the file was served from its kept original")
    pipeline.page("degraded_read",
                  f"chunk {key[:12]} served from its kept original")

    # 4. Re-admission: a scrub pass finds no intact copy of the chunk and
    #    marks its entry damaged, so putting the recovered bytes again
    #    encodes, verifies and writes the chunk anew.
    assert Scrubber(store).run_once().unrepairable == 1
    store.put_file(name, recovered)
    assert store.get_file(name) == original
    assert store.degraded_fallbacks == 1  # served from Lepton again
    print("re-admitted from the kept original — drill passed ✓")
    print(f"on-call pages during the drill: {len(pipeline.pages)}")


if __name__ == "__main__":
    main()
