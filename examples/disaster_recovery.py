"""The §5.7 disaster-recovery drill, replayed.

"Before enabling Lepton, the team did a mock disaster recovery training
(DRT) session where a file in a test account was intentionally corrupted
and recovered from the safety net."  This example runs the whole drill:
upload with the safety net double-write, corrupt the stored payload,
watch the integrity check catch it, recover from the net, and page the
on-call through the alert pipeline.

Run:  python examples/disaster_recovery.py
"""

from repro.core.lepton import LeptonConfig
from repro.corpus.builder import corpus_jpeg
from repro.storage.blockstore import BlockStore, IntegrityError
from repro.storage.safety import AlertPipeline, SafetyNet


def main() -> None:
    store = BlockStore(chunk_size=1 << 20, config=LeptonConfig(threads=2))
    net = SafetyNet()
    pipeline = AlertPipeline()

    # 1. A test-account upload, double-written to the safety net (§5.7).
    original = corpus_jpeg(seed=404, height=128, width=128, quality=88)
    record = store.put_file("test-account/drt.jpg", original)
    net.put("test-account/drt.jpg", original)
    print(f"uploaded {len(original)} bytes as {len(record.chunk_keys)} chunk(s), "
          "safety-net copy written")

    # 2. Intentional corruption of the stored Lepton payload, at rest:
    #    flip a byte mid-payload (the payload is the tail of its blob).
    key = record.chunk_keys[0]
    blob_key = f"chunk/{key}"
    damaged = bytearray(store.backend.read(blob_key))
    damaged[-(store.entries[key].stored_size // 2)] ^= 0xFF
    store.backend.write(blob_key, bytes(damaged))
    print("stored payload intentionally corrupted")

    # 3. A download trips the integrity check — loudly, not silently.
    try:
        store.get_chunk(key)
        raise AssertionError("corruption must not decode cleanly")
    except IntegrityError as exc:
        print(f"integrity check fired: {exc}")
        pipeline.page("integrity_failure", str(exc))

    # 4. Recovery from the safety net, then re-admission.
    recovered = net.recover("test-account/drt.jpg")
    assert recovered == original
    store.entries.pop(key)
    store.put_file("test-account/drt.jpg", recovered)
    assert store.get_file("test-account/drt.jpg") == original
    print("recovered from the safety net and re-admitted — drill passed ✓")
    print(f"on-call pages during the drill: {len(pipeline.pages)}")
    print('\n(§6.5\'s irony applies: in production "a system we designed as '
          "a belt-and-suspenders safety net ended up causing our users "
          'trouble, but has never helped to resolve an actual problem")')


if __name__ == "__main__":
    main()
