"""A miniature Dropbox-style photo store, end to end.

Files are split into chunks, each chunk independently Lepton-compressed,
round-trip-verified before admission (§5.7), stored content-addressed, and
served back byte-exactly — including the non-JPEG files that fall back to
Deflate, the kept originals a rotten chunk is served from (§5.7's safety
net), and the kill switch the on-call engineer can throw.

Run:  python examples/photo_storage_service.py
"""

import tempfile

from repro.core.lepton import LeptonConfig
from repro.corpus.builder import corpus_jpeg
from repro.corpus.corruptions import make_progressive
from repro.storage.blockstore import BlockStore
from repro.storage.safety import ShutoffSwitch


def main() -> None:
    # The kill switch is a file in a directory every blockserver
    # watches; this run makes its own and removes it afterwards.
    with tempfile.TemporaryDirectory() as switch_dir:
        tour(ShutoffSwitch(switch_dir))


def tour(switch: ShutoffSwitch) -> None:
    # keep_originals: every put also stores a Deflate copy of each
    # chunk's original bytes, the early-rollout belt-and-suspenders.
    store = BlockStore(chunk_size=2048, config=LeptonConfig(threads=2),
                       keep_originals=True)

    uploads = {
        "vacation/beach.jpg": corpus_jpeg(seed=1, height=160, width=200),
        "vacation/sunset.jpg": corpus_jpeg(seed=2, height=128, width=128),
        "phone/IMG_0001.jpg": corpus_jpeg(seed=3, height=192, width=144,
                                          restart_interval=4),
        "docs/report.pdf": b"%PDF-1.4 pretend document " * 120,
        "weird/progressive.jpg": make_progressive(
            corpus_jpeg(seed=4, height=96, width=96)
        ),
    }

    print("=== uploads ===")
    for name, data in uploads.items():
        if switch.engaged:
            print(f"  {name}: lepton disabled by shutoff switch")
            continue
        record = store.put_file(name, data)
        print(f"  {name}: {len(data)} bytes in {len(record.chunk_keys)} chunk(s)")

    print("\n=== storage accounting ===")
    print(f"  chunks admitted:       {store.admissions}")
    print(f"  bytes through lepton:  {store.lepton_bytes_in}")
    print(f"  lepton savings:        {100 * store.savings_fraction:.1f}%")
    print(f"  total stored:          {store.stored_bytes} bytes")
    print(f"  originals kept:        {len(store.backend.keys('orig/'))}")

    print("\n=== downloads (byte-exact) ===")
    for name, data in uploads.items():
        served = store.get_file(name)
        assert served == data, name
        print(f"  {name}: ✓ {len(served)} bytes")

    # The kill switch stays ready (30-second propagation, §6.5).
    switch.engage()
    print(f"\nshutoff switch engaged: {switch.engaged} (path: {switch.path})")


if __name__ == "__main__":
    main()
