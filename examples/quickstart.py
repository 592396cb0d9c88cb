"""Quickstart: losslessly recompress a JPEG and get the exact bytes back.

Run:  python examples/quickstart.py
"""

from repro import compress, decompress
from repro.core.lepton import LeptonConfig
from repro.corpus.images import synthetic_photo
from repro.jpeg.writer import encode_baseline_jpeg


def main() -> None:
    # The paper ran on user uploads; offline we synthesise a photo-like
    # image and encode it as a baseline JPEG with our own writer.
    pixels = synthetic_photo(160, 160, seed=42)
    jpeg_bytes = encode_baseline_jpeg(pixels, quality=88, subsampling="4:2:0")
    print(f"input JPEG:      {len(jpeg_bytes):6d} bytes")

    # Compress.  The result carries the §6.2 exit code, the payload, and
    # per-component statistics (the Figure-4 breakdown only when asked).
    result = compress(jpeg_bytes, LeptonConfig(threads=2,
                                               collect_breakdown=True))
    assert result.ok, result.exit_code
    print(f"lepton payload:  {result.output_size:6d} bytes "
          f"({100 * result.savings_fraction:.1f}% saved, "
          f"{result.stats.thread_count} thread segments)")

    # Decompress — byte-exact, always.
    recovered = decompress(result.payload)
    assert recovered == jpeg_bytes
    print("round trip:      exact ✓")

    # Where did the bits go?  (The Figure-4 breakdown.)
    costs = result.stats.bit_costs
    total = sum(costs.values())
    for category in ("7x7", "edge", "dc", "nnz"):
        print(f"  {category:5s} {100 * costs[category] / total:5.1f}% of coded bits")


if __name__ == "__main__":
    main()
