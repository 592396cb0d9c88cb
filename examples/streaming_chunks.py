"""Independent chunks and streaming decode — the distribution story (§3.4).

A JPEG is split at fixed byte boundaries (4 MiB in production, small here);
every chunk is compressed into a self-contained Lepton container carrying a
Huffman handover word, so any server can decode any chunk — even one whose
boundary falls mid-symbol — without seeing the rest of the file.  Decoding
also *streams*: the header bytes are available before any arithmetic
decoding has run (time-to-first-byte).

Run:  python examples/streaming_chunks.py
"""

import time

from repro.core.chunks import compress_chunked, decompress_chunk
from repro.core.lepton import LeptonConfig, compress, decompress_chunks
from repro.corpus.builder import corpus_jpeg


def main() -> None:
    jpeg = corpus_jpeg(seed=9, height=192, width=224, quality=88,
                       restart_interval=6)
    print(f"file: {len(jpeg)} bytes")

    # --- chunk independence ------------------------------------------
    chunk_size = 1500
    chunks = compress_chunked(jpeg, chunk_size, LeptonConfig(threads=2))
    print(f"\nsplit into {len(chunks)} chunks of ≤{chunk_size} bytes:")
    # Decode them out of order, each standalone, and reassemble.
    pieces = {}
    for chunk in reversed(chunks):
        data = decompress_chunk(chunk)
        a, b = chunk.original_range
        assert data == jpeg[a:b]
        pieces[chunk.index] = data
        print(f"  chunk {chunk.index}: bytes [{a}, {b}) decoded independently ✓")
    assert b"".join(pieces[i] for i in sorted(pieces)) == jpeg
    print("reassembled: exact ✓")

    # --- streaming: time-to-first-byte ----------------------------------
    payload = compress(jpeg, LeptonConfig(threads=4)).payload
    start = time.perf_counter()
    stream = decompress_chunks([payload])
    first = next(stream)
    ttfb = time.perf_counter() - start
    rest = b"".join(stream)
    ttlb = time.perf_counter() - start
    assert first + rest == jpeg
    print(f"\nstreaming decode: first {len(first)} bytes after "
          f"{1000 * ttfb:.2f} ms; all {len(jpeg)} bytes after "
          f"{1000 * ttlb:.2f} ms")
    print("the header streams out before any coefficient is decoded — "
          "that is what fills the user's connection early (§3.4)")


if __name__ == "__main__":
    main()
