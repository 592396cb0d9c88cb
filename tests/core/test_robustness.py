"""Corruption robustness: a decoder fed garbage must fail loudly, not
silently corrupt or crash uncontrolled (the §5 threat model)."""

import hashlib
import random
import zlib

import pytest

from repro.core.errors import FormatError, LeptonError, VersionError
from repro.core.lepton import LeptonConfig, compress, decompress
from repro.corpus.builder import corpus_jpeg
from repro.jpeg.errors import JpegError
from repro.obs import get_registry
from repro.storage.backends import decode_blob, encode_blob
from repro.storage.blockstore import BlockStore


@pytest.fixture(scope="module")
def payload():
    data = corpus_jpeg(seed=91, height=64, width=64)
    return data, compress(data, LeptonConfig(threads=2)).payload


# Corrupt containers must fail through these — never segfault-style chaos.
# zlib.error covers blobs whose damaged magic routes them down the Deflate
# fallback path.  A JpegError from the stored header or the Huffman
# re-encode reaches callers as a FormatError.
ACCEPTABLE = (LeptonError, FormatError, VersionError,
              ValueError, KeyError, zlib.error)

#: A one-byte change to the ``payload`` fixture's first arithmetic
#: section: its coefficients decode, but need a Huffman symbol (0x0C) the
#: stored tables lack.
UNENCODABLE = (632, 18)


def _unencodable(blob: bytes) -> bytes:
    pos, value = UNENCODABLE
    mutated = bytearray(blob)
    mutated[pos] = value
    return bytes(mutated)


class TestContainerFuzzing:
    def test_truncations_never_crash(self, payload):
        original, blob = payload
        for cut in range(0, len(blob), max(1, len(blob) // 40)):
            try:
                out = decompress(blob[:cut])
            except ACCEPTABLE:
                continue
            # A lucky truncation may still decode; it must then be exact
            # (the container's output size and window checks).
            assert out == original

    def test_single_byte_flips_detected_or_exact(self, payload):
        original, blob = payload
        rng = random.Random(7)
        silent_wrong = 0
        for _ in range(60):
            pos = rng.randrange(len(blob))
            mutated = bytearray(blob)
            mutated[pos] ^= 1 << rng.randrange(8)
            try:
                out = decompress(bytes(mutated))
            except ACCEPTABLE:
                continue
            if out != original:
                # Arithmetic-stream flips can decode to a wrong-but-
                # well-formed scan; production catches these with the
                # round-trip admission and decode-size checks.  They must
                # at least have the promised output size.
                silent_wrong += 1
                assert len(out) == len(original)
        assert silent_wrong < 40  # most corruptions are detected outright

    def test_header_region_flips_always_raise(self, payload):
        _, blob = payload
        for pos in range(0, 8):
            mutated = bytearray(blob)
            mutated[pos] ^= 0xFF
            with pytest.raises(ACCEPTABLE):
                decompress(bytes(mutated))

    def test_reencode_failure_is_a_format_error(self, payload):
        _, blob = payload
        with pytest.raises(FormatError) as raised:
            decompress(_unencodable(blob))
        assert isinstance(raised.value.__cause__, JpegError)
        assert "symbol 0x0C not in Huffman table" in str(raised.value)

    def test_decoder_fault_on_intact_bytes_serves_the_original(self, payload):
        """A payload whose digests match but whose decode fails (a decoder
        fault, not rot) still gets the kept original served."""
        _, blob = payload
        bad = _unencodable(blob)
        data = corpus_jpeg(seed=93, height=32, width=32)
        store = BlockStore(keep_originals=True)
        store.put_file("photo.jpg", data)
        key = store.files["photo.jpg"].chunk_keys[0]
        meta, _ = decode_blob(store.backend.read(f"chunk/{key}"))
        meta["md5"] = hashlib.md5(bad).hexdigest()
        store.backend.write(f"chunk/{key}", encode_blob(meta, bad))
        store.entries[key].payload_md5 = meta["md5"]
        fallbacks = get_registry().counter("degraded_read.fallbacks")
        before = fallbacks.value
        assert store.get_chunk(key) == data
        assert fallbacks.value == before + 1
        assert store.degraded_fallbacks == 1

    def test_empty_and_tiny_inputs(self):
        for junk in (b"", b"\xCF", b"\xCF\x84", b"\xCF\x84\x01Z"):
            with pytest.raises(ACCEPTABLE):
                decompress(junk)

    def test_wrong_magic_treated_as_deflate(self):
        # Non-Lepton payloads go down the Deflate path; invalid zlib raises.
        with pytest.raises(ACCEPTABLE):
            decompress(b"definitely not zlib either")


class TestCompressorFuzzing:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_soi_prefixed_garbage_never_crashes(self, seed):
        from repro.corpus.corruptions import not_an_image

        result = compress(not_an_image(size=1024, seed=seed))
        assert result.payload is not None
        assert decompress(result.payload) == not_an_image(size=1024, seed=seed)

    def test_bit_flipped_jpegs_classified(self):
        """Random flips in a real JPEG: compress() must always return a
        result — SUCCESS with byte-exact round trip, or a classified
        reject stored via Deflate."""
        base = corpus_jpeg(seed=92, height=64, width=64)
        rng = random.Random(3)
        for _ in range(25):
            pos = rng.randrange(len(base))
            mutated = bytearray(base)
            mutated[pos] ^= 1 << rng.randrange(8)
            mutated = bytes(mutated)
            result = compress(mutated, LeptonConfig(threads=1))
            assert result.payload is not None
            assert decompress(result.payload) == mutated
