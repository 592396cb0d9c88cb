"""Property-based end-to-end invariants over randomly generated images.

The central theorem of the system: for every baseline JPEG our writer can
produce, ``decompress(compress(x)) == x`` — whole-file, any thread count,
and under any chunking.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.chunks import compress_chunked, decompress_chunk
from repro.core.lepton import LeptonConfig, compress, decompress
from repro.corpus.images import synthetic_photo
from repro.jpeg.parser import parse_jpeg
from repro.jpeg.scan_decode import decode_scan
from repro.jpeg.scan_encode import encode_scan
from repro.jpeg.writer import encode_baseline_jpeg

_image_params = st.fixed_dictionaries(
    {
        "height": st.integers(8, 56),
        "width": st.integers(8, 56),
        "seed": st.integers(0, 10_000),
        "quality": st.integers(25, 97),
        "grayscale": st.booleans(),
        "subsampling": st.sampled_from(["4:4:4", "4:2:0"]),
        "restart_interval": st.sampled_from([0, 0, 1, 2, 5]),
    }
)


def _make_jpeg(params) -> bytes:
    pixels = synthetic_photo(
        params["height"], params["width"], seed=params["seed"],
        grayscale=params["grayscale"],
    )
    return encode_baseline_jpeg(
        pixels,
        quality=params["quality"],
        subsampling=params["subsampling"],
        restart_interval=params["restart_interval"],
    )


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_image_params)
def test_scan_roundtrip_property(params):
    """Huffman scan decode→encode is byte-exact for every writer output."""
    data = _make_jpeg(params)
    img = parse_jpeg(data)
    decode_scan(img)
    scan, _ = encode_scan(img)
    assert scan == img.scan_data


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_image_params, st.integers(1, 8))
def test_lepton_roundtrip_property(params, threads):
    data = _make_jpeg(params)
    result = compress(data, LeptonConfig(threads=threads))
    assert result.ok
    assert decompress(result.payload) == data


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_image_params, st.integers(120, 2000))
def test_chunked_roundtrip_property(params, chunk_size):
    """Every chunking of every file: all chunks independently exact."""
    data = _make_jpeg(params)
    chunks = compress_chunked(data, chunk_size, LeptonConfig(threads=1))
    for chunk in chunks:
        a, b = chunk.original_range
        assert decompress_chunk(chunk) == data[a:b]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.binary(min_size=0, max_size=4096))
def test_arbitrary_bytes_always_recoverable(blob):
    """compress() totalises over arbitrary input via the Deflate fallback."""
    result = compress(blob)
    assert result.payload is not None
    assert decompress(result.payload) == blob
