"""Corruption and unsupported-file synthesis (§6.2 exit codes, §A.3).

The production benchmark sampled chunks *beginning with the JPEG
start-of-image marker*; 3.6% of them were non-JPEGs or unsupported JPEGs.
These helpers manufacture each category deterministically so the exit-code
distribution table and the rejection paths can be exercised offline.
"""

import numpy as np

from repro.jpeg import markers as M
from repro.jpeg.components import Component, FrameInfo
from repro.jpeg.writer import _segment, _sof_segment


def make_progressive(baseline: bytes) -> bytes:
    """Rewrite a baseline file's SOF0 marker to SOF2 (progressive)."""
    idx = baseline.find(bytes([0xFF, M.SOF0]))
    if idx == -1:
        raise ValueError("no SOF0 marker found")
    out = bytearray(baseline)
    out[idx + 1] = M.SOF2
    return bytes(out)


def make_arithmetic(baseline: bytes) -> bytes:
    """Rewrite SOF0 to SOF9 (extended sequential, arithmetic coding)."""
    idx = baseline.find(bytes([0xFF, M.SOF0]))
    if idx == -1:
        raise ValueError("no SOF0 marker found")
    out = bytearray(baseline)
    out[idx + 1] = M.SOF9
    return bytes(out)


def make_cmyk(width: int = 64, height: int = 64) -> bytes:
    """A minimal 4-component (CMYK/Adobe-style) JPEG header.

    Only needs to parse far enough for the component count to be rejected.
    """
    frame = FrameInfo(precision=8, height=height, width=width,
                      components=[Component(cid, 1, 1, 0) for cid in range(1, 5)])
    # One flat quant table.
    return (b"\xFF\xD8" + _segment(M.DQT, bytes([0]) + bytes([16] * 64))
            + _sof_segment(M.SOF0, frame))


def make_header_only(baseline: bytes) -> bytes:
    """A JPEG consisting entirely of a header (EOI right after the header).

    The paper notes Lepton declines "JPEG files that consist entirely of a
    header" (§6.2).
    """
    sos = baseline.find(bytes([0xFF, M.SOS]))
    prefix = baseline[: sos if sos != -1 else len(baseline)]
    return prefix + b"\xFF\xD9"


def truncate(data: bytes, keep_fraction: float = 0.6) -> bytes:
    """Drop the tail of the file (interrupted upload / unsynced disk)."""
    keep = max(4, int(len(data) * keep_fraction))
    return data[:keep]


def zero_run_tail(data: bytes, run_length: int = 512) -> bytes:
    """Replace the file tail with zeros (§A.3: failed page sync).

    Zero bytes usually decode as valid DCT data, but they erase RST markers
    and the EOI, so round-trip behaviour depends on the file's structure —
    exactly the anomaly the paper describes.
    """
    if len(data) <= run_length:
        return bytes(run_length)
    return data[: len(data) - run_length] + bytes(run_length)


def append_garbage(data: bytes, garbage: bytes = None, seed: int = 0) -> bytes:
    """Append arbitrary bytes after EOI (TV-format trailers, thumbnails)."""
    if garbage is None:
        rng = np.random.default_rng(seed)
        garbage = rng.integers(0, 256, size=256, dtype=np.uint8).tobytes()
    return data + garbage


def concatenated_jpegs(thumbnail: bytes, full_image: bytes) -> bytes:
    """Two JPEGs back to back (§A.3: thumbnail + image in one file).

    Lepton compresses only the first file; the second rides along as trailer
    garbage, reducing the ratio but still round-tripping.
    """
    return thumbnail + full_image


def not_an_image(size: int = 2048, seed: int = 0, with_soi: bool = True) -> bytes:
    """Random bytes, optionally starting with the SOI marker.

    The production sample selected chunks by their first two bytes, so
    plenty of non-JPEGs with a lucky prefix appear in the benchmark set.
    """
    rng = np.random.default_rng(seed)
    body = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
    return (b"\xFF\xD8" + body) if with_soi else body
