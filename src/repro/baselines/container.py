"""The JPEG frame the comparator codecs share around their coded bytes.

The comparators differ only in how they model the coefficients.  Each
keeps the same frame around its coded bytes: the verbatim JPEG header,
the pad bit, the restart-marker count and the trailer, zlib'd, from which
decompression restores the original file by Huffman re-encoding the scan.
A payload is ``magic``, the zlib'd meta's and the coded bytes' lengths,
then both; a codec may put bytes of its own at the meta's head or tail.
"""

import struct
import zlib
from typing import Tuple

import numpy as np

from repro.core.errors import FormatError
from repro.jpeg.parser import JpegImage, parse_jpeg
from repro.jpeg.scan_decode import decode_scan
from repro.jpeg.scan_encode import encode_scan


def front_end(data: bytes, name: str) -> JpegImage:
    """Parse and Huffman-decode ``data``; raise unless its scan re-encodes
    byte for byte, since only such a file can be restored from the frame."""
    img = parse_jpeg(data)
    decode_scan(img)
    if encode_scan(img)[0] != img.scan_data:
        raise FormatError(f"{name}: scan does not round-trip")
    return img


def pack(magic: bytes, img: JpegImage, coded: bytes, head: bytes = b"",
         tail: bytes = b"") -> bytes:
    """A payload holding ``img``'s frame and ``coded``."""
    meta = (head + struct.pack("<I", len(img.header_bytes)) + img.header_bytes
            + struct.pack("<BII", img.pad_bit or 0, img.rst_count,
                          len(img.trailer_bytes))
            + img.trailer_bytes + tail)
    zmeta = zlib.compress(meta, 9)
    return magic + struct.pack("<II", len(zmeta), len(coded)) + zmeta + coded


def unpack(payload: bytes, magic: bytes, name: str,
           head: int = 0) -> Tuple[JpegImage, bytes, bytes, bytes]:
    """Split a :func:`pack` payload into ``(img, coded, head, tail)``.

    ``img`` is the stored header parsed, with its pad bit, RST count,
    trailer and zeroed coefficient arrays; ``head`` is the meta's first
    ``head`` bytes.
    """
    offset = len(magic) + 8
    if payload[:len(magic)] != magic or len(payload) < offset:
        raise FormatError(f"not a {name} payload")
    zlen, clen = struct.unpack_from("<II", payload, len(magic))
    meta = zlib.decompress(payload[offset:offset + zlen])
    coded = payload[offset + zlen:offset + zlen + clen]
    (hlen,) = struct.unpack_from("<I", meta, head)
    pos = head + 4 + hlen
    pad_bit, rst_count, tlen = struct.unpack_from("<BII", meta, pos)
    img = parse_jpeg(meta[head + 4:pos])
    img.pad_bit = pad_bit
    img.rst_count = rst_count
    img.trailer_bytes = meta[pos + 9:pos + 9 + tlen]
    img.coefficients = [np.zeros((c.blocks_h, c.blocks_w, 64), dtype=np.int32)
                        for c in img.frame.components]
    return img, coded, meta[:head], meta[pos + 9 + tlen:]


def restore(img: JpegImage) -> bytes:
    """The original file: header, the re-encoded scan, trailer."""
    return img.header_bytes + encode_scan(img)[0] + img.trailer_bytes
