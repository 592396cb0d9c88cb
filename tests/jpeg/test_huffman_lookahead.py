"""Table-driven Huffman decode and block-at-a-time re-encode, against the
bit-serial coder they replaced.

The reference below is a test-local copy of the scan decoder and encoder
as first written: one ``read_bit`` per bit and a ``(length, code)``
lookup after each, one ``write_bits`` per symbol and one output byte per
loop step.  Random images are coded under random canonical tables from
:func:`build_optimal_table` whose codes run past the decoder's lookahead
width up to 16 bits, with restart intervals (some markers dropped), both
pad bits and handover resumes at random MCUs.  The new coder must agree
with the reference on every coefficient, every byte and every recorded
position, and fail on corrupt scans with the same exception and message.
"""

import dataclasses

import numpy as np
import pytest

from repro.corpus.images import synthetic_photo
from repro.jpeg.errors import JpegError, TruncatedJpegError, UnsupportedJpegError
from repro.jpeg.huffman import LOOKAHEAD, build_optimal_table
from repro.jpeg.parser import parse_jpeg
from repro.jpeg.scan_decode import decode_scan, mcu_block_layout
from repro.jpeg.scan_encode import ScanEncoder, ScanPosition, encode_scan
from repro.jpeg.writer import encode_baseline_jpeg
from repro.jpeg.zigzag import ZIGZAG_TO_RASTER

ZZ = [int(r) for r in ZIGZAG_TO_RASTER]

# --- the reference coder ---------------------------------------------------


class _SerialReader:
    def __init__(self, data: bytes):
        self.data, self.pos, self.acc, self.nacc = data, 0, 0, 0

    def next_byte(self) -> int:
        data, pos = self.data, self.pos
        if pos >= len(data):
            raise TruncatedJpegError("entropy scan truncated")
        byte = data[pos]
        pos += 1
        if byte == 0xFF:
            if pos >= len(data):
                raise TruncatedJpegError("entropy scan truncated after 0xFF")
            if data[pos] != 0x00:
                raise JpegError(f"unexpected marker 0xFF{data[pos]:02X} inside scan")
            pos += 1
        self.pos = pos
        return byte

    def read_bit(self) -> int:
        if self.nacc == 0:
            self.acc = self.next_byte()
            self.nacc = 8
        self.nacc -= 1
        return (self.acc >> self.nacc) & 1

    def read_bits(self, nbits: int) -> int:
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self.read_bit()
        return value

    def expect_rst(self, index: int) -> bool:
        if self.nacc:
            raise JpegError("expect_rst while not byte aligned")
        data, pos = self.data, self.pos
        if pos + 1 < len(data) and data[pos] == 0xFF and data[pos + 1] == 0xD0 + (index & 7):
            self.pos = pos + 2
            return True
        return False


def _canonical(table):
    """``{(length, code): symbol}`` and ``{symbol: (code, length)}``."""
    decode, encode, code, k = {}, {}, 0, 0
    for length in range(1, 17):
        for _ in range(table.bits[length - 1]):
            decode[(length, code)] = table.values[k]
            encode[table.values[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return decode, encode


def _serial_symbol(table, reader) -> int:
    decode, _ = _canonical(table)
    code = 0
    for length in range(1, table.max_length + 1):
        code = (code << 1) | reader.read_bit()
        if (length, code) in decode:
            return decode[(length, code)]
    raise JpegError("invalid Huffman code in scan")


def _extend(value: int, size: int) -> int:
    if size == 0:
        return 0
    return value - (1 << size) + 1 if value < (1 << (size - 1)) else value


def reference_decode(img):
    """``(coefficients, pad_bit, rst_count)`` of ``img.scan_data``."""
    frame = img.frame
    reader = _SerialReader(img.scan_data)
    coeffs = [np.zeros((c.blocks_h, c.blocks_w, 64), dtype=np.int32)
              for c in frame.components]
    layout = mcu_block_layout(frame)
    dc_pred = [0] * len(frame.components)
    pads, rst_count = [], 0
    for mcu in range(frame.mcu_count):
        if img.restart_interval and mcu > 0 and mcu % img.restart_interval == 0:
            pending = reader.nacc
            saved = (reader.pos, reader.acc, reader.nacc)
            pad = reader.read_bits(pending) if pending else 0
            if reader.expect_rst(rst_count):
                if pending:
                    pads.append((pad, pending))
                rst_count += 1
                dc_pred = [0] * len(frame.components)
            else:
                reader.pos, reader.acc, reader.nacc = saved
        mcu_y, mcu_x = divmod(mcu, frame.mcus_x)
        for ci, dy, dx in layout:
            comp = frame.components[ci]
            block = np.zeros(64, dtype=np.int32)
            size = _serial_symbol(img.dc_huffman(comp), reader)
            if size > 11:
                raise UnsupportedJpegError(
                    f"DC category {size} out of baseline range", reason="ac_out_of_range")
            dc_pred[ci] += _extend(reader.read_bits(size), size)
            block[0] = dc_pred[ci]
            k = 1
            while k < 64:
                rs = _serial_symbol(img.ac_huffman(comp), reader)
                run, size = rs >> 4, rs & 0x0F
                if size == 0:
                    if run == 15:
                        k += 16
                        continue
                    break
                k += run
                if k > 63:
                    raise JpegError("AC run overruns block")
                if size > 10:
                    raise UnsupportedJpegError(
                        f"AC category {size} out of baseline range",
                        reason="ac_out_of_range")
                block[ZZ[k]] = _extend(reader.read_bits(size), size)
                k += 1
            by = mcu_y * (comp.v if frame.interleaved else 1) + dy
            bx = mcu_x * (comp.h if frame.interleaved else 1) + dx
            coeffs[ci][by, bx] = block
    pending = reader.nacc
    if pending:
        pads.append((reader.read_bits(pending), pending))
    if reader.pos != len(img.scan_data):
        raise JpegError(f"scan has {len(img.scan_data) - reader.pos} trailing bytes")
    pad_bit = 0
    for value, nbits in pads:
        if value in (0, (1 << nbits) - 1):
            pad_bit = int(value != 0)
            break
    return coeffs, pad_bit, rst_count


class _SerialWriter:
    def __init__(self):
        self.out, self.acc, self.nacc = bytearray(), 0, 0

    def write_bits(self, value: int, nbits: int) -> None:
        for i in range(nbits - 1, -1, -1):
            self.acc = (self.acc << 1) | ((value >> i) & 1)
            self.nacc += 1
            if self.nacc == 8:
                self.out.append(self.acc)
                if self.acc == 0xFF:
                    self.out.append(0x00)
                self.acc = self.nacc = 0

    def position(self):
        partial = (self.acc << (8 - self.nacc)) & 0xFF if self.nacc else 0
        return len(self.out), partial, self.nacc


def reference_encode(img):
    """``(scan_bytes, positions)`` as :func:`encode_scan` records them."""
    frame = img.frame
    writer = _SerialWriter()
    layout = mcu_block_layout(frame)
    dc_pred = [0] * len(frame.components)
    rst_emitted = 0
    positions = []

    def record(mcu):
        offset, partial, bits = writer.position()
        positions.append(ScanPosition(mcu, offset, partial, bits,
                                      tuple(dc_pred), rst_emitted))

    def pad():
        if writer.nacc:
            fill = 8 - writer.nacc
            writer.write_bits((1 << fill) - 1 if img.pad_bit else 0, fill)

    record(0)
    for mcu in range(frame.mcu_count):
        mcu_y, mcu_x = divmod(mcu, frame.mcus_x)
        for ci, dy, dx in layout:
            comp = frame.components[ci]
            by = mcu_y * (comp.v if frame.interleaved else 1) + dy
            bx = mcu_x * (comp.h if frame.interleaved else 1) + dx
            block = img.coefficients[ci][by, bx].tolist()
            _, dc_codes = _canonical(img.dc_huffman(comp))
            _, ac_codes = _canonical(img.ac_huffman(comp))
            diff = block[0] - dc_pred[ci]
            dc_pred[ci] = block[0]
            size = abs(diff).bit_length()
            writer.write_bits(*dc_codes[size])
            writer.write_bits(diff if diff >= 0 else diff + (1 << size) - 1, size)
            run = 0
            for k in range(1, 64):
                value = block[ZZ[k]]
                if not value:
                    run += 1
                    continue
                while run > 15:
                    writer.write_bits(*ac_codes[0xF0])
                    run -= 16
                size = abs(value).bit_length()
                writer.write_bits(*ac_codes[(run << 4) | size])
                writer.write_bits(value if value >= 0 else value + (1 << size) - 1, size)
                run = 0
            if run:
                writer.write_bits(*ac_codes[0x00])
        if (img.restart_interval and (mcu + 1) % img.restart_interval == 0
                and rst_emitted < img.rst_count):
            pad()
            writer.out += bytes([0xFF, 0xD0 + (rst_emitted & 7)])
            rst_emitted += 1
            dc_pred = [0] * len(frame.components)
        record(mcu + 1)
    pad()
    return bytes(writer.out), positions


# --- random images under random tables -------------------------------------

#: Every baseline symbol: DC categories, and AC (run, size) pairs with EOB
#: and ZRL.
DC_SYMBOLS = list(range(12))
AC_SYMBOLS = [0x00, 0xF0] + [(run << 4) | size
                             for run in range(16) for size in range(1, 11)]


def _random_table(rng, symbols):
    """A canonical table over ``symbols`` with a steep frequency skew, so
    rare symbols get codes of up to 16 bits."""
    weights = np.exp2(rng.uniform(0, 24, len(symbols))).astype(np.int64) + 1
    return build_optimal_table(dict(zip(symbols, weights.tolist())))


def _random_coefficients(rng, img):
    coeffs = []
    for comp in img.frame.components:
        blocks = np.zeros((comp.blocks_h, comp.blocks_w, 64), dtype=np.int32)
        dc = 0
        for by in range(comp.blocks_h):
            for bx in range(comp.blocks_w):
                # The DC walks by steps under 2^10 and stays within
                # ±1000, so every diff, also against a predictor a restart
                # zeroed, has a baseline category.
                size = int(rng.integers(0, 11))
                dc = int(np.clip(dc + int(rng.integers(-(1 << size) + 1, 1 << size)),
                                 -1000, 1000))
                blocks[by, bx, 0] = dc
                # Sparse AC with long zero runs (ZRL) and every category.
                for k in rng.choice(np.arange(1, 64), int(rng.integers(0, 12)),
                                    replace=False).tolist():
                    size = int(rng.integers(1, 11))
                    mag = int(rng.integers(1 << (size - 1), 1 << size))
                    blocks[by, bx, ZZ[k]] = mag if rng.random() < 0.5 else -mag
        coeffs.append(blocks)
    return coeffs


def random_image(seed: int):
    """An image with random coefficients, tables, restart interval, pad
    bit and dropped restart markers; ``scan_data`` is its coded scan."""
    rng = np.random.default_rng(seed)
    grayscale = bool(rng.integers(0, 2))
    height, width = (int(x) for x in rng.integers(8, 41, 2))
    interval = int(rng.choice([0, 1, 2, 3]))
    pixels = synthetic_photo(height, width, seed=seed, grayscale=grayscale)
    base = parse_jpeg(encode_baseline_jpeg(
        pixels, subsampling="4:2:0", restart_interval=interval))
    tables = {key: _random_table(rng, DC_SYMBOLS if key[0] == 0 else AC_SYMBOLS)
              for key in base.huffman_tables}
    markers = (base.frame.mcu_count - 1) // interval if interval else 0
    img = dataclasses.replace(
        base, huffman_tables=tables, pad_bit=int(rng.integers(0, 2)),
        rst_count=int(rng.integers(0, markers + 1)), scan_data=b"")
    img.coefficients = _random_coefficients(rng, img)
    img.scan_data, _ = reference_encode(img)
    return img


def _outcome(decode, img):
    """A decode's result, or its exception's class and message."""
    try:
        coeffs, pad_bit, rst_count = decode(img)
    except JpegError as exc:
        return type(exc), str(exc)
    return [c.tobytes() for c in coeffs], pad_bit, rst_count


def _decode_now(img):
    img = dataclasses.replace(img, coefficients=[])
    decode_scan(img)
    return img.coefficients, img.pad_bit, img.rst_count


SEEDS = range(24)


@pytest.mark.parametrize("seed", SEEDS)
def test_decode_matches_the_serial_reference(seed):
    img = random_image(seed)
    decoded = _outcome(_decode_now, img)
    assert decoded == _outcome(reference_decode, img)
    assert decoded[0] == [c.tobytes() for c in img.coefficients]


@pytest.mark.parametrize("seed", SEEDS)
def test_reencode_is_byte_exact_with_exact_positions(seed):
    img = random_image(seed)
    scan, positions = encode_scan(img, record_positions=True)
    assert scan == img.scan_data
    assert positions == reference_encode(img)[1]


@pytest.mark.parametrize("seed", SEEDS)
def test_handover_resumes_at_random_mcus(seed):
    img = random_image(seed)
    decode_scan(img)
    scan, positions = encode_scan(img, record_positions=True)
    rng = np.random.default_rng(1000 + seed)
    for mcu in rng.integers(0, img.frame.mcu_count, 4).tolist():
        pos = positions[mcu]
        encoder = ScanEncoder(img, start_mcu=mcu, dc_pred=pos.dc_pred,
                              rst_emitted=pos.rst_emitted,
                              partial_byte=pos.partial_byte,
                              partial_bits=pos.partial_bits)
        encoder.encode_to(img.frame.mcu_count)
        assert encoder.finish() == scan[pos.byte_offset:]


def test_tables_reach_past_the_lookahead():
    """The random tables exercise the slow path: codes longer than the
    lookahead window, up to the 16-bit limit."""
    lengths = {table.max_length for seed in SEEDS
               for table in random_image(seed).huffman_tables.values()}
    assert max(lengths) == 16
    assert any(length > LOOKAHEAD for length in lengths)


@pytest.mark.parametrize("seed", SEEDS)
def test_corrupt_scans_fail_like_the_reference(seed):
    img = random_image(seed)
    rng = np.random.default_rng(2000 + seed)
    scan = img.scan_data
    variants = [scan[:cut] for cut in rng.integers(0, len(scan), 6).tolist()]
    for _ in range(10):
        flipped = bytearray(scan)
        for pos in rng.integers(0, len(scan), int(rng.integers(1, 4))).tolist():
            flipped[pos] ^= 1 << int(rng.integers(0, 8))
        variants.append(bytes(flipped))
    # A marker inside the scan, a lone 0xFF at its end, trailing data with
    # a stuffed 0xFF, and a data byte in front of a restart marker.
    variants += [scan[:len(scan) // 2] + b"\xFF\xD9" + scan[len(scan) // 2:],
                 scan + b"\xFF", scan + b"\xFF\x00", scan + b"\x12\xFF\x00\x34"]
    rst = [i for i in range(len(scan) - 1)
           if scan[i] == 0xFF and 0xD0 <= scan[i + 1] <= 0xD7]
    variants += [scan[:i] + b"\x5A" + scan[i:] for i in rst[:3]]
    for data in variants:
        corrupt = dataclasses.replace(img, scan_data=data)
        assert _outcome(_decode_now, corrupt) == _outcome(reference_decode, corrupt)
