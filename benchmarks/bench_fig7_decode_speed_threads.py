"""Figure 7: decompression speed vs file size, per thread count.

Paper: decode throughput rises with file size and with threads (1/2/4/8),
reaching ~250 Mbit/s; the thread-count steps are visible as bands.  The
"modelled parallel" column is a model, not a measurement: the serial time
with the summed segment times replaced by the longest segment
(``modelled_parallel_seconds``; the GIL hides real threading).  We assert
the per-thread scaling of that model on the larger files.

The timings come from the streaming ``DecodeSession``'s per-segment obs
spans (``span.lepton.session.decode.step``), so this bench measures the
same row-bounded pipeline every decode runs.  Each of ``ROUNDS`` rounds
decodes every (size, threads) case once, so a burst of host noise slows
one round of every case instead of every run of one case, and the
assertions compare cases timed in the same rounds.  A case's estimate is
its median round, per column: a fastest-round estimate let one rare fast
round of one case shrink a ratio as readily as a slow round grows it.
"""

from statistics import median

import pytest

from _harness import emit, modelled_parallel_seconds
from repro.analysis.stats import mbits_per_second
from repro.analysis.tables import format_table
from repro.core.lepton import LeptonConfig, compress
from repro.core.session import DecodeSession
from repro.corpus.builder import corpus_jpeg

SIZES = [96, 160, 256]
THREADS = [1, 2, 4, 8]
CASES = [(px, t) for px in SIZES for t in THREADS]
ROUNDS = 7


def _payload(px: int, threads: int):
    data = corpus_jpeg(seed=7000, height=px, width=px, quality=88)
    result = compress(data, LeptonConfig(threads=threads))
    assert result.ok
    return data, result.payload


def _decode_seconds(data: bytes, payload: bytes):
    """(modelled parallel, serial) seconds of one decode."""
    session = DecodeSession()
    out = b"".join([*session.write(payload), *session.finish()])
    assert out == data
    serial = session.wall_seconds
    return modelled_parallel_seconds(serial, session.segment_seconds), serial


def _speeds():
    inputs = {case: _payload(*case) for case in CASES}
    rounds = {case: [] for case in CASES}
    for _ in range(ROUNDS):
        for case in CASES:
            rounds[case].append(_decode_seconds(*inputs[case]))
    return {
        case: (len(data), *(mbits_per_second(len(data), median(column))
                            for column in zip(*rounds[case])))
        for case, (data, _) in inputs.items()
    }


def test_fig7_decode_speed_by_threads(benchmark):
    results = benchmark.pedantic(_speeds, rounds=1, iterations=1)
    rows = [[px, t, *results[(px, t)]] for px, t in CASES]
    emit("fig7_decode_threads", format_table(
        ["image px", "threads", "file size (B)",
         "modelled parallel dec (Mbps)", "serial dec (Mbps)"],
        rows,
        title="Figure 7 — decode speed vs size per thread count "
              "(paper: bands at 1/2/4/8 threads up to ~250 Mbit/s)",
        float_format="{:.3f}",
    ))
    largest = SIZES[-1]
    speeds = [results[(largest, t)][1] for t in THREADS]
    # More threads decode faster on large files, with less-than-linear
    # scaling (per-segment imbalance + serial container work).  The upper
    # bound carries a noise margin: single-digit-ms timings jitter.
    assert speeds[1] > speeds[0] * 1.4
    assert speeds[2] > speeds[1] * 1.2
    assert speeds[3] > speeds[2] * 1.05
    assert speeds[3] < speeds[0] * 9.5
