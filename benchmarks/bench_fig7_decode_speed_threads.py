"""Figure 7: decompression speed vs file size, per thread count.

Paper: decode throughput rises with file size and with threads (1/2/4/8),
reaching ~250 Mbit/s; the thread-count steps are visible as bands.  The
"modelled parallel" column is a model, not a measurement: the serial time
with the summed segment times replaced by the longest segment
(``modelled_parallel_seconds``; the GIL hides real threading).  We assert
the per-thread scaling of that model on the larger files.

The timings come from the streaming ``DecodeSession``'s per-segment obs
spans (``span.lepton.session.decode.step``), so this bench measures the
same row-bounded pipeline every decode runs.
"""

import pytest

from _harness import emit, modelled_parallel_seconds
from repro.analysis.stats import mbits_per_second
from repro.analysis.tables import format_table
from repro.core.lepton import LeptonConfig, compress
from repro.core.session import DecodeSession
from repro.corpus.builder import corpus_jpeg

SIZES = [96, 160, 256]
THREADS = [1, 2, 4, 8]


def _speed(px: int, threads: int):
    data = corpus_jpeg(seed=7000, height=px, width=px, quality=88)
    result = compress(data, LeptonConfig(threads=threads))
    assert result.ok
    # Min of two runs: single timings are noisy under full-suite load.
    best_modelled = best_serial = None
    for _ in range(2):
        session = DecodeSession()
        out = b"".join([*session.write(result.payload), *session.finish()])
        assert out == data
        serial = session.wall_seconds
        modelled = modelled_parallel_seconds(serial, session.segment_seconds)
        if best_modelled is None or modelled < best_modelled:
            best_modelled, best_serial = modelled, serial
    return len(data), mbits_per_second(len(data), best_modelled), \
        mbits_per_second(len(data), best_serial)


def test_fig7_decode_speed_by_threads(benchmark):
    def run():
        return {
            (px, t): _speed(px, t) for px in SIZES for t in THREADS
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [px, t, results[(px, t)][0], results[(px, t)][1], results[(px, t)][2]]
        for px in SIZES for t in THREADS
    ]
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
