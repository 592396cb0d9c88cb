"""Figure 8: compression speed vs file size, per thread count.

Paper: encode speed also rises with threads, "but it is almost unaffected
by the benefit of moving to 8 threads from 4 ... because at 4 threads the
bottleneck shifts to the JPEG Huffman decoder" — which the Lepton encoder
must run serially (the decoder escapes this via handover words).  The
"modelled parallel" column is a model, not a measurement: a ``compress``
call's serial time (``EncodeStats.encode_seconds``) with the summed
``code_segment`` spans replaced by the longest one
(``modelled_parallel_seconds``; the GIL hides real threading).  Its serial
head is exactly that Huffman decode + verification pass (the parse /
scan_decode / verify_index stage spans).

``compress`` runs the one encode pipeline the store's puts run, so the
timed encode has the same policy.  Each of ``ROUNDS`` rounds encodes every
(size, threads) case once and a case's estimate is its median round, as
in fig. 7: a burst of host noise slows one round of every case instead of
every run of one case, and one rare fast round of one case (the 1-segment
case once ran 0.479 against a usual ~0.32 Mbit/s) cannot become that
case's estimate and shrink the 1→2 ratio.
"""

from statistics import median

from _harness import emit, modelled_parallel_seconds
from repro.analysis.stats import mbits_per_second
from repro.analysis.tables import format_table
from repro.core.lepton import LeptonConfig, compress
from repro.corpus.builder import corpus_jpeg

SIZES = [96, 160, 256]
THREADS = [1, 2, 4, 8]
CASES = [(px, t) for px in SIZES for t in THREADS]
ROUNDS = 7


def _modelled_seconds(data: bytes, threads: int) -> float:
    result = compress(data, LeptonConfig(threads=threads))
    assert result.ok
    return modelled_parallel_seconds(result.stats.encode_seconds,
                                     result.stats.segment_seconds)


def _speeds():
    inputs = {px: corpus_jpeg(seed=8000, height=px, width=px, quality=88)
              for px in SIZES}
    rounds = {case: [] for case in CASES}
    for _ in range(ROUNDS):
        for px, t in CASES:
            rounds[(px, t)].append(_modelled_seconds(inputs[px], t))
    return {(px, t): (len(inputs[px]),
                      mbits_per_second(len(inputs[px]),
                                       median(rounds[(px, t)])))
            for px, t in CASES}


def test_fig8_encode_speed_by_threads(benchmark):
    results = benchmark.pedantic(_speeds, rounds=1, iterations=1)
    rows = [[px, t, *results[(px, t)]] for px, t in CASES]
    emit("fig8_encode_threads", format_table(
        ["image px", "threads", "file size (B)",
         "modelled parallel enc (Mbps)"],
        rows,
        title="Figure 8 — encode speed vs size per thread count "
              "(paper: 4→8 threads plateaus; serial Huffman decode "
              "bottleneck)",
        float_format="{:.3f}",
    ))
    largest = SIZES[-1]
    speeds = {t: results[(largest, t)][1] for t in THREADS}
    # Threads help at first...
    assert speeds[2] > speeds[1] * 1.1
    # ...but the serial Huffman-decode head bounds total speedup well below
    # linear, and 4→8 gains far less than doubling (the Figure-8 plateau).
    assert speeds[8] / speeds[1] < 6.0
    gain_4_to_8 = speeds[8] / speeds[4]
    assert gain_4_to_8 < 1.6
    # The later doubling cannot meaningfully out-gain the earlier one
    # (1.25x margin absorbs timing noise).
    gain_2_to_4 = speeds[4] / speeds[2]
    assert gain_4_to_8 < gain_2_to_4 * 1.25
