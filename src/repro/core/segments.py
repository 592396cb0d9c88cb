"""Thread-segment planning (§3.4).

Lepton splits the image into one contiguous band of MCU rows per decoding
thread.  The thread count is chosen from the input size: small images get
fewer threads because each thread's model restarts at 50/50 and adapts
independently, so threads cost compression — the paper picked the cutoffs
empirically from when "the overhead of thread startup outweighed the gains
of multithreading" (§5.4, visible as the steps in Figures 7 and 8).
"""

from typing import List, Sequence, Tuple

# (max input size in bytes, thread count); None = no upper bound.
DEFAULT_THREAD_CUTOFFS: Sequence[Tuple[int, int]] = (
    (64 * 1024, 1),
    (256 * 1024, 2),
    (1024 * 1024, 4),
    (None, 8),
)

MAX_THREADS = 8


def choose_thread_count(input_size: int,
                        cutoffs: Sequence[Tuple[int, int]] = DEFAULT_THREAD_CUTOFFS) -> int:
    """Thread count for an input of ``input_size`` bytes."""
    for limit, threads in cutoffs:
        if limit is None or input_size < limit:
            return threads
    return cutoffs[-1][1]


def plan_segments_range(mcu_start: int, mcu_end: int, mcus_x: int,
                        threads: int) -> List[Tuple[int, int]]:
    """Partition the MCUs ``[mcu_start, mcu_end)`` into per-thread
    ``(mcu_start, mcu_end)`` ranges: ``(0, mcu_count)`` for a whole image,
    any range for a mid-file chunk.

    Segments are MCU-row bands, as even as possible; fewer segments than
    requested are returned when there are not enough rows to go around.
    The first and last segments absorb the partial rows at the range ends;
    interior boundaries fall on row boundaries so that neighbour-row context
    rules stay simple.
    """
    if mcu_end <= mcu_start:
        raise ValueError("empty MCU range")
    first_full_row = (mcu_start + mcus_x - 1) // mcus_x
    last_full_row = mcu_end // mcus_x
    inner_rows = max(0, last_full_row - first_full_row)
    threads = max(1, min(threads, MAX_THREADS, max(inner_rows, 1)))
    if threads == 1 or inner_rows < threads:
        return [(mcu_start, mcu_end)]
    boundaries = [mcu_start]
    base, extra = divmod(inner_rows, threads)
    row = first_full_row
    for i in range(threads - 1):
        row += base + (1 if i < extra else 0)
        boundaries.append(row * mcus_x)
    boundaries.append(mcu_end)
    return [
        (boundaries[i], boundaries[i + 1])
        for i in range(len(boundaries) - 1)
        if boundaries[i] < boundaries[i + 1]
    ]
