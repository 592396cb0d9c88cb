"""Seeded inputs: photos and operation sequences, a pure function of the seed.

Every photo is a q85 4:2:0 baseline JPEG tiled from independently seeded
``repro.corpus.images.synthetic_photo`` tiles.  One synthetic photo's coded
size varies by about 14% between seeds, a 3x3 tiling by about 5%; with a
pool of a few photos that difference decides whether a median latency is
steady from one seed to the next.  Fresh photos differ in every chunk,
because every tile has its own pixels.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.corpus.images import synthetic_photo
from repro.jpeg.writer import encode_baseline_jpeg

#: Op kinds.  ``reput`` re-sends a photo the store already holds.
GET, RANGE, PUT, REPUT = "get", "range", "put", "reput"

#: One ``mixed`` block: five rounds, one op per client.  It holds 4 full
#: GETs, 2 single-chunk Range GETs, 3 fresh PUTs and 1 re-PUT.  On 4-chunk
#: photos that is (4*4 + 2) / (3*4) = 1.5 served chunk decodes per chunk
#: encode, Fig. 5's weekday ratio (``repro.storage.workload.decode_rate``'s
#: ``weekday_boost``).  Like ops share a round, so neither client idles
#: long at the round's end, and every block loads the interpreter alike.
#: Sorted by latency a block is: the re-PUT, 2 Range GETs, 4 GETs, the PUT
#: beside the re-PUT, 2 PUTs beside a PUT.  The median falls inside the
#: GETs and p90 inside the paired PUTs, not on the edge between two groups.
MIXED_ROUNDS = ((GET, GET), (GET, GET), (PUT, PUT), (PUT, REPUT),
                (RANGE, RANGE))


@dataclass(frozen=True)
class Op:
    kind: str
    #: Index into the preloaded pool (get/range/reput) or the fresh list (put).
    photo: int
    #: ``[start, stop)`` of a Range GET.
    window: Optional[Tuple[int, int]] = None


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def photo(seed: int, role: int, index: int, side: int, tiles: int) -> bytes:
    """Photo ``index`` of stream ``role``: ``side``x``side`` pixels."""
    tile_seeds = _rng(seed, role, index).integers(0, 2**31, size=tiles * tiles)
    cuts = np.linspace(0, side, tiles + 1).astype(int)
    rows = []
    for r in range(tiles):
        rows.append(np.concatenate([
            synthetic_photo(int(cuts[r + 1] - cuts[r]),
                            int(cuts[c + 1] - cuts[c]),
                            seed=int(tile_seeds[r * tiles + c]))
            for c in range(tiles)
        ], axis=1))
    pixels = np.concatenate(rows, axis=0)
    return encode_baseline_jpeg(pixels, quality=85, subsampling="4:2:0")


def photos(seed: int, role: int, count: int, side: int,
           tiles: int) -> List[bytes]:
    return [photo(seed, role, i, side, tiles) for i in range(count)]


def chunk_window(rng: np.random.Generator, size: int,
                 chunk_size: int) -> Tuple[int, int]:
    """A non-empty byte range inside one chunk of a ``size``-byte file."""
    chunk = int(rng.integers(0, -(-size // chunk_size)))
    lo = chunk * chunk_size
    hi = min(size, lo + chunk_size)
    start = int(rng.integers(lo, hi))
    stop = int(rng.integers(start + 1, hi + 1))
    return start, stop


def get_ops(seed: int, pool: int, count: int) -> List[Op]:
    """Full GETs cycling through the pool, each cycle in a seeded order, so
    that every photo weighs the same in a run's median."""
    rng = _rng(seed, 1)
    order = [int(i) for _ in range(-(-count // pool))
             for i in rng.permutation(pool)]
    return [Op(GET, i) for i in order[:count]]


def put_ops(count: int) -> List[Op]:
    """PUTs of fresh photos, each once."""
    return [Op(PUT, i) for i in range(count)]


def mixed_ops(seed: int, pool_sizes: List[int], chunk_size: int,
              blocks: int) -> List[Op]:
    """``blocks`` :data:`MIXED_ROUNDS` blocks, flattened one round after
    another; the seed orders the rounds, assigns each op to a client and
    picks photos and Range windows."""
    rng = _rng(seed, 2)
    ops: List[Op] = []
    fresh = 0
    for _ in range(blocks):
        for r in rng.permutation(len(MIXED_ROUNDS)):
            pair = MIXED_ROUNDS[r]
            for kind in (pair if rng.integers(0, 2) else pair[::-1]):
                if kind == PUT:
                    ops.append(Op(PUT, fresh))
                    fresh += 1
                    continue
                target = int(rng.integers(0, len(pool_sizes)))
                window = (chunk_window(rng, pool_sizes[target], chunk_size)
                          if kind == RANGE else None)
                ops.append(Op(kind, target, window))
    return ops
