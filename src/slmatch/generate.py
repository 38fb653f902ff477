"""Exhaustive and seeded-random generation of labelled connected graphs.

The enumeration and the sampler draw pair bits a block of graphs at a time,
in the graph6 codec's column-major pair order, and yield blocks: the
(B, n, n) bool adjacency stack of a block's connected rows, and their graph6
lines, packed from the same bits.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import ceil, comb
from typing import Iterable, Iterator

import numpy as np

from .errors import CapacityError, InputError, SamplingError
from .graph import Graph
from .graph6 import _graph6_lines, _graphs, _squares

_MAX_EXHAUSTIVE = 7

# pair bits per numpy block, enumerated or drawn; larger blocks raise peak
# memory
_BLOCK_BITS = 1 << 14

_REJECTION_CAP = 10_000


def _reaches_all(square: np.ndarray) -> np.ndarray:
    """Which graphs of a (B, n, n) bool adjacency stack, n >= 1, are
    connected: the vertices first reached from vertex 0 in one round take in
    their neighbours in the next, so each round reads only the rows of the
    vertices it starts from and a path of order n costs O(n^2), not O(n^3)."""
    reach = np.zeros(square.shape[:2], dtype=bool)
    reach[:, 0] = True
    new = reach.copy()
    while new.any():
        rows = np.flatnonzero(new.any(axis=0))
        new = (new[:, rows, None] & square[:, rows]).any(axis=1) & ~reach
        reach |= new
    return reach.all(axis=1)


_Block = tuple[np.ndarray, list[str]]  # a (B, n, n) bool stack, its B graph6 lines


def _connected_rows(n: int, blocks: Iterable[np.ndarray]) -> Iterator[_Block]:
    """The block of connected rows of each 0/1 matrix of order-n pair bits
    in graph6 pair order, left out when it has none."""
    for bits in blocks:
        square = _squares(n, bits)
        connected = _reaches_all(square)
        if connected.any():
            yield square[connected], _graph6_lines(n, bits[connected])


def _connected_with_graph6(n: int) -> Iterator[_Block]:
    """Blocks of every labelled connected graph on n vertices, in increasing
    mask order.

    2^C(n,2) masks are scanned, so n is capped at 7.
    """
    if not (isinstance(n, int) and 1 <= n):
        raise InputError(f"order must be a positive integer, got {n!r}")
    if n > _MAX_EXHAUSTIVE:
        raise CapacityError(
            f"exhaustive enumeration is limited to n <= {_MAX_EXHAUSTIVE}, got {n}"
        )
    nbits = comb(n, 2)
    total = 1 << nbits
    rows = _BLOCK_BITS // max(nbits, 1)
    starts = range(0, total, rows)
    masks = (np.arange(s, min(s + rows, total), dtype="<i8") for s in starts)
    # bit k of each mask, from its little-endian bytes
    blocks = (
        np.unpackbits(m.view(np.uint8).reshape(-1, 8), axis=1, count=nbits, bitorder="little")
        for m in masks
    )
    yield from _connected_rows(n, blocks)


def all_connected(n: int) -> Iterator[Graph]:
    """Every labelled connected graph on n vertices (n <= 7), in increasing
    mask order."""
    for square, _ in _connected_with_graph6(n):
        yield from _graphs(square)


@lru_cache(maxsize=None)
def connected_graph_count(n: int) -> int:
    """Number of labelled connected graphs on n vertices.

    Independent inclusion-exclusion recurrence over the component containing
    vertex 1:  c(n) = 2^C(n,2) - sum_{k<n} C(n-1,k-1) c(k) 2^C(n-k,2).
    """
    if not (isinstance(n, int) and n >= 1):
        raise InputError(f"order must be a positive integer, got {n!r}")
    total = 1 << comb(n, 2)
    for k in range(1, n):
        total -= comb(n - 1, k - 1) * connected_graph_count(k) * (1 << comb(n - k, 2))
    return total


def _draws_below(rng: random.Random, count: int, below: int) -> np.ndarray:
    """For each of rng's next `count` random() draws, whether it times 2**53
    is below `below`, with no call to random().

    random() is ((a >> 5) << 26 | b >> 6) / 2**53 for the generator's next two
    32-bit outputs a, b, and getrandbits(32 * k) holds its next k outputs,
    the first in the lowest word: so one call reads up to _BLOCK_BITS draws.
    """
    below_at = np.empty(count, dtype=bool)
    for start in range(0, count, _BLOCK_BITS):
        k = min(_BLOCK_BITS, count - start)
        raw = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        words = np.frombuffer(raw, dtype="<u4")
        numerators = (words[0::2].astype(np.uint64) >> 5) << 26 | words[1::2] >> 6
        below_at[start : start + k] = numerators < below
    return below_at


def _sample_with_graph6(n: int, p: float, count: int, seed: int) -> Iterator[_Block]:
    """Blocks of `count` connected samples from the binomial random-graph
    model G(n, p), by rejection sampling.

    Attempt t keeps its k-th pair iff draw t * C(n, 2) + k of
    random.Random(seed) is below p, as if random() were called once per pair
    of each attempt; the draws are read a block of attempts at a time.
    """
    if not (isinstance(n, int) and n >= 2):
        raise InputError(f"order must be an integer >= 2, got {n!r}")
    if not 0.0 < p < 1.0:
        raise InputError(f"edge probability must lie in (0, 1), got {p!r}")
    if not (isinstance(count, int) and count >= 0):
        raise InputError(f"count must be a nonnegative integer, got {count!r}")
    rng = random.Random(seed)
    nbits = comb(n, 2)
    # random() < p iff its numerator over 2**53 is below ceil(p * 2**53);
    # p * 2**53 only shifts p's exponent, so it is exact
    below = ceil(p * 2**53)
    budget = _REJECTION_CAP + 200 * count

    def blocks() -> Iterator[np.ndarray]:
        # a block draws no more samples than are still wanted (`produced` is
        # read as each block is pulled) or than the budget has left
        attempts = 0
        while attempts < budget and produced < count:
            rows = min(max(1, _BLOCK_BITS // nbits), count - produced, budget - attempts)
            attempts += rows
            yield _draws_below(rng, rows * nbits, below).reshape(rows, nbits)

    produced = 0
    for block in _connected_rows(n, blocks()):
        produced += len(block[1])
        yield block
    if produced < count:
        raise SamplingError(
            f"gave up after {budget} draws; p={p} may be too sparse for n={n}"
        )


def sample_connected(
    n: int, p: float, count: int, seed: int
) -> Iterator[Graph]:
    """`count` connected samples from the binomial random-graph model G(n, p).

    Rejection sampling, fully determined by (n, p, count, seed).
    """
    for square, _ in _sample_with_graph6(n, p, count, seed):
        yield from _graphs(square)
