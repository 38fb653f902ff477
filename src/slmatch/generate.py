"""Exhaustive and seeded-random generation of labelled connected graphs.

Edge masks index vertex pairs in the same column-major order as the graph6
codec, so any mask can be reported back as a graph6 line for reproduction:
exhaustive enumeration takes each graph's line from the bits of its mask.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import comb
from typing import Iterator

import numpy as np

from .errors import CapacityError, InputError, SamplingError
from .graph import Graph, is_connected
from .graph6 import _graph6_lines, edge_bits, pair_index_order

_MAX_EXHAUSTIVE = 7

# masks enumerated per numpy block; larger blocks raise peak memory
_BLOCK_MASKS = 1024

_REJECTION_CAP = 10_000


def edge_mask_to_graph(n: int, mask: int) -> Graph:
    """Graph whose k-th pair (graph6 order) is an edge iff bit k of mask is
    set, in time linear in the pair count: bin() reversed lists bit k at
    index k."""
    adj = [0] * n
    for (i, j), bit in zip(pair_index_order(n), bin(mask)[:1:-1]):
        if bit == "1":
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def graph_to_edge_mask(G: Graph) -> int:
    """Inverse of edge_mask_to_graph, read off the graph6 adjacency bits."""
    return int("0" + edge_bits(G)[::-1], 2)


def _connected_with_graph6(n: int) -> Iterator[tuple[Graph, str]]:
    """(graph, graph6 line) of every labelled connected graph on n vertices,
    in increasing mask order, from blocks of _BLOCK_MASKS masks.

    2^C(n,2) masks are scanned, so n is capped at 7.
    """
    if not (isinstance(n, int) and 1 <= n):
        raise InputError(f"order must be a positive integer, got {n!r}")
    if n > _MAX_EXHAUSTIVE:
        raise CapacityError(
            f"exhaustive enumeration is limited to n <= {_MAX_EXHAUSTIVE}, got {n}"
        )
    pairs = pair_index_order(n)
    # a block's adjacency masks are its pair bits @ weights: pair k = (i, j)
    # adds vertex j to the mask of i and vertex i to the mask of j
    weights = np.zeros((len(pairs), n), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        weights[k, i] = 1 << j
        weights[k, j] = 1 << i
    shifts = np.arange(len(pairs), dtype=np.int64)
    total = 1 << len(pairs)
    for start in range(0, total, _BLOCK_MASKS):
        masks = np.arange(start, min(start + _BLOCK_MASKS, total), dtype=np.int64)
        bits = (masks[:, None] >> shifts) & 1
        adj = bits @ weights
        # the vertices reachable from vertex 0: n - 1 rounds reach them all
        reach = np.ones(len(masks), dtype=np.int64)
        for _ in range(n - 1):
            for v in range(n):
                reach |= adj[:, v] * ((reach >> v) & 1)
        connected = reach == (1 << n) - 1
        lines = _graph6_lines(n, bits[connected])
        for row, line in zip(adj[connected].tolist(), lines):
            yield Graph(n, tuple(row)), line


def all_connected(n: int) -> Iterator[Graph]:
    """Every labelled connected graph on n vertices (n <= 7), in increasing
    mask order."""
    for G, _ in _connected_with_graph6(n):
        yield G


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


def sample_connected(
    n: int, p: float, count: int, seed: int
) -> Iterator[Graph]:
    """`count` connected samples from the binomial random-graph model G(n, p).

    Rejection sampling, fully determined by (n, p, count, seed).
    """
    if not (isinstance(n, int) and n >= 2):
        raise InputError(f"order must be an integer >= 2, got {n!r}")
    if not 0.0 < p < 1.0:
        raise InputError(f"edge probability must lie in (0, 1), got {p!r}")
    if count < 0:
        raise InputError("count must be nonnegative")
    rng = random.Random(seed)
    pairs = pair_index_order(n)
    produced = 0
    attempts = 0
    budget = _REJECTION_CAP + 200 * count
    while produced < count:
        if attempts >= budget:
            raise SamplingError(
                f"gave up after {attempts} draws; p={p} may be too sparse for n={n}"
            )
        attempts += 1
        adj = [0] * n
        for i, j in pairs:
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        G = Graph(n, tuple(adj))
        if is_connected(G):
            produced += 1
            yield G
