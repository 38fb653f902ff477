"""Exhaustive and seeded-random generation of labelled connected graphs.

Edge masks index vertex pairs in the same column-major order as the graph6
codec, so any mask can be reported back as a graph6 line for reproduction.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import comb
from typing import Iterator

from .errors import CapacityError, InputError, SamplingError
from .graph import Graph, component_masks, is_connected
from .graph6 import edge_bits, pair_index_order

_MAX_EXHAUSTIVE = 7

_REJECTION_CAP = 10_000


def _mask_adjacency(n: int, pairs: list[tuple[int, int]], mask: int) -> tuple[int, ...]:
    """Adjacency masks with pairs[k] an edge iff bit k of mask is set, in
    time linear in the pair count: bin() reversed lists bit k at index k."""
    adj = [0] * n
    for (i, j), bit in zip(pairs, bin(mask)[:1:-1]):
        if bit == "1":
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return tuple(adj)


def edge_mask_to_graph(n: int, mask: int) -> Graph:
    """Graph whose k-th pair (graph6 order) is an edge iff bit k of mask is set."""
    return Graph(n, _mask_adjacency(n, pair_index_order(n), mask))


def graph_to_edge_mask(G: Graph) -> int:
    """Inverse of edge_mask_to_graph, read off the graph6 adjacency bits."""
    return int("0" + edge_bits(G)[::-1], 2)


def all_connected(n: int) -> Iterator[Graph]:
    """Every labelled connected graph on n vertices, in increasing mask order.

    2^C(n,2) masks are scanned, so n is capped at 7.
    """
    if not (isinstance(n, int) and 1 <= n):
        raise InputError(f"order must be a positive integer, got {n!r}")
    if n > _MAX_EXHAUSTIVE:
        raise CapacityError(
            f"exhaustive enumeration is limited to n <= {_MAX_EXHAUSTIVE}, got {n}"
        )
    pairs = pair_index_order(n)
    full = (1 << n) - 1
    for mask in range(1 << len(pairs)):
        adj = _mask_adjacency(n, pairs, mask)
        # the first component found is the one holding vertex 0
        if next(component_masks(adj, full)) == full:
            yield Graph(n, adj)


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
