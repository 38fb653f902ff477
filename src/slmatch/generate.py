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
from .graph6 import pair_index_order

_MAX_EXHAUSTIVE = 7

_REJECTION_CAP = 10_000


def edge_mask_to_graph(n: int, mask: int) -> Graph:
    """Graph whose k-th pair (graph6 order) is an edge iff bit k of mask is set."""
    adj = [0] * n
    for k, (i, j) in enumerate(pair_index_order(n)):
        if (mask >> k) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def graph_to_edge_mask(G: Graph) -> int:
    mask = 0
    for k, (i, j) in enumerate(pair_index_order(G.n)):
        if G.has_edge(i, j):
            mask |= 1 << k
    return mask


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
        adj = [0] * n
        m = mask
        k = 0
        while m:
            if m & 1:
                i, j = pairs[k]
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            m >>= 1
            k += 1
        adj = tuple(adj)
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
