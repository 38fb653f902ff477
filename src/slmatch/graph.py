"""Immutable simple graphs, their Tutte-Berge deficiency, and the proof's
clique-join graphs K_s v (K_n1 u ... u K_nk).

Vertices are always labelled 0..n-1.  Adjacency is stored as one bitmask int
per vertex, so graphs are hashable value objects and component/subset work is
cheap integer arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InputError


class Graph:
    """Simple undirected graph (no loops, no multiedges) on vertices 0..n-1.

    The constructor trusts its arguments; use :func:`build_graph` to construct
    from an edge list with validation.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n = n
        self._adj = adj

    def adjacency_masks(self) -> tuple[int, ...]:
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._adj[u] >> v) & 1)

    def neighbors(self, v: int) -> list[int]:
        return _bits(self._adj[v])

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self._adj]

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self._adj)) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.neighbors(u) if v > u]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on n vertices with the given edges (duplicates collapsed)."""
    if not isinstance(n, int) or n < 0:
        raise InputError(f"vertex count must be a nonnegative integer, got {n!r}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise InputError(f"self-loop ({u},{v}) not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def component_masks(adj: tuple[int, ...], mask: int) -> Iterator[int]:
    """Connected components of the subgraph induced on the vertices in `mask`,
    yielded as bitmasks."""
    remaining = mask
    while remaining:
        low = remaining & -remaining
        comp = low
        frontier = low
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= adj[b.bit_length() - 1]
                f ^= b
            frontier = nxt & remaining & ~comp
            comp |= frontier
        yield comp
        remaining &= ~comp


def deficiency(G: Graph, S: Iterable[int]) -> int:
    """Tutte-Berge deficiency o(G - S) - |S| of the vertex set S, counted on
    the adjacency masks without building G - S."""
    smask = 0
    for v in S:
        if not (isinstance(v, int) and 0 <= v < G.n):
            raise InputError(f"vertex {v!r} not in 0..{G.n - 1}")
        smask |= 1 << v
    rest = ((1 << G.n) - 1) & ~smask
    odd = sum(m.bit_count() & 1 for m in component_masks(G._adj, rest))
    return odd - smask.bit_count()


def proof_graph(s: int, parts: Iterable[int]) -> Graph:
    """Clique K_s joined to a disjoint union of cliques of the given orders.

    The first s vertices form the joined clique; each part follows as a
    consecutive block.  This is the shape every deficiency witness can be
    completed to without losing edges.
    """
    parts = list(parts)
    if not (isinstance(s, int) and s >= 1):
        raise InputError(f"s must be a positive integer, got {s!r}")
    if not parts:
        raise InputError("at least one component order is required")
    for p in parts:
        if not (isinstance(p, int) and p >= 1):
            raise InputError(f"component orders must be positive integers, got {p!r}")
    n = s + sum(parts)
    hub = (1 << s) - 1
    adj = [((1 << n) - 1) ^ (1 << v) for v in range(s)]
    start = s
    for p in parts:
        block = ((1 << p) - 1) << start
        adj.extend((hub | block) ^ (1 << v) for v in range(start, start + p))
        start += p
    return Graph(n, tuple(adj))

