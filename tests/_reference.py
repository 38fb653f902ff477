"""Slow, independent constructions that the tests compare the program's
fast paths against: the subset oracle behind the blossom's deficiency, the
scalar pair-order codec behind the numpy pair-bit blocks, and the clique join
behind `proof_graph`."""

from itertools import combinations

from slmatch import CapacityError, Graph, build_graph, deficiency
from slmatch.graph6 import edge_bits


def tutte_berge_oracle(G: Graph) -> tuple[int, tuple[int, ...]]:
    """Brute-force max of o(G-S) - |S| over all vertex subsets S.

    Subsets are enumerated by size then lexicographically; the first maximiser
    is returned.  Exponential: refuses n > 20.
    """
    n = G.n
    if n > 20:
        raise CapacityError(f"subset enumeration limited to n <= 20, got {n}")
    best, best_set = -1, ()
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            d = deficiency(G, combo)
            if d > best:
                best, best_set = d, combo
    return best, best_set


def pair_index_order(n: int) -> list[tuple[int, int]]:
    """Vertex pairs (i, j), i < j, in graph6 column-major bit order."""
    return [(i, j) for j in range(1, n) for i in range(j)]


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


def join(G1: Graph, G2: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    n1, n2 = G1.n, G2.n
    left = (1 << n1) - 1
    right = ((1 << n2) - 1) << n1
    adj = [m | right for m in G1.adjacency_masks()]
    adj += [(m << n1) | left for m in G2.adjacency_masks()]
    return Graph(n1 + n2, tuple(adj))


def complete_graph(m: int) -> Graph:
    return build_graph(m, combinations(range(m), 2))
