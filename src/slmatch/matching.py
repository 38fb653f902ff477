"""Maximum matchings, perfect-matching tests, and deficiency witnesses.

The workhorse is an augmenting-path search with blossom contraction (O(n^3)).
Once the matching is maximum, one extra labelling pass started from every
exposed vertex splits the vertices into outer / inner / unreached; the inner
set S maximises o(G-S) - |S| and certifies the deficiency.  A subset
enumeration oracle gives an independent check for small graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .errors import CapacityError
from .graph import Graph, deficiency

_NONE = -1


@dataclass(frozen=True)
class MatchingResult:
    """Matching number, the edges of one maximum matching, and (when the
    matching is not perfect) a witness set S with o(G-S) - |S| >= 1."""

    size: int
    edges: tuple[tuple[int, int], ...]
    witness: tuple[int, ...] | None


def _adjacency_lists(G: Graph) -> list[list[int]]:
    return [G.neighbors(v) for v in range(G.n)]


def _lca(base, match, parent, a, b, n):
    seen = [False] * n
    while True:
        a = base[a]
        seen[a] = True
        if match[a] == _NONE:
            break
        a = base[parent[match[a]]]
    while True:
        b = base[b]
        if seen[b]:
            return b
        b = base[parent[match[b]]]


def _mark_path(base, match, parent, in_blossom, v, stop, child):
    while base[v] != stop:
        in_blossom[base[v]] = True
        in_blossom[base[match[v]]] = True
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


def _search(adj, n, match, roots, augment):
    """Grow alternating trees from `roots`, contracting blossoms.

    With augment=True the search stops at the first augmenting path, flips it
    and returns True.  With augment=False (used only when the matching is
    already maximum) it returns the final (outer, parent) labelling.
    """
    outer = [False] * n
    parent = [_NONE] * n
    base = list(range(n))
    queue = deque()
    for r in roots:
        outer[r] = True
        queue.append(r)
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if outer[to]:
                # odd cycle through two outer vertices: contract the blossom
                stop = _lca(base, match, parent, v, to, n)
                in_blossom = [False] * n
                _mark_path(base, match, parent, in_blossom, v, stop, to)
                _mark_path(base, match, parent, in_blossom, to, stop, v)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stop
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[to] == _NONE:
                parent[to] = v
                if match[to] == _NONE:
                    if not augment:
                        raise RuntimeError(
                            "augmenting path found in a supposedly maximum matching"
                        )
                    # flip matched/unmatched along the path back to the root
                    w = to
                    while w != _NONE:
                        pw = parent[w]
                        nxt = match[pw]
                        match[w] = pw
                        match[pw] = w
                        w = nxt
                    return True
                outer[match[to]] = True
                queue.append(match[to])
    if augment:
        return False
    return outer, parent


def maximum_matching(G: Graph) -> MatchingResult:
    """Maximum matching of G; deterministic for a fixed input."""
    n = G.n
    adj = _adjacency_lists(G)
    match = [_NONE] * n
    for v in range(n):  # greedy warm start
        if match[v] == _NONE:
            for u in adj[v]:
                if match[u] == _NONE:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] == _NONE:
            _search(adj, n, match, [v], augment=True)

    edges = tuple(sorted((match[v], v) for v in range(n) if _NONE != match[v] < v))
    for u, v in edges:
        if not G.has_edge(u, v):
            raise RuntimeError(f"matching produced a non-edge ({u},{v})")
    size = len(edges)
    if 2 * size == n:
        return MatchingResult(size, edges, None)

    witness = _deficiency_witness(G, adj, match)
    if deficiency(G, witness) != n - 2 * size:
        raise RuntimeError("witness does not certify the matching deficiency")
    return MatchingResult(size, edges, witness)


def _deficiency_witness(G: Graph, adj, match) -> tuple[int, ...]:
    exposed = [v for v in range(G.n) if match[v] == _NONE]
    outer, parent = _search(adj, G.n, match, exposed, augment=False)
    return tuple(v for v in range(G.n) if parent[v] != _NONE and not outer[v])


def has_perfect_matching(G: Graph) -> bool:
    """True iff a matching covers every vertex (always false for odd order)."""
    return 2 * maximum_matching(G).size == G.n


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
