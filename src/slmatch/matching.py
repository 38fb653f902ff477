"""Maximum matchings, perfect-matching tests, and deficiency witnesses.

The workhorse is an augmenting-path search with blossom contraction (O(n^3))
that runs on the adjacency bitmasks the graph already stores: the greedy warm
start takes each vertex's lowest free neighbour as the lowest bit of a mask,
and the search expands a vertex's mask into neighbours, lowest first, only
when it pops that vertex, less the vertices of its own blossom.  Each
contracted blossom keeps a mask of its vertices under its base, so one
contraction costs time in the length of the odd cycle plus the vertices it
absorbs, not in n; the absorbed vertices are relabelled in increasing order,
the order a scan over every vertex would give.  Once the matching is
maximum, one extra labelling pass started from every exposed vertex splits
the vertices into outer / inner / unreached; the inner set S maximises
o(G-S) - |S| and certifies the deficiency.  A subset enumeration oracle gives
an independent check for small graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .errors import CapacityError
from .graph import Graph, _bits, deficiency

_NONE = -1


@dataclass(frozen=True)
class MatchingResult:
    """Matching number, the edges of one maximum matching, and (when the
    matching is not perfect) a witness set S with o(G-S) - |S| >= 1."""

    size: int
    edges: tuple[tuple[int, int], ...]
    witness: tuple[int, ...] | None


def _lca(base, match, parent, a, b):
    seen = 0
    while True:
        a = base[a]
        seen |= 1 << a
        if match[a] == _NONE:
            break
        a = base[parent[match[a]]]
    while True:
        b = base[b]
        if seen >> b & 1:
            return b
        b = base[parent[match[b]]]


def _mark_path(base, match, parent, members, v, stop, child):
    """Point the path from v up to the base `stop` back through `child`, and
    return the vertices of the blossoms it crosses as a bitmask."""
    absorbed = 0
    while base[v] != stop:
        b, c = base[v], base[match[v]]
        absorbed |= members.pop(b, 1 << b) | members.pop(c, 1 << c)
        parent[v] = child
        child = match[v]
        v = parent[match[v]]
    return absorbed


def _search(adj, n, match, roots, augment):
    """Grow alternating trees from `roots` over the adjacency masks `adj`,
    contracting blossoms.

    With augment=True the search stops at the first augmenting path, flips it
    and returns True.  With augment=False (used only when the matching is
    already maximum) it returns the final (outer, parent) labelling.
    """
    outer = [False] * n
    parent = [_NONE] * n
    base = list(range(n))
    # vertex mask of each contracted blossom, keyed by its base; a vertex that
    # is still its own base has no entry
    members = {}
    queue = deque()
    for r in roots:
        outer[r] = True
        queue.append(r)
    while queue:
        v = queue.popleft()
        # v's own blossom stays together, so its vertices are never neighbours
        # worth scanning
        for to in _bits(adj[v] & ~members.get(base[v], 0)):
            if base[v] == base[to] or match[v] == to:
                continue
            if outer[to]:
                # odd cycle through two outer vertices: contract the blossom
                stop = _lca(base, match, parent, v, to)
                absorbed = _mark_path(base, match, parent, members, v, stop, to)
                absorbed |= _mark_path(base, match, parent, members, to, stop, v)
                # in increasing vertex order: the queue order fixes the output
                for i in _bits(absorbed):
                    base[i] = stop
                    if not outer[i]:
                        outer[i] = True
                        queue.append(i)
                members[stop] = members.get(stop, 1 << stop) | absorbed
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
    adj = G.adjacency_masks()
    match = [_NONE] * n
    free = (1 << n) - 1
    for v in range(n):  # greedy warm start: v's lowest free neighbour
        if match[v] == _NONE and (candidates := adj[v] & free):
            u = (candidates & -candidates).bit_length() - 1
            match[v] = u
            match[u] = v
            free ^= (1 << v) | (1 << u)
    for v in range(n):
        if match[v] == _NONE:
            _search(adj, n, match, [v], augment=True)

    edges = tuple(sorted((match[v], v) for v in range(n) if _NONE != match[v] < v))
    for u, v in edges:
        if not adj[u] >> v & 1:
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
