"""Blossom matching cross-checked against brute-force deficiency enumeration."""

import hashlib
import json
import random

import networkx as nx
import pytest

from slmatch import (
    CapacityError,
    all_connected,
    build_graph,
    complete_graph,
    deficiency,
    empty_graph,
    encode_graph6,
    extremal_h,
    has_perfect_matching,
    join,
    maximum_matching,
    proof_graph,
    sample_connected,
    tutte_berge_oracle,
)


def test_star_matching():
    result = maximum_matching(build_graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert result.size == 1
    assert len(result.edges) == 1


def test_even_cycle_is_perfect(cycle6):
    result = maximum_matching(cycle6)
    assert result.size == 3
    assert result.witness is None


def test_petersen_matching_number(petersen):
    deficiency, _ = tutte_berge_oracle(petersen)
    result = maximum_matching(petersen)
    assert petersen.n - 2 * result.size == max(deficiency, 0)
    assert result.size == 5


def test_matching_edges_are_disjoint_graph_edges():
    for G in sample_connected(9, 0.35, 40, seed=5):
        result = maximum_matching(G)
        used = set()
        for u, v in result.edges:
            assert G.has_edge(u, v)
            assert u not in used and v not in used
            used.update((u, v))
        assert result.size == len(result.edges)


def test_has_perfect_matching():
    assert has_perfect_matching(complete_graph(4))
    assert not has_perfect_matching(complete_graph(3))  # odd order
    assert not has_perfect_matching(join(complete_graph(2), empty_graph(4)))
    for n in (4, 6, 8, 14):
        assert not has_perfect_matching(extremal_h(n))


def test_witness_certifies_deficiency(nx_odd_components):
    candidates = [
        extremal_h(8),
        join(complete_graph(3), empty_graph(5)),
        complete_graph(5),
        build_graph(4, [(0, 1), (0, 2), (0, 3)]),
    ]
    for G in candidates:
        result = maximum_matching(G)
        assert result.witness is not None
        short = nx_odd_components(G, result.witness) - len(result.witness)
        assert short == G.n - 2 * result.size
        assert short >= 1


def test_tutte_berge_oracle_examples():
    deficiency, witness = tutte_berge_oracle(complete_graph(4))
    assert deficiency == 0 and witness == ()
    deficiency, witness = tutte_berge_oracle(build_graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert deficiency == 2 and witness == (0,)
    deficiency, witness = tutte_berge_oracle(join(complete_graph(3), empty_graph(5)))
    assert deficiency == 2 and witness == (0, 1, 2)


def test_tutte_berge_oracle_capacity():
    with pytest.raises(CapacityError):
        tutte_berge_oracle(empty_graph(21))


def test_tutte_berge_agreement_exhaustive_small():
    for n in range(1, 6):
        for G in all_connected(n):
            size = maximum_matching(G).size
            deficiency, _ = tutte_berge_oracle(G)
            assert G.n - 2 * size == max(deficiency, 0)


def test_tutte_berge_agreement_sampled():
    for n in (7, 8):
        for G in sample_connected(n, 0.4, 60, seed=n):
            size = maximum_matching(G).size
            deficiency, _ = tutte_berge_oracle(G)
            assert G.n - 2 * size == max(deficiency, 0)


def test_adding_an_edge_never_decreases_matching_number():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(3, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        G = build_graph(n, edges)
        non_edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if not G.has_edge(i, j)
        ]
        if not non_edges:
            continue
        extra = non_edges[rng.randrange(len(non_edges))]
        bigger = build_graph(n, edges + [extra])
        assert maximum_matching(bigger).size >= maximum_matching(G).size


def _networkx_matching_number(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return len(nx.max_weight_matching(H, maxcardinality=True))


def _check_against_networkx(G):
    result = maximum_matching(G)
    assert result.size == _networkx_matching_number(G)
    if result.witness is None:
        assert 2 * result.size == G.n
    else:
        assert deficiency(G, result.witness) == G.n - 2 * result.size


def _random_graph(n, p, rng):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@pytest.mark.parametrize("n", [64, 100, 250])
def test_matching_number_agrees_with_networkx_on_dense_graphs(n):
    _check_against_networkx(_random_graph(n, 0.5, random.Random(n)))


_PATH_1000 = [(i, i + 1) for i in range(999)]
_SPARSE_ORDER_1000 = {
    "tree": lambda: build_graph(1000, nx.random_labeled_tree(1000, seed=7).edges()),
    # path 0..499 with a pendant 500+i at each i: the greedy warm start pairs
    # the path vertices, so every pendant is left to the augmenting search
    "comb": lambda: build_graph(1000, _PATH_1000[:499] + [(i, 500 + i) for i in range(500)]),
    "path": lambda: build_graph(1000, _PATH_1000),
}


@pytest.mark.parametrize("name", list(_SPARSE_ORDER_1000))
def test_matching_number_agrees_with_networkx_on_sparse_order_1000(name):
    _check_against_networkx(_SPARSE_ORDER_1000[name]())


def test_blossom_output_is_pinned_on_every_connected_6_vertex_graph():
    # exact edges and witnesses, independent of any eigensolver
    digest = hashlib.sha256()
    for G in all_connected(6):
        m = maximum_matching(G)
        digest.update((json.dumps([encode_graph6(G), m.edges, m.witness]) + "\n").encode())
    assert digest.hexdigest() == (
        "eb1e4a680d8cf1b17f614b5669c7e5821482cf7ab14c7879324df77a9a95b107"
    )


def _without_edges(G, k, seed):
    edges = G.edges()
    drop = set(random.Random(seed).sample(range(len(edges)), k))
    return build_graph(G.n, [e for i, e in enumerate(edges) if i not in drop])


_PINNED_SCENARIOS = [
    (1, (3, 3, 3)),
    (2, (5, 3, 3, 1, 1)),
    (3, (7, 5, 3, 3, 1, 1)),
    (4, (9, 7, 5, 3, 3, 1, 1)),
    (5, (21, 11, 9, 5, 3, 3, 1, 1)),
]


def _pinned_corpus_beyond_order_6():
    # seed 4 leaves two vertices exposed after the greedy warm start at every
    # order, so each graph runs augmenting searches through many blossoms
    for n in (100, 250, 500, 1000):
        yield _random_graph(n, 0.5, random.Random(4))
    # sparse mid-order graphs nest blossoms inside blossoms, which the dense
    # ones above seldom do
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(15, 39)
        yield _random_graph(n, rng.choice((0.1, 0.2, 0.35)), rng)
    # K_s joined to odd cliques, minus three edges: no perfect matching, so
    # the witness labelling runs too
    for i, (s, parts) in enumerate(_PINNED_SCENARIOS):
        yield _without_edges(proof_graph(s, parts), 3, i)
    for build in _SPARSE_ORDER_1000.values():
        yield build()


def test_blossom_output_is_pinned_beyond_order_6():
    digest = hashlib.sha256()
    for G in _pinned_corpus_beyond_order_6():
        m = maximum_matching(G)
        digest.update((json.dumps([encode_graph6(G), m.edges, m.witness]) + "\n").encode())
    assert digest.hexdigest() == (
        "3ba425352fdbcba6e5d298bcb3f618a3dfe17c9683e4202f9936d1b322c17c29"
    )


def _gallai_edmonds_a(G):
    """A(G) of the Gallai-Edmonds decomposition, counted by networkx:
    D = {v : nu(G - v) = nu(G)}, A = N(D) minus D."""
    H = nx.Graph(G.edges())
    H.add_nodes_from(range(G.n))

    def nu(graph):
        return len(nx.max_weight_matching(graph, maxcardinality=True))

    full = nu(H)
    D = {v for v in range(G.n) if nu(nx.restricted_view(H, [v], [])) == full}
    return tuple(sorted({u for v in D for u in H[v]} - D))


def test_witness_is_the_gallai_edmonds_set_a():
    # A(G) depends on G alone, so the witness cannot depend on which
    # augmenting paths the search happened to take
    rng = random.Random(31)
    checked = 0
    for _ in range(400):
        n = rng.randint(1, 14)
        G = _random_graph(n, rng.choice((0.15, 0.3, 0.5)), rng)
        m = maximum_matching(G)
        if m.witness is not None:
            assert m.witness == _gallai_edmonds_a(G)
            checked += 1
    assert checked >= 300
