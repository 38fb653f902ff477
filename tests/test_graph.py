"""Structural graph operations and the clique-join families."""

import random
from functools import reduce
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmatch import (
    InputError,
    build_graph,
    complete_graph,
    components,
    deficiency,
    empty_graph,
    extremal_h,
    is_connected,
    join,
    proof_graph,
    tutte_berge_oracle,
)


def _disjoint_union(G1, G2):
    shifted = [(u + G1.n, v + G1.n) for u, v in G2.edges()]
    return build_graph(G1.n + G2.n, G1.edges() + shifted)


def _random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def test_build_graph_path(path3):
    assert path3.n == 3
    assert path3.edge_count == 2
    assert path3.has_edge(0, 1) and path3.has_edge(1, 2) and not path3.has_edge(0, 2)


def test_build_graph_complete():
    K4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert K4.edge_count == 6
    assert K4 == complete_graph(4)


def test_build_graph_no_edges():
    G = build_graph(2, [])
    assert G.n == 2 and G.edge_count == 0


def test_build_graph_collapses_duplicates():
    G = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert G.edge_count == 1


def test_build_graph_rejects_bad_input():
    with pytest.raises(InputError):
        build_graph(3, [(0, 3)])
    with pytest.raises(InputError):
        build_graph(3, [(1, 1)])
    with pytest.raises(InputError):
        build_graph(-1, [])


def test_edge_count_is_half_degree_sum():
    rng = random.Random(2)
    for _ in range(20):
        G = _random_graph(rng, rng.randint(1, 10), 0.4)
        assert 2 * G.edge_count == sum(G.degrees())


def test_graphs_are_value_objects():
    a = build_graph(3, [(0, 1)])
    b = build_graph(3, [(1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != build_graph(3, [(0, 2)])


def test_is_connected(path3):
    assert is_connected(path3)
    assert not is_connected(build_graph(2, []))
    assert is_connected(extremal_h(10))
    with pytest.raises(InputError):
        is_connected(build_graph(0, []))


def test_delete_hub_of_h10(nx_odd_components):
    # without its hub, H10 is K7 and two isolated vertices
    assert nx_odd_components(extremal_h(10), {0}) == 3
    assert deficiency(extremal_h(10), {0}) == 2


def test_odd_components(cycle6):
    # the deficiency of the empty set counts the odd components
    assert deficiency(cycle6, ()) == 0
    assert deficiency(empty_graph(3), ()) == 3
    G = build_graph(9, complete_graph(7).edges())
    assert sorted(len(c) for c in components(G)) == [1, 1, 7]
    assert deficiency(G, ()) == 3


@st.composite
def _graphs_with_vertex_sets(draw):
    n = draw(st.integers(0, 14))
    mask = draw(st.integers(0, (1 << comb(n, 2)) - 1))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    G = build_graph(n, [pair for k, pair in enumerate(pairs) if (mask >> k) & 1])
    return G, draw(st.sets(st.integers(0, n - 1))) if n else set()


@settings(max_examples=300, deadline=None)
@given(_graphs_with_vertex_sets())
def test_deficiency_matches_the_deleted_subgraph(nx_odd_components, case):
    G, S = case
    assert deficiency(G, S) == nx_odd_components(G, S) - len(S)


def test_deficiency_rejects_outsiders(cycle6):
    with pytest.raises(InputError):
        deficiency(cycle6, [6])
    with pytest.raises(InputError):
        deficiency(cycle6, [-1])


def test_join_edge_counts():
    G = join(complete_graph(2), empty_graph(4))
    assert G.n == 6 and G.edge_count == 9
    G = join(complete_graph(3), empty_graph(5))
    assert G.n == 8 and G.edge_count == 18
    assert join(complete_graph(1), complete_graph(1)) == complete_graph(2)


def test_join_edge_count_identity_random():
    rng = random.Random(11)
    for _ in range(30):
        g1 = _random_graph(rng, rng.randint(1, 7), 0.5)
        g2 = _random_graph(rng, rng.randint(1, 7), 0.5)
        joined = join(g1, g2)
        assert joined.edge_count == g1.edge_count + g2.edge_count + g1.n * g2.n


def test_proof_graph_star():
    assert proof_graph(1, [1, 1, 1]) == build_graph(4, [(0, 1), (0, 2), (0, 3)])


def test_proof_graph_matches_join_constructions():
    assert proof_graph(2, [1, 1, 1, 1]) == join(complete_graph(2), empty_graph(4))
    assert proof_graph(1, [7, 1, 1]) == extremal_h(10)
    for n in range(4, 41):
        pendants = build_graph(n - 1, complete_graph(n - 3).edges())
        assert extremal_h(n) == join(complete_graph(1), pendants)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.lists(st.integers(1, 8), min_size=1, max_size=6))
def test_proof_graph_matches_the_combinator_chain(s, parts):
    chain = join(complete_graph(s), reduce(_disjoint_union, map(complete_graph, parts)))
    assert proof_graph(s, parts) == chain


def test_proof_graph_edge_count_formula():
    G = proof_graph(2, [3, 1, 1, 1])
    assert G.n == 8 and G.edge_count == 16
    rng = random.Random(23)
    for _ in range(20):
        s = rng.randint(1, 4)
        parts = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        G = proof_graph(s, parts)
        expected = comb(s, 2) + sum(comb(p, 2) for p in parts) + s * sum(parts)
        assert G.edge_count == expected


def test_proof_graph_always_connected():
    for s, parts in [(1, [1, 1, 1]), (3, [5, 3, 1, 1, 1]), (2, [9, 7, 5, 3])]:
        assert is_connected(proof_graph(s, parts))


def test_proof_graph_validation():
    with pytest.raises(InputError):
        proof_graph(0, [1])
    with pytest.raises(InputError):
        proof_graph(1, [])
    with pytest.raises(InputError):
        proof_graph(1, [0])


def test_extremal_h_smallest_is_a_star():
    H4 = extremal_h(4)
    assert H4 == build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert H4.edge_count == 3


def test_extremal_h_edge_count_formula():
    for n in range(4, 201, 2):
        assert extremal_h(n).edge_count == (n * n - 5 * n + 10) // 2


def test_extremal_h_structure():
    H = extremal_h(10)
    assert H.degree(0) == 9  # hub adjacent to everything
    assert all(H.degree(v) == 7 for v in range(1, 8))  # clique + hub
    assert H.degree(8) == 1 and H.degree(9) == 1  # pendants
    assert not H.has_edge(8, 9)


def test_extremal_h_hub_is_a_tutte_witness():
    for n in (4, 6, 12):
        deficiency, witness = tutte_berge_oracle(extremal_h(n))
        assert deficiency == 2 and witness == (0,)


def test_extremal_h_rejects_small_orders():
    with pytest.raises(InputError):
        extremal_h(3)
