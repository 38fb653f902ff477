"""Enumeration counts, edge-mask ordering, and seeded sampling."""

import random
import time

import networkx as nx
import numpy as np
import pytest

from _reference import complete_graph, edge_mask_to_graph, graph_to_edge_mask, pair_index_order
from slmatch import (
    CapacityError,
    InputError,
    SamplingError,
    all_connected,
    build_graph,
    connected_graph_count,
    sample_connected,
)
from slmatch.generate import (
    _REJECTION_CAP,
    _connected_rows,
    _connected_with_graph6,
    _reaches_all,
    _sample_with_graph6,
)
from slmatch.graph import Graph
from slmatch.graph6 import _squares, decode_graph6, edge_bits, encode_graph6


def is_connected(G):
    """Connectivity by networkx, an independent reference."""
    H = nx.Graph(G.edges())
    H.add_nodes_from(range(G.n))
    return nx.is_connected(H)


def _rows(blocks):
    """(graph, graph6 line) of each row of each block, the graph read off
    the row of the block's adjacency stack."""
    for square, lines in blocks:
        assert square.dtype == bool and len(square) == len(lines) > 0
        for A, line in zip(square, lines):
            assert np.array_equal(A, A.T) and not A.diagonal().any()
            i, j = np.triu(A).nonzero()
            yield build_graph(len(A), zip(i.tolist(), j.tolist())), line


def _per_pair_samples(n, p, count, seed):
    """The reference sampler: one rng.random() call per vertex pair of each
    draw, rejecting disconnected draws, with the same budget and message."""
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


def _per_pair_graph(n, mask):
    pairs = pair_index_order(n)
    return build_graph(n, [pair for k, pair in enumerate(pairs) if (mask >> k) & 1])


def test_enumeration_matches_inclusion_exclusion_count():
    for n in range(1, 6):
        assert sum(1 for _ in all_connected(n)) == connected_graph_count(n)


def test_enumeration_count_n6():
    assert connected_graph_count(6) == 26704
    assert sum(1 for _ in all_connected(6)) == 26704


def test_count_recurrence_known_values():
    # 2^C(n,2) minus graphs where vertex 0's component misses something
    assert [connected_graph_count(n) for n in range(1, 8)] == [
        1, 1, 4, 38, 728, 26704, 1866256,
    ]


def test_enumeration_small_masks_in_order():
    graphs = list(all_connected(3))
    assert len(graphs) == 4
    masks = [graph_to_edge_mask(G) for G in graphs]
    assert masks == sorted(masks)
    assert masks == [3, 5, 6, 7]  # the four connected 3-vertex edge sets


def test_enumeration_yields_connected_simple_graphs():
    for G in all_connected(4):
        assert is_connected(G)
        assert all(not G.has_edge(v, v) for v in range(G.n))


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        next(all_connected(8))
    with pytest.raises(InputError):
        next(all_connected(0))


def test_edge_mask_roundtrip():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 12)
        mask = rng.getrandbits(n * (n - 1) // 2)
        assert graph_to_edge_mask(edge_mask_to_graph(n, mask)) == mask


def test_edge_mask_codec_matches_per_pair_reference():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(0, 30)
        mask = rng.getrandbits(n * (n - 1) // 2)
        G = _per_pair_graph(n, mask)
        assert edge_mask_to_graph(n, mask) == G
        assert graph_to_edge_mask(G) == mask


def test_edge_mask_roundtrip_at_order_1000():
    n = 1000
    mask = random.Random(17).getrandbits(n * (n - 1) // 2)
    G = edge_mask_to_graph(n, mask)
    assert G.edge_count == mask.bit_count()
    assert graph_to_edge_mask(G) == mask


def test_enumeration_matches_filtered_per_pair_reference():
    for n in range(1, 6):
        graphs = (_per_pair_graph(n, m) for m in range(1 << (n * (n - 1) // 2)))
        expected = [G for G in graphs if is_connected(G)]
        assert list(all_connected(n)) == expected


def test_block_enumeration_matches_the_scalar_mask_path():
    for n in range(1, 7):
        graphs = (edge_mask_to_graph(n, m) for m in range(1 << (n * (n - 1) // 2)))
        expected = [G for G in graphs if is_connected(G)]
        assert list(all_connected(n)) == expected
        pairs = list(_rows(_connected_with_graph6(n)))
        assert [G for G, _ in pairs] == expected
        assert [line for _, line in pairs] == [encode_graph6(G) for G in expected]


def test_block_enumeration_count_n7():
    assert sum(1 for _ in all_connected(7)) == connected_graph_count(7) == 1866256


def test_edge_mask_bit_zero_is_first_pair():
    G = edge_mask_to_graph(4, 1)
    assert G.edges() == [(0, 1)]
    G = edge_mask_to_graph(4, 0b100)
    assert G.edges() == [(1, 2)]


def test_sample_connected_deterministic():
    a = list(sample_connected(10, 0.5, 3, seed=7))
    b = list(sample_connected(10, 0.5, 3, seed=7))
    assert a == b
    c = list(sample_connected(10, 0.5, 3, seed=8))
    assert a != c


def test_sample_connected_k2():
    assert list(sample_connected(2, 0.99, 1, seed=1)) == [complete_graph(2)]


def test_sample_connected_contract():
    for G in sample_connected(9, 0.3, 25, seed=2):
        assert G.n == 9
        assert is_connected(G)


def test_sample_connected_validation():
    with pytest.raises(InputError):
        list(sample_connected(1, 0.5, 1, seed=0))
    with pytest.raises(InputError):
        list(sample_connected(5, 0.0, 1, seed=0))
    with pytest.raises(InputError):
        list(sample_connected(5, 1.0, 1, seed=0))
    for count in (-1, 2.0):
        with pytest.raises(InputError, match="count must be a nonnegative integer"):
            list(sample_connected(5, 0.5, count, seed=0))


def test_sample_connected_gives_up_when_too_sparse():
    # with the per-pair loop's message and draw count
    with pytest.raises(SamplingError) as expected:
        list(_per_pair_samples(12, 1e-9, 1, seed=0))
    with pytest.raises(SamplingError) as got:
        list(sample_connected(12, 1e-9, 1, seed=0))
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(f"gave up after {_REJECTION_CAP + 200} draws; ")


# orders on both sides of the 64-bit mask word (64) and of one draw per
# block (C(n, 2) > 2^14 from n = 182), each at a dense and a sparse p whose
# draws are often disconnected
@pytest.mark.parametrize("n, sparse", [
    (2, 0.2), (4, 0.3), (12, 0.2), (30, 0.12), (62, 0.07), (63, 0.07), (64, 0.07),
    (65, 0.07), (100, 0.05), (250, 0.025),
])
@pytest.mark.parametrize("dense", [True, False])
def test_block_sampler_matches_the_per_pair_loop(n, sparse, dense):
    p = 0.85 if dense else sparse
    count = 40 if n < 100 else 2
    expected = list(_per_pair_samples(n, p, count, seed=n))
    pairs = list(_rows(_sample_with_graph6(n, p, count, seed=n)))
    assert [G for G, _ in pairs] == expected
    assert [line for _, line in pairs] == [encode_graph6(G) for G in expected]
    assert list(sample_connected(n, p, count, seed=n)) == expected


def test_block_and_decoded_masks_are_python_ints():
    # Graph.degree, hashing and signless_laplacians' m.to_bytes need int
    # masks, not numpy scalars; orders on both sides of the 64-bit mask word
    graphs = list(all_connected(4))
    for n in (12, 64, 65):
        graphs += sample_connected(n, 0.5, 3, seed=n)
        graphs += [decode_graph6(line) for _, line in _rows(_sample_with_graph6(n, 0.5, 3, n))]
    for G in graphs:
        assert all(type(m) is int for m in G.adjacency_masks())
        assert G == build_graph(G.n, G.edges())


def test_blocks_hold_only_connected_rows():
    # order 3: pair bits x(0,1), x(0,2), x(1,2); a block with no connected
    # row is left out
    disconnected = np.array([[0, 0, 0], [1, 0, 0]], dtype=np.uint8)
    mixed = np.array([[0, 1, 0], [1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    blocks = list(_connected_rows(3, [disconnected, mixed]))
    assert len(blocks) == 1
    square, lines = blocks[0]
    assert square.shape == (2, 3, 3)
    assert lines == [encode_graph6(edge_mask_to_graph(3, m)) for m in (0b011, 0b110)]


def test_sampler_blocks_add_up_to_count():
    # sparse G(30, p): many draws are disconnected, blocks of at most 37
    sizes = [len(lines) for _, lines in _sample_with_graph6(30, 0.12, 50, seed=1)]
    assert sum(sizes) == 50 and all(sizes)


def test_connectivity_on_a_long_path_is_quadratic():
    n = 2000
    path = build_graph(n, [(v, v + 1) for v in range(n - 1)])
    cut = build_graph(n, [(v, v + 1) for v in range(n - 1) if v != n // 2])
    bits = np.array([np.frombuffer(edge_bits(G).encode(), np.uint8) - 48 for G in (path, cut)])
    square = _squares(n, bits)
    start = time.perf_counter()
    reach = _reaches_all(square)
    elapsed = time.perf_counter() - start
    assert reach.tolist() == [True, False]
    assert elapsed < 1.0
