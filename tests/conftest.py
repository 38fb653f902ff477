import networkx as nx
import numpy as np
import pytest

from slmatch import build_graph, proof_harness

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),      # outer cycle
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),      # inner pentagram
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),      # spokes
]


@pytest.fixture(autouse=True)
def _fresh_scenario_cache():
    """Every test starts and ends with an empty scenario-q1 cache, so a test
    that rebinds q1 never reads a value another test cached."""
    proof_harness._scenario_q1.cache_clear()
    yield
    proof_harness._scenario_q1.cache_clear()


@pytest.fixture(scope="session")
def nx_odd_components():
    """Odd components of G - S, counted by networkx: an independent recount
    of a deficiency witness."""

    def count(G, S):
        H = nx.Graph(G.edges())
        H.add_nodes_from(range(G.n))
        H.remove_nodes_from(S)
        return sum(len(c) % 2 for c in nx.connected_components(H))

    return count


@pytest.fixture(scope="session")
def exact_quotient():
    """The quotient of an integer-valued matrix M under an ordered partition
    of its indices, in integers.  With Z the order x classes indicator
    matrix, B = M Z holds each row's sum over each class; the partition is
    equitable iff B == Z C, C the row of B at each class's first index.
    Returns C, or None when the partition is not equitable."""

    def quotient(M, classes):
        M = np.asarray(M)
        exact = M.astype(np.int64)
        assert np.array_equal(exact, M), "expected integer entries"
        Z = np.zeros((len(M), len(classes)), dtype=np.int64)
        for j, members in enumerate(classes):
            Z[members, j] = 1
        assert (Z.sum(axis=1) == 1).all(), "classes must cover each index once"
        B = exact @ Z
        C = B[[members[0] for members in classes]]
        return C if np.array_equal(B, Z @ C) else None

    return quotient


@pytest.fixture
def petersen():
    return build_graph(10, PETERSEN_EDGES)


@pytest.fixture
def path3():
    return build_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def cycle6():
    return build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
