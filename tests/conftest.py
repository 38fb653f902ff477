import networkx as nx
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


@pytest.fixture
def petersen():
    return build_graph(10, PETERSEN_EDGES)


@pytest.fixture
def path3():
    return build_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def cycle6():
    return build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
