"""Independent reference for slmatch's outputs.

Nothing here imports slmatch.  Graphs are decoded with networkx, q1 is the
top eigenvalue from ``numpy.linalg.eigvalsh`` of a Q built here, and
perfect-matching existence is settled by a certificate either way: a perfect
matching found with networkx, or the program's Tutte witness S checked with
networkx components (o(G - S) - |S| >= 1 proves there is none).  Thresholds
come from the cubic in the README.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

EPSILON = 1e-8  # the program's documented verdict guard band
Q1_REL_TOL = 1e-9  # |q1 - reference| allowed, relative to max(1, q1)

VERDICT_HOLDS = "conclusion-holds"
VERDICT_HYPOTHESIS = "hypothesis-not-met"
VERDICT_BOUNDARY = "boundary"
VERDICT_COUNTEREXAMPLE = "COUNTEREXAMPLE"


def q1_threshold(n: int) -> float:
    if n == 6:
        return 4.0 + 2.0 * math.sqrt(3.0)
    if n == 8:
        return 6.0 + 2.0 * math.sqrt(6.0)
    roots = np.roots([1.0, -(3 * n - 7), n * (2 * n - 7), -2 * (n * n - 7 * n + 12)])
    return float(roots.real.max())


def edge_threshold(n: int) -> int:
    if n == 6:
        return 9
    if n == 8:
        return 18
    return (n * n - 5 * n + 10) // 2


def top_eigenvalues(adjacency: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of Q = D + A for a stack of adjacency matrices."""
    Q = adjacency.copy()
    idx = np.arange(Q.shape[-1])
    Q[..., idx, idx] = adjacency.sum(axis=-1)
    return np.linalg.eigvalsh(Q)[..., -1]


def adjacency_matrix(G: nx.Graph) -> np.ndarray:
    n = G.number_of_nodes()
    A = np.zeros((n, n))
    edges = np.array(list(G.edges()), dtype=np.intp).reshape(-1, 2)
    A[edges[:, 0], edges[:, 1]] = 1.0
    A[edges[:, 1], edges[:, 0]] = 1.0
    return A


def has_perfect_matching(G: nx.Graph) -> bool:
    """Whether networkx finds a perfect matching of G.

    A greedy maximal matching, repaired with augmenting paths of length
    three, is perfect on most inputs; otherwise the blossom algorithm of
    ``networkx.max_weight_matching`` decides.
    """
    mate = {}
    for u, v in nx.maximal_matching(G):
        mate[u], mate[v] = v, u
    free = {v for v in G if v not in mate}
    progress = True
    while free and progress:
        progress = False
        for u in list(free):
            if u not in free:
                continue
            for a in G[u]:
                if a in free:
                    mate[u], mate[a] = a, u
                    free -= {u, a}
                    progress = True
                    break
                b = mate[a]
                v = next((w for w in G[b] if w in free and w != u), None)
                if v is not None:  # u-a-b-v replaces the matched edge a-b
                    mate[u], mate[a], mate[b], mate[v] = a, u, v, b
                    free -= {u, v}
                    progress = True
                    break
    if not free:
        return all(G.has_edge(u, v) for u, v in mate.items())
    matching = nx.max_weight_matching(G, maxcardinality=True)
    return 2 * len(matching) == G.number_of_nodes()


def is_tutte_witness(G: nx.Graph, witness) -> bool:
    """o(G - S) - |S| >= 1, which rules out a perfect matching."""
    S = set(witness)
    if not S <= set(G):
        return False
    rest = G.subgraph(set(G) - S)
    odd = sum(len(c) % 2 for c in nx.connected_components(rest))
    return odd - len(S) >= 1


def verdict_options(q1: float, threshold: float, has_pm: bool, slack: float) -> set[str]:
    """Verdicts the program may give when the true q1 lies in q1 +- slack."""
    lo, hi = q1 - slack, q1 + slack
    options = set()
    if lo < threshold - EPSILON:
        options.add(VERDICT_HYPOTHESIS)
    if lo <= threshold + EPSILON and hi >= threshold - EPSILON:
        options.add(VERDICT_BOUNDARY)
    if hi > threshold + EPSILON:
        options.add(VERDICT_HOLDS if has_pm else VERDICT_COUNTEREXAMPLE)
    return options


@dataclass
class LineCheck:
    """Outcome of checking one JSONL verdict line."""

    graph6: str | None
    n: int | None
    verdict: str | None
    problem: str | None
    q1_err: float


def check_lines(lines: list[str]) -> dict[str, LineCheck]:
    """Check JSONL verdict lines against the reference, batching eigvalsh by order."""
    parsed = {}
    results: dict[str, LineCheck] = {}
    for line in dict.fromkeys(lines):
        try:
            record = json.loads(line)
            G = nx.from_graph6_bytes(record["graph6"].encode("ascii"))
        except (ValueError, KeyError, TypeError, AttributeError, nx.NetworkXError) as exc:
            results[line] = LineCheck(None, None, None, f"unreadable record: {exc}", 0.0)
            continue
        parsed[line] = (record, G)

    by_order: dict[int, list[str]] = {}
    for line, (record, G) in parsed.items():
        by_order.setdefault(G.number_of_nodes(), []).append(line)
    reference_q1 = {}
    for n, group in by_order.items():
        stack = np.stack([adjacency_matrix(parsed[line][1]) for line in group])
        reference_q1.update(zip(group, top_eigenvalues(stack).tolist()))

    for line, (record, G) in parsed.items():
        q_ref = reference_q1[line]
        problem, q1_err = _record_problem(record, G, q_ref)
        results[line] = LineCheck(
            record.get("graph6"), G.number_of_nodes(), record.get("verdict"), problem, q1_err
        )
    return results


def _record_problem(record: dict, G: nx.Graph, q_ref: float) -> tuple[str | None, float]:
    n = G.number_of_nodes()
    try:
        q1 = float(record["q1"])
        q1_err = abs(q1 - q_ref)
        if record["n"] != n or record["edges"] != G.number_of_edges():
            return "order or edge count differs from the graph6 line", q1_err
        if n < 4 or n % 2 or not nx.is_connected(G):
            return "graph is not connected with even order >= 4", q1_err
        if q1_err > Q1_REL_TOL * max(1.0, q_ref):
            return f"q1 {q1!r} differs from eigvalsh {q_ref!r}", q1_err
        threshold = q1_threshold(n)
        if abs(record["q1_threshold"] - threshold) > 1e-9 * threshold:
            return "q1_threshold differs from the cubic's root", q1_err
        if record["edge_threshold"] != edge_threshold(n):
            return "edge_threshold differs", q1_err
        has_pm, witness = record["has_pm"], record["witness"]
        if has_pm is True:
            if witness is not None:
                return "witness given although has_pm is true", q1_err
            if not has_perfect_matching(G):
                return "has_pm is true but no perfect matching exists", q1_err
        elif has_pm is False:
            if witness is None or not is_tutte_witness(G, witness):
                return "has_pm is false without a valid Tutte witness", q1_err
        else:
            return "has_pm is not a boolean", q1_err
        slack = Q1_REL_TOL * max(1.0, q_ref)
        if record["verdict"] not in verdict_options(q_ref, threshold, has_pm, slack):
            return f"verdict {record['verdict']!r} does not follow from q1 and has_pm", q1_err
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed record: {exc!r}", 0.0
    return None, q1_err


# ---------------------------------------------------------------------------
# proof scenarios: K_s joined to disjoint odd cliques, k >= s + 2


def _odd_parts(total: int, largest: int):
    if total == 0:
        yield ()
        return
    for part in range(min(largest, total), 0, -1):
        if part % 2:
            for rest in _odd_parts(total - part, part):
                yield (part,) + rest


def scenarios(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every (s, parts) of total order n, parts odd and nonincreasing."""
    return [
        (s, parts)
        for s in range(1, n)
        for parts in _odd_parts(n - s, n - s)
        if len(parts) >= s + 2
    ]


def sharp_scenario(n: int) -> tuple[int, tuple[int, ...]]:
    """The scenario whose q1 attains q1_threshold(n)."""
    if n == 6:
        return 2, (1, 1, 1, 1)
    if n == 8:
        return 3, (1, 1, 1, 1, 1)
    return 1, (n - 3, 1, 1)


def scenario_q1(n: int, group: list[tuple[int, tuple[int, ...]]]) -> np.ndarray:
    """Reference q1 of K_s v (K_n1 u ... u K_nk) for scenarios of one order."""
    stack = np.zeros((len(group), n, n))
    for b, (s, parts) in enumerate(group):
        A = stack[b]
        A[:s, :] = 1.0
        A[:, :s] = 1.0
        start = s
        for p in parts:
            A[start:start + p, start:start + p] = 1.0
            start += p
        np.fill_diagonal(A, 0.0)
    return top_eigenvalues(stack)
