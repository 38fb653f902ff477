"""The four workloads: their inputs, their command lines and their checks.

Each workload is built from the seed alone and checked against
bench_reference, never against slmatch itself.  A workload object lives for
one benchmark run: its inputs and reference are made once, outside the timed
region, and every repetition's output is checked against them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx

import bench_reference as ref

# A001187: labelled connected graphs on 6 vertices
CONNECTED_GRAPHS_6 = 26704


@dataclass
class Outcome:
    """What one repetition's output was worth against the reference."""

    attempted: int
    failed: int
    items: int
    q1_err: float
    problems: list[str] = field(default_factory=list)


def _summary_counts(stdout: str) -> tuple[dict[str, int], Counter, Counter]:
    """The `verify` summary: scalar lines, verdict counts and skip counts."""
    scalars, verdicts, skipped = {}, Counter(), Counter()
    for line in stdout.splitlines():
        words = line.split()
        if len(words) == 2 and words[1].isdigit():
            scalars[words[0]] = int(words[1])
        elif len(words) == 3 and words[0] == "verdict":
            verdicts[words[1]] = int(words[2])
        elif len(words) == 3 and words[0] == "skipped":
            skipped[words[1]] = int(words[2])
    return scalars, verdicts, skipped


class Sweep:
    """A `verify` sweep whose JSONL output is checked line by line.

    `expected` counts the records the sweep must produce, keyed by graph6
    line when the exact corpus is known and by order otherwise.
    """

    jobs = 1
    scan_nmax = None
    distinct = False
    by_line = False

    def __init__(self, workdir: Path, seed: int):
        self.out = workdir / "verdicts.jsonl"
        self.expected: Counter = Counter()
        self.expected_skips: Counter = Counter()
        self._checked: dict[str, ref.LineCheck] = {}

    def source(self) -> list[str]:
        raise NotImplementedError

    def argv(self, serial: bool) -> list[str]:
        # spans recorded inside pool workers cannot be read from outside, so
        # a traced benchmark run is serial throughout
        jobs = 1 if serial else self.jobs
        return ["verify", *self.source(), "--out", str(self.out), "--jobs", str(jobs)]

    def check(self, result: dict) -> Outcome:
        records = sum(self.expected.values())
        attempted = records + sum(self.expected_skips.values())
        if result["error"] is not None or not self.out.is_file():
            return Outcome(attempted, attempted, 0, 0.0, [result["error"] or "no output"])
        lines = self.out.read_text(encoding="utf-8").splitlines()
        self.out.unlink()
        fresh = [line for line in dict.fromkeys(lines) if line not in self._checked]
        self._checked.update(ref.check_lines(fresh))
        checks = [self._checked[line] for line in lines]

        problems = [f"{str(c.graph6)[:40]}: {c.problem}" for c in checks if c.problem]
        got = Counter(c.graph6 if self.by_line else c.n for c in checks)
        missing = sum((self.expected - got).values())
        extra = sum((got - self.expected).values())
        if missing or extra:
            problems.append(f"{missing} expected records missing, {extra} unexpected")
        duplicates = len(checks) - len({c.graph6 for c in checks}) if self.distinct else 0
        if duplicates:
            problems.append(f"{duplicates} duplicate records")

        scalars, verdicts, skipped = _summary_counts(result["stdout"])
        summary_errors = sum((skipped - self.expected_skips).values())
        summary_errors += sum((self.expected_skips - skipped).values())
        if scalars.get("checked") != len(lines):
            summary_errors += 1
        if verdicts != Counter(c.verdict for c in checks):
            summary_errors += 1
        if scalars.get("counterexamples") != 0 or scalars.get("edge-violations") != 0:
            summary_errors += 1
        if result["rc"] != 0:
            summary_errors += 1
        if summary_errors:
            problems.append(f"summary or exit code disagrees ({summary_errors})")

        failed = len([c for c in checks if c.problem]) + missing + extra
        failed += duplicates + summary_errors
        q1_err = max((c.q1_err for c in checks), default=0.0)
        return Outcome(max(attempted, failed), failed, len(lines), q1_err, problems)


class Exhaustive6(Sweep):
    why = "every connected 6-vertex graph: per-call overhead at tiny order dominates"
    distinct = True

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.expected = Counter({6: CONNECTED_GRAPHS_6})

    def source(self) -> list[str]:
        return ["--exhaustive", "6"]


class RandomPar2(Sweep):
    why = "G(12, 0.85) sampled in the parent and checked by two pool workers"
    jobs = 2
    count = 8000

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.seed = seed
        self.expected = Counter({12: self.count})

    def source(self) -> list[str]:
        return ["--random", "12", "--p", "0.85", "--count", str(self.count),
                "--seed", str(self.seed)]


# G(n, 0.5) graphs per order; the orders cost roughly n^3 each
STREAM_TIERS = ((100, 64), (250, 16), (500, 4), (1000, 1))


def _graph6(G: nx.Graph) -> str:
    return nx.to_graph6_bytes(G, header=False).decode("ascii").strip()


def _relabelled(G: nx.Graph, rng: random.Random) -> nx.Graph:
    order = list(G)
    rng.shuffle(order)
    return nx.relabel_nodes(G, dict(zip(G, order)))


def _clique_join(s: int, parts: list[int]) -> nx.Graph:
    """K_s joined to disjoint cliques of the given orders."""
    G = nx.complete_graph(s)
    start = s
    for p in parts:
        block = range(start, start + p)
        G.add_edges_from((u, v) for u in block for v in block if u < v)
        G.add_edges_from((u, v) for u in range(s) for v in block)
        start += p
    return G


def stream_corpus(seed: int) -> tuple[list[str], list[str], Counter]:
    """A seeded graph6 corpus: (all lines, eligible lines in order, skip counts).

    Written with networkx only, so it does not depend on the codec under test.
    """
    rng = random.Random(seed)
    graphs: list[str] = []
    for n, count in STREAM_TIERS:
        for _ in range(count):
            G = nx.gnp_random_graph(n, 0.5, seed=rng.randrange(2**32))
            while not nx.is_connected(G):
                G = nx.gnp_random_graph(n, 0.5, seed=rng.randrange(2**32))
            graphs.append(_graph6(G))
    # near-extremal graphs with no perfect matching: K_s v (k >= s+2 odd
    # cliques), minus a few edges, so the witness path runs
    for _ in range(12):
        n = rng.randrange(20, 122, 2)
        s = rng.randint(1, 3)
        k = s + 2
        parts = [1] * k
        for _ in range((n - s - k) // 2):
            parts[rng.randrange(k)] += 2
        G = _clique_join(s, parts)
        for u, v in rng.sample(sorted(G.edges()), rng.randint(0, 5)):
            G.remove_edge(u, v)
            if not nx.is_connected(G):
                G.add_edge(u, v)
        graphs.append(_graph6(_relabelled(G, rng)))
    # graphs attaining the threshold: verdict "boundary"
    for _ in range(2):
        n = rng.randrange(10, 102, 2)
        graphs.append(_graph6(_relabelled(_clique_join(1, [n - 3, 1, 1]), rng)))

    planted = [
        ("parse-error", "D!!!"),
        ("parse-error", "D{{{"),
        ("parse-error", graphs[0][:-1]),
        ("parse-error", "~??"),
        ("order-too-small", "A_"),
        ("order-too-small", "A?"),
    ]
    for n in (5, 51, 101):
        planted.append(("odd-order", _graph6(nx.gnp_random_graph(n, 0.5, seed=rng.randrange(2**32)))))
    for _ in range(3):
        a = rng.randrange(3, 40, 2)
        b = rng.randrange(3, 40, 2)
        G = nx.disjoint_union(nx.complete_graph(a), nx.complete_graph(b))
        planted.append(("disconnected", _graph6(_relabelled(G, rng))))

    entries = [(None, line) for line in graphs] + planted
    rng.shuffle(entries)
    lines = [line for _, line in entries]
    eligible = [line for kind, line in entries if kind is None]
    return lines, eligible, Counter(kind for kind, _ in planted)


class StreamLarge(Sweep):
    why = "seeded graph6 stream up to n=1000 with planted bad lines: codec and O(n^3) work dominate"
    by_line = True

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        lines, eligible, self.expected_skips = stream_corpus(seed)
        self.corpus = workdir / "corpus.g6"
        self.corpus.write_text("\n".join(lines) + "\n", encoding="ascii")
        self.expected = Counter(eligible)

    def source(self) -> list[str]:
        return ["--graph6-file", str(self.corpus)]


class ProofScan:
    """`proof-check --all --nmax 40`, then every scenario with even n <= 30."""

    why = "proof replay: scenario graphs and quotient radii, no graph6, matching or generate"
    scan_nmax = 30
    nmax = 40
    reference_nmax = 22  # q1 of every scenario is recomputed up to this order
    sampled = 200  # run_proof_suite's default sampled scenarios, all with n <= 40

    def __init__(self, workdir: Path, seed: int):
        self.scenarios = {n: ref.scenarios(n) for n in range(4, self.scan_nmax + 1, 2)}
        self.reference_q1 = {}
        for n in range(4, self.reference_nmax + 1, 2):
            values = ref.scenario_q1(n, self.scenarios[n])
            self.reference_q1.update(zip(self.scenarios[n], values.tolist()))
        per_scenario = sum(len(self.scenarios[n]) for n in range(4, 13, 2)) + self.sampled
        self.expected_reports = {
            "root-bounds": per_scenario,
            "vertex-shift": per_scenario,
            "merge-singletons": per_scenario,
            "h-bound": sum((n - 4) // 2 for n in range(6, self.nmax + 1, 2)),
            "case-analysis": len(range(4, 101, 2)),
        }

    def argv(self, serial: bool) -> list[str]:
        return ["proof-check", "--all", "--nmax", str(self.nmax)]

    def check(self, result: dict) -> Outcome:
        n_scenarios = sum(len(v) for v in self.scenarios.values())
        attempted = n_scenarios + sum(self.expected_reports.values())
        if result["error"] is not None:
            return Outcome(attempted, attempted, 0, 0.0, [result["error"]])
        problems: list[str] = []

        reports = {}
        for line in result["stdout"].splitlines():
            words = line.split()
            if len(words) == 7 and words[1::2] == ["pass", "skip", "fail"]:
                reports[words[0]] = tuple(int(w) for w in words[2::2])
        report_failures = 0 if result["rc"] == 0 else 1
        for name, total in self.expected_reports.items():
            passed, skipped, failed = reports.get(name, (0, 0, 0))
            report_failures += failed + abs(total - passed - skipped - failed)
        if report_failures:
            problems.append(f"proof-check reports disagree ({report_failures})")

        rows = {(s, tuple(parts)): rest for s, parts, *rest in result["scan"]}
        expected = {key for group in self.scenarios.values() for key in group}
        bad = expected ^ rows.keys()
        q1_err = 0.0
        best: dict[int, tuple[float, tuple]] = {}
        for key, (root_ok, graph_q1, shift_ok, shift_skip, merge_ok, merge_skip) in rows.items():
            if not root_ok or not (shift_ok or shift_skip) or not (merge_ok or merge_skip):
                bad.add(key)
            if key in self.reference_q1:
                q_ref = self.reference_q1[key]
                err = abs(graph_q1 - q_ref)
                q1_err = max(q1_err, err)
                if err > ref.Q1_REL_TOL * max(1.0, q_ref):
                    bad.add(key)
                n = key[0] + sum(key[1])
                if graph_q1 > best.get(n, (-1.0, None))[0]:
                    best[n] = (graph_q1, key)
        for n, (top, key) in best.items():
            sharp = ref.sharp_scenario(n)
            if key != sharp or abs(top - ref.q1_threshold(n)) > 1e-8:
                problems.append(f"n={n}: largest q1 {top!r} at {key}, expected threshold at {sharp}")
                bad.add(sharp)
        if bad:
            problems.append(f"{len(bad)} scenarios disagree, e.g. {sorted(bad)[:3]}")
        items = len(rows) + sum(sum(r) for r in reports.values())
        failed = len(bad) + report_failures
        return Outcome(max(attempted, failed), failed, items, q1_err, problems)


WORKLOADS = {
    "exhaustive6": Exhaustive6,
    "stream_large": StreamLarge,
    "random_par2": RandomPar2,
    "proof_scan": ProofScan,
}
