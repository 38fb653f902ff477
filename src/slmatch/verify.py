"""Theorem harness: classify graphs against the spectral and edge-count
matching conditions, hunt for counterexamples, and report sharpness.

A graph is a counterexample only if its spectral radius clears the threshold
by more than the guard band EPSILON and it still has no perfect matching.
Graphs sitting within EPSILON of the threshold get the separate "boundary"
verdict: the extremal constructions attain the threshold exactly, so a strict
floating-point comparison there would be meaningless.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from itertools import chain, groupby
from typing import IO, Iterable, Iterator, Sequence

from .errors import HypothesisError, InputError
from .generate import all_connected, connected_graph_count
from .graph import Graph, deficiency, is_connected, proof_graph
from .graph6 import ParseFailure, decode_graph6, encode_graph6, scan_stream
from .matching import maximum_matching
from .spectral import (
    MAX_DENSE_ORDER,
    edge_threshold,
    q1_threshold,
    signless_laplacians,
    spectral_radius,
)

EPSILON = 1e-8

VERDICT_HOLDS = "conclusion-holds"
VERDICT_HYPOTHESIS = "hypothesis-not-met"
VERDICT_BOUNDARY = "boundary"
VERDICT_COUNTEREXAMPLE = "COUNTEREXAMPLE"

JSONL_FIELDS = (
    "graph6",
    "n",
    "edges",
    "q1",
    "q1_threshold",
    "edge_threshold",
    "has_pm",
    "verdict",
    "witness",
)


@dataclass(frozen=True)
class VerdictRecord:
    """Per-graph outcome of both matching conditions."""

    graph6: str
    n: int
    edges: int
    q1: float
    q1_threshold: float
    edge_threshold: int
    has_pm: bool
    verdict: str
    witness: tuple[int, ...] | None

    def to_dict(self) -> dict:
        record = {name: getattr(self, name) for name in JSONL_FIELDS}
        record["witness"] = None if self.witness is None else list(self.witness)
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @property
    def edge_condition_violated(self) -> bool:
        """True if edges exceed the edge threshold yet no matching exists."""
        return self.edges > self.edge_threshold and not self.has_pm


# Largest B*n*n a stacked eigvalsh call (and a chunk of graphs) may hold:
# 2^14 float64 entries is 128 KiB, so peak memory does not grow with B.
_BATCH_ENTRIES = 1 << 14


def _chunks(graphs: Iterable[Graph]) -> Iterator[list[Graph]]:
    """Consecutive graphs with sum(n^2) <= _BATCH_ENTRIES, or one graph."""
    chunk: list[Graph] = []
    entries = 0
    for G in graphs:
        if chunk and entries + G.n * G.n > _BATCH_ENTRIES:
            yield chunk
            chunk, entries = [], 0
        chunk.append(G)
        entries += G.n * G.n
    if chunk:
        yield chunk


def _record(G: Graph, radius: float) -> VerdictRecord:
    n = G.n
    threshold = q1_threshold(n)
    matching = maximum_matching(G)
    has_pm = 2 * matching.size == n
    witness = None if has_pm else matching.witness
    if abs(radius - threshold) <= EPSILON:
        verdict = VERDICT_BOUNDARY
    elif radius > threshold + EPSILON:
        verdict = VERDICT_HOLDS if has_pm else VERDICT_COUNTEREXAMPLE
    else:
        verdict = VERDICT_HYPOTHESIS

    return VerdictRecord(
        graph6=encode_graph6(G),
        n=n,
        edges=G.edge_count,
        q1=radius,
        q1_threshold=threshold,
        edge_threshold=edge_threshold(n),
        has_pm=has_pm,
        verdict=verdict,
        witness=witness,
    )


def check_graphs(graphs: Sequence[Graph]) -> list[VerdictRecord]:
    """Evaluate both conditions on each graph, hypotheses first for all of
    them; then each run of consecutive same-order graphs within a chunk
    shares one stacked eigensolver call.  Input order is kept."""
    for G in graphs:
        if G.n < 4:
            raise HypothesisError("order-too-small", f"need n >= 4, got {G.n}")
        if G.n % 2:
            raise HypothesisError("odd-order", f"need even order, got {G.n}")
        if not is_connected(G):
            raise HypothesisError("disconnected", "need a connected graph")
    records: list[VerdictRecord] = []
    for chunk in _chunks(graphs):
        for _, group in groupby(chunk, key=lambda G: G.n):
            run = list(group)
            radii = spectral_radius(signless_laplacians(run)).tolist()
            records.extend(map(_record, run, radii))
    return records


def check_graph(G: Graph) -> VerdictRecord:
    """Evaluate both conditions on one connected graph of even order >= 4."""
    return check_graphs([G])[0]


# Parse failures a stream summary keeps; skipped["parse-error"] counts them all.
_PARSE_FAILURES_KEPT = 100


@dataclass
class CorpusSummary:
    """Aggregated verdicts over a corpus run."""

    checked: int = 0
    verdicts: Counter = field(default_factory=Counter)
    counterexamples: list[VerdictRecord] = field(default_factory=list)
    edge_violations: list[VerdictRecord] = field(default_factory=list)
    skipped: Counter = field(default_factory=Counter)
    parse_failures: list[ParseFailure] = field(default_factory=list)
    expected_count: int | None = None

    def absorb(self, record: VerdictRecord) -> None:
        self.checked += 1
        self.verdicts[record.verdict] += 1
        if record.verdict == VERDICT_COUNTEREXAMPLE:
            self.counterexamples.append(record)
        if record.edge_condition_violated:
            self.edge_violations.append(record)

    @property
    def clean(self) -> bool:
        ok = not self.counterexamples and not self.edge_violations
        if self.expected_count is not None:
            ok = ok and self.checked == self.expected_count
        return ok

    def exit_code(self) -> int:
        return 0 if self.clean else 1


# Chunks a pool may hold per worker, counted from when the pool's feeder
# thread takes a chunk from the input until its records come back: enough to
# keep every worker busy, while the input is read only that far ahead.
_CHUNKS_IN_FLIGHT_PER_JOB = 4


def _iter_records(graphs: Iterable[Graph], jobs: int) -> Iterator[VerdictRecord]:
    if jobs <= 1:
        yield from chain.from_iterable(map(check_graphs, _chunks(graphs)))
        return
    slots = threading.Semaphore(_CHUNKS_IN_FLIGHT_PER_JOB * jobs)
    stopped = threading.Event()

    def admitted() -> Iterator[list[Graph]]:
        for chunk in _chunks(graphs):
            slots.acquire()
            if stopped.is_set():
                return
            yield chunk

    with multiprocessing.Pool(jobs) as pool:
        try:
            # imap keeps input order: --jobs changes the speed, not the output
            for records in pool.imap(check_graphs, admitted()):
                slots.release()
                yield from records
        finally:
            # the pool joins its feeder thread on exit, so a consumer that
            # stops early must not leave that thread waiting for a slot
            stopped.set()
            slots.release()


def _absorb_all(
    records: Iterator[VerdictRecord], summary: CorpusSummary, out: IO[str] | None
) -> None:
    # closing stops a parallel sweep's pool even when the sink raises
    with closing(records):
        for record in records:
            summary.absorb(record)
            if out is not None:
                out.write(record.to_json() + "\n")


def run_exhaustive(n: int, out: IO[str] | None = None, jobs: int = 1) -> CorpusSummary:
    """Check every labelled connected graph on n vertices (n = 4 or 6 only).

    The number of graphs seen is validated against the independent
    inclusion-exclusion count.
    """
    if n not in (4, 6):
        raise InputError(f"exhaustive verification supports n in {{4, 6}}, got {n}")
    summary = CorpusSummary(expected_count=connected_graph_count(n))
    _absorb_all(_iter_records(all_connected(n), jobs), summary, out)
    return summary


def run_stream(
    lines: Iterable[str], out: IO[str] | None = None, jobs: int = 1
) -> CorpusSummary:
    """Check every well-formed even-order connected graph in a graph6 stream.

    Other lines are counted by skip reason and never abort the run.
    """
    summary = CorpusSummary()

    def eligible() -> Iterator[Graph]:
        # the order is read from each line's header, so only lines that pass
        # the order checks are decoded
        for item in scan_stream(lines):
            if isinstance(item, ParseFailure):
                summary.skipped["parse-error"] += 1
                if len(summary.parse_failures) < _PARSE_FAILURES_KEPT:
                    summary.parse_failures.append(item)
                continue
            n, line = item
            if n % 2:
                summary.skipped["odd-order"] += 1
            elif n < 4:
                summary.skipped["order-too-small"] += 1
            elif n > MAX_DENSE_ORDER:
                summary.skipped["order-too-large"] += 1
            elif not is_connected(G := decode_graph6(line)):
                summary.skipped["disconnected"] += 1
            else:
                yield G

    _absorb_all(_iter_records(eligible(), jobs), summary, out)
    return summary


def run_random(
    n: int,
    p: float,
    count: int,
    seed: int,
    out: IO[str] | None = None,
    jobs: int = 1,
) -> CorpusSummary:
    """Check `count` seeded random connected graphs from G(n, p)."""
    from .generate import sample_connected

    if n < 4 or n % 2:
        raise InputError(f"random verification needs even n >= 4, got {n}")
    summary = CorpusSummary(expected_count=count)
    _absorb_all(_iter_records(sample_connected(n, p, count, seed), jobs), summary, out)
    return summary


# ---------------------------------------------------------------------------
# sharpness of the thresholds


def sharpness_graph(n: int) -> Graph:
    """The matching-free graph attaining the threshold for order n."""
    if n < 4 or n % 2:
        raise InputError(f"sharpness graphs exist for even n >= 4, got {n}")
    # K_s joined to one clique and s+1 singletons: K2 v 4K1 at n = 6,
    # K3 v 5K1 at n = 8, and extremal_h(n) = K1 v (K_{n-3} u 2K1) otherwise
    s = {6: 2, 8: 3}.get(n, 1)
    return proof_graph(s, (n - 2 * s - 1,) + (1,) * (s + 1))


@dataclass(frozen=True)
class SharpnessRow:
    n: int
    graph6: str
    q1: float
    q1_threshold: float
    gap: float
    edges: int
    edge_threshold: int
    has_pm: bool
    witness: tuple[int, ...] | None
    witness_deficiency: int | None
    passed: bool


@dataclass
class SharpnessReport:
    rows: list[SharpnessRow]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def sharpness_report(ns: Iterable[int]) -> SharpnessReport:
    """For each order, the sharpness graph's `check_graph` record: the graph
    passes when its verdict is boundary (it attains the threshold within
    EPSILON), its witness recounts to deficiency >= 1 on the graph, and
    its edge count meets the edge threshold."""
    rows = []
    for n in ns:
        G = sharpness_graph(n)
        record = check_graph(G)
        witness = record.witness
        recount = None if witness is None else deficiency(G, witness)
        ok = (
            record.verdict == VERDICT_BOUNDARY
            and recount is not None
            and recount >= 1
            and record.edges == record.edge_threshold
        )
        rows.append(
            SharpnessRow(
                n=n,
                graph6=record.graph6,
                q1=record.q1,
                q1_threshold=record.q1_threshold,
                gap=record.q1 - record.q1_threshold,
                edges=record.edges,
                edge_threshold=record.edge_threshold,
                has_pm=record.has_pm,
                witness=witness,
                witness_deficiency=recount,
                passed=ok,
            )
        )
    return SharpnessReport(rows)
