"""Theorem harness: classify graphs against the spectral and edge-count
matching conditions, hunt for counterexamples, and report sharpness.

A graph is a counterexample only if its spectral radius clears the threshold
by more than the guard band EPSILON and it still has no perfect matching.
Graphs sitting within EPSILON of the threshold get the separate "boundary"
verdict: the extremal constructions attain the threshold exactly, so a strict
floating-point comparison there would be meaningless.

Every check runs on blocks, a (B, n, n) bool adjacency stack of connected
graphs of one order and their graph6 lines, one stacked eigensolver call
each (`_check_block`).  The sweep sources yield blocks of connected graphs
of even order >= 4, so sweeps skip the hypothesis checks of `check_graph`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from collections import Counter, deque
from contextlib import closing
from dataclasses import dataclass, field
from itertools import chain, compress, groupby, islice, starmap
from math import comb
from operator import itemgetter
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import CapacityError, HypothesisError, InputError
from .generate import (
    _BLOCK_BITS, _Block, _connected_with_graph6, _reaches_all, _sample_with_graph6,
    connected_graph_count,
)
from .graph import Graph, proof_graph
from .graph6 import ParseFailure, _graphs, _line_bits, _squares, encode_graph6, scan_stream
from .matching import maximum_matching
from .spectral import (
    MAX_DENSE_ORDER,
    _order_refusal,
    _require_dense_order,
    _require_even_order,
    _signless,
    edge_threshold,
    q1_threshold,
    r_l_of_n,
    r_of_n,
    spectral_radius,
)

EPSILON = 1e-8

VERDICT_HOLDS = "conclusion-holds"
VERDICT_HYPOTHESIS = "hypothesis-not-met"
VERDICT_BOUNDARY = "boundary"
VERDICT_COUNTEREXAMPLE = "COUNTEREXAMPLE"

# each verdict as a JSON string
_VERDICT_JSON = {
    verdict: json.dumps(verdict)
    for verdict in (
        VERDICT_HOLDS, VERDICT_HYPOTHESIS, VERDICT_BOUNDARY, VERDICT_COUNTEREXAMPLE
    )
}

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
        """Byte for byte json.dumps(self.to_dict()), formatted directly: finite
        floats via repr as json does; graph6 text holds bytes 63..126, of
        which json escapes only the backslash."""
        graph6 = self.graph6.replace("\\", "\\\\")
        witness = "null"
        if self.witness is not None:
            witness = f"[{', '.join(map(str, self.witness))}]"
        return (
            f'{{"graph6": "{graph6}", "n": {self.n}, '
            f'"edges": {self.edges}, "q1": {self.q1!r}, '
            f'"q1_threshold": {self.q1_threshold!r}, '
            f'"edge_threshold": {self.edge_threshold}, '
            f'"has_pm": {"true" if self.has_pm else "false"}, '
            f'"verdict": {_VERDICT_JSON[self.verdict]}, "witness": {witness}}}'
        )

    @property
    def edge_condition_violated(self) -> bool:
        """True if edges exceed the edge threshold yet no matching exists."""
        return self.edges > self.edge_threshold and not self.has_pm


def _record(G: Graph, line: str, radius: float) -> VerdictRecord:
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
        graph6=line,
        n=n,
        edges=G.edge_count,
        q1=radius,
        q1_threshold=threshold,
        edge_threshold=edge_threshold(n),
        has_pm=has_pm,
        verdict=verdict,
        witness=witness,
    )


def _check_block(square: np.ndarray, lines: list[str]) -> list[VerdictRecord]:
    """Records of one block, whose graphs meet the hypotheses."""
    radii = spectral_radius(_signless(square)).tolist()
    return list(map(_record, _graphs(square), lines, radii))


def check_graph(G: Graph) -> VerdictRecord:
    """Evaluate both conditions on one connected graph of even order >= 4."""
    _require_dense_order(_require_even_order(G.n))  # before G is encoded
    line = encode_graph6(G)
    square = _squares(G.n, _line_bits(G.n, [line]))
    if not _reaches_all(square)[0]:
        raise HypothesisError("disconnected", "need a connected graph")
    return _check_block(square, [line])[0]


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


# Block results a pool may have pending per worker: enough to keep every
# worker busy, while the input is read only that far ahead.
_BLOCKS_IN_FLIGHT_PER_JOB = 4


def _iter_records(blocks: Iterable[_Block], jobs: int) -> Iterator[VerdictRecord]:
    """Records of blocks whose graphs meet the hypotheses, in input order."""
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    # more workers than CPUs only add processes, never speed
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        yield from chain.from_iterable(starmap(_check_block, blocks))
        return
    # leaving the with block early (the consumer stopped, or a worker's error
    # was raised again by get) terminates the pool
    with multiprocessing.Pool(workers) as pool:
        pending: deque = deque()
        for block in blocks:
            pending.append(pool.apply_async(_check_block, block))
            if len(pending) == _BLOCKS_IN_FLIGHT_PER_JOB * workers:
                yield from pending.popleft().get()
        while pending:
            yield from pending.popleft().get()


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
    # an even order above 6 is refused before its count, whose recurrence
    # would run for a long time at a large n
    if (n := _require_even_order(n)) > 6:
        raise CapacityError(f"exhaustive verification supports n in {{4, 6}}, got {n}")
    summary = CorpusSummary(expected_count=connected_graph_count(n))
    _absorb_all(_iter_records(_connected_with_graph6(n), jobs), summary, out)
    return summary


def run_stream(
    lines: Iterable[str], out: IO[str] | None = None, jobs: int = 1
) -> CorpusSummary:
    """Check every well-formed even-order connected graph in a graph6 stream.

    Other lines are counted by skip reason and never abort the run.
    """
    summary = CorpusSummary()

    def eligible() -> Iterator[tuple[int, str]]:
        # the order is read from each line's header, so only lines that pass
        # the order checks are decoded
        for item in scan_stream(lines):
            if isinstance(item, ParseFailure):
                summary.skipped["parse-error"] += 1
                if len(summary.parse_failures) < _PARSE_FAILURES_KEPT:
                    summary.parse_failures.append(item)
                continue
            if refusal := _order_refusal(n := item[0]):
                summary.skipped[refusal] += 1
            elif n > MAX_DENSE_ORDER:
                summary.skipped["order-too-large"] += 1
            else:
                yield item

    def blocks() -> Iterator[_Block]:
        # one block of lines of one order is held at a time
        for n, run in groupby(eligible(), key=itemgetter(0)):
            size = max(1, _BLOCK_BITS // comb(n, 2))
            while group := [line for _, line in islice(run, size)]:
                square = _squares(n, _line_bits(n, group))
                connected = _reaches_all(square)
                if dropped := len(group) - int(connected.sum()):
                    summary.skipped["disconnected"] += dropped
                if connected.any():
                    yield square[connected], list(compress(group, connected))

    _absorb_all(_iter_records(blocks(), jobs), summary, out)
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
    # before drawing the n(n-1)/2 pairs of each sample
    _require_dense_order(_require_even_order(n))
    summary = CorpusSummary(expected_count=count)
    _absorb_all(_iter_records(_sample_with_graph6(n, p, count, seed), jobs), summary, out)
    return summary


# ---------------------------------------------------------------------------
# sharpness of the thresholds


def sharpness_graph(n: int) -> Graph:
    """The matching-free graph attaining the threshold for order n:
    K1 v (K_{n-3} u 2K1) where r(n) >= r_l(n), else K_{n/2-1} v (n/2+1)K1."""
    s = 1 if r_of_n(n) >= r_l_of_n(n) else n // 2 - 1
    return proof_graph(s, (n - 2 * s - 1,) + (1,) * (s + 1))


@dataclass(frozen=True)
class SharpnessRow:
    """One order's sharpness-graph record and whether the row passes."""

    record: VerdictRecord
    passed: bool


def sharpness_row(n: int) -> SharpnessRow:
    """The sharpness graph's `check_graph` record for order n: the row passes
    when its verdict is boundary (the graph attains the threshold within
    EPSILON), it has no perfect matching, and its edge count meets the edge
    threshold.  The witness needs no recount: `maximum_matching` raises
    unless its deficiency is n - 2 nu, at least 2 here."""
    _require_dense_order(_require_even_order(n))  # before the graph is built
    record = check_graph(sharpness_graph(n))
    passed = (
        record.verdict == VERDICT_BOUNDARY
        and not record.has_pm
        and record.edges == record.edge_threshold
    )
    return SharpnessRow(record, passed)
