"""Verdict classification, corpus sweeps, stream handling, and sharpness."""

import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slmatch
from slmatch import (
    EPSILON,
    HypothesisError,
    InputError,
    VERDICT_BOUNDARY,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_HOLDS,
    VERDICT_HYPOTHESIS,
    CorpusSummary,
    all_connected,
    build_graph,
    check_graph,
    complete_graph,
    decode_graph6,
    empty_graph,
    encode_graph6,
    extremal_h,
    is_connected,
    join,
    run_exhaustive,
    run_random,
    run_stream,
    sample_connected,
    sharpness_graph,
    sharpness_row,
)
from slmatch.errors import CapacityError
from slmatch.spectral import _KRYLOV_MIN_ORDER, MAX_DENSE_ORDER, q1
from slmatch.verify import (
    _BATCH_ENTRIES,
    _CHUNKS_IN_FLIGHT_PER_JOB,
    JSONL_FIELDS,
    VerdictRecord,
    _check_chunk,
    _chunks,
)


def test_check_graph_k4():
    record = check_graph(complete_graph(4))
    assert record.verdict == VERDICT_HOLDS
    assert record.has_pm and record.witness is None
    assert abs(record.q1 - 6.0) <= 1e-9
    assert record.q1_threshold == pytest.approx(4.0, abs=1e-9)
    assert record.edges == 6 and record.edge_threshold == 3
    assert record.graph6 == "C~"


def test_check_graph_below_threshold():
    record = check_graph(extremal_h(6))
    assert record.verdict == VERDICT_HYPOTHESIS
    assert not record.has_pm
    assert record.witness == (0,)
    assert record.q1 < record.q1_threshold - EPSILON


def test_check_graph_boundary_is_not_a_counterexample():
    record = check_graph(join(complete_graph(2), empty_graph(4)))
    assert record.verdict == VERDICT_BOUNDARY
    assert not record.has_pm
    assert record.witness == (0, 1)
    assert abs(record.q1 - record.q1_threshold) <= EPSILON


def test_check_graph_hypothesis_errors():
    # parity is checked before size, as run_stream counts its skips
    for n in (5, 3, 1):
        with pytest.raises(HypothesisError) as err:
            check_graph(complete_graph(n))
        message = f"order must be an even integer >= 4, got {n}"
        assert (err.value.reason, str(err.value)) == ("odd-order", message)
    with pytest.raises(HypothesisError) as err:
        check_graph(build_graph(4, [(0, 1), (2, 3)]))
    assert err.value.reason == "disconnected"
    with pytest.raises(HypothesisError) as err:
        check_graph(complete_graph(2))
    message = "order must be an even integer >= 4, got 2"
    assert (err.value.reason, str(err.value)) == ("order-too-small", message)


def _mixed_order_stream():
    """Runs of same-order graphs (the n=30 run is longer than one stacked
    call holds) with odd-order, too-small and disconnected lines between."""
    assert 25 * 30 * 30 > _BATCH_ENTRIES
    rng = random.Random(5)
    bad = ["Bw", "A_", "C?", encode_graph6(build_graph(6, [(0, 1), (2, 3), (4, 5)]))]
    lines = []
    for n, run in ((6, 40), (4, 3), (30, 25), (100, 9), (8, 1), (6, 7), (250, 2), (12, 50)):
        for G in sample_connected(n, 0.5, run, seed=rng.randrange(10**6)):
            lines.append(encode_graph6(G))
            if rng.random() < 0.2:
                lines.append(rng.choice(bad))
        if n > 12:
            lines.append(encode_graph6(extremal_h(n)))  # no perfect matching
    return lines


def test_batched_records_match_per_graph():
    lines = _mixed_order_stream()
    sink = io.StringIO()
    summary = run_stream(lines, out=sink)
    batched = [json.loads(line) for line in sink.getvalue().splitlines()]
    per_graph = []
    for line in lines:
        G = decode_graph6(line)
        if G.n >= 4 and G.n % 2 == 0 and is_connected(G):
            per_graph.append(check_graph(G).to_dict())
    assert summary.checked == len(per_graph) == len(batched)
    assert sum(summary.skipped.values()) == len(lines) - len(per_graph)
    for got, want in zip(batched, per_graph):
        q_got, q_want = got.pop("q1"), want.pop("q1")
        assert abs(q_got - q_want) <= 1e-12 * max(1.0, q_want)
        assert got == want


@pytest.mark.parametrize(
    "orders, sizes",
    [
        ((6, 6, 8, 6), [2, 1, 1]),  # a new order starts a new chunk
        ((30,) * 25, [18, 7]),  # 18 * 30^2 <= _BATCH_ENTRIES < 19 * 30^2
        ((250, 250), [1, 1]),  # a graph above the bound is a chunk of its own
    ],
)
def test_chunks_are_same_order_runs_within_the_batch_bound(orders, sizes):
    items = [(complete_graph(n), None) for n in orders]
    chunks = list(_chunks(items))
    assert [len(chunk) for chunk in chunks] == sizes
    assert all(len({G.n for G, _ in chunk}) == 1 for chunk in chunks)
    assert [item for chunk in chunks for item in chunk] == items


def test_each_sweep_checks_connectivity_once(monkeypatch):
    calls = []

    def counted(G):
        calls.append(G.n)
        return is_connected(G)

    # every sweep source yields only connected graphs, so the sweeps leave
    # the hypothesis checks of check_graph out
    monkeypatch.setattr(slmatch.verify, "is_connected", counted)
    assert run_exhaustive(6).checked == 26704
    run_random(12, 0.85, 300, seed=5)
    assert calls == []
    summary = run_stream(_mixed_order_stream())
    assert summary.skipped["disconnected"] > 0
    assert len(calls) == summary.checked + summary.skipped["disconnected"]


def test_parallel_jsonl_matches_serial_line_by_line():
    # 1000 graphs of order 12 do not fill a whole number of chunks
    assert 1000 % (_BATCH_ENTRIES // 144)
    sinks = [io.StringIO(), io.StringIO()]
    for jobs, sink in zip((1, 2), sinks):
        run_random(12, 0.85, 1000, seed=17, out=sink, jobs=jobs)
    serial, parallel = (sink.getvalue().splitlines() for sink in sinks)
    assert len(serial) == 1000
    assert parallel == serial
    # each record, its graph6 line taken from the sample's pair bits included,
    # is check_graph's record of the sample
    samples = sample_connected(12, 0.85, 1000, seed=17)
    assert serial == [check_graph(G).to_json() for G in samples]


def test_random_sweep_leaves_numpy_random_unimported():
    # the sampler reads its draws from random.Random, so the sweep never pays
    # for importing numpy.random
    script = (
        "import sys\n"
        "from slmatch import run_random\n"
        "assert run_random(12, 0.85, 300, 1).checked == 300\n"
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(slmatch.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False"]


_SWEEP_SCRIPT = """
import time

import slmatch.verify
from slmatch import run_random

pulled = 0
sample = slmatch.verify._sample_with_graph6


def counted(*args, **kwargs):
    global pulled
    for item in sample(*args, **kwargs):
        pulled += 1
        yield item


slmatch.verify._sample_with_graph6 = counted


class Sink:
    lines = 0

    def write(self, text):
        self.lines += 1
        if self.lines == {stop_at}:
            time.sleep(1.0)  # an unbounded reader keeps pulling meanwhile
            print("pulled", pulled)
            raise OSError("sink full")


try:
    run_random(12, 0.85, 40000, 3, out=Sink(), jobs=2)
except OSError as exc:
    error = exc  # keeping the error keeps the sweep's frames, and its pool, alive
    print("raised", error)
"""


def _parallel_sweep_stopped_by_sink(stop_at: int) -> int:
    """Run run_random(12, 0.85, 40000, 3, jobs=2) in a fresh interpreter,
    with a sink that stalls and then raises at line `stop_at`; return the
    graphs pulled from the input by then.  A pool left waiting at shutdown
    fails the test by timeout instead of hanging the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(slmatch.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _SWEEP_SCRIPT.format(stop_at=stop_at)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    pulled, raised = done.stdout.splitlines()
    assert raised == "raised sink full"
    return int(pulled.split()[1])


def test_parallel_sweep_reads_a_bounded_window_of_input():
    pulled = _parallel_sweep_stopped_by_sink(stop_at=1)
    # the first result is awaited once the window of chunks is pending; the
    # graph that closed the last of them was read too
    per_chunk = _BATCH_ENTRIES // (12 * 12)
    window = _CHUNKS_IN_FLIGHT_PER_JOB * 2
    assert 1 <= pulled <= window * per_chunk + 1


def test_parallel_sweep_with_a_failing_sink_raises_instead_of_hanging():
    assert 2000 <= _parallel_sweep_stopped_by_sink(stop_at=2000) < 40000


def test_orders_above_the_dense_cap_are_skipped_or_refused():
    # even and disconnected: the cap is checked before connectivity
    above = encode_graph6(empty_graph(MAX_DENSE_ORDER + 2))
    at_cap = encode_graph6(empty_graph(MAX_DENSE_ORDER))
    summary = run_stream([above, at_cap, "C~"])
    assert summary.checked == 1
    assert summary.skipped == {"order-too-large": 1, "disconnected": 1}
    star = build_graph(MAX_DENSE_ORDER + 2, [(0, v) for v in range(1, MAX_DENSE_ORDER + 2)])
    with pytest.raises(CapacityError):
        check_graph(star)
    with pytest.raises(CapacityError):
        q1(empty_graph(MAX_DENSE_ORDER + 1))


def test_check_graph_refuses_a_large_order_before_encoding(monkeypatch):
    def refuse(G):
        raise AssertionError(f"encoded a graph of order {G.n}")

    monkeypatch.setattr(slmatch.verify, "encode_graph6", refuse)
    n = MAX_DENSE_ORDER + 2
    path = build_graph(n, [(v, v + 1) for v in range(n - 1)])
    with pytest.raises(CapacityError):
        check_graph(path)


def test_check_graph_deterministic():
    a = check_graph(extremal_h(12))
    b = check_graph(extremal_h(12))
    assert a == b  # bitwise-identical floats included


_FLOATS = st.one_of(
    st.sampled_from([1e16, 5e-324, 0.0]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)

_RECORDS = st.builds(
    VerdictRecord,
    # the graph6 alphabet, bytes 63..126, holds the backslash
    graph6=st.text(st.sampled_from([chr(b) for b in range(63, 127)])),
    n=st.integers(min_value=0),
    edges=st.integers(min_value=0),
    q1=_FLOATS,
    q1_threshold=_FLOATS,
    edge_threshold=st.integers(min_value=0),
    has_pm=st.booleans(),
    verdict=st.sampled_from(
        [VERDICT_HOLDS, VERDICT_HYPOTHESIS, VERDICT_BOUNDARY, VERDICT_COUNTEREXAMPLE]
    ),
    witness=st.one_of(
        st.none(), st.just(()), st.lists(st.integers(0, 10**4), max_size=300).map(tuple)
    ),
)


def test_jsonl_field_order_and_types():
    record = check_graph(extremal_h(6))
    payload = json.loads(record.to_json())
    assert list(payload.keys()) == list(JSONL_FIELDS)
    assert payload["witness"] == [0]
    payload = json.loads(check_graph(complete_graph(4)).to_json())
    assert payload["witness"] is None
    assert isinstance(payload["edge_threshold"], int)
    # a sweep's records, serial or pooled, are check_graph's records
    for n, count in ((4, 38), (6, 26704)):
        records = [check_graph(G) for G in all_connected(n)]
        assert len(records) == count
        text = "".join(r.to_json() + "\n" for r in records)
        for jobs in (1, 2):
            sink = io.StringIO()
            run_exhaustive(n, out=sink, jobs=jobs)
            assert sink.getvalue() == text, (n, jobs)
        for record in records:
            assert record.to_json() == json.dumps(record.to_dict())


def test_records_above_the_krylov_order_carry_python_floats():
    # one graph whose Lanczos run passes its bound, one (a path) whose run
    # gives up for eigvalsh; numpy 2 writes a numpy scalar as np.float64(...)
    n = _KRYLOV_MIN_ORDER + _KRYLOV_MIN_ORDER % 2
    dense = next(sample_connected(n, 0.5, 1, seed=3))
    path = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    chunk = [(G, encode_graph6(G)) for G in (dense, path)]
    for record in _check_chunk(chunk) + [check_graph(dense), check_graph(path)]:
        assert type(record.q1) is float
        payload = json.loads(record.to_json())
        assert payload["q1"] == record.q1
        assert record.to_json() == json.dumps(record.to_dict())


@settings(max_examples=300, deadline=None)
@given(_RECORDS)
@example(VerdictRecord("\\", 1, 0, 1e16, 5e-324, 0, False, VERDICT_BOUNDARY, ()))
def test_to_json_is_json_dumps_of_to_dict(record):
    assert record.to_json() == json.dumps(record.to_dict())


def test_witness_recomputation_invariant(nx_odd_components):
    for G in (extremal_h(8), join(complete_graph(3), empty_graph(5))):
        record = check_graph(G)
        assert not record.has_pm
        short = nx_odd_components(G, record.witness) - len(record.witness)
        assert short >= 1


def test_run_exhaustive_n4():
    summary = run_exhaustive(4)
    assert summary.checked == 38 == summary.expected_count
    # stars and 4-cycles sit on the boundary, paths below, the rest above
    assert summary.verdicts[VERDICT_BOUNDARY] == 7
    assert summary.verdicts[VERDICT_HYPOTHESIS] == 12
    assert summary.verdicts[VERDICT_HOLDS] == 19
    assert summary.verdicts[VERDICT_COUNTEREXAMPLE] == 0
    assert not summary.counterexamples and not summary.edge_violations
    assert summary.clean and summary.exit_code() == 0


def test_run_exhaustive_writes_jsonl():
    sink = io.StringIO()
    summary = run_exhaustive(4, out=sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) == summary.checked
    first = json.loads(lines[0])
    assert list(first.keys()) == list(JSONL_FIELDS)


def test_run_exhaustive_rejects_other_orders():
    for n in (2, 5, 8):
        with pytest.raises(InputError):
            run_exhaustive(n)


def test_run_stream_mixed_input():
    k2e4 = encode_graph6(join(complete_graph(2), empty_graph(4)))
    k3e5 = encode_graph6(join(complete_graph(3), empty_graph(5)))
    lines = [
        ">>graph6<<",
        "C~",  # K4: conclusion holds
        "Bw",  # 3 vertices: odd order, skipped
        "",
        "!!bad!!",  # parse failure
        "C?",  # 4 isolated vertices: disconnected, skipped
        "A_",  # K2: too small, skipped
        k2e4,
        k3e5,
    ]
    sink = io.StringIO()
    summary = run_stream(lines, out=sink)
    assert summary.checked == 3
    assert summary.verdicts[VERDICT_HOLDS] == 1
    assert summary.verdicts[VERDICT_BOUNDARY] == 2
    assert summary.skipped["odd-order"] == 1
    assert summary.skipped["disconnected"] == 1
    assert summary.skipped["order-too-small"] == 1
    assert summary.skipped["parse-error"] == 1
    assert summary.parse_failures[0].line_number == 5
    assert summary.exit_code() == 0
    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert [r["graph6"] for r in records] == ["C~", k2e4, k3e5]
    boundary = records[2]
    assert boundary["verdict"] == VERDICT_BOUNDARY
    assert boundary["witness"] == [0, 1, 2]  # the joined triangle
    assert boundary["has_pm"] is False


@pytest.mark.parametrize("n", [5, 6, 250])  # 2, 3 and 3 padding bits
def test_run_stream_records_carry_the_canonical_line(n):
    pad = -(n * (n - 1) // 2) % 6
    canonical = [encode_graph6(G) for G in sample_connected(n, 0.5, 3, seed=n)]
    # set some of each line's padding bits
    noisy = [
        line[:-1] + chr(63 + ((ord(line[-1]) - 63) | value))
        for line, value in zip(canonical, (1, (1 << pad) - 1, 1 << (pad - 1)))
    ]
    assert all(a != b for a, b in zip(noisy, canonical))
    assert [encode_graph6(decode_graph6(line)) for line in noisy] == canonical
    sinks = [io.StringIO(), io.StringIO()]
    summaries = [run_stream(lines, out=sink) for lines, sink in zip((noisy, canonical), sinks)]
    assert summaries[0] == summaries[1]
    assert sinks[0].getvalue() == sinks[1].getvalue()
    records = [json.loads(line) for line in sinks[0].getvalue().splitlines()]
    if n % 2:
        assert summaries[0].skipped == {"odd-order": 3}
    else:
        assert [r["graph6"] for r in records] == canonical


def test_run_stream_keeps_a_bounded_sample_of_parse_failures():
    tracemalloc.start()
    try:
        summary = run_stream("!\n" for _ in range(50_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.skipped["parse-error"] == 50_000
    assert len(summary.parse_failures) == 100
    assert summary.parse_failures[0].line_number == 1
    assert peak < 2_000_000


def test_run_stream_skips_by_order_before_decoding(monkeypatch):
    def refuse(line):
        raise AssertionError(f"decoded a line of length {len(line)}")

    monkeypatch.setattr(slmatch.verify, "decode_graph6", refuse)
    odd = encode_graph6(empty_graph(MAX_DENSE_ORDER + 3))
    above = encode_graph6(empty_graph(MAX_DENSE_ORDER + 2))
    summary = run_stream([odd, above, "A_", "?", above[:-1], above + "!"])
    assert summary.checked == 0
    assert summary.skipped == {
        "odd-order": 1,
        "order-too-large": 1,
        "order-too-small": 2,
        "parse-error": 2,
    }


def test_run_stream_skips_an_oversized_line_in_memory_bounded_by_the_line():
    line = encode_graph6(empty_graph(MAX_DENSE_ORDER + 2)) + "\n"
    tracemalloc.start()
    try:
        summary = run_stream([line])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.skipped == {"order-too-large": 1}
    assert peak <= 4 * len(line)


def test_run_stream_empty():
    summary = run_stream([])
    assert summary.checked == 0 and summary.exit_code() == 0


def test_exit_code_flags_counterexamples():
    summary = CorpusSummary()
    assert summary.exit_code() == 0
    fake = VerdictRecord(
        graph6="C~",
        n=4,
        edges=6,
        q1=9.0,
        q1_threshold=4.0,
        edge_threshold=3,
        has_pm=False,
        verdict=VERDICT_COUNTEREXAMPLE,
        witness=(0,),
    )
    summary.absorb(fake)
    assert summary.exit_code() == 1
    assert fake.edge_condition_violated  # 6 > 3 without a matching


def test_run_random_deterministic():
    a = run_random(8, 0.5, 40, seed=3)
    b = run_random(8, 0.5, 40, seed=3)
    assert a.checked == b.checked == 40
    assert a.verdicts == b.verdicts
    assert not a.counterexamples and not a.edge_violations


def test_run_random_validation():
    with pytest.raises(InputError):
        run_random(7, 0.5, 1, seed=0)


def test_random_sweeps_find_no_counterexamples():
    # both density regimes: sparse stays under the threshold, dense clears it
    for n in (8, 10, 12):
        sparse = run_random(n, 0.5, 5000, seed=n)
        dense = run_random(n, 0.9, 5000, seed=n + 100)
        assert sparse.checked == dense.checked == 5000
        assert not sparse.counterexamples and not dense.counterexamples
        assert not sparse.edge_violations and not dense.edge_violations
        assert dense.verdicts[VERDICT_HOLDS] > 0


def test_parallel_matches_serial():
    sinks = [io.StringIO(), io.StringIO()]
    serial = run_exhaustive(6, out=sinks[0])
    parallel = run_exhaustive(6, out=sinks[1], jobs=2)
    assert parallel.checked == serial.checked
    assert parallel.verdicts == serial.verdicts
    assert sinks[1].getvalue() == sinks[0].getvalue()


def test_sharpness_graph_selection():
    assert sharpness_graph(6) == join(complete_graph(2), empty_graph(4))
    assert sharpness_graph(8) == join(complete_graph(3), empty_graph(5))
    assert sharpness_graph(4) == extremal_h(4)
    assert sharpness_graph(20) == extremal_h(20)
    with pytest.raises(InputError):
        sharpness_graph(7)
    # the combinator constructions of K2 v 4K1, K3 v 5K1 and K1 v (K_{n-3} u 2K1)
    for n in range(4, 41, 2):
        if n in (6, 8):
            expected = join(complete_graph(n // 2 - 1), empty_graph(n // 2 + 1))
        else:
            pendants = build_graph(n - 1, complete_graph(n - 3).edges())
            expected = join(complete_graph(1), pendants)
        assert sharpness_graph(n) == expected


def test_sharpness_rows_are_check_graph_records():
    for n in (4, 6, 8, 10, 16):
        record = check_graph(sharpness_graph(n))
        assert record.verdict == VERDICT_BOUNDARY
        assert sharpness_row(n).record == record


def test_sharpness_report(nx_odd_components):
    rows = [sharpness_row(n) for n in (4, 6, 8, 10, 16)]
    for row in rows:
        record = row.record
        assert row.passed
        assert abs(record.q1 - record.q1_threshold) <= 1e-8
        assert not record.has_pm
        witness = record.witness
        assert nx_odd_components(sharpness_graph(record.n), witness) - len(witness) >= 2
        assert record.edges == record.edge_threshold
    by_n = {row.record.n: row.record for row in rows}
    assert by_n[6].q1 == pytest.approx(4 + 2 * math.sqrt(3), abs=1e-10)
    assert by_n[8].q1 == pytest.approx(6 + 2 * math.sqrt(6), abs=1e-10)
    assert by_n[6].witness == (0, 1)
    assert by_n[8].witness == (0, 1, 2)
