"""Tests of the benchmark's own machinery: reference checks and tracer."""

from __future__ import annotations

import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import bench_reference as ref  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402
from bench_workloads import Sweep  # noqa: E402
from slmatch import cli, generate  # noqa: E402


class Exhaustive4(Sweep):
    def __init__(self, workdir: Path):
        super().__init__(workdir, seed=0)
        self.expected = Counter({4: 38})

    def source(self) -> list[str]:
        return ["--exhaustive", "4"]


def _run(workload: Sweep) -> dict:
    stdout = io.StringIO()
    rc = cli.main(workload.argv(serial=True), stdout=stdout)
    return {"rc": rc, "error": None, "stdout": stdout.getvalue()}


@pytest.fixture
def tracer():
    t = bench_trace.Tracer()
    replaced = bench_trace.install(t)
    try:
        yield t
    finally:
        bench_trace.uninstall(replaced)


def test_clean_sweep_has_no_failures(tmp_path):
    workload = Exhaustive4(tmp_path)
    outcome = workload.check(_run(workload))
    assert (outcome.attempted, outcome.failed, outcome.items) == (38, 0, 38)
    assert 0.0 <= outcome.q1_err < 1e-12


@pytest.mark.parametrize("field, corrupt", [
    ("has_pm", lambda value: not value),
    ("q1", lambda value: value + 1e-6),
])
def test_corrupted_record_raises_fail_ratio(tmp_path, field, corrupt):
    workload = Exhaustive4(tmp_path)
    result = _run(workload)
    lines = workload.out.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[5])
    record[field] = corrupt(record[field])
    lines[5] = json.dumps(record)
    workload.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outcome = workload.check(result)
    assert outcome.failed == 1
    assert field in outcome.problems[0]


def test_reference_rejects_false_witness():
    # the 4-cycle has a perfect matching, so no witness can be valid
    C4 = ref.nx.cycle_graph(4)
    assert ref.has_perfect_matching(C4)
    assert not ref.is_tutte_witness(C4, [0])
    star = ref.nx.star_graph(3)
    assert not ref.has_perfect_matching(star)
    assert ref.is_tutte_witness(star, [0])


def test_tracer_attributes_time_to_a_generator_layer(tracer, tmp_path):
    graphs = list(generate.all_connected(5))
    spans = tmp_path / "spans.npz"
    tracer.save(str(spans))
    layers = bench_trace.summarize(str(spans), wall_s=1.0)
    assert layers["generate.all_connected.calls"] == len(graphs) + 1 == 729
    assert layers["generate.all_connected.self_s"] > 0.0
    assert layers["generate.self_s"] == layers["generate.all_connected.self_s"]
    assert layers["generate.all_connected.yield_ratio"] == 728 / 1024


def test_tracer_nests_calls_under_their_callers(tracer, tmp_path):
    stdout = io.StringIO()
    assert cli.main(["proof-check", "--instance", "1,3,1,1"], stdout=stdout) == 0
    spans = tmp_path / "spans.npz"
    tracer.save(str(spans))
    layers = bench_trace.summarize(str(spans), wall_s=10.0)
    assert layers["cli.main.calls"] == 1
    assert layers["proof_harness.check_root_bounds.calls"] == 1
    # q1 is reached through proof_harness's own binding of it
    assert layers["spectral.q1.calls"] >= 1
    assert layers["graph.proof_graph.calls"] >= 1
    assert layers["spectral.spectral_radius.calls"] == 1 + layers["spectral.q1.calls"]
    total_self = sum(layers[f"{layer}.self_s"] for layer in bench_trace.LAYERS)
    assert total_self + layers["driver.self_s"] == pytest.approx(10.0)


@pytest.mark.parametrize("argv", [
    ["verify", "--exhaustive", "4"],
    ["verify", "--random", "8", "--p", "0.5", "--count", "40", "--seed", "3"],
])
def test_wrapping_leaves_verdict_output_byte_identical(tmp_path, argv):
    outputs = []
    for traced in (False, True):
        out = tmp_path / f"out{int(traced)}.jsonl"
        stdout = io.StringIO()
        replaced = bench_trace.install(bench_trace.Tracer()) if traced else []
        try:
            rc = cli.main([*argv, "--out", str(out)], stdout=stdout)
        finally:
            bench_trace.uninstall(replaced)
        outputs.append((rc, stdout.getvalue(), out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_benchmark_json_matches_emitted_metrics(tracer, tmp_path):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    tracer.save(str(tmp_path / "spans.npz"))
    emitted = list(bench_trace.summarize(str(tmp_path / "spans.npz"), wall_s=1.0))
    emitted += ["spectral.q1.max_abs_err", "trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in emitted
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
