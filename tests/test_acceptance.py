"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import math
import random
import time

import numpy as np
import pytest

from slmatch import (
    all_connected,
    check_case_analysis,
    check_h_bound,
    check_merge_singletons,
    check_root_bounds,
    check_vertex_shift,
    closed_form_r,
    complete_graph,
    connected_graph_count,
    decode_graph6,
    edge_threshold,
    empty_graph,
    encode_graph6,
    exhaustive_instances,
    extremal_h,
    is_equitable,
    join,
    maximum_matching,
    q1,
    q1_threshold,
    quotient_matrix,
    r_of_n,
    run_exhaustive,
    sample_connected,
    sample_instances,
    sharpness_report,
    signless_laplacians,
    spectral_radius,
    tutte_berge_oracle,
)
from slmatch.generate import edge_mask_to_graph
from slmatch.proof_harness import ProofInstance


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def exhaustive_runs():
    start = time.perf_counter()
    summaries = {n: run_exhaustive(n) for n in (4, 6)}
    return summaries, time.perf_counter() - start


def test_criterion_1_sharpness_reproduction():
    start = time.perf_counter()
    ok = all(
        abs(q1(extremal_h(n)) - r_of_n(n)) <= 1e-8 for n in (4, 10, 12, 20, 50, 100)
    )
    ok &= abs(q1(join(complete_graph(2), empty_graph(4))) - (4 + 2 * math.sqrt(3))) <= 1e-10
    ok &= abs(q1(join(complete_graph(3), empty_graph(5))) - (6 + 2 * math.sqrt(6))) <= 1e-10
    report = sharpness_report([4, 6, 8, 10, 12, 20, 50, 100])
    ok &= report.passed
    ok &= all(
        not row.record.has_pm and row.witness_deficiency >= 1 for row in report.rows
    )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(1, "sharpness-reproduction", ok, f"{elapsed:.2f}s")


def test_criterion_2_printed_constants():
    checks = [
        abs(r_of_n(6) - 6.9095) <= 5e-4,
        abs(r_of_n(8) - 10.5136) <= 5e-4,
        abs(q1_threshold(6) - 7.4641) <= 5e-4,
        abs(q1_threshold(8) - 10.8990) <= 5e-4,
        q1_threshold(6) > r_of_n(6),  # 7.4641 > 6.9095
        q1_threshold(8) > r_of_n(8),  # 10.8990 > 10.5136
    ]
    _report(2, "printed-constants", all(checks))


def test_criterion_3_exhaustive_theorem_check(exhaustive_runs):
    summaries, elapsed = exhaustive_runs
    ok = summaries[4].checked == 38 == connected_graph_count(4)
    ok &= summaries[6].checked == 26704 == connected_graph_count(6)
    ok &= not summaries[4].counterexamples
    ok &= not summaries[6].counterexamples
    ok &= elapsed < 60.0
    _report(3, "exhaustive-theorem-check", ok, f"{elapsed:.2f}s for both orders")


def test_criterion_4_edge_theorem_sharpness(exhaustive_runs):
    summaries, _ = exhaustive_runs
    ok = all(
        extremal_h(n).edge_count == n * n // 2 - 5 * n // 2 + 5
        for n in range(4, 201, 2)
    )
    ok &= join(complete_graph(2), empty_graph(4)).edge_count == 9
    ok &= join(complete_graph(3), empty_graph(5)).edge_count == 18
    ok &= not summaries[4].edge_violations
    ok &= not summaries[6].edge_violations
    _report(4, "edge-theorem-sharpness", ok)


def _quotient_radius(Q, partition):
    C = quotient_matrix(Q, partition)  # similar to the symmetric sqrt(C * C.T)
    return spectral_radius(np.sqrt(C * C.T))


def test_criterion_5_quotient_equality_suite():
    worst = 0.0
    for n in range(4, 41, 2):
        Q = signless_laplacians([extremal_h(n)])[0]
        partition = [list(range(1, n - 2)), [0], [n - 2, n - 1]]
        assert is_equitable(Q, partition)
        worst = max(
            worst,
            abs(_quotient_radius(Q, partition) - spectral_radius(Q)),
        )
    for G, partition in (
        (join(complete_graph(2), empty_graph(4)), [[0, 1], [2, 3, 4, 5]]),
        (join(complete_graph(3), empty_graph(5)), [[0, 1, 2], [3, 4, 5, 6, 7]]),
    ):
        Q = signless_laplacians([G])[0]
        assert is_equitable(Q, partition)
        worst = max(
            worst,
            abs(_quotient_radius(Q, partition) - spectral_radius(Q)),
        )
    for inst in sample_instances(100, seed=917, n_min=6, n_max=40):
        Q = signless_laplacians([inst.graph()])[0]
        partition = inst.partition()
        assert is_equitable(Q, partition)
        worst = max(
            worst,
            abs(_quotient_radius(Q, partition) - spectral_radius(Q)),
        )
    _report(5, "quotient-equality-suite", worst <= 1e-8, f"worst gap {worst:.2e}")


def test_criterion_6_proof_step_properties():
    instances = []
    for n in range(4, 13, 2):
        instances.extend(exhaustive_instances(n))
    instances.extend(sample_instances(200))
    ok = True
    for inst in instances:
        ok &= check_root_bounds(inst).passed
        shift = check_vertex_shift(inst)
        ok &= shift.passed or shift.skipped
        merge = check_merge_singletons(inst)
        ok &= merge.passed or merge.skipped
    excesses = {}
    for n in range(6, 41, 2):
        for s in range(1, (n - 4) // 2 + 1):
            report = check_h_bound(n, s)
            ok &= report.passed
            excesses[(n, s)] = report.details["excess"]
    minimum_at = min(excesses, key=excesses.get)
    ok &= minimum_at == (6, 1)
    ok &= abs(excesses[(6, 1)] - 4.2843) <= 1e-3
    for n in range(4, 101, 2):
        ok &= check_case_analysis(n).passed
    _report(
        6,
        "proof-step-properties",
        ok,
        f"{len(instances)} scenarios, floor {excesses[(6, 1)]:.4f} at n=6 s=1",
    )


def test_criterion_7_closed_form_agreement():
    worst = max(abs(closed_form_r(n) - r_of_n(n)) for n in range(4, 41, 2))
    _report(7, "closed-form-agreement", worst <= 1e-6, f"worst gap {worst:.2e}")


def test_criterion_8_oracle_equivalence():
    ok = True
    for n in range(1, 7):
        for G in all_connected(n):
            size = maximum_matching(G).size
            deficiency, _ = tutte_berge_oracle(G)
            ok &= G.n - 2 * size == max(deficiency, 0)
    for G in sample_connected(10, 0.5, 1000, seed=42):
        size = maximum_matching(G).size
        deficiency, _ = tutte_berge_oracle(G)
        ok &= G.n - 2 * size == max(deficiency, 0)
    rng = random.Random(20240607)
    for _ in range(10_000):
        n = rng.randint(1, 70)
        G = edge_mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))
        ok &= decode_graph6(encode_graph6(G)) == G
    _report(8, "oracle-equivalence", ok)


def test_acceptance_instance_type_round_trip():
    # sanity: the sampled scenarios above really are in the deficient regime
    for inst in sample_instances(20, seed=5):
        assert isinstance(inst, ProofInstance)
        assert inst.k >= inst.s + 2
