"""Proof-step property checks on clique-join deficiency scenarios."""

from collections import Counter

import numpy as np
import pytest

from slmatch import (
    CapacityError,
    InputError,
    ProofInstance,
    build_m1,
    build_m2,
    build_m3,
    build_m4,
    build_m5,
    char_poly,
    check_case_analysis,
    check_h_bound,
    check_merge_singletons,
    check_root_bounds,
    check_vertex_shift,
    exhaustive_instances,
    is_equitable,
    proof_harness,
    q1,
    quotient_matrix,
    r_l_of_n,
    r_of_n,
    run_proof_suite,
    sample_instances,
    signless_laplacian,
    spectral_radius,
    verify_polynomial_transcriptions,
)
from slmatch.proof_harness import merged_instance, shifted_instance


def test_instance_normalisation_and_validation():
    inst = ProofInstance(1, (1, 3, 1))
    assert inst.parts == (3, 1, 1)
    assert inst.n == 6 and inst.k == 3
    with pytest.raises(InputError):
        ProofInstance(0, (1, 1, 1))
    with pytest.raises(InputError):
        ProofInstance(1, (2, 1, 1))  # even component
    with pytest.raises(InputError):
        ProofInstance(2, (1, 1, 1))  # k < s + 2


def test_build_m1_template_entries():
    M = build_m1(ProofInstance(1, (3, 1, 1)))
    assert M.tolist() == [
        [5, 3, 1, 1],
        [1, 5, 0, 0],
        [1, 0, 1, 0],
        [1, 0, 0, 1],
    ]
    M = build_m1(ProofInstance(2, (1, 1, 1, 1)))
    assert M.tolist() == [
        [6, 1, 1, 1, 1],
        [2, 2, 0, 0, 0],
        [2, 0, 2, 0, 0],
        [2, 0, 0, 2, 0],
        [2, 0, 0, 0, 2],
    ]


def test_build_m1_equals_computed_quotient():
    cases = [
        ProofInstance(1, (3, 1, 1)),
        ProofInstance(2, (1, 1, 1, 1)),
        ProofInstance(1, (7, 1, 1)),
        ProofInstance(3, (5, 3, 1, 1, 1)),
    ]
    for inst in cases:
        Q = signless_laplacian(inst.graph())
        assert is_equitable(Q, inst.partition())
        C = quotient_matrix(Q, inst.partition())
        assert np.allclose(build_m1(inst), C, atol=1e-12)


def test_build_m2_is_the_shifted_template():
    assert np.array_equal(
        build_m2(ProofInstance(1, (3, 3, 3))),
        build_m1(ProofInstance(1, (5, 3, 1))),
    )
    with pytest.raises(InputError):
        build_m2(ProofInstance(1, (7, 1, 1)))


def _three_class_partition(inst):
    s, n1 = inst.s, inst.parts[0]
    return [
        list(range(s, s + n1)),  # largest component
        list(range(s)),  # joined clique
        list(range(s + n1, inst.n)),  # remaining singletons
    ]


def test_build_m3_equals_computed_quotient():
    cases = [
        ProofInstance(1, (3, 1, 1)),
        ProofInstance(1, (7, 1, 1)),
        ProofInstance(2, (3, 1, 1, 1)),
        ProofInstance(3, (1, 1, 1, 1, 1)),
    ]
    for inst in cases:
        Q = signless_laplacian(inst.graph())
        partition = _three_class_partition(inst)
        assert is_equitable(Q, partition)
        assert np.allclose(build_m3(inst), quotient_matrix(Q, partition), atol=1e-12)


def test_build_m3_requires_singleton_tail():
    with pytest.raises(InputError):
        build_m3(ProofInstance(1, (3, 3, 1)))


def test_build_m4_at_s1_is_the_extremal_quotient():
    # with one joined vertex this is exactly the extremal family's quotient
    assert build_m4(6, 1).tolist() == [[5, 1, 0], [3, 5, 2], [0, 1, 1]]
    n = 12
    M = build_m4(n, 1)
    assert M.tolist() == [
        [2 * n - 7, 1, 0],
        [n - 3, n - 1, 2],
        [0, 1, 1],
    ]


def test_build_m4_at_s1_has_the_threshold_cubic_as_characteristic_polynomial():
    for n in range(6, 201, 2):
        cubic = [1, -(3 * n - 7), n * (2 * n - 7), -2 * (n * n - 7 * n + 12)]
        assert char_poly(build_m4(n, 1)) == cubic, n


def test_build_m4_validation():
    with pytest.raises(InputError):
        build_m4(6, 3)  # would need a component of order <= 0
    with pytest.raises(InputError):
        build_m4(7, 1)  # odd total leaves an even component


def test_build_m5_reproduces_fixed_sharpness_quotients():
    assert build_m5(2).tolist() == [[6, 4], [2, 2]]
    assert build_m5(3).tolist() == [[9, 5], [3, 3]]


def test_build_m5_equals_computed_quotient():
    for s in (1, 2, 3, 4):
        inst = ProofInstance(s, (1,) * (s + 2))
        Q = signless_laplacian(inst.graph())
        partition = [list(range(s)), list(range(s, inst.n))]
        assert is_equitable(Q, partition)
        assert np.allclose(build_m5(s), quotient_matrix(Q, partition), atol=1e-12)


def test_r_l_closed_form_is_the_m5_radius():
    for s in (1, 2, 3, 5):
        n = 2 * s + 2
        radius = max(np.linalg.eigvals(build_m5(s)).real)
        assert abs(r_l_of_n(n) - radius) <= 1e-9


def test_check_root_bounds_examples():
    report = check_root_bounds(ProofInstance(1, (3, 1, 1)))
    assert report.passed
    assert abs(report.details["radius"] - r_of_n(6)) <= 1e-8
    assert report.details["bound_s_row"] == 5
    assert report.details["bound_clique_join"] == 6

    report = check_root_bounds(ProofInstance(1, (1, 1, 1)))
    assert report.passed
    assert abs(report.details["radius"] - 4.0) <= 1e-8  # the 4-vertex star

    report = check_root_bounds(ProofInstance(1, (7, 1, 1)))
    assert report.passed
    assert abs(report.details["radius"] - r_of_n(10)) <= 1e-8


def test_symmetrised_m1_keeps_the_template_radius():
    """sqrt(M * M.T) of every M1 template with even n <= 16 is exactly
    symmetric, and its radius is the nonsymmetric template's largest real
    eigenvalue."""
    checked = 0
    for n in range(4, 17, 2):
        for inst in exhaustive_instances(n):
            M = build_m1(inst)
            symmetric = np.sqrt(M * M.T)
            assert np.array_equal(symmetric, symmetric.T)
            reference = np.linalg.eigvals(M).real.max()
            assert abs(spectral_radius(symmetric) - reference) <= 1e-12 * reference
            checked += 1
    assert checked == 163


def test_check_root_bounds_exhaustive_small():
    for n in (4, 6, 8, 10):
        for inst in exhaustive_instances(n):
            assert check_root_bounds(inst).passed


def test_shifted_instance_moves_from_smallest_big_part():
    assert shifted_instance(ProofInstance(1, (3, 3, 1))).parts == (5, 1, 1)
    assert shifted_instance(ProofInstance(1, (3, 3, 3))).parts == (5, 3, 1)
    assert shifted_instance(ProofInstance(3, (3, 3, 3, 3, 3))).parts == (5, 3, 3, 3, 1)
    assert shifted_instance(ProofInstance(1, (7, 1, 1))) is None


def test_check_vertex_shift_examples():
    for inst in (
        ProofInstance(1, (3, 3, 1)),
        ProofInstance(1, (3, 3, 3)),
        ProofInstance(3, (3, 3, 3, 3, 3)),
    ):
        report = check_vertex_shift(inst)
        assert report.passed and not report.skipped
        assert report.details["after"] > report.details["before"]


def test_check_vertex_shift_skips_without_donor():
    report = check_vertex_shift(ProofInstance(1, (7, 1, 1)))
    assert report.skipped


def test_merged_instance():
    assert merged_instance(ProofInstance(1, (1, 1, 1, 1, 1))).parts == (3, 1, 1)
    assert merged_instance(ProofInstance(1, (3, 1, 1, 1, 1))).parts == (5, 1, 1)
    assert merged_instance(ProofInstance(2, (1, 1, 1, 1, 1, 1))).parts == (3, 1, 1, 1)
    assert merged_instance(ProofInstance(1, (3, 1, 1))) is None  # k = s+2 already
    assert merged_instance(ProofInstance(1, (3, 3, 3, 3, 3))) is None  # no singletons


def test_check_merge_singletons_examples():
    for inst in (
        ProofInstance(1, (1, 1, 1, 1, 1)),
        ProofInstance(1, (3, 1, 1, 1, 1)),
        ProofInstance(2, (1, 1, 1, 1, 1, 1)),
    ):
        report = check_merge_singletons(inst)
        assert report.passed and not report.skipped
    assert check_merge_singletons(ProofInstance(1, (3, 1, 1))).skipped


def test_check_h_bound():
    report = check_h_bound(6, 1)
    assert report.passed
    assert abs(report.details["excess"] - 4.2843) <= 1e-3  # the equality case
    assert abs(report.details["h_at_r"]) <= 1e-6  # r(n) is a root at s=1
    assert check_h_bound(10, 1).passed
    assert check_h_bound(12, 4).passed
    with pytest.raises(InputError):
        check_h_bound(8, 3)


def test_h_bound_minimum_sits_at_smallest_case():
    grid = [
        (n, s)
        for n in range(6, 41, 2)
        for s in range(1, (n - 4) // 2 + 1)
    ]
    excesses = {(n, s): check_h_bound(n, s).details["excess"] for n, s in grid}
    minimum = min(excesses, key=excesses.get)
    assert minimum == (6, 1)
    assert all(v >= 4.2843 - 1e-3 for v in excesses.values())


def test_check_case_analysis_trichotomy():
    for n in (6, 8):
        report = check_case_analysis(n)
        assert report.passed and report.details["case"] == "below"
    report = check_case_analysis(4)
    assert report.passed and report.details["case"] == "equal"
    for n in (10, 12, 50, 100):
        report = check_case_analysis(n)
        assert report.passed and report.details["case"] == "above"
    assert abs(r_l_of_n(6) - (4 + 2 * np.sqrt(3))) <= 1e-12
    assert abs(r_l_of_n(8) - (6 + 2 * np.sqrt(6))) <= 1e-12


def test_transcription_reports():
    records = verify_polynomial_transcriptions()
    by_name = {}
    for record in records:
        by_name.setdefault(record.polynomial, []).append(record)
    # every hand-expanded form except the alternating-sign variant matches
    for name in ("m1_expansion_all_negative", "m3_expansion", "m4_cubic", "m5_quadratic"):
        assert by_name[name], name
        assert all(r.agrees for r in by_name[name]), name
    # the alternating-sign expansion disagrees with the determinant everywhere
    assert all(not r.agrees for r in by_name["m1_expansion_alternating"])


def test_maximizer_per_order():
    expected = {
        4: ProofInstance(1, (1, 1, 1)),
        6: ProofInstance(2, (1, 1, 1, 1)),
        8: ProofInstance(3, (1, 1, 1, 1, 1)),
        10: ProofInstance(1, (7, 1, 1)),
        12: ProofInstance(1, (9, 1, 1)),
    }
    for n, best in expected.items():
        instances = exhaustive_instances(n)
        top = max(instances, key=lambda inst: q1(inst.graph()))
        assert top == best, f"n={n}: got {top}"


def test_exhaustive_instances_small_orders():
    assert exhaustive_instances(4) == [ProofInstance(1, (1, 1, 1))]
    six = set(exhaustive_instances(6))
    assert six == {
        ProofInstance(1, (3, 1, 1)),
        ProofInstance(1, (1, 1, 1, 1, 1)),
        ProofInstance(2, (1, 1, 1, 1)),
    }


def test_sample_instances_deterministic_and_valid():
    a = sample_instances(50, seed=123)
    b = sample_instances(50, seed=123)
    assert a == b
    for inst in a:
        assert 14 <= inst.n <= 40 and inst.n % 2 == 0
        assert inst.k >= inst.s + 2
        assert all(p % 2 == 1 for p in inst.parts)


def test_run_proof_suite_small():
    result = run_proof_suite(nmax=8)
    assert result.passed
    assert not result.failures
    names = {r.polynomial for r in result.transcriptions}
    assert "m4_cubic" in names and "m1_expansion_alternating" in names


# ---------------------------------------------------------------------------
# the scenario-q1 cache

SCENARIOS_TO_16 = [inst for n in range(4, 17, 2) for inst in exhaustive_instances(n)]


def _scenario_checks(inst):
    return check_root_bounds(inst), check_vertex_shift(inst), check_merge_singletons(inst)


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
def test_each_scenario_is_solved_once(monkeypatch, order):
    solved = Counter()
    real_q1 = proof_harness.q1

    def counting_q1(G):
        solved[tuple(G.adjacency_masks())] += 1
        return real_q1(G)

    monkeypatch.setattr(proof_harness, "q1", counting_q1)
    distinct = set(SCENARIOS_TO_16)
    for inst in SCENARIOS_TO_16[::order]:
        _scenario_checks(inst)
        # every shifted or merged image is itself a scenario of the sweep
        assert {shifted_instance(inst), merged_instance(inst)} - {None} <= distinct
    assert len(solved) == len(distinct) == 163
    assert set(solved.values()) == {1}
    for inst in SCENARIOS_TO_16[::-order]:
        _scenario_checks(inst)
    assert sum(solved.values()) == len(distinct)


def test_cached_details_equal_a_fresh_solve():
    for inst in SCENARIOS_TO_16[::-1]:
        _scenario_checks(inst)  # every value below is read from the cache
    for inst in SCENARIOS_TO_16:
        root, shift, merge = _scenario_checks(inst)
        assert root.details["graph_q1"] == q1(inst.graph())
        for report, moved in ((shift, shifted_instance(inst)), (merge, merged_instance(inst))):
            if moved is None:
                assert report.skipped and report.details == {}
            else:
                fresh = {"before": q1(inst.graph()), "after": q1(moved.graph())}
                assert report.details == fresh


def test_reordered_parts_share_one_cache_entry():
    a = proof_harness._scenario_q1(ProofInstance(1, (1, 3, 1)))
    b = proof_harness._scenario_q1(ProofInstance(1, (3, 1, 1)))
    info = proof_harness._scenario_q1.cache_info()
    assert a == b
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_scenario_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(proof_harness, "proof_graph", lambda s, parts: None)
    monkeypatch.setattr(proof_harness, "q1", lambda G: 0.0)
    bound = proof_harness._scenario_q1.cache_info().maxsize
    assert bound == 1024
    for j in range(bound + 10):
        proof_harness._scenario_q1(ProofInstance(1, (2 * j + 1, 1, 1)))
    info = proof_harness._scenario_q1.cache_info()
    assert (info.misses, info.currsize) == (bound + 10, bound)


@pytest.mark.parametrize("check", [check_root_bounds, check_vertex_shift, check_merge_singletons])
def test_oversize_scenario_is_refused_before_it_is_built(monkeypatch, check):
    def refuse(*args):
        raise AssertionError("an oversize scenario was built")

    monkeypatch.setattr(proof_harness, "proof_graph", refuse)
    monkeypatch.setattr(proof_harness, "build_m1", refuse)
    with pytest.raises(CapacityError, match="dense Q supports orders up to 4096, got 4098"):
        check(ProofInstance(1, (4095, 1, 1)))
    # at the cap itself nothing is refused (this check has nothing to build)
    assert check_vertex_shift(ProofInstance(1, (4093, 1, 1))).skipped
