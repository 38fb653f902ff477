"""Proof-step property checks on clique-join deficiency scenarios."""

from collections import Counter
from fractions import Fraction
from math import inf, nextafter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slmatch import (
    CapacityError,
    InputError,
    ProofInstance,
    build_m1,
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
    polyval,
    proof_harness,
    q1,
    r_l_of_n,
    r_of_n,
    run_proof_suite,
    sample_instances,
    signless_laplacians,
    spectral_radius,
    verify_polynomial_transcriptions,
)
from slmatch.proof_harness import merged_instance, shifted_instance
from slmatch.spectral import _matching_threshold_cubic, _split_graph_quadratic


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


def _even_order_scenarios():
    return [inst for n in range(4, 21, 2) for inst in exhaustive_instances(n)]


def test_build_m1_equals_computed_quotient(exact_quotient):
    scenarios = _even_order_scenarios()
    assert len(scenarios) == 441
    for inst in scenarios:
        Q = signless_laplacians([inst.graph()])[0]
        # {S, each component} in the graph's vertex layout
        classes = np.split(np.arange(inst.n), np.cumsum((inst.s,) + inst.parts[:-1]))
        assert np.array_equal(exact_quotient(Q, classes), build_m1(inst)), inst


def test_build_m3_equals_computed_quotient(exact_quotient):
    cases = [inst for inst in _even_order_scenarios() if set(inst.parts[1:]) == {1}]
    assert len(cases) == 165
    for inst in cases:
        Q = signless_laplacians([inst.graph()])[0]
        s, n1 = inst.s, inst.parts[0]
        classes = [
            range(s, s + n1),  # largest component
            range(s),  # joined clique
            range(s + n1, inst.n),  # remaining singletons
        ]
        assert np.array_equal(exact_quotient(Q, classes), build_m3(inst)), inst


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


def test_build_m5_equals_computed_quotient(exact_quotient):
    for s in (1, 2, 3, 4):
        inst = ProofInstance(s, (1,) * (s + 2))
        Q = signless_laplacians([inst.graph()])[0]
        classes = [range(s), range(s, inst.n)]
        assert np.array_equal(exact_quotient(Q, classes), build_m5(s))


def test_r_l_closed_form_is_the_m5_radius():
    for s in (1, 2, 3, 5):
        n = 2 * s + 2
        radius = max(np.linalg.eigvals(build_m5(s)).real)
        assert abs(r_l_of_n(n) - radius) <= 1e-9


def test_r_l_quadratic_is_the_m5_char_poly():
    for n in range(4, 201, 2):
        assert _split_graph_quadratic(n) == char_poly(build_m5(n // 2 - 1)), n


def _brackets(inst, lo, hi):
    """lo < q1(inst) <= hi, decided exactly."""
    return proof_harness._q1_exceeds(inst, lo) and not proof_harness._q1_exceeds(inst, hi)


def test_check_root_bounds_examples():
    # q1 of K1 v (K_{n-3} u 2K1) is the root r(n) rounds, so it lies strictly
    # between r(n)'s neighbouring floats
    for inst, n in ((ProofInstance(1, (3, 1, 1)), 6), (ProofInstance(1, (7, 1, 1)), 10)):
        assert check_root_bounds(inst).passed
        r = r_of_n(n)
        assert _brackets(inst, nextafter(r, 0), nextafter(r, inf))
    report = check_root_bounds(ProofInstance(1, (3, 1, 1)))
    assert report.details["bound_s_row"] == 5
    assert report.details["bound_clique_join"] == 6

    star = ProofInstance(1, (1, 1, 1))
    assert check_root_bounds(star).passed
    assert _brackets(star, nextafter(4.0, 0), 4)  # q1 of the 4-vertex star is 4


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


def test_q1_exceeds_brackets_the_symmetrised_m1_radius():
    """For every scenario with even n <= 30, the exact test puts q1 within
    1e-12 relative of the float radius of sqrt(M * M.T), which is similar to
    M1.  Catches a dropped part multiplicity, a dropped factor q in the
    s q^2 term, and a flipped final comparison."""
    checked = 0
    for n in range(4, 31, 2):
        for inst in exhaustive_instances(n):
            M = build_m1(inst)
            r = spectral_radius(np.sqrt(M * M.T))
            assert _brackets(inst, r * (1 - 1e-12), r * (1 + 1e-12)), inst
            checked += 1
    assert checked == 3400


def _e1(inst):
    return 2 * inst.parts[0] + inst.s - 2


@st.composite
def _scenarios_and_cuts(draw):
    inst = draw(st.sampled_from(SCENARIOS_TO_16))
    cut = st.fractions(_e1(inst), 2 * inst.n, max_denominator=10**6)
    return inst, draw(cut.filter(lambda c: c > _e1(inst)))


@settings(max_examples=300, deadline=None)
@given(_scenarios_and_cuts())
@example((ProofInstance(1, (1, 1, 1)), Fraction(4)))  # a cut at the root itself
@example((ProofInstance(1, (3, 1, 1)), 5 + Fraction(1, 10**6)))  # just above d_1 = 5
def test_q1_exceeds_is_the_sign_of_the_characteristic_polynomial(case):
    """Above d_1 every other eigenvalue of M1 lies below the cut, so
    det(cI - M1) < 0 exactly when q1 > c.  Catches a dropped part
    multiplicity, a dropped factor q and a flipped final comparison."""
    inst, c = case
    assert proof_harness._q1_exceeds(inst, c) == (polyval(char_poly(build_m1(inst)), c) < 0)
    assert proof_harness._q1_exceeds(inst, _e1(inst))


def test_a_perturbed_graph_q1_fails_the_quotient_match(monkeypatch):
    """A full-graph q1 off by 1e-6 relative, either way, is outside the 1e-8
    band around the template radius.  Catches a `matches_graph_q1` that
    checks one side of the band, or none."""
    real_q1 = proof_harness.q1
    for sign in (1, -1):
        monkeypatch.setattr(proof_harness, "q1", lambda G: real_q1(G) * (1 + sign * 1e-6))
        proof_harness._scenario_q1.cache_clear()
        for inst in (ProofInstance(1, (1, 1, 1)), ProofInstance(2, (5, 3, 1, 1))):
            report = check_root_bounds(inst)
            assert report.status == "FAIL" and not report.details["matches_graph_q1"]


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


def test_rises_decides_from_any_first_cut():
    """Bisection from a first cut anywhere in (d_1, 2n - 2] decides every
    shift and merge with n <= 16 exactly, both ways round; the sweep's own
    first cut (the midpoint of the float radii) never needs it.  Catches a
    bisection that moves the wrong end or starts outside the root."""
    pairs = [
        (inst, moved)
        for inst in SCENARIOS_TO_16
        for moved in (shifted_instance(inst), merged_instance(inst))
        if moved is not None
    ]
    assert len(pairs) == 172
    for inst, moved in pairs:
        for c in (_e1(inst), (_e1(inst) + 2 * inst.n - 2) / 2, 2 * inst.n - 2):
            assert proof_harness._rises(inst, moved, c)
            assert not proof_harness._rises(moved, inst, c)


def test_equal_radii_fail_within_the_step_cap(monkeypatch):
    """A scenario moved onto itself neither rises nor falls: every cut costs
    three exact tests until the cap, then the check reports FAIL.  Catches a
    tie forgiven as a pass."""
    calls = []
    real = proof_harness._q1_exceeds
    monkeypatch.setattr(
        proof_harness, "_q1_exceeds", lambda inst, c: calls.append(c) or real(inst, c)
    )
    for inst in (ProofInstance(1, (1, 1, 1)), ProofInstance(2, (5, 3, 1, 1))):
        calls.clear()
        report = proof_harness._check_raises_q1("tie", inst, inst)
        assert report.status == "FAIL"
        assert len(calls) == 3 * proof_harness._TIE_STEPS


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


def test_h_minus_threshold_cubic_is_zero_at_s_1_and_convex_beyond():
    # check_h_bound's exact decisions rest on both facts
    for n in range(4, 61, 2):
        cubic = _matching_threshold_cubic(n)
        assert char_poly(build_m4(n, 1)) == cubic
        for s in range(2, (n - 4) // 2 + 1):
            gap = [a - b for a, b in zip(char_poly(build_m4(n, s)), cubic)]
            assert gap[:2] == [0, s - 1]


def test_h_bound_floor_is_decided_exactly(monkeypatch):
    # the smallest excess, at (6, 1), is 4.28431509...
    report = check_h_bound(6, 1)
    assert report.passed and report.details["charpoly_nonnegative"]
    monkeypatch.setattr(proof_harness, "_CURVE_FLOOR", Fraction(42843151, 10**7))
    report = check_h_bound(6, 1)
    assert not report.passed
    assert not report.details["excess_above_floor"]
    assert report.details["charpoly_nonnegative"]


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
