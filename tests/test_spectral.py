"""Signless Laplacian matrices, spectral radii, quotients, and thresholds."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slmatch import (
    InputError,
    NumericalError,
    build_graph,
    char_poly,
    closed_form_r,
    complete_graph,
    edge_threshold,
    empty_graph,
    extremal_h,
    join,
    polyval,
    q1,
    q1_threshold,
    r_of_n,
    sample_connected,
    signless_laplacians,
    spectral_radius,
)
from slmatch import spectral
from slmatch.generate import edge_mask_to_graph


def test_signless_laplacian_path(path3):
    assert signless_laplacians([path3])[0].tolist() == [[1, 1, 0], [1, 2, 1], [0, 1, 1]]


def test_signless_laplacian_k2():
    assert signless_laplacians([complete_graph(2)])[0].tolist() == [[1, 1], [1, 1]]


def _q_from_edges(G):
    Q = np.zeros((G.n, G.n))
    for u, v in G.edges():
        Q[u, v] = Q[v, u] = 1.0
        Q[u, u] += 1.0
        Q[v, v] += 1.0
    return Q


@st.composite
def graphs(draw, max_order=70):
    n = draw(st.integers(1, max_order))
    return edge_mask_to_graph(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))


# complete graphs set every bit of the last mask byte at the 8/9 and 64/65
# order boundaries, where a row grows by one byte
@example(complete_graph(8))
@example(complete_graph(9))
@example(complete_graph(64))
@example(complete_graph(65))
@example(extremal_h(65))
@settings(max_examples=60, deadline=None)
@given(graphs())
def test_signless_laplacian_matches_edge_list(G):
    assert np.array_equal(signless_laplacians([G])[0], _q_from_edges(G))


def test_signless_laplacians_stack():
    gs = list(sample_connected(9, 0.5, 7, seed=2))
    stack = signless_laplacians(gs)
    assert stack.shape == (7, 9, 9)
    for G, Q in zip(gs, stack):
        assert np.array_equal(Q, _q_from_edges(G))
    with pytest.raises(InputError):
        signless_laplacians([complete_graph(4), complete_graph(6)])
    with pytest.raises(InputError):
        signless_laplacians([])


def test_spectral_radius_of_a_stack():
    gs = list(sample_connected(10, 0.4, 5, seed=6))
    radii = spectral_radius(signless_laplacians(gs))
    assert radii.shape == (5,)
    assert radii.tolist() == [q1(G) for G in gs]
    # nonsymmetric input is refused, stacked or alone: `eigvalsh` would read
    # only one triangle of it
    stack = np.array([[[0.0, 2.0], [1.0, 0.0]], [[3.0, 1.0], [0.0, 1.0]]])
    for M in (stack, stack[0]):
        with pytest.raises(InputError, match="symmetric"):
            spectral_radius(M)


def test_signless_laplacian_row_sums(petersen):
    Q = signless_laplacians([petersen])[0]
    assert np.array_equal(Q.sum(axis=1), 2.0 * np.array(petersen.degrees()))
    assert np.array_equal(Q, Q.T)


def test_spectral_radius_known_graphs(path3, cycle6):
    assert abs(q1(complete_graph(4)) - 6.0) <= 1e-10  # 2n-2 for K_n
    assert abs(q1(cycle6) - 4.0) <= 1e-10  # twice the regularity
    # Q(P3) has spectrum {0, 1, 3}
    assert abs(q1(path3) - 3.0) <= 1e-10
    eigen = np.linalg.eigvalsh(signless_laplacians([path3])[0])
    assert np.allclose(eigen, [0.0, 1.0, 3.0], atol=1e-9)


def test_spectral_radius_agrees_with_lapack():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        M = rng.random((n, n))
        M = (M + M.T) / 2
        assert abs(spectral_radius(M) - np.linalg.eigvalsh(M)[-1]) <= 1e-9


def test_spectral_radius_permutation_invariant():
    rng = random.Random(9)
    for G in sample_connected(8, 0.5, 10, seed=14):
        Q = signless_laplacians([G])[0]
        perm = list(range(G.n))
        rng.shuffle(perm)
        P = np.eye(G.n)[perm]
        assert abs(spectral_radius(P @ Q @ P.T) - spectral_radius(Q)) <= 1e-9


def test_spectral_radius_edge_cases():
    assert spectral_radius(np.array([[0.0]])) == 0.0
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    assert abs(spectral_radius(np.array([[0, 1], [1, 0]])) - 1.0) <= 1e-10


def test_spectral_radius_input_validation():
    with pytest.raises(InputError):
        spectral_radius(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(InputError):
        spectral_radius(np.zeros((2, 3)))


def test_quotient_matrix_join_families(exact_quotient):
    Q = signless_laplacians([join(complete_graph(2), empty_graph(4))])[0]
    C = exact_quotient(Q, [[0, 1], [2, 3, 4, 5]])
    assert C.tolist() == [[6, 4], [2, 2]]
    Q = signless_laplacians([join(complete_graph(3), empty_graph(5))])[0]
    C = exact_quotient(Q, [[0, 1, 2], [3, 4, 5, 6, 7]])
    assert C.tolist() == [[9, 5], [3, 3]]


def _h_partition(n):
    # clique class, hub class, pendant class in the extremal_h vertex layout
    return [list(range(1, n - 2)), [0], [n - 2, n - 1]]


def test_quotient_matrix_extremal_family(exact_quotient):
    for n in (6, 10, 14):
        Q = signless_laplacians([extremal_h(n)])[0]
        C = exact_quotient(Q, _h_partition(n))
        expected = [
            [2 * n - 7, 1, 0],
            [n - 3, n - 1, 2],
            [0, 1, 1],
        ]
        assert C.tolist() == expected


def test_is_equitable(path3, exact_quotient):
    Q = signless_laplacians([extremal_h(10)])[0]
    assert exact_quotient(Q, _h_partition(10)) is not None
    assert exact_quotient(signless_laplacians([path3])[0], [[0, 1], [2]]) is None


def test_equitable_quotient_shares_spectral_radius(exact_quotient):
    cases = [
        (join(complete_graph(2), empty_graph(4)), [[0, 1], [2, 3, 4, 5]]),
        (join(complete_graph(3), empty_graph(5)), [[0, 1, 2], [3, 4, 5, 6, 7]]),
        (extremal_h(12), _h_partition(12)),
        (extremal_h(30), _h_partition(30)),
    ]
    for G, partition in cases:
        Q = signless_laplacians([G])[0]
        C = exact_quotient(Q, partition)  # similar to the symmetric sqrt(C * C.T)
        assert abs(spectral_radius(np.sqrt(C * C.T)) - spectral_radius(Q)) <= 1e-8


def test_spectral_monotonicity_under_subgraphs():
    rng = random.Random(31)
    checked = 0
    for G in sample_connected(8, 0.55, 250, seed=8):
        edges = G.edges()
        kept = [e for e in edges if rng.random() > 0.25]
        sub = build_graph(G.n, kept)
        assert q1(sub) <= q1(G) + 1e-9
        checked += 1
        # spanning subgraph with one edge removed, second sample point
        if edges:
            smaller = build_graph(G.n, edges[:-1])
            assert q1(smaller) <= q1(G) + 1e-9
            checked += 1
    assert checked >= 500


def test_perron_degree_bounds():
    for G in sample_connected(9, 0.4, 50, seed=21):
        radius = q1(G)
        top = max(G.degrees())
        assert top + 1 <= radius <= 2 * top + 1e-9


def _fraction_det(rows):
    """Determinant by Gaussian elimination over the rationals."""
    A = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for i in range(len(A)):
        pivot = next((r for r in range(i, len(A)) if A[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            A[i], A[pivot] = A[pivot], A[i]
            det = -det
        det *= A[i][i]
        for r in range(i + 1, len(A)):
            factor = A[r][i] / A[i][i]
            A[r] = [a - factor * b for a, b in zip(A[r], A[i])]
    return det


@st.composite
def integer_matrices(draw, max_order=7):
    n = draw(st.integers(0, max_order))
    entries = draw(st.lists(st.integers(-20, 20), min_size=n * n, max_size=n * n))
    return np.array(entries, dtype=int).reshape(n, n)


@settings(max_examples=80, deadline=None)
@given(integer_matrices())
def test_char_poly_matches_fraction_determinant(M):
    p = char_poly(M)
    n = M.shape[0]
    assert len(p) == n + 1 and p[0] == 1
    assert all(type(c) is int for c in p)
    for x in range(-2, n + 2):
        assert polyval(p, x) == _fraction_det(x * np.eye(n, dtype=int) - M)


def test_char_poly_rejects_non_integer_or_non_square_input():
    with pytest.raises(InputError):
        char_poly(np.array([[1.0, 0.0], [0.0, 1.0]]))
    for shape in [(2, 3), (2,), (2, 2, 2)]:
        with pytest.raises(InputError, match="expected a square matrix"):
            char_poly(np.zeros(shape, dtype=int))


def test_polyval_is_exact_on_fractions_and_float_on_floats():
    assert polyval([1, 0, -2], Fraction(3, 2)) == Fraction(1, 4)
    assert polyval([1, 0, -2], 1.5) == 0.25
    assert polyval([2, -3, 1], 4) == 21


def test_largest_root_refuses_an_anchor_that_does_not_isolate_it():
    assert spectral._largest_root([1, 0, -4], 0) == 2.0
    with pytest.raises(NumericalError):
        spectral._largest_root([1, 0, -4], 5)  # both roots lie below 5
    with pytest.raises(NumericalError):
        spectral._largest_root([1, 0, -4], -3)  # both roots lie above -3


def test_r_of_n_is_the_correctly_rounded_root():
    for n in range(4, 4097, 2):
        cubic = [1, -(3 * n - 7), n * (2 * n - 7), -2 * (n * n - 7 * n + 12)]
        r = r_of_n(n)
        assert type(r) is float
        below = (Fraction(math.nextafter(r, -math.inf)) + Fraction(r)) / 2
        above = (Fraction(math.nextafter(r, math.inf)) + Fraction(r)) / 2
        assert polyval(cubic, below) < 0 < polyval(cubic, above), n


def test_r_of_n_values():
    assert abs(r_of_n(4) - 4.0) <= 1e-9
    cubic = lambda n, x: x**3 - (3 * n - 7) * x**2 + n * (2 * n - 7) * x - 2 * (
        n * n - 7 * n + 12
    )
    for n in (6, 8, 10, 40):
        r = r_of_n(n)
        assert abs(cubic(n, r)) <= 1e-7
        assert cubic(n, r + 0.05) > 0  # nothing larger: cubic is positive beyond
        assert cubic(n, r + 2.0) > 0
    assert abs(r_of_n(6) - 6.9095) <= 5e-4
    assert abs(r_of_n(8) - 10.5136) <= 5e-4


def test_r_of_n_validation():
    for bad in (3, 5, 2, -4, 4.0):
        with pytest.raises(InputError):
            r_of_n(bad)


def test_closed_form_matches_root_finder():
    for n in range(4, 41, 2):
        assert abs(closed_form_r(n) - r_of_n(n)) <= 1e-6


def test_q1_threshold():
    assert q1_threshold(6) == 4 + 2 * math.sqrt(3)
    assert q1_threshold(8) == 6 + 2 * math.sqrt(6)
    assert abs(q1_threshold(4) - 4.0) <= 1e-9
    assert q1_threshold(10) == r_of_n(10)
    with pytest.raises(InputError):
        q1_threshold(7)
    with pytest.raises(InputError):
        q1_threshold(2)


def test_edge_threshold():
    assert edge_threshold(10) == 30
    assert edge_threshold(6) == 9
    assert edge_threshold(8) == 18
    assert edge_threshold(4) == 3
    assert edge_threshold(200) == (200 * 200 - 5 * 200 + 10) // 2
    with pytest.raises(InputError):
        edge_threshold(5)


def test_q1_threshold_is_the_root_of_the_old_n6_n8_table_at_every_dense_order():
    # before max(r(n), r_l(n)), the threshold was the root of x^2 - 8x + 4 at
    # n = 6, x^2 - 12x + 12 at n = 8 and the cubic of r(n) elsewhere
    table = {6: [1, -8, 4], 8: [1, -12, 12]}
    for n in range(4, spectral.MAX_DENSE_ORDER + 1, 2):
        poly = table.get(n) or spectral._matching_threshold_cubic(n)
        assert q1_threshold(n) == spectral._largest_root(poly, 2 * n - 6), n


def test_edge_threshold_is_the_paper_formula_except_at_6_and_8():
    for n in range(4, spectral.MAX_DENSE_ORDER + 1, 2):
        assert edge_threshold(n) == {6: 9, 8: 18}.get(n, (n * n - 5 * n + 10) // 2), n


def test_closed_form_discriminant_is_27_times_an_integer_polynomial():
    # closed_form_r divides the discriminant by 27 with no remainder check
    for n in range(-1000, 1000):
        half_q_scale, neg_p_scale = 9 * n * n - 63 * n + 38, 3 * n * n - 21 * n + 49
        disc, w = half_q_scale * half_q_scale - 4 * neg_p_scale**3, n * (n - 7)
        assert disc == 27 * (-4 * w**3 - 193 * w**2 - 3176 * w - 17376), n


def test_extremal_family_attains_edge_threshold():
    for n in [4] + list(range(10, 41, 2)):
        assert extremal_h(n).edge_count == edge_threshold(n)


# --- symmetric matrices at and above spectral._KRYLOV_MIN_ORDER: Lanczos with
# a Collatz-Wielandt bound, eigvalsh when the bound does not pass

_CUTOFF = spectral._KRYLOV_MIN_ORDER


def _connected_gnp(n, p, seed):
    """G(n, p) made connected by the edges of a random spanning path."""
    rng = np.random.default_rng(seed)
    A = np.triu(rng.random((n, n)) < p, 1)
    order = rng.permutation(n)
    A[np.minimum(order[:-1], order[1:]), np.maximum(order[:-1], order[1:])] = True
    u, v = np.nonzero(A)
    return build_graph(n, zip(u.tolist(), v.tolist()))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(_CUTOFF, _CUTOFF + 40),
    p=st.floats(0.02, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_krylov_radius_agrees_with_eigvalsh(n, p, seed):
    Q = signless_laplacians([_connected_gnp(n, p, seed)])[0]
    expected = np.linalg.eigvalsh(Q)[-1]
    assert abs(spectral_radius(Q) - expected) <= 1e-12 * max(1.0, expected)


@pytest.fixture
def fallbacks(monkeypatch):
    """The orders of the matrices `eigvalsh` solves from here on: after a
    test's own reference calls are cleared, the Lanczos runs that gave up."""
    orders = []
    eigvalsh = np.linalg.eigvalsh

    def spy(M):
        orders.append(np.shape(M)[-1])
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return orders


def test_krylov_accepts_a_dense_graph_and_falls_back_on_a_path(fallbacks):
    dense = signless_laplacians([_connected_gnp(_CUTOFF, 0.5, 1)])[0]
    path = signless_laplacians([build_graph(_CUTOFF, [(i, i + 1) for i in range(_CUTOFF - 1)])])[0]
    expected = np.linalg.eigvalsh(dense)[-1], np.linalg.eigvalsh(path)[-1]
    fallbacks.clear()
    theta = spectral._lanczos_top(dense)
    assert type(theta) is float
    assert abs(theta - expected[0]) <= 1e-12 * theta
    assert fallbacks == []
    theta = spectral._lanczos_top(path)
    assert type(theta) is float and theta == expected[1]
    assert fallbacks == [_CUTOFF]


def test_krylov_stack_matches_its_matrices_one_by_one():
    gs = [_connected_gnp(_CUTOFF, p, seed) for seed, p in enumerate((0.5, 0.9, 0.03, 0.0))]
    stack = signless_laplacians(gs)
    radii = spectral_radius(stack)
    assert radii.shape == (4,)
    assert radii.tolist() == [spectral_radius(M) for M in stack] == [q1(G) for G in gs]


def test_krylov_degenerate_inputs(fallbacks):
    n = _CUTOFF + 10
    assert spectral_radius(np.zeros((n, n))) == 0.0
    assert fallbacks == [n]
    # block-diagonal: the larger block's radius, whichever block comes first
    small = signless_laplacians([_connected_gnp(60, 0.5, 3)])[0]
    large = signless_laplacians([_connected_gnp(n - 60, 0.5, 4)])[0]
    for first, second in ((small, large), (large, small)):
        M = np.zeros((n, n))
        M[: len(first), : len(first)] = first
        M[len(first):, len(first):] = second
        expected = np.linalg.eigvalsh(large)[-1]
        assert abs(spectral_radius(M) - expected) <= 1e-12 * expected
    # an isolated vertex leaves a zero row the start vector never leaves, so
    # the bound cannot pass and eigvalsh answers
    G = _connected_gnp(n - 1, 0.5, 5)
    Q = signless_laplacians([build_graph(n, G.edges())])[0]
    expected = np.linalg.eigvalsh(Q)[-1]
    fallbacks.clear()
    assert spectral_radius(Q) == expected
    assert fallbacks == [n]
    assert abs(spectral_radius(Q) - q1(G)) <= 1e-12 * q1(G)


class _CountingMatrix(np.ndarray):
    """A matrix that counts its products with vectors."""

    products = 0

    def __matmul__(self, other):
        if self.ndim == 2:
            _CountingMatrix.products += 1
        return np.asarray(self) @ other


def test_krylov_fallback_on_a_path_is_bounded():
    # Q(P_1000) has relative gap ~1e-5: no short Lanczos run converges, and
    # the Ritz-gap test gives up long before the step budget
    Q = signless_laplacians([build_graph(1000, [(i, i + 1) for i in range(999)])])[0]
    counted = Q.view(_CountingMatrix)
    _CountingMatrix.products = 0
    assert spectral._lanczos_top(counted) == np.linalg.eigvalsh(Q)[-1]
    assert 0 < _CountingMatrix.products <= spectral._KRYLOV_STEPS
    assert _CountingMatrix.products <= 8
    assert spectral_radius(Q) == np.linalg.eigvalsh(Q)[-1]
