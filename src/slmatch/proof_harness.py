"""Exact checks for every intermediate step behind the spectral threshold.

Each deficiency scenario is a clique K_s joined to k disjoint odd cliques
(k >= s+2).  The checks rebuild that scenario's quotient-matrix templates
(M1..M5), confirm that the M1 template's radius equals q1 of the full
scenario graph, verify the root lower bounds, verify that moving vertices
toward the largest clique strictly raises the spectral radius, and close with
the threshold-vs-r_l case analysis.  Everything returns report records
instead of raising, so sweeps can aggregate outcomes.

M1 is an arrowhead matrix (see `build_m1`): above d_1 = 2 n_1 + s - 2 its
Perron root q1 is the only root of the increasing secular function
f(x) = x - (n+s-2) - s sum_i n_i / (x - 2 n_i - s + 2) (Golub, SIAM Review
15, 1973), so q1 > c exactly when c <= d_1 or f(c) < 0.  That integer sign,
`_q1_exceeds`, decides root bounds, shifts and merges; float radii only
cross-check the quotient against the full graph and place the cut.

The three scenario checks share a bounded cache of full-graph q1 keyed on
the scenario, so a scenario and its shifted or merged neighbours are each
solved once, not once per check.  A scenario above the dense-Q order limit
is refused before any graph or template of it is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import prod, ulp
from typing import Iterator

import numpy as np

from .errors import InputError
from .graph import proof_graph
from .spectral import (
    _matching_threshold_cubic,
    _require_dense_order,
    _require_even_order,
    _sign_at,
    char_poly,
    polyval,
    q1,
    r_l_of_n,
    r_of_n,
    spectral_radius,
)

DEFAULT_SAMPLE_SEED = 20240613

_Q1_MATCH_TOL = 1e-8
_CURVE_FLOOR = Fraction(42843, 10000)
_CASE_MAX = 100  # the case analysis covers every even n up to here
# A scenario's shifted and merged neighbours share its order n, so the working
# set is about one order's scenarios; on every scenario with even n <= 30, 1024
# entries gave the same hit count as an unbounded cache.
_SCENARIO_CACHE_SIZE = 1024


@dataclass(frozen=True)
class ProofInstance:
    """A deficiency scenario: |S| = s and the odd orders of the k components.

    parts are normalised to nonincreasing order; k >= s+2 is required, which
    is exactly the regime in which no perfect matching can exist.
    """

    s: int
    parts: tuple[int, ...]

    def __post_init__(self):
        if not (isinstance(self.s, int) and self.s >= 1):
            raise InputError(f"s must be a positive integer, got {self.s!r}")
        parts = tuple(sorted(self.parts, reverse=True))
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise InputError("at least one component is required")
        for p in parts:
            if not (isinstance(p, int) and p >= 1 and p % 2 == 1):
                raise InputError(f"component orders must be odd positives, got {p!r}")
        if len(parts) < self.s + 2:
            raise InputError(
                f"need at least s+2 = {self.s + 2} components, got {len(parts)}"
            )

    @property
    def n(self) -> int:
        return self.s + sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    def graph(self):
        return proof_graph(self.s, self.parts)

    def describe(self) -> str:
        return f"s={self.s} parts={list(self.parts)} (n={self.n})"


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one proof-step check on one parameter point."""

    name: str
    subject: str
    passed: bool
    skipped: bool = False
    details: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")

    def __str__(self) -> str:
        return f"{self.name} {self.subject}: {self.status}"


# ---------------------------------------------------------------------------
# quotient-matrix templates


def build_m1(inst: ProofInstance) -> np.ndarray:
    """(k+1) x (k+1) quotient template: row/column 0 for S, one per component.

    Row 0 is (n+s-2, n_1, ..., n_k); column 0 below is s; the diagonal entry
    for component i is 2 n_i + s - 2; everything else is 0.
    """
    k = inst.k
    M = np.zeros((k + 1, k + 1), dtype=int)
    M[0, 0] = inst.n + inst.s - 2
    for i, ni in enumerate(inst.parts, start=1):
        M[0, i] = ni
        M[i, 0] = inst.s
        M[i, i] = 2 * ni + inst.s - 2
    return M


def build_m3(inst: ProofInstance) -> np.ndarray:
    """3x3 quotient template {largest component, S, remaining singletons}."""
    if any(p != 1 for p in inst.parts[1:]):
        raise InputError("the 3-class template needs all non-largest parts = 1")
    n1, s, n, k = inst.parts[0], inst.s, inst.n, inst.k
    return np.array(
        [
            [2 * n1 + s - 2, s, 0],
            [n1, n + s - 2, k - 1],
            [0, s, s],
        ],
        dtype=int,
    )


def build_m4(n: int, s: int) -> np.ndarray:
    """The 3x3 template at the extreme component count k = s+2."""
    if not (isinstance(s, int) and s >= 1):
        raise InputError(f"s must be a positive integer, got {s!r}")
    # refused before the s + 1 singleton parts are built
    if (n1 := n - 2 * s - 1) < 1:
        raise InputError(f"component orders must be odd positives, got {n1!r}")
    return build_m3(ProofInstance(s, (n1,) + (1,) * (s + 1)))


def build_m5(s: int) -> np.ndarray:
    """2x2 quotient template {S, rest} when every component is a singleton."""
    if not (isinstance(s, int) and s >= 1):
        raise InputError(f"s must be a positive integer, got {s!r}")
    n = 2 * s + 2
    return np.array([[n + s - 2, s + 2], [s, s]], dtype=int)


# ---------------------------------------------------------------------------
# instance transformations


def shifted_instance(inst: ProofInstance) -> ProofInstance | None:
    """Move two vertices from the smallest component of order >= 3 into the
    largest; None when only the largest component exceeds a singleton."""
    donors = [j for j in range(1, inst.k) if inst.parts[j] >= 3]
    if not donors:
        return None
    j = donors[-1]
    parts = list(inst.parts)
    parts[0] += 2
    parts[j] -= 2
    return ProofInstance(inst.s, tuple(parts))


def merged_instance(inst: ProofInstance) -> ProofInstance | None:
    """Absorb two trailing singleton components into the largest one; None
    unless two singletons exist and k >= s+4 keeps the scenario deficient."""
    if inst.k < inst.s + 4 or inst.parts[-1] != 1 or inst.parts[-2] != 1:
        return None
    parts = (inst.parts[0] + 2,) + inst.parts[1:-2]
    return ProofInstance(inst.s, parts)


# ---------------------------------------------------------------------------
# proof-step checks


@lru_cache(maxsize=_SCENARIO_CACHE_SIZE)
def _scenario_q1(inst: ProofInstance) -> float:
    """q1 of the scenario graph.  `q1` and `proof_graph` are looked up when
    the value is computed, so a rebinding of either sees every real solve."""
    return q1(inst.graph())


def _q1_exceeds(inst: ProofInstance, c: int | float) -> bool:
    """Exactly whether q1 of the scenario's M1 template exceeds an int or
    float c, by the sign of the secular function f(c) taken in integers."""
    # with c = p/q and D_i = p - d_i q > 0, q prod(D) f(c) is
    # (p - (n+s-2) q) prod(D) - s q^2 sum_i n_i prod_{j != i} D_j; equal
    # parts share one D, weighted by their count
    p, q = c.as_integer_ratio()
    s, parts = inst.s, inst.parts
    if p <= (2 * parts[0] + s - 2) * q:
        return True
    num, den = 0, 1  # sum of count * n_i / D_i over distinct parts
    for part in set(parts):
        D = p - (2 * part + s - 2) * q
        num, den = num * D + parts.count(part) * part * den, den * D
    return (p - (inst.n + s - 2) * q) * den < s * q * q * num


def check_root_bounds(inst: ProofInstance) -> PropertyReport:
    """Template radius equals the graph's q1 and clears its lower bounds.
    M1 is an irreducible arrowhead, so q1 exceeds its largest diagonal d_1,
    and `_q1_exceeds` answers c <= d_1 without f: `exceeds_largest_diag`, and
    `exceeds_s_row` when n <= 2 n_1, hold by construction; only
    `exceeds_clique_join` (d_1 + s) and `exceeds_s_row` for n > 2 n_1 test f."""
    _require_dense_order(inst.n)
    M = build_m1(inst)
    # M = S^-1 E for the class sizes S and a symmetric E, so M is similar to
    # the symmetric S^-1/2 E S^-1/2 = sqrt(M * M.T), entry by entry; its float
    # radius cross-checks the quotient against the full matrix
    radius = spectral_radius(np.sqrt(M * M.T))
    graph_q1 = _scenario_q1(inst)
    n, s, n1 = inst.n, inst.s, inst.parts[0]
    bound_s_row = n + s - 2
    bound_clique_join = 2 * n1 + 2 * s - 2  # q1 of the clique on S u largest part
    bound_largest_diag = 2 * n1 + s - 2
    checks = {
        "matches_graph_q1": abs(radius - graph_q1) <= _Q1_MATCH_TOL,
        "exceeds_s_row": _q1_exceeds(inst, bound_s_row),
        "exceeds_clique_join": _q1_exceeds(inst, bound_clique_join),
        "exceeds_largest_diag": _q1_exceeds(inst, bound_largest_diag),
    }
    return PropertyReport(
        name="root-bounds",
        subject=inst.describe(),
        passed=all(checks.values()),
        details={
            "radius": radius,
            "graph_q1": graph_q1,
            "bound_s_row": bound_s_row,
            "bound_clique_join": bound_clique_join,
            "bound_largest_diag": bound_largest_diag,
            **checks,
        },
    )


def _check_raises_q1(
    name: str, inst: ProofInstance, moved: ProofInstance | None
) -> PropertyReport:
    """q1(moved) > q1(inst), proved by the exact q1(inst) <= c < q1(moved)
    at the midpoint c of their float q1 (a tie, or a cut outside the gap, is
    FAIL); skipped when there is nothing to move."""
    _require_dense_order(inst.n)
    if moved is None:
        return PropertyReport(name, inst.describe(), passed=True, skipped=True)
    before = _scenario_q1(inst)
    after = _scenario_q1(moved)
    c = (before + after) / 2
    return PropertyReport(
        name=name,
        subject=f"{inst.describe()} -> parts={list(moved.parts)}",
        passed=not _q1_exceeds(inst, c) and _q1_exceeds(moved, c),
        details={"before": before, "after": after},
    )


def check_vertex_shift(inst: ProofInstance) -> PropertyReport:
    """Shifting two vertices into the largest clique strictly raises q1."""
    return _check_raises_q1("vertex-shift", inst, shifted_instance(inst))


def check_merge_singletons(inst: ProofInstance) -> PropertyReport:
    """Absorbing two singleton components strictly raises q1."""
    return _check_raises_q1("merge-singletons", inst, merged_instance(inst))


def check_scenario(inst: ProofInstance) -> list[PropertyReport]:
    """The root-bound, vertex-shift and merge checks of one scenario, in that
    order."""
    return [check_root_bounds(inst), check_vertex_shift(inst), check_merge_singletons(inst)]


def _convex_at_root_at_least(p: list[int], r: float, floor: Fraction | int) -> bool:
    """Exactly whether a convex p (highest degree first) is >= floor at the
    root that the float r rounds correctly, from |root - r| <= ulp(r) / 2:
    p(root) >= p(r) - |p'(r)| ulp(r)."""
    x = Fraction(r)
    slope = polyval([c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])], x)
    return polyval(p, x) - abs(slope) * Fraction(ulp(r)) >= floor


def check_h_bound(n: int, s: int) -> PropertyReport:
    """r(n)^2 - (2s+4) r(n) - 2s^2 stays above its floor, and the k = s+2
    template's characteristic polynomial h is nonnegative at r(n), both
    decided exactly at the root of the threshold cubic c: there h equals
    h - c, which is 0 at s = 1 (a tie) and a convex quadratic beyond."""
    if not (isinstance(s, int) and s >= 1):
        raise InputError(f"s must be a positive integer, got {s!r}")
    if n < 2 * s + 4:
        raise InputError(f"need n >= 2s+4, got n={n}, s={s}")
    r = r_of_n(n)
    h = char_poly(build_m4(n, s))
    excess = r * r - (2 * s + 4) * r - 2 * s * s
    h_at_r = float(polyval(h, Fraction(r)))
    h_minus_c = [a - b for a, b in zip(h, _matching_threshold_cubic(n))]
    checks = {
        "excess_above_floor": _convex_at_root_at_least(
            [1, -(2 * s + 4), -2 * s * s], r, _CURVE_FLOOR
        ),
        "charpoly_nonnegative": _convex_at_root_at_least(h_minus_c, r, 0),
    }
    return PropertyReport(
        name="h-bound",
        subject=f"n={n} s={s}",
        passed=all(checks.values()),
        details={"r": r, "excess": excess, "h_at_r": h_at_r, **checks},
    )


def check_case_analysis(n: int) -> PropertyReport:
    """Trichotomy of r(n) against r_l(n): above for n >= 10, below for
    n in {6, 8}, equal for n = 4."""
    r = r_of_n(n)
    rl = r_l_of_n(n)
    # both are correctly rounded, and rounding is monotone, so unequal floats
    # order the exact roots; equal ones are equal roots only where both
    # templates' characteristic polynomials vanish on them exactly
    if n >= 10:
        case, ok = "above", r > rl
    elif n in (6, 8):
        case, ok = "below", r < rl
    else:  # n == 4 (r_of_n rejects anything smaller)
        roots = _sign_at(char_poly(build_m4(n, 1)), r), _sign_at(char_poly(build_m5(1)), rl)
        case, ok = "equal", r == rl and roots == (0, 0)
    return PropertyReport(
        name="case-analysis",
        subject=f"n={n}",
        passed=ok,
        details={"r": r, "r_l": rl, "case": case},
    )


# ---------------------------------------------------------------------------
# expanded-formula transcription checks


def _m1_expansion(x: int, inst: ProofInstance, alternating: bool) -> int:
    """Hand-expanded characteristic polynomial of the M1 template.

    The expansion one finds in print alternates the sign of the correction
    terms; the determinant actually subtracts every one of them.  Both
    variants are implemented so the discrepancy can be reported.
    """
    s, n, parts = inst.s, inst.n, inst.parts
    diag = [x - 2 * ni - s + 2 for ni in parts]
    value = (x - n - s + 2) * prod(diag)
    for i, ni in enumerate(parts, start=1):
        others = prod(d for j, d in enumerate(diag, start=1) if j != i)
        sign = (-1) ** i if alternating else -1
        value += sign * s * ni * others
    return value


def _m3_expansion(x: int, inst: ProofInstance) -> int:
    n1, s, n, k = inst.parts[0], inst.s, inst.n, inst.k
    return (x - 2 * n1 - s + 2) * ((x - n - s + 2) * (x - s) - s * (k - 1)) - n1 * s * (
        x - s
    )


def _m4_cubic(x: int, n: int, s: int) -> int:
    return (
        x**3
        + (s - 3 * n + 6) * x**2
        + (2 * n * n + n * s - 8 * n - 4 * s * s - 4 * s + 8) * x
        - 2 * s * (n * n - 2 * n * s - 5 * n + s * s + 5 * s + 6)
    )


def _m5_quadratic(x: int, s: int) -> int:
    n = 2 * s + 2
    return x * x + (2 - 2 * s - n) * x + (s * n - 4 * s)


@dataclass(frozen=True)
class TranscriptionRecord:
    """Agreement of one expanded formula with its matrix's characteristic
    polynomial."""

    polynomial: str
    subject: str
    max_rel_err: float
    agrees: bool

    def __str__(self) -> str:
        if self.agrees:
            status = "agrees (exact)"
        else:
            status = f"MISMATCH (max rel err {self.max_rel_err:.2e})"
        return f"{self.polynomial} at {self.subject}: {status}"


_TRANSCRIPTION_INSTANCES = (
    ProofInstance(1, (3, 1, 1)),
    ProofInstance(1, (1, 1, 1)),
    ProofInstance(1, (7, 1, 1)),
    ProofInstance(2, (3, 1, 1, 1)),
    ProofInstance(2, (5, 3, 1, 1)),
    ProofInstance(3, (1, 1, 1, 1, 1)),
)


def _compare(name, subject, M, formula) -> TranscriptionRecord:
    """formula against det(xI - M) at x = 0..deg, in integers: two
    polynomials of degree <= deg that agree at deg+1 points are identical."""
    p = char_poly(M)
    worst = 0.0
    for x in range(len(p)):
        reference = polyval(p, x)
        worst = max(worst, abs(formula(x) - reference) / max(1, abs(reference)))
    return TranscriptionRecord(name, subject, worst, worst == 0)


def verify_polynomial_transcriptions() -> list[TranscriptionRecord]:
    """Compare the expanded formulas for M1/M3/M4/M5 with the exact
    characteristic polynomials of their templates.

    Any mismatch is reported by polynomial name and instance; the
    all-negative variant of the M1 expansion is always checked alongside the
    alternating-sign one.
    """
    rows = []
    for inst in _TRANSCRIPTION_INSTANCES:
        subject, m1 = inst.describe(), build_m1(inst)
        for variant, alternating in (("alternating", True), ("all_negative", False)):
            formula = partial(_m1_expansion, inst=inst, alternating=alternating)
            rows.append((f"m1_expansion_{variant}", subject, m1, formula))
        if all(p == 1 for p in inst.parts[1:]):
            formula = partial(_m3_expansion, inst=inst)
            rows.append(("m3_expansion", subject, build_m3(inst), formula))
    rows += [
        ("m4_cubic", f"n={n} s={s}", build_m4(n, s), partial(_m4_cubic, n=n, s=s))
        for n, s in ((6, 1), (8, 1), (10, 2), (12, 3), (14, 1), (16, 4))
    ]
    rows += [
        ("m5_quadratic", f"s={s} (n={2 * s + 2})", build_m5(s), partial(_m5_quadratic, s=s))
        for s in (1, 2, 3, 4, 5)
    ]
    return [_compare(*row) for row in rows]


# ---------------------------------------------------------------------------
# instance suites


def _odd_partitions(total: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    start = min(max_part, total)
    if start % 2 == 0:
        start -= 1
    for part in range(start, 0, -2):
        for rest in _odd_partitions(total - part, part):
            yield (part,) + rest


def exhaustive_instances(n: int) -> list[ProofInstance]:
    """All deficiency scenarios with total order n, every component odd."""
    if not (isinstance(n, int) and n >= 4):
        raise InputError(f"order must be an integer >= 4, got {n!r}")
    out = []
    for s in range(1, n):
        for parts in _odd_partitions(n - s, n - s):
            if len(parts) >= s + 2:
                out.append(ProofInstance(s, parts))
    return out


def sample_instances(
    count: int = 200,
    seed: int = DEFAULT_SAMPLE_SEED,
    n_min: int = 14,
    n_max: int = 40,
) -> list[ProofInstance]:
    """Seeded random scenarios with even totals in [n_min, n_max]."""
    if n_min % 2 or n_max % 2 or n_min < 6 or n_max < n_min:
        raise InputError("need even 6 <= n_min <= n_max")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randrange(n_min, n_max + 1, 2)
        s = rng.randint(1, (n - 2) // 2)
        k = rng.randrange(s + 2, n - s + 1, 2)
        parts = [1] * k
        for _ in range((n - s - k) // 2):
            parts[rng.randrange(k)] += 2
        out.append(ProofInstance(s, tuple(parts)))
    return out


def run_proof_suite(nmax: int = 12) -> list[PropertyReport]:
    """Exhaustive scenarios up to min(nmax, 12), sample_instances' 200 seeded
    scenarios beyond, the h-bound grid and the case analysis up to _CASE_MAX.
    nmax must be an even integer >= 4."""
    nmax = _require_even_order(nmax, name="nmax")
    reports: list[PropertyReport] = []
    instances: list[ProofInstance] = []
    for n in range(4, min(nmax, 12) + 1, 2):
        instances.extend(exhaustive_instances(n))
    if nmax >= 14:
        instances.extend(sample_instances(n_max=min(nmax, 40)))
    for inst in instances:
        reports.extend(check_scenario(inst))
    for n in range(6, max(12, min(nmax, 40)) + 1, 2):
        for s in range(1, (n - 4) // 2 + 1):
            reports.append(check_h_bound(n, s))
    for n in range(4, _CASE_MAX + 1, 2):
        reports.append(check_case_analysis(n))
    return reports
