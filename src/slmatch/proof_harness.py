"""Numerical checks for every intermediate step behind the spectral threshold.

Each deficiency scenario is a clique K_s joined to k disjoint odd cliques
(k >= s+2).  The checks rebuild that scenario's quotient-matrix templates
(M1..M5), confirm that the M1 template's radius equals q1 of the full
scenario graph, verify the root lower bounds, verify that moving vertices
toward the largest clique strictly raises the spectral radius, and close with
the threshold-vs-r_l case analysis.  Everything returns report records
instead of raising, so sweeps can aggregate outcomes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import sqrt
from typing import Iterator, Sequence

import numpy as np

from .errors import InputError
from .graph import proof_graph
from .spectral import q1, r_of_n, spectral_radius

DEFAULT_SAMPLE_SEED = 20240613

_Q1_MATCH_TOL = 1e-8
_BOUND_MARGIN = 1e-6
_STRICT_MARGIN = 1e-9
_CURVE_FLOOR = 4.2843
_CURVE_FLOOR_TOL = 1e-3


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

    def partition(self) -> list[list[int]]:
        """{S, each component} as index classes of the graph's vertex layout."""
        classes = [list(range(self.s))]
        start = self.s
        for p in self.parts:
            classes.append(list(range(start, start + p)))
            start += p
        return classes

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

    def __str__(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        return f"{self.name} {self.subject}: {status}"


# ---------------------------------------------------------------------------
# quotient-matrix templates


def build_m1(inst: ProofInstance) -> np.ndarray:
    """(k+1) x (k+1) quotient template: row/column 0 for S, one per component.

    Row 0 is (n+s-2, n_1, ..., n_k); column 0 below is s; the diagonal entry
    for component i is 2 n_i + s - 2; everything else is 0.
    """
    k = inst.k
    M = np.zeros((k + 1, k + 1))
    M[0, 0] = inst.n + inst.s - 2
    for i, ni in enumerate(inst.parts, start=1):
        M[0, i] = ni
        M[i, 0] = inst.s
        M[i, i] = 2 * ni + inst.s - 2
    return M


def build_m2(inst: ProofInstance) -> np.ndarray:
    """M1 template after shifting two vertices into the largest component."""
    shifted = shifted_instance(inst)
    if shifted is None:
        raise InputError("no component of order >= 3 is available to shift from")
    return build_m1(shifted)


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
        dtype=float,
    )


def build_m4(n: int, s: int) -> np.ndarray:
    """The 3x3 template at the extreme component count k = s+2."""
    if not (isinstance(s, int) and s >= 1):
        raise InputError(f"s must be a positive integer, got {s!r}")
    n1 = n - 2 * s - 1
    if n1 < 1 or n1 % 2 == 0:
        raise InputError(f"n={n}, s={s} leaves no odd largest component")
    return build_m3(ProofInstance(s, (n1,) + (1,) * (s + 1)))


def build_m5(s: int) -> np.ndarray:
    """2x2 quotient template {S, rest} when every component is a singleton."""
    if not (isinstance(s, int) and s >= 1):
        raise InputError(f"s must be a positive integer, got {s!r}")
    n = 2 * s + 2
    return np.array([[n + s - 2, s + 2], [s, s]], dtype=float)


def r_l_of_n(n: int) -> float:
    """Largest root of the 2x2 template's characteristic polynomial,
    (2n - 4 + sqrt(2n(n-2))) / 2, as a function of the total order."""
    return (2 * n - 4 + sqrt(2 * n * (n - 2))) / 2


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


def check_root_bounds(inst: ProofInstance) -> PropertyReport:
    """Template radius equals the graph's q1 and clears its lower bounds."""
    radius = spectral_radius(build_m1(inst))
    graph_q1 = q1(inst.graph())
    n, s, n1 = inst.n, inst.s, inst.parts[0]
    bound_s_row = n + s - 2
    bound_clique_join = 2 * n1 + 2 * s - 2  # q1 of the clique on S u largest part
    bound_largest_diag = 2 * n1 + s - 2
    checks = {
        "matches_graph_q1": abs(radius - graph_q1) <= _Q1_MATCH_TOL,
        "exceeds_s_row": radius > bound_s_row + _BOUND_MARGIN,
        "exceeds_clique_join": radius > bound_clique_join + _BOUND_MARGIN,
        "exceeds_largest_diag": radius > bound_largest_diag + _BOUND_MARGIN,
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
    """q1 of the moved instance strictly exceeds q1 of inst; skipped when
    there is nothing to move."""
    if moved is None:
        return PropertyReport(name, inst.describe(), passed=True, skipped=True)
    before = q1(inst.graph())
    after = q1(moved.graph())
    return PropertyReport(
        name=name,
        subject=f"{inst.describe()} -> parts={list(moved.parts)}",
        passed=after > before + _STRICT_MARGIN,
        details={"before": before, "after": after},
    )


def check_vertex_shift(inst: ProofInstance) -> PropertyReport:
    """Shifting two vertices into the largest clique strictly raises q1."""
    return _check_raises_q1("vertex-shift", inst, shifted_instance(inst))


def check_merge_singletons(inst: ProofInstance) -> PropertyReport:
    """Absorbing two singleton components strictly raises q1."""
    return _check_raises_q1("merge-singletons", inst, merged_instance(inst))


def check_h_bound(n: int, s: int) -> PropertyReport:
    """r(n)^2 - (2s+4) r(n) - 2s^2 stays above its floor, and the k = s+2
    template's characteristic polynomial is nonnegative at r(n)."""
    if not (isinstance(s, int) and s >= 1):
        raise InputError(f"s must be a positive integer, got {s!r}")
    if n < 2 * s + 4:
        raise InputError(f"need n >= 2s+4, got n={n}, s={s}")
    r = r_of_n(n)
    excess = r * r - (2 * s + 4) * r - 2 * s * s
    m4 = build_m4(n, s)
    h_at_r = float(np.linalg.det(r * np.eye(3) - m4))
    checks = {
        "excess_above_floor": excess >= _CURVE_FLOOR - _CURVE_FLOOR_TOL,
        "charpoly_nonnegative": h_at_r >= -_BOUND_MARGIN,
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
    if n >= 10:
        case, ok = "above", r > rl + _BOUND_MARGIN
    elif n in (6, 8):
        case, ok = "below", r < rl - _BOUND_MARGIN
    else:  # n == 4 (r_of_n rejects anything smaller)
        case, ok = "equal", abs(r - rl) <= 1e-8
    return PropertyReport(
        name="case-analysis",
        subject=f"n={n}",
        passed=ok,
        details={"r": r, "r_l": rl, "case": case},
    )


# ---------------------------------------------------------------------------
# expanded-formula transcription checks


def _m1_expansion(x: float, inst: ProofInstance, alternating: bool) -> float:
    """Hand-expanded characteristic polynomial of the M1 template.

    The expansion one finds in print alternates the sign of the correction
    terms; the determinant actually subtracts every one of them.  Both
    variants are implemented so the discrepancy can be reported.
    """
    s, n, parts = inst.s, inst.n, inst.parts
    diag = [x - 2 * ni - s + 2 for ni in parts]
    value = (x - n - s + 2) * float(np.prod(diag))
    for i, ni in enumerate(parts, start=1):
        others = 1.0
        for j, d in enumerate(diag, start=1):
            if j != i:
                others *= d
        sign = (-1.0) ** i if alternating else -1.0
        value += sign * s * ni * others
    return value


def _m3_expansion(x: float, inst: ProofInstance) -> float:
    n1, s, n, k = inst.parts[0], inst.s, inst.n, inst.k
    return (x - 2 * n1 - s + 2) * ((x - n - s + 2) * (x - s) - s * (k - 1)) - n1 * s * (
        x - s
    )


def _m4_cubic(x: float, n: int, s: int) -> float:
    return (
        x**3
        + (s - 3 * n + 6) * x**2
        + (2 * n * n + n * s - 8 * n - 4 * s * s - 4 * s + 8) * x
        - 2 * s * (n * n - 2 * n * s - 5 * n + s * s + 5 * s + 6)
    )


def _m5_quadratic(x: float, s: int) -> float:
    n = 2 * s + 2
    return x * x + (2 - 2 * s - n) * x + (s * n - 4 * s)


def _char_poly_at(M: np.ndarray, x: float) -> float:
    return float(np.linalg.det(x * np.eye(M.shape[0]) - M))


_TRANSCRIPTION_REL_TOL = 1e-9


@dataclass(frozen=True)
class TranscriptionRecord:
    """Agreement of one expanded formula with its matrix determinant."""

    polynomial: str
    subject: str
    max_rel_err: float
    agrees: bool

    def __str__(self) -> str:
        # an agreeing error is rounding noise, so print the bound it met;
        # a mismatch is of order 1 and its digits are stable
        if self.agrees:
            status = f"agrees (max rel err <= {_TRANSCRIPTION_REL_TOL:.0e})"
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


def _sample_points(M: np.ndarray) -> list[float]:
    rho = spectral_radius(M)
    return [-1.5, 0.0, 0.7, rho / 2, rho - 0.3, rho + 1.0, 2 * rho + 1.3]


def _compare(name, subject, M, formula) -> TranscriptionRecord:
    worst = 0.0
    for x in _sample_points(M):
        reference = _char_poly_at(M, x)
        err = abs(formula(x) - reference) / max(1.0, abs(reference))
        worst = max(worst, err)
    return TranscriptionRecord(name, subject, worst, worst <= _TRANSCRIPTION_REL_TOL)


def verify_polynomial_transcriptions(
    instances: Sequence[ProofInstance] = _TRANSCRIPTION_INSTANCES,
) -> list[TranscriptionRecord]:
    """Compare the expanded formulas for M1/M3/M4/M5 with determinant values.

    Seven sample points per subject, relative tolerance 1e-9.  Any mismatch is
    reported by polynomial name and instance; the all-negative variant of the
    M1 expansion is always checked alongside the alternating-sign one.
    """
    records = []
    for inst in instances:
        m1 = build_m1(inst)
        records.append(
            _compare(
                "m1_expansion_alternating",
                inst.describe(),
                m1,
                lambda x, inst=inst: _m1_expansion(x, inst, alternating=True),
            )
        )
        records.append(
            _compare(
                "m1_expansion_all_negative",
                inst.describe(),
                m1,
                lambda x, inst=inst: _m1_expansion(x, inst, alternating=False),
            )
        )
        if all(p == 1 for p in inst.parts[1:]):
            records.append(
                _compare(
                    "m3_expansion",
                    inst.describe(),
                    build_m3(inst),
                    lambda x, inst=inst: _m3_expansion(x, inst),
                )
            )
    for n, s in ((6, 1), (8, 1), (10, 2), (12, 3), (14, 1), (16, 4)):
        records.append(
            _compare(
                "m4_cubic",
                f"n={n} s={s}",
                build_m4(n, s),
                lambda x, n=n, s=s: _m4_cubic(x, n, s),
            )
        )
    for s in (1, 2, 3, 4, 5):
        records.append(
            _compare(
                "m5_quadratic",
                f"s={s} (n={2 * s + 2})",
                build_m5(s),
                lambda x, s=s: _m5_quadratic(x, s),
            )
        )
    return records


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


@dataclass
class ProofSuiteResult:
    """Aggregated outcome of the full proof-step sweep."""

    reports: list[PropertyReport]
    transcriptions: list[TranscriptionRecord]

    @property
    def failures(self) -> list[PropertyReport]:
        return [r for r in self.reports if not r.skipped and not r.passed]

    @property
    def passed(self) -> bool:
        return not self.failures


def run_proof_suite(nmax: int = 12, case_max: int = 100) -> ProofSuiteResult:
    """Exhaustive scenarios up to min(nmax, 12), sample_instances' 200 seeded
    scenarios beyond, the h-bound grid, the case analysis, and the
    transcription cross-checks."""
    reports: list[PropertyReport] = []
    instances: list[ProofInstance] = []
    for n in range(4, min(nmax, 12) + 1, 2):
        instances.extend(exhaustive_instances(n))
    if nmax >= 14:
        sampled = sample_instances(n_max=min(nmax, 40))
        instances.extend(i for i in sampled if i.n <= nmax)
    for inst in instances:
        reports.append(check_root_bounds(inst))
        reports.append(check_vertex_shift(inst))
        reports.append(check_merge_singletons(inst))
    for n in range(6, max(12, min(nmax, 40)) + 1, 2):
        for s in range(1, (n - 4) // 2 + 1):
            reports.append(check_h_bound(n, s))
    for n in range(4, case_max + 1, 2):
        reports.append(check_case_analysis(n))
    return ProofSuiteResult(reports, verify_polynomial_transcriptions())
