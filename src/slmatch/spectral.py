"""Signless Laplacian matrices, spectral radii, exact integer polynomials,
and the threshold functions of the perfect-matching condition.

Matrices are plain numpy arrays.  Spectral radii are taken of symmetric
nonnegative matrices only, one or a (B, n, n) stack such as the signless
Laplacians of a batch of graphs, on one of two paths chosen by the order:
one stacked `eigvalsh` call below `_KRYLOV_MIN_ORDER`, and from there on a
Lanczos Ritz value per matrix, kept only under a Collatz-Wielandt bound
within `_KRYLOV_TOL`, else `eigvalsh`.  Characteristic polynomials and the
threshold roots are computed in integers, each root correctly rounded.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import CapacityError, HypothesisError, InputError, NumericalError
from .graph import Graph

# Largest order whose dense float64 Q fits in 128 MiB (4096^2 entries of 8
# bytes).  graph6 admits orders up to 258047; a dense Q at n = 20000 would
# take 3.2 GB.
MAX_DENSE_ORDER = 4096


def _require_dense_order(n: int) -> None:
    if n > MAX_DENSE_ORDER:
        raise CapacityError(f"dense Q supports orders up to {MAX_DENSE_ORDER}, got {n}")


def _signless(square: np.ndarray) -> np.ndarray:
    """Stacked Q = D + A of a (B, n, n) 0/1 adjacency stack."""
    Q = square.astype(float)
    diagonal = np.arange(square.shape[-1])
    Q[:, diagonal, diagonal] = Q.sum(axis=2)
    return Q


def signless_laplacians(graphs: Sequence[Graph]) -> np.ndarray:
    """Stacked Q = D + A, a (B, n, n) array, of B >= 1 graphs of one order
    n <= MAX_DENSE_ORDER: row v's mask, written little-endian by
    `int.to_bytes`, holds A[v, u] at bit u, so `np.unpackbits` expands all
    rows at once."""
    if not graphs or any(G.n != graphs[0].n for G in graphs):
        raise InputError("expected one or more graphs, all of one order")
    n = graphs[0].n
    _require_dense_order(n)
    width = (n + 7) // 8
    raw = b"".join([m.to_bytes(width, "little") for G in graphs for m in G.adjacency_masks()])
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return _signless(bits.reshape(len(graphs), n, 8 * width)[:, :, :n])


def _validate_symmetric_nonnegative(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise InputError(f"expected a square matrix or a stack of them, got shape {M.shape}")
    if M.size == 0:
        raise InputError("matrix order and stack size must be at least 1")
    if not np.all(np.isfinite(M)):
        raise InputError("matrix entries must be finite")
    if M.min() < 0:
        raise InputError("matrix entries must be nonnegative")
    if not np.array_equal(M, np.swapaxes(M, -1, -2)):  # `eigvalsh` reads one triangle
        raise InputError("expected a symmetric matrix; for a quotient C pass np.sqrt(C * C.T)")
    return M


# Symmetric matrices of at least this order go to `_lanczos_top` first.  On
# a 2-core Xeon (numpy 2.4.6, OpenBLAS on one thread), at every order
# measured from here to 1000, a Lanczos run that gives up plus the `eigvalsh`
# after it cost at most 1.3x `eigvalsh` alone on a path, comb, random tree
# or G(n, 8/n) (a cycle passes at once), while a dense G(n, 0.5) cost 0.3x
# to 0.4x `eigvalsh` at n = 200 and 0.05x to 0.06x at n = 1000.  At n = 150
# the worst case was 1.7x.
_KRYLOV_MIN_ORDER = 200
_KRYLOV_STEPS = 40  # products with Q per Lanczos run, one more for the bound
_KRYLOV_TOL = 1e-13  # hi - theta allowed, relative to max(1, hi)


def _lanczos_top(Q: np.ndarray) -> float:
    """The top eigenvalue of a symmetric nonnegative matrix: a certified
    Lanczos Ritz value, or `eigvalsh`'s after at most _KRYLOV_STEPS + 1
    products with Q.

    Lanczos with full reorthogonalisation starts from Q's row sums.  Its top
    Ritz value theta never exceeds q1.  Once the Ritz residual says it can
    pass, y = |Ritz vector| must be positive and hi = max (Qy)_i / y_i, an
    upper bound on q1 for any nonnegative Q and positive y (Collatz-Wielandt;
    here evaluated in floating point), must satisfy
    hi - theta <= _KRYLOV_TOL * max(1, hi).  The run gives up for `eigvalsh`
    when the row sums are all zero, when y has a zero entry (a zero row, a
    block the start vector misses), when the bound fails, or when the Ritz
    gap says that the remaining steps cannot bring the residual down far
    enough (a path, a comb, a tree whose Perron vector is tiny far from its
    hubs).
    """
    n = len(Q)
    start = Q.sum(axis=1)
    norm = math.sqrt(start @ start)
    if not 0 < norm < math.inf:  # the zero matrix, or row sums past float range
        return float(np.linalg.eigvalsh(Q)[-1])
    V = np.empty((_KRYLOV_STEPS, n))  # orthonormal Lanczos vectors, by row
    T = np.zeros((_KRYLOV_STEPS, _KRYLOV_STEPS))  # tridiagonal, lower part
    V[0] = start / norm
    for k in range(_KRYLOV_STEPS):
        basis = V[: k + 1]
        w = Q @ basis[k]
        T[k, k] = basis[k] @ w
        w -= (basis @ w) @ basis  # Gram-Schmidt, twice for orthogonality
        w -= (basis @ w) @ basis
        beta = math.sqrt(w @ w)
        ritz, vectors = np.linalg.eigh(T[: k + 1, : k + 1])
        theta = float(ritz[-1])
        residual = beta * float(abs(vectors[-1, -1]))  # ||Q u - theta u||, u the Ritz vector
        y = np.abs(vectors[:, -1] @ basis)
        low = float(y.min())
        if not low > 0:  # a zero entry: no bound can pass
            break
        # (Qy)_i / y_i - theta <= residual / y_i, so the bound can pass once
        # the residual reaches `target`
        target = _KRYLOV_TOL * max(1.0, theta) * low
        if residual <= target:
            hi = float(np.max(Q @ y / y))
            if hi - theta <= _KRYLOV_TOL * max(1.0, hi):
                return theta
            break
        remaining = _KRYLOV_STEPS - k - 1
        if not remaining:
            break
        # m more steps shrink the residual by about 1 / T_m(1 + 2 gamma) <=
        # exp(-m acosh(1 + 2 gamma)), T_m the Chebyshev polynomial and gamma the
        # Ritz gap (Saad, Numerical Methods for Large Eigenvalue Problems, 6.6);
        # give up when the remaining steps cannot reach the target
        # (spread is 0 until there are three Ritz values)
        gap, spread = float(ritz[k] - ritz[k - 1]), float(ritz[k - 1] - ritz[0])
        reach = remaining * math.acosh(1 + 2 * gap / spread) if spread > 0 else math.inf
        if reach < math.log(residual / target):
            break
        V[k + 1] = w / beta
        T[k + 1, k] = beta
    return float(np.linalg.eigvalsh(Q)[-1])


def spectral_radius(M: np.ndarray) -> float | np.ndarray:
    """Largest eigenvalue of a symmetric nonnegative matrix.

    A float for one (n, n) matrix; for a (B, n, n) stack, an array of the B
    radii.  The path depends on the order n alone, so a stack and its
    matrices one by one give the same radii:
    - n < _KRYLOV_MIN_ORDER: one stacked `eigvalsh` call;
    - n >= _KRYLOV_MIN_ORDER: per matrix, a Lanczos Ritz value theta <= q1
      accepted only with a Collatz-Wielandt bound hi >= q1 with
      hi - theta <= _KRYLOV_TOL * max(1, hi) (see `_lanczos_top`), else
      `eigvalsh`.
    Nonsymmetric input raises InputError; pass an equitable quotient C as
    np.sqrt(C * C.T), which is similar to C.
    """
    M = _validate_symmetric_nonnegative(M)
    n = M.shape[-1]
    if n < _KRYLOV_MIN_ORDER:
        radii = np.linalg.eigvalsh(M)[..., -1]
    else:
        radii = np.array([_lanczos_top(Q) for Q in M.reshape(-1, n, n)])
        radii = radii.reshape(M.shape[:-2])
    return float(radii) if M.ndim == 2 else radii


def q1(G: Graph) -> float:
    """Signless Laplacian spectral radius of G: the one-graph stack."""
    return float(spectral_radius(signless_laplacians([G]))[0])


def char_poly(M) -> list[int]:
    """det(xI - M) of a square integer matrix, highest degree first.

    Berkowitz's division-free recurrence: with M = [[a, R], [C, A]], the
    characteristic polynomial of M is the first len(A) + 2 coefficients of
    (1, -a, -RC, -RAC, -RA^2C, ...) convolved with that of A.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"expected a square matrix, got shape {M.shape}")
    if M.dtype.kind not in "iu":
        raise InputError(f"char_poly needs integer entries, got dtype {M.dtype}")
    rows = M.tolist()
    n = len(rows)
    poly = [1]
    for k in range(n - 1, -1, -1):
        R, A = rows[k][k + 1:], [row[k + 1:] for row in rows[k + 1:]]
        column, v = [1, -rows[k][k]], [row[k] for row in rows[k + 1:]]
        for _ in range(len(v)):
            column.append(-sum(r * c for r, c in zip(R, v)))
            v = [sum(a * c for a, c in zip(row, v)) for row in A]
        poly = [
            sum(column[i - j] * poly[j] for j in range(min(i + 1, len(poly))))
            for i in range(len(column))
        ]
    return poly


def polyval(coefficients: Sequence, x):
    """Horner evaluation, highest degree first: exact on int and Fraction,
    float on float."""
    acc = 0
    for c in coefficients:
        acc = acc * x + c
    return acc


def _sign_at(p: Sequence[int], x) -> int:
    """Exact sign of the integer polynomial p at a float or Fraction x."""
    num, den = x.as_integer_ratio()
    value = polyval([c * den**i for i, c in enumerate(p)], num)  # den^deg p(x)
    return (value > 0) - (value < 0)


def _largest_root(p: Sequence[int], anchor: int) -> float:
    """The largest real root of the integer polynomial p, correctly rounded.

    p(x + anchor) must have a negative constant term and exactly one sign
    variation, so by Descartes' rule p has exactly one root above `anchor`
    and is negative between the two.  Bisection over floats, with every sign
    decided exactly, brackets that root between adjacent floats; the sign at
    their exact midpoint picks the nearer one.  (A monic integer polynomial's
    rational roots are integers, so no root falls on such a midpoint.)
    """
    shifted = list(p)  # Taylor shift to p(x + anchor), one Horner pass per degree
    for stop in range(len(shifted) - 1, 0, -1):
        for j in range(1, stop + 1):
            shifted[j] += anchor * shifted[j - 1]
    signs = [c > 0 for c in shifted if c]
    if shifted[-1] >= 0 or sum(a != b for a, b in zip(signs, signs[1:])) != 1:
        raise NumericalError(f"cannot isolate the largest root of {list(p)} above {anchor}")
    # Fujiwara: p(x + anchor) = a_0 x^d + ... + a_d with a_0 >= 1 has every
    # root below 2 max_k |a_k / a_0|^(1/k) < 2 max_k 2^ceil(bitlen(a_k) / k),
    # a bound kept in integers until it is converted
    bound = max(1 << -(-abs(c).bit_length() // k) for k, c in enumerate(shifted[1:], 1))
    try:
        lo, hi = float(anchor), float(anchor + 2 * bound)
    except OverflowError:
        raise NumericalError("the roots' Fujiwara bound exceeds the float range") from None
    while True:
        mid = lo / 2 + hi / 2  # (lo + hi) / 2, without overflowing near the float limit
        if mid in (lo, hi):
            break
        sign = _sign_at(p, mid)
        if sign == 0:
            return mid
        lo, hi = (mid, hi) if sign < 0 else (lo, mid)
    return lo if _sign_at(p, (Fraction(lo) + Fraction(hi)) / 2) > 0 else hi


def _matching_threshold_cubic(n: int) -> list[int]:
    return [1, -(3 * n - 7), n * (2 * n - 7), -2 * (n * n - 7 * n + 12)]


# the characteristic polynomial of the complete split graph's 2x2 quotient
def _split_graph_quadratic(n: int) -> list[int]:
    return [1, -(2 * n - 4), (n // 2 - 1) * (n - 4)]


def _order_refusal(n: int) -> str | None:
    """Why order n is outside the theorem, parity first; None if it is even and >= 4."""
    if n % 2:
        return "odd-order"
    return "order-too-small" if n < 4 else None


def _require_even_order(n, name: str = "order") -> int:
    if not isinstance(n, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {n!r}")
    n = int(n)
    if reason := _order_refusal(n):
        raise HypothesisError(reason, f"{name} must be an even integer >= 4, got {n}")
    return n


@lru_cache(maxsize=None)
def r_of_n(n: int) -> float:
    """Largest root of x^3 - (3n-7)x^2 + n(2n-7)x - 2(n^2-7n+12), correctly
    rounded."""
    n = _require_even_order(n)
    return _largest_root(_matching_threshold_cubic(n), 2 * n - 6)


def r_l_of_n(n: int) -> float:
    """Largest root of x^2 - (2n-4)x + (n/2-1)(n-4), the q1 of
    K_{n/2-1} v (n/2+1)K1, (2n - 4 + sqrt(2n(n-2))) / 2, correctly rounded."""
    n = _require_even_order(n)
    # the polynomial shifted to x = n - 2 is x^2 - n(n-2)/2, which isolates it
    return _largest_root(_split_graph_quadratic(n), n - 2)


def closed_form_r(n: int) -> float:
    """The same largest root, evaluated in closed form via complex cube roots.

    The cubic has three real roots, so the radical form necessarily passes
    through complex arithmetic (casus irreducibilis); the imaginary parts must
    cancel to within 1e-6, and the discriminant (about -4n^6) fit a float, or
    a NumericalError is raised.
    """
    n = _require_even_order(n)
    half_q_scale = 9 * n * n - 63 * n + 38  # 27x the depressed cubic's q
    neg_p_scale = 3 * n * n - 21 * n + 49  # -3x the depressed cubic's p
    # with w = n(n-7) this is 27(-4w^3 - 193w^2 - 3176w - 17376), exactly
    disc = (half_q_scale * half_q_scale - 4 * neg_p_scale**3) // 27
    try:
        w = complex(-half_q_scale) + 3.0 * math.sqrt(3.0) * cmath.sqrt(complex(disc))
    except OverflowError:  # from about n = 2e51
        raise NumericalError(f"the discriminant exceeds the float range at n={n}") from None
    croot = w ** (1.0 / 3.0)  # principal branch
    value = (
        n
        + 2.0 ** (2.0 / 3.0) * croot / 6.0
        + 2.0 ** (1.0 / 3.0) * neg_p_scale / (3.0 * croot)
        - 7.0 / 3.0
    )
    if abs(value.imag) > 1e-6:
        raise NumericalError(
            f"imaginary residue {value.imag:.3e} exceeds 1e-6 at n={n}"
        )
    return float(value.real)


@lru_cache(maxsize=None)
def q1_threshold(n: int) -> float:
    """Spectral-radius threshold above which a perfect matching is guaranteed,
    max(r(n), r_l(n)), correctly rounded: r_l(n) wins only at n = 6 and 8."""
    return max(r_of_n(n), r_l_of_n(n))


@lru_cache(maxsize=None)
def edge_threshold(n: int) -> int:
    """Edge-count threshold above which a perfect matching is guaranteed: the
    larger edge count of K1 v (K_{n-3} u 2K1) and K_{n/2-1} v (n/2+1)K1.
    They differ by (n-4)(n-10)/8, so the split graph wins only at n = 6, 8."""
    n = _require_even_order(n)
    return max((n * n - 5 * n + 10) // 2, 3 * n * (n - 2) // 8)
