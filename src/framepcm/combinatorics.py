"""Exact verification of the discrete identities behind the error formulas.

A check returns True only when the two sides agree exactly, and compares
integers: each rational identity is first multiplied through by its
denominators (h - l for the telescoping certificate, 2 for Gould's
convolution, (2h+1)! and one common denominator per row of L_m or D_m for
the coefficient identities), so that no sum pays a Fraction normalization,
a gcd, per term.  The sqrt(pi) of the half-integer factorials
Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!) cancels wherever a closed form
is asserted to be rational.

Each identity's integer expression is written once, in a private helper
that reads its binomials and factorials from rows it is given.
``identity_suites(mx)``, the six suites of ``framepcm verify --max mx``,
builds Pascal's triangle up to row 2mx+1 by additions, the factorials up
to (4mx+2)! and the sign weights once, shares them across every check of
the run and drops them when it returns.  A public one-point check builds
the rows its point reads and calls the same helper.

Only closed-form tables are cached: per n a row of the cleared numerators
of L_closed and D_closed, grown in blocks of _ROW_BLOCK up to the largest
h requested.  No value, sum or check result is cached.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add, mul

__all__ = [
    "binom",
    "check_identity_A",
    "check_identity_B",
    "gosper_g",
    "gosper_certificate",
    "check_gould",
    "L_closed",
    "D_closed",
    "check_coeff_identity_even",
    "check_coeff_identity_odd",
    "identity_suites",
    "weighted_sum_A",
]


def binom(n: int, k: int) -> int:
    """Binomial coefficient with C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# rows: Pascal's triangle, factorials and sign weights
# ---------------------------------------------------------------------------

def _pascal_row(n: int) -> list[int]:
    """C(n, k) for k = 0..n: the row of one point."""
    return [math.comb(n, k) for k in range(n + 1)]


def _pascal_rows(top: int) -> list[list[int]]:
    """Rows 0..top of Pascal's triangle, each from the one above by additions."""
    rows = [[1]]
    for _ in range(top):
        prev = rows[-1]
        rows.append([1, *map(add, prev, prev[1:]), 1])
    return rows


def _factorials(top: int) -> list[int]:
    """k! for k = 0..top."""
    return list(accumulate(range(1, top + 1), mul, initial=1))


def _sign_weights(count: int) -> tuple[list[int], list[int]]:
    """(-1)^m and (-1)^m (2m+1) for m < count."""
    signs = [-1 if m & 1 else 1 for m in range(count)]
    return signs, [s * (2 * m + 1) for m, s in enumerate(signs)]


# ---------------------------------------------------------------------------
# the identities, each over the rows it reads
#
# A row of Pascal's triangle holds C(n, k) for 0 <= k <= n only: a slice
# that would run past its end is cut short, which drops exactly the terms
# whose binomial is 0, and a binomial at k < 0 is written as an explicit 0
# (a negative index would wrap round to the row's end).
# ---------------------------------------------------------------------------

def _weighted_sum_A(row, h, weights) -> int:
    """sum_{m=0}^{h} (-1)^m (2m+1) C(n+h, h-m) C(n+h, h+m+1), row = C(n+h, .)."""
    return sum(map(mul, weights, map(mul, row[h::-1], row[h + 1:2 * h + 2])))


def _identity_A(row, n, h, weights) -> bool:
    return _weighted_sum_A(row, h, weights) == n * row[n]


def _summands_B(row, col, weights, h, l) -> list[int]:
    """(-1)^m (2m+1) C(2h+1, h-m) C(m+l, 2l) for m = l..h, over row = C(2h+1, .)
    and col[j] = C(2l+j, 2l)."""
    return list(map(mul, map(mul, weights[l:h + 1], row[h - l::-1]), col))


def _identity_B(row, col, weights, h, l) -> bool:
    return sum(_summands_B(row, col, weights, h, l)) == 0


def _gosper_numerators(row, col, h, l) -> list[int]:
    """(h - l) g_m for m = l..h+1; g_{h+1} = 0 through C(2h+1, -1) = 0."""
    nums = [(1 if m & 1 else -1) * (h + m + 1) * (m - l) * c * b
            for m, c, b in zip(range(l, h + 1), row[h - l::-1], col)]
    nums.append(0)
    return nums


def _certificate(row, col, weights, h, l):
    """For m = l..h in turn, whether (h-l) g_{m+1} - (h-l) g_m equals (h-l)
    times the summand of B at m: each numerator is computed once."""
    nums = _gosper_numerators(row, col, h, l)
    return (b - a == (h - l) * s
            for a, b, s in zip(nums, nums[1:], _summands_B(row, col, weights, h, l)))


def _gould_sum(row, h, signs) -> int:
    """sum_{m=0}^{h} (-1)^m C(n+h, h-m) C(n+h, h+m) over row = C(n+h, .)."""
    return sum(map(mul, signs, map(mul, row[h::-1], row[h:2 * h + 1])))


def _gould(row, h, signs) -> bool:
    c = row[h]  # C(n+h, h)
    return 2 * _gould_sum(row, h, signs) == c + c * c


def _coeff_lhs(cleared, row, h) -> int:
    """sum_{m=0}^{h} a_m C(2h+1, h-m) over a cleared row a and row = C(2h+1, .)."""
    return sum(map(mul, cleared, row[h::-1]))


def _coeff_even(cleared, row, fact, n, h) -> bool:
    # the den of the cleared row cancels between the two sides
    return (_coeff_lhs(cleared, row, h) * fact[h] * fact[h + n]
            == cleared[0] * fact[n] * fact[2 * h + 1])


def _coeff_odd(den, cleared, row, fact, n, h) -> bool:
    return (_coeff_lhs(cleared, row, h) * fact[h] * fact[2 * h + 2 * n + 2]
            == den * (fact[n - 1] << (2 * h + 2 * n + 1)) * fact[h + n + 1] * fact[2 * h + 1])


# ---------------------------------------------------------------------------
# the public checks, one point each
# ---------------------------------------------------------------------------

def weighted_sum_A(n: int, h: int) -> int:
    """sum_{m=0}^{h} (-1)^m (2m+1) C(n+h, h-m) C(n+h, h+m+1), exactly."""
    if n < 0 or h < 0:
        raise ValueError("need n >= 0 and h >= 0")
    return _weighted_sum_A(_pascal_row(n + h), h, _sign_weights(h + 1)[1])


def check_identity_A(n: int, h: int) -> bool:
    """Exact check of the closed form weighted_sum_A(n, h) == n * C(n+h, n)."""
    if n < 1 or h < 0:
        raise ValueError("need n >= 1 and h >= 0")
    return _identity_A(_pascal_row(n + h), n, h, _sign_weights(h + 1)[1])


def _point_rows_B(h: int, l: int):
    """(row, col, weights) that identity B and its certificate read at (h, l),
    col[j] = C(2l+j, 2l) being the C(m+l, 2l) at m = l + j."""
    col = [math.comb(2 * l + j, 2 * l) for j in range(h - l + 1)]
    return _pascal_row(2 * h + 1), col, _sign_weights(h + 1)[1]


def check_identity_B(h: int, l: int) -> bool:
    """Exact check that sum_{m=l}^{h} (-1)^m (2m+1) C(2h+1, h-m) C(m+l, 2l) = 0."""
    if h < 1 or not (0 <= l <= h - 1):
        raise ValueError("need h >= 1 and 0 <= l <= h-1")
    return _identity_B(*_point_rows_B(h, l), h, l)


def gosper_g(h: int, l: int, m: int) -> Fraction:
    """Telescoping antidifference for check_identity_B, for l <= m <= h+1.

    g_m = (-1)^{m+1} (h+m+1)(m-l) C(2h+1, h-m) C(m+l, 2l) / (h-l).
    The factor (m-l) forces g_l = 0.
    """
    if not (0 <= l < h) or not (l <= m <= h + 1):
        raise ValueError("need 0 <= l < h and l <= m <= h+1")
    row, col, _ = _point_rows_B(h, l)
    return Fraction(_gosper_numerators(row, col, h, l)[m - l], h - l)


def gosper_certificate(h: int, l: int, m: int) -> bool:
    """Exact check that g_{m+1} - g_m equals the summand of check_identity_B at m,
    compared after multiplying both sides by h - l."""
    if not (0 <= l < h) or not (l <= m <= h):
        raise ValueError("need 0 <= l < h and l <= m <= h")
    return list(_certificate(*_point_rows_B(h, l), h, l))[m - l]


def check_gould(n: int, h: int) -> bool:
    """Exact check of Gould's convolution identity

    sum_{m=0}^{h} (-1)^m C(n+h, h-m) C(n+h, h+m) = C(n+h, h)/2 + C(n+h, h)^2/2,

    with the m = 0 term counted once, compared after doubling both sides.
    """
    if n < 0 or h < 0:
        raise ValueError("need n, h >= 0")
    return _gould(_pascal_row(n + h), h, _sign_weights(h + 1)[0])


def L_closed(n: int, m: int) -> Fraction:
    """The rational L/pi, L = int_{-pi}^{pi} cos((2m+1)t) cos(t) sin^{2n-2}(t) dt.

    L = (-1)^m * pi/2^{2n-2} * C(2n-2, n+m-1) * (2m+1)/(n+m), so the
    returned Fraction is (-1)^m C(2n-2, n+m-1) (2m+1) / (2^{2n-2} (n+m));
    the binomial convention makes it exactly zero for m >= n.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return Fraction((-1) ** m * binom(2 * n - 2, n + m - 1) * (2 * m + 1),
                    2 ** (2 * n - 2) * (n + m))


def D_closed(n: int, m: int) -> Fraction:
    """Closed form of int_0^{pi} cos((2m+1)t) cos(t) sin^{2n-1}(t) dt.

    Equals (-1)^n 2 (2n-1)! (2m+1) / prod_{j=m-n}^{m+n} (2j+1).  The
    integrand is the half sum of cos(2kt) sin^{2n-1}(t) over k = m, m+1, and
    by Gradshteyn-Ryzhik 3.631 and the reflection formula
    int_0^pi cos(2kt) sin^{2n-1}(t) dt
        = pi (-1)^k (2n)! / (2^{2n} n Gamma(n+k+1/2) Gamma(n-k+1/2))
        = (-1)^n 2 (2n-1)! / prod_{j=k-n}^{k+n-1} (2j+1):
    the sqrt(pi) of the half-integer factorials cancels, the value is rational.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return Fraction((-1) ** n * 2 * math.factorial(2 * n - 1) * (2 * m + 1),
                    math.prod(range(2 * m - 2 * n + 1, 2 * m + 2 * n + 2, 2)))


_ROW_BLOCK = 32  # a row grows by this many m at a time and serves every h below


@lru_cache(maxsize=128)  # two rows per n: 60 for verify --max 30
def _cleared_row(odd: bool, n: int, size: int) -> tuple[int, tuple[int, ...]]:
    """(den, a) with a[m] / den == D_closed(n, m) (odd) or L_closed(n, m)
    (even) for m < size: one row of a closed-form table over one common
    denominator, built from the integer factors without a Fraction.

    Even: C(2n-2, n+m-1) / (n+m) = C(2n-1, n+m) / (2n-1), so den is
    2^{2n-2} (2n-1) for every m.  Odd: den is the lcm of the products
    p_m = prod_{j=m-n}^{m+n} (2j+1), each from the one before by exact
    division.  Neither den need be the least one; the coefficient checks
    are homogeneous in (den, a).
    """
    if not odd:
        row = _pascal_row(2 * n - 1)
        return (2 * n - 1) << (2 * n - 2), tuple(
            (-1 if m & 1 else 1) * (2 * m + 1) * (row[n + m] if m < n else 0)
            for m in range(size))
    prods = [math.prod(range(1 - 2 * n, 2 * n + 2, 2))]
    for m in range(1, size):
        prods.append(prods[-1] * (2 * m + 2 * n + 1) // (2 * m - 2 * n - 1))
    den = math.lcm(*prods)
    top = (-1 if n & 1 else 1) * 2 * math.factorial(2 * n - 1)
    return den, tuple(top * (2 * m + 1) * (den // p) for m, p in enumerate(prods))


def _cleared(odd: bool, n: int, h: int) -> tuple[int, tuple[int, ...]]:
    """The cleared row of n that covers every m <= h."""
    return _cleared_row(odd, n, (h // _ROW_BLOCK + 1) * _ROW_BLOCK)


def check_coeff_identity_even(n: int, h: int) -> bool:
    """Power-series coefficient identity for the even-exponent closed forms:

    sum_{m=0}^{h} L_m / ((h-m)! (h+m+1)!) == L_0 * n! / (h! (h+n)!)

    checked exactly after dividing out pi, multiplying by (2h+1)! and
    clearing the denominators: in integers.
    """
    if n < 1 or h < 0:
        raise ValueError("need n >= 1 and h >= 0")
    _, cleared = _cleared(False, n, h)
    return _coeff_even(cleared, _pascal_row(2 * h + 1), _factorials(2 * h + n + 1), n, h)


def check_coeff_identity_odd(n: int, h: int) -> bool:
    """Power-series coefficient identity for the odd-exponent closed forms:

    sum_{m=0}^{h} D_m / ((h-m)! (h+m+1)!)
        == (n-1)!/4 * 2^{2h+2n+3} (h+n+1)! / (h! (2h+2n+2)!)

    exactly (both sides are rational once the half-integer factorial on the
    right is expanded), multiplied by (2h+1)! and compared in integers.
    """
    if n < 1 or h < 0:
        raise ValueError("need n >= 1 and h >= 0")
    return _coeff_odd(*_cleared(True, n, h), _pascal_row(2 * h + 1),
                      _factorials(2 * h + 2 * n + 2), n, h)


# ---------------------------------------------------------------------------
# the suites of framepcm verify
# ---------------------------------------------------------------------------

def identity_suites(mx: int) -> list[tuple[str, bool]]:
    """The six identity suites of ``framepcm verify --max mx``, in order, as
    (name, ok): ok when every check at indices up to mx holds.

    A suite walks the index tuples of its public check in the same order
    (n or h outermost) and stops at its first failed check.  Every check
    reads one Pascal triangle, one factorial table and one set of sign
    weights, built here for the whole run.
    """
    if mx < 1:
        raise ValueError(f"need mx >= 1, got {mx}")
    rows = _pascal_rows(2 * mx + 1)
    fact = _factorials(4 * mx + 2)
    signs, weights = _sign_weights(mx + 1)
    cols = [[rows[2 * l + j][2 * l] for j in range(mx - l + 1)] for l in range(mx)]
    top = range(mx + 1)
    return [
        ("weighted-binomial closed form", all(
            _identity_A(rows[n + h], n, h, weights) for n in top[1:] for h in top)),
        ("vanishing telescoped sum", all(
            _identity_B(rows[2 * h + 1], cols[l], weights, h, l)
            for h in top[1:] for l in range(h))),
        ("telescoping certificate", all(
            ok for h in top[1:] for l in range(h)
            for ok in _certificate(rows[2 * h + 1], cols[l], weights, h, l))),
        ("Gould convolution", all(
            _gould(rows[n + h], h, signs) for n in top for h in top)),
        ("even coefficient identity", all(
            _coeff_even(_cleared(False, n, mx)[1], rows[2 * h + 1], fact, n, h)
            for n in top[1:] for h in top)),
        ("odd coefficient identity", all(
            _coeff_odd(*_cleared(True, n, mx), rows[2 * h + 1], fact, n, h)
            for n in top[1:] for h in top)),
    ]
