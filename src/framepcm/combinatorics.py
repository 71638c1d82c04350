"""Exact verification of the discrete identities behind the error formulas.

A check returns True only when the two sides agree exactly, and compares
integers: each rational identity is first multiplied through by its
denominators (h - l for the telescoping certificate, 2 for Gould's
convolution, (2h+1)! and one common denominator per row of L_m or D_m for
the coefficient identities), so that no sum pays a Fraction normalization,
a gcd, per term.  The sqrt(pi) of the half-integer factorials
Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!) cancels wherever a closed form
is asserted to be rational.

Only closed-form tables are cached: L_closed and D_closed per (n, m), and
per n a row of their cleared numerators, grown in blocks of _ROW_BLOCK up
to the largest h requested.  No sum and no check result is cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "ExactRational",
    "Scale",
    "ScaledConstant",
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
    "weighted_sum_A",
]

# Exact rationals are plain fractions.Fraction (always in lowest terms).
ExactRational = Fraction


class Scale(Enum):
    ONE = 1
    PI = 2
    SQRT_PI = 3


@dataclass(frozen=True)
class ScaledConstant:
    """An exact rational times 1, pi, or sqrt(pi)."""

    rational: Fraction
    scale: Scale

    def __float__(self) -> float:
        factor = {Scale.ONE: 1.0, Scale.PI: math.pi, Scale.SQRT_PI: math.sqrt(math.pi)}
        return float(self.rational) * factor[self.scale]


def binom(n: int, k: int) -> int:
    """Binomial coefficient with C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def weighted_sum_A(n: int, h: int) -> int:
    """sum_{m=0}^{h} (-1)^m (2m+1) C(n+h, h-m) C(n+h, h+m+1), exactly."""
    return sum((-1 if m & 1 else 1) * (2 * m + 1) * math.comb(n + h, h - m)
               * math.comb(n + h, h + m + 1) for m in range(h + 1))


def check_identity_A(n: int, h: int) -> bool:
    """Exact check of the closed form weighted_sum_A(n, h) == n * C(n+h, n)."""
    if n < 1 or h < 0:
        raise ValueError("need n >= 1 and h >= 0")
    return weighted_sum_A(n, h) == n * binom(n + h, n)


def _summand_B(h: int, l: int, m: int) -> int:
    return ((-1 if m & 1 else 1) * (2 * m + 1) * math.comb(2 * h + 1, h - m)
            * math.comb(m + l, 2 * l))


def check_identity_B(h: int, l: int) -> bool:
    """Exact check that sum_{m=l}^{h} (-1)^m (2m+1) C(2h+1, h-m) C(m+l, 2l) = 0."""
    if h < 1 or not (0 <= l <= h - 1):
        raise ValueError("need h >= 1 and 0 <= l <= h-1")
    return sum(_summand_B(h, l, m) for m in range(l, h + 1)) == 0


def _gosper_numerator(h: int, l: int, m: int) -> int:
    """(h - l) g_m: the integer numerator of gosper_g."""
    return ((1 if m & 1 else -1) * (h + m + 1) * (m - l) * binom(2 * h + 1, h - m)
            * binom(m + l, 2 * l))


def gosper_g(h: int, l: int, m: int) -> Fraction:
    """Telescoping antidifference for check_identity_B.

    g_m = (-1)^{m+1} (h+m+1)(m-l) C(2h+1, h-m) C(m+l, 2l) / (h-l).
    The factor (m-l) forces g_l = 0.
    """
    if h == l:
        raise ValueError("h = l divides by zero")
    return Fraction(_gosper_numerator(h, l, m), h - l)


def gosper_certificate(h: int, l: int, m: int) -> bool:
    """Exact check that g_{m+1} - g_m equals the summand of check_identity_B at m,
    compared after multiplying both sides by h - l."""
    if not (0 <= l < h) or not (l <= m <= h):
        raise ValueError("need 0 <= l < h and l <= m <= h")
    return (_gosper_numerator(h, l, m + 1) - _gosper_numerator(h, l, m)
            == (h - l) * _summand_B(h, l, m))


def check_gould(n: int, h: int) -> bool:
    """Exact check of Gould's convolution identity

    sum_{m=0}^{h} (-1)^m C(n+h, h-m) C(n+h, h+m) = C(n+h, h)/2 + C(n+h, h)^2/2,

    with the m = 0 term counted once, compared after doubling both sides.
    """
    if n < 0 or h < 0:
        raise ValueError("need n, h >= 0")
    lhs = sum((-1 if m & 1 else 1) * math.comb(n + h, h - m) * math.comb(n + h, h + m)
              for m in range(h + 1))
    c = binom(n + h, h)
    return 2 * lhs == c + c * c


@lru_cache(maxsize=None)
def L_closed(n: int, m: int) -> ScaledConstant:
    """Closed form of int_{-pi}^{pi} cos((2m+1)t) cos(t) sin^{2n-2}(t) dt.

    Equals (-1)^m * pi/2^{2n-2} * C(2n-2, n+m-1) * (2m+1)/(n+m); the binomial
    convention makes it exactly zero for m >= n.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    rat = Fraction(
        (-1) ** m * binom(2 * n - 2, n + m - 1) * (2 * m + 1),
        2 ** (2 * n - 2) * (n + m),
    )
    return ScaledConstant(rational=rat, scale=Scale.PI)


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _cleared_row(odd: bool, n: int, size: int) -> tuple[int, tuple[int, ...]]:
    """(den, a) with a[m] / den == D_closed(n, m) (odd) or L_closed(n, m)/pi
    (even) for m < size: one row of a closed-form table over one denominator."""
    vals = [D_closed(n, m) if odd else L_closed(n, m).rational for m in range(size)]
    den = math.lcm(*(v.denominator for v in vals))
    return den, tuple(v.numerator * (den // v.denominator) for v in vals)


def _coeff_lhs(odd: bool, n: int, h: int) -> tuple[int, tuple[int, ...], int]:
    """(den, a, s) with the row (den, a) of _cleared_row and
    s / den == (2h+1)! sum_{m=0}^{h} X_m / ((h-m)! (h+m+1)!), that is
    s = sum_m a_m C(2h+1, h-m)."""
    den, row = _cleared_row(odd, n, (h // _ROW_BLOCK + 1) * _ROW_BLOCK)
    return den, row, sum(row[m] * math.comb(2 * h + 1, h - m) for m in range(h + 1))


def check_coeff_identity_even(n: int, h: int) -> bool:
    """Power-series coefficient identity for the even-exponent closed forms:

    sum_{m=0}^{h} L_m / ((h-m)! (h+m+1)!) == L_0 * n! / (h! (h+n)!)

    checked exactly after dividing out pi, multiplying by (2h+1)! and
    clearing the denominators: in integers.
    """
    if n < 1 or h < 0:
        raise ValueError("need n >= 1 and h >= 0")
    _, row, lhs = _coeff_lhs(False, n, h)  # the den of both sides cancels
    return (lhs * math.factorial(h) * math.factorial(h + n)
            == row[0] * math.factorial(n) * math.factorial(2 * h + 1))


def check_coeff_identity_odd(n: int, h: int) -> bool:
    """Power-series coefficient identity for the odd-exponent closed forms:

    sum_{m=0}^{h} D_m / ((h-m)! (h+m+1)!)
        == (n-1)!/4 * 2^{2h+2n+3} (h+n+1)! / (h! (2h+2n+2)!)

    exactly (both sides are rational once the half-integer factorial on the
    right is expanded), multiplied by (2h+1)! and compared in integers.
    """
    if n < 1 or h < 0:
        raise ValueError("need n >= 1 and h >= 0")
    den, _, lhs = _coeff_lhs(True, n, h)
    return (lhs * math.factorial(h) * math.factorial(2 * h + 2 * n + 2)
            == den * (math.factorial(n - 1) << (2 * h + 2 * n + 1))
            * math.factorial(h + n + 1) * math.factorial(2 * h + 1))
