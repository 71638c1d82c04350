"""Self-contained Bessel-function machinery with certified error bounds.

Four evaluation routes for J_alpha (alpha a nonnegative multiple of 1/2,
the only orders the package needs), each returning a value together with a
rigorous absolute error bound so that independent routes can be checked
against each other:

* ``bessel_series``      -- the defining alternating power series, with the
  alternating-series tail bound plus an explicit rounding budget.  Only
  certifiable in binary64 for moderate arguments (cancellation grows like
  e^x), so the other routes take over for large x.
* ``bessel_integral_int_order`` -- for integer order, the trapezoidal rule
  on Bessel's integral (1/2pi) int_0^{2pi} cos(n*t - x sin t) dt, whose
  integrand is periodic: it errs only by aliased Bessel values, so its
  size follows a priori from their bound.
* ``bessel_half_order``  -- for half-integer order, the closed sin/cos
  forms propagated by the spherical upward recurrence (falls back to the
  series when x < order, where upward recurrence is unstable).
* ``bessel_large_x``     -- Hankel's large-argument expansion; for real
  order and positive argument the remainder of each cosine/sine series is
  bounded by the first omitted term once enough terms are taken, which
  makes the expansion a certified method (and an exact one for
  half-integer orders, where it terminates).

On top of these, ``alternating_bessel_sums`` evaluates

    S = sum_{k>=1} (-1)^k k^{-alpha} J_alpha(2 pi k R)

with a certified bound at many R for one alpha at once; it only computes,
and each caller judges the bounds.  ``alternating_bessel_sum_info`` is its
one-row case judged against a tolerance (``PrecisionExhausted`` with the
bound it reached where that is missed).  No term is summed directly (the
certified tail of a direct sum decays only like K^{-alpha+1/2}): the whole
sum is *computed*, in one batched call over the rows.  Hankel's expansion,
cut at the smallest argument 2 pi R, turns it into a handful of phase sums
sum_{k>=1} z^k k^{-q} with |z| = 1, all at q = alpha + 1/2 + integer.  Its
remainder there bounds the row: small at large R, and nothing but rounding
for half-integer alpha, where the expansion terminates.  For
z = e^{2 pi i beta} != 1 each phase sum is the polylogarithm Li_q(z), from
its expansion in w = 2 pi i beta (DLMF 25.12.12; the harmonic/log form at
integer q), which converges for every phase once beta is reduced to
(-1/2, 1/2].  All q of a row share beta, so each row forms the powers
c_j = (2 pi |beta|)^j / j! once, and its polylogarithms at every q, with
their bounds, are one product of c with a Toeplitz table of
zeta(q_i - j) i^j and its bound weights, cached per (alpha, number of q)
(Euler-Maclaurin for positive arguments, the functional equation DLMF
25.4.1 for negative ones); the omitted terms are bounded through DLMF
25.4.2.  At z = 1 the phase sum is zeta(q) from the same Euler-Maclaurin
routine that fills the table.  The Hankel terms a_j / x^j come from one
table built as running ratios, so that no power of x can overflow (at
huge x they underflow), each parity cut at its smallest term, whose size
bounds the remainder; the same table serves ``bessel_large_x``.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PrecisionExhausted",
    "BesselEval",
    "AsymptoticEnvelope",
    "bessel_series",
    "bessel_integral_int_order",
    "bessel_half_order",
    "bessel_large_x",
    "asymptotic_estimate",
    "alternating_bessel_sum_info",
    "alternating_bessel_sums",
    "gauss_legendre",
]

EPS = float(np.finfo(float).eps)

# ``bessel_integral_int_order``: the largest rule it may take (x up to ~1.2e4)
_TRAPEZOID_BUDGET = 16384


def _series_domain_max(order: float) -> float:
    # beyond this the alternating series cannot reach interesting
    # tolerances in binary64 anyway; the hard precondition mirrors that
    return 2.0 * max(30.0, order * order)


class PrecisionExhausted(ArithmeticError):
    """Requested tolerance is not reachable at working precision.

    Raised instead of returning a silently wrong value; ``achieved`` holds
    the best certified bound that was reached.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


def _binary64(compute, message) -> float:
    """compute(), or ``PrecisionExhausted(message())`` where it, or a factor
    of it, overflows or underflows below the normal range (a subnormal has
    lost relative precision); the message is built only then."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError, PrecisionExhausted):
        value = math.nan
    if not sys.float_info.min <= abs(value) < math.inf:
        raise PrecisionExhausted(message())
    return value


@dataclass(frozen=True)
class BesselEval:
    """A Bessel value together with a certified absolute error bound."""

    order: float
    argument: float
    value: float
    abs_error_bound: float


@dataclass(frozen=True)
class AsymptoticEnvelope:
    """Leading large-argument term of J_alpha and its residual envelope.

    ``main_term = sqrt(2/(pi x)) cos(x - omega)`` with
    ``omega = pi*alpha/2 + pi/4``; the true value differs from it by at
    most ``residual_bound = c * mu * x^{-3/2}`` where ``mu = |alpha^2-1/4|``
    and ``c`` follows the three-branch rule encoded in ``_branch_c``.
    """

    order: float
    argument: float
    main_term: float
    omega: float
    mu: float
    c: float
    residual_bound: float


def _require_half_integer(order: float) -> int:
    twice = round(2 * order)
    if order < 0 or abs(2 * order - twice) > 1e-12:
        raise ValueError(f"order must be a nonnegative multiple of 1/2, got {order}")
    return int(twice)


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1].

    No route of the package calls it; it stays because
    ``perfbench/tracing.py`` wraps it and reads its cache."""
    return np.polynomial.legendre.leggauss(n)


# ---------------------------------------------------------------------------
# series route
# ---------------------------------------------------------------------------

def _gamma_order_plus_1(order: float, twice: int) -> float:
    """Gamma(order + 1), exact at integers, rational * sqrt(pi) at half-integers."""
    if twice % 2 == 0:
        return float(math.factorial(twice // 2))
    k = (twice + 1) // 2  # Gamma(k + 1/2)
    return math.factorial(2 * k) / (4.0 ** k * math.factorial(k)) * math.sqrt(math.pi)


def _series_eval(order: float, x: float) -> BesselEval:
    """Best-effort series evaluation with a certified bound (no tol gate)."""
    twice = _require_half_integer(order)
    if x < 0:
        raise ValueError("argument must be nonnegative")
    if x == 0.0:
        return BesselEval(order, x, 1.0 if order == 0 else 0.0, 0.0)

    try:
        t, first_err = (x / 2.0) ** order / _gamma_order_plus_1(order, twice), 0.0
    except OverflowError:
        # Gamma(order + 1) leaves binary64 from order 170.5 on (its factorials
        # from 85.5 at half-integers), or the power does: the first term is
        # then taken in logarithms, within 16 EPS of the logarithms' sizes
        # relative, an error every term t_k = t_0 prod(ratios) carries
        log_pow, log_gamma = order * math.log(x / 2.0), math.lgamma(order + 1.0)
        t = math.exp(log_pow - log_gamma) if log_pow - log_gamma < 709.0 else math.inf
        first_err = 16 * EPS * (abs(log_pow) + log_gamma + 1.0)
    if not sys.float_info.min <= t < math.inf:  # a subnormal has lost its relative accuracy
        raise PrecisionExhausted(f"the first series term is not a normal double "
                                 f"(order={order}, x={x})")
    terms = []
    sum_abs = 0.0
    rounding = 0.0
    k = 0
    while True:
        terms.append(t if k % 2 == 0 else -t)
        sum_abs += t
        # t_k reaches the sum through ~2k+12 rounded operations
        rounding += (2 * k + 14) * EPS * t
        ratio = (x / 2.0) ** 2 / ((k + 1) * (k + 1 + order))
        t_next = t * ratio
        if ratio < 1.0 and t_next <= 1e-18 * max(sum_abs, 1e-300):
            tail = t_next  # alternating, terms now strictly decreasing
            break
        if k >= 600:
            if ratio >= 1.0:
                raise PrecisionExhausted(
                    f"series terms still growing after {k} terms (order={order}, x={x})"
                )
            tail = t_next
            break
        t = t_next
        k += 1
    if not sum_abs < math.inf:
        raise PrecisionExhausted(f"the series terms leave binary64 (order={order}, x={x})")
    value = math.fsum(terms)
    bound = tail + rounding + first_err * sum_abs + 2 * EPS * abs(value)
    return BesselEval(order, x, value, bound)


def bessel_series(order: float, x: float, tol: float) -> BesselEval:
    """J_order(x) from the defining series, certified to ``tol``.

    The series sum_k (-1)^k / (k! Gamma(k+order+1)) (x/2)^{2k+order} is
    summed until the alternating tail bound applies; the reported bound
    adds the rounding budget of the summation.  Arguments beyond
    ``2*max(30, order^2)`` are rejected (cancellation makes binary64
    evaluation meaningless there); a reachable-domain argument whose
    certified bound still exceeds ``tol`` raises PrecisionExhausted rather
    than returning a wrong value.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if x > _series_domain_max(order):
        raise ValueError(
            f"x={x} outside the series evaluation domain x <= {_series_domain_max(order)}"
        )
    out = _series_eval(order, x)
    if out.abs_error_bound > tol:
        raise PrecisionExhausted(
            f"series bound {out.abs_error_bound:.3e} exceeds tol {tol:.3e} "
            f"(order={order}, x={x})",
            achieved=out.abs_error_bound,
        )
    return out


# ---------------------------------------------------------------------------
# integral route (integer order)
# ---------------------------------------------------------------------------

def bessel_integral_int_order(n: int, x: float) -> BesselEval:
    """J_n(x) = (1/2pi) int_0^{2pi} cos(n t - x sin t) dt by the m-point
    trapezoidal rule, at its m/2 + 1 nodes in [0, pi] (the integrand is
    symmetric about pi).

    The integrand is 2pi-periodic, so by Jacobi-Anger (DLMF 10.12.1) the
    rule returns sum_j J_{n-jm}(x): it errs by J_{jm+n} and +-J_{jm-n},
    j >= 1, all of order at least k = m - n.  For k >= x/2 their majorants
    (x/2)^nu / nu! (DLMF 10.14.4) decrease in nu and shrink along each
    chain by rho = (x/2)^m k!/(k + m)! <= (x/2)^k / k! per step, so the
    error is at most 2 (x/2)^k / k! / (1 - rho) < 2.01 (x/2)^k / k!.  m is
    n plus the least k that takes this below EPS, by bisection on
    k ln(x/2) - lgamma(k + 1), rounded up to even, and is fixed before any
    node is evaluated: past ``_TRAPEZOID_BUDGET`` nodes (x beyond ~1.2e4,
    and x = inf) it raises ``PrecisionExhausted``.  The bound is EPS plus a
    rounding allowance: 4 m EPS for the sum and the nodes, and 10 (x + n)
    EPS for the argument n t - x sin t, of size up to n pi + x.  Serves as
    an independent oracle for the series route.
    """
    if n != int(n) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if not x >= 0:  # nan too
        raise ValueError("argument must be nonnegative")
    n = int(n)
    log_half_x = math.log(x) - math.log(2.0) if x > 0 else -math.inf
    log_target = math.log(EPS / 2.01)

    def misses(k: int) -> bool:
        return k * log_half_x - math.lgamma(k + 1.0) > log_target

    # (e x/2k)^k / (e sqrt(k)) <= (x/2)^k / k! <= (e x/2k)^k: every k <= e x/2
    # misses the target, and k = e x/2 + 37 meets it, e^-37 < EPS/2.01
    lo = math.floor(min(0.5 * math.e * x, _TRAPEZOID_BUDGET))
    hi = min(lo + 38, _TRAPEZOID_BUDGET - n)
    if hi <= lo or misses(hi):
        raise PrecisionExhausted(
            f"trapezoidal rule for J_{n}({x}) needs more than {_TRAPEZOID_BUDGET} nodes")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if misses(mid) else (lo, mid)
    m = n + hi + (n + hi) % 2
    t = np.arange(m // 2 + 1) * (2.0 * math.pi / m)
    g = np.cos(n * t - x * np.sin(t))
    val = float(2.0 * g.sum() - g[0] - g[-1]) / m
    return BesselEval(n, x, val, EPS + (4 * m + 10 * (x + n)) * EPS)


# ---------------------------------------------------------------------------
# half-integer closed forms
# ---------------------------------------------------------------------------

def bessel_half_order(n: int, x: float) -> BesselEval:
    """J_{n+1/2}(x) from the closed sin/cos forms and upward recurrence.

    Seeds j_0 = sin(x)/x and j_1 = sin(x)/x^2 - cos(x)/x and climbs
    j_{m+1} = ((2m+1)/x) j_m - j_{m-1}; the error bound is propagated
    through every step.  Upward recurrence loses accuracy once the order
    exceeds the argument, so for x < n + 1/2 the series route is used
    instead.
    """
    if n != int(n) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if not x > 0:
        raise ValueError("closed forms divide by x; need x > 0")
    n = int(n)
    order = n + 0.5
    if x < order:
        return _series_eval(order, x)

    scale = math.sqrt(2.0 * x / math.pi)
    j = math.sin(x) / x  # j_m and its bound, from m = 0 up to n
    b = 8 * EPS / x
    if n:
        j0 = j
        b0 = b
        j = math.sin(x) / (x * x) - math.cos(x) / x
        b = 8 * EPS * (1.0 / (x * x) + 1.0 / x)
    for m in range(1, n):
        fac = (2 * m + 1) / x
        j2 = fac * j - j0
        b2 = fac * b + b0 + 4 * EPS * (abs(fac * j) + abs(j0))
        j0, b0, j, b = j, b, j2, b2
    v = scale * j
    return BesselEval(order, x, v, scale * b + 4 * EPS * (abs(v) + 1.0 / scale))


# ---------------------------------------------------------------------------
# asymptotic envelope
# ---------------------------------------------------------------------------

def _branch_c(order: float, x: float, mu: float) -> float:
    if abs(order) <= 0.5:
        return (2.0 / math.pi) ** 1.5
    if x >= math.sqrt(mu):
        return math.sqrt(2.0) / 2.0
    return 1.25


def asymptotic_estimate(order: float, x: float) -> AsymptoticEnvelope:
    """Leading term sqrt(2/(pi x)) cos(x - omega) with its residual envelope.

    ``omega = pi*order/2 + pi/4``; the residual bound is
    ``c * |order^2 - 1/4| * x^{-3/2}`` with the branch constant c chosen by
    (|order| <= 1/2) -> (2/pi)^{3/2}; (x >= sqrt(mu), order > 1/2) ->
    sqrt(2)/2; (0 < x < sqrt(mu), order > 1/2) -> 5/4.  It is inf where
    x^{-3/2} overflows.
    """
    if not x > 0:
        raise ValueError("need x > 0")
    omega = math.pi * order / 2.0 + math.pi / 4.0
    mu = abs(order * order - 0.25)
    c = _branch_c(order, x, mu)
    main = math.sqrt(2.0 / (math.pi * x)) * math.cos(x - omega)
    try:
        residual = c * mu * x ** -1.5
    except OverflowError:  # x below ~1e-205: the envelope says nothing there
        residual = math.inf
    return AsymptoticEnvelope(order=order, argument=x, main_term=main, omega=omega, mu=mu, c=c,
                              residual_bound=residual)


# ---------------------------------------------------------------------------
# Hankel expansion (large argument), with first-omitted-term remainders
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _hankel_layout(order: float, spare: int):
    """The part of :func:`_hankel_plan` fixed by (order, spare): jmax, the
    ratios a_j / a_{j-1} = (4 order^2 - (2j-1)^2) / (8j), j = 1..jmax, the
    first column of the windows of P and Q, and per column its parity and
    (column - its parity's window start) // 2, exact, as the two share a parity."""
    p0 = 2 * max(1, math.ceil((order - 0.5) / 2.0))
    q0 = 2 * max(1, math.ceil((order - 1.5) / 2.0)) + 1
    jmax = max(p0, q0 - 1) + spare
    j = np.arange(1, jmax + 1)
    ratios = (4.0 * order * order - (2 * j - 1) ** 2) / (8.0 * j)
    col = np.arange(jmax + 1)
    odd = col % 2 == 1
    half = (col - np.where(odd, q0, p0)) // 2
    for arr in (ratios, odd, half):  # shared by every caller through the cache
        arr.setflags(write=False)
    return jmax, ratios, p0, q0, odd, half


def _hankel_plan(order: float, x, spare: int):
    """Terms and cut of the Hankel sums P, Q.

    ``x`` is an argument or a 1-D array of them.  Returns (terms, mag, kept,
    omitted): ``terms[i, j] = a_j / x_i^j``, j = 0..jmax, with a_j =
    prod_{i<=j} (4 order^2 - (2i-1)^2) / (8^j j!), built as running ratios
    (a power of x is never formed, so large x underflows the terms instead
    of overflowing), mag = |terms|, and boolean masks of the same shape:
    the columns each argument retains, P the even ones, Q the odd ones, and
    its first omitted column of each parity.  For real order >= 0 and x > 0
    the remainder after the retained terms is bounded by the first omitted
    term provided that column j satisfies j >= order - 1/2 (DLMF 10.17(iii)).
    There the same-parity ratio |t_{j+2}/t_j| = ((2j+1)^2 - 4 order^2)
    ((2j+3)^2 - 4 order^2) / (64 (j+1) (j+2) x^2) never decreases in j, so
    the magnitudes fall and then rise: each parity is cut at its smallest
    term among the columns that satisfy the condition, from column 2 (P)
    or 3 (Q) on, up to ``spare`` columns past the later of the two least
    such columns (a layout cached per (order, spare), :func:`_hankel_layout`).
    """
    jmax, ratios, p0, q0, odd, half = _hankel_layout(order, spare)
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    terms = np.empty((x.shape[0], jmax + 1))
    terms[:, 0] = 1.0
    np.divide(ratios, x, out=terms[:, 1:])
    terms.cumprod(axis=1, out=terms)
    mag = abs(terms)
    # per argument and column, the first omitted column of its parity, in
    # steps of two from the window's start
    at = np.where(odd, mag[:, q0::2].argmin(axis=1, keepdims=True),
                  mag[:, p0::2].argmin(axis=1, keepdims=True))
    return terms, mag, half < at, half == at


@np.errstate(over="ignore", invalid="ignore")  # overflowing terms come out (0, inf)
def bessel_large_x(order: float, x: float) -> BesselEval:
    """J_order(x) from Hankel's expansion; certified, exact for half-integers.

    value = sqrt(2/(pi x)) [cos(x - omega) P - sin(x - omega) Q], P and Q
    cut by :func:`_hankel_plan`.  The bound of each is its first omitted
    term plus 4 EPS per retained term of the retained |terms| of P and Q
    summed, at least a_0 = 1 (near x = 12 the terms of order 30 reach
    1e10).  Intended for x comfortably above the order; the bound honestly
    blows up when the expansion cannot reach precision, and is inf, with
    value 0, where its terms overflow.
    """
    if not x > 0:
        raise ValueError("need x > 0")
    _require_half_integer(order)
    omega = math.pi * order / 2.0 + math.pi / 4.0
    chi = x - omega
    (terms,), _, (kept,), (omitted,) = _hankel_plan(order, x, 26)
    # P = a_0 - a_2/x^2 + ..., Q = a_1/x - a_3/x^3 + ...; the last column,
    # even, is never retained
    signed = np.where(kept, terms, 0.0) * (1.0 - 2.0 * (np.arange(terms.size) // 2 % 2))
    p, q = signed[:-1:2], signed[1::2]
    P, Q = float(p.sum()), float(q.sum())
    size = float(np.abs(p).sum() + np.abs(q).sum())
    lp, lq = int(omitted[::2].argmax()), int(omitted[1::2].argmax())  # terms retained
    bP = float(abs(terms[2 * lp])) + 4 * lp * EPS * size
    bQ = float(abs(terms[2 * lq + 1])) + 4 * lq * EPS * size
    if not math.isfinite(P + Q + bP + bQ):  # e.g. order 300 at x = 10
        return BesselEval(order, x, 0.0, math.inf)
    amp = math.sqrt(2.0 / (math.pi * x))
    value = amp * (math.cos(chi) * P - math.sin(chi) * Q)
    # x - omega carries ~eps*x of rounding, and |d value/d chi| <= amp (|P| + |Q|)
    bound = amp * (bP + bQ) + amp * (abs(P) + abs(Q)) * (2 * EPS * (x + 4.0)) + 4 * EPS * abs(value)
    return BesselEval(order, x, value, bound)


# ---------------------------------------------------------------------------
# phase sums  sum_{k>=1} z^k k^{-q}  (|z| = 1)
# ---------------------------------------------------------------------------

# Euler-Maclaurin for zeta sums: the first _EM_N - 1 terms are summed and
# B_2 .. B_16 corrections taken, each B_2m already divided by (2m)!
_EM_N = 16
_EM_B = tuple(b / math.factorial(2 * m) for m, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), 1))
# deepest j of the polylogarithm series; keeps Gamma(1 - s) of the table finite
_J_CAP = 160
_I_POW = np.array([1.0, 1j, -1.0, -1j])  # i^j by j mod 4
_J = np.arange(_J_CAP + 1)
# the constant parts of the remainder bound of the polylogarithm series
_LOG_PI2_3 = math.log(math.pi ** 2 / 3.0)
_LOG_2PI = math.log(2 * math.pi)


def _cos_half_pi(s: np.ndarray) -> np.ndarray:
    """cos(pi s / 2), with s reduced exactly mod 4 and exact at integers."""
    r = np.mod(s, 4.0)
    exact = np.array([1.0, 0.0, -1.0, 0.0])[np.floor(r).astype(int) % 4]
    return np.where(r == np.floor(r), exact, np.cos(0.5 * math.pi * r))


def _zeta_em(s, m0: int):
    """sum_{k>=m0} k^-s, the Hurwitz zeta(s, m0) (continued to 0 < s < 1),
    for real s > 0, s != 1, by Euler-Maclaurin, with absolute bounds.

    With N = m0 + 15,
    zeta(s, m0) = sum_{m0<=k<N} k^-s + N^{1-s}/(s-1) + N^-s/2
                  + sum_{m=1}^{8} B_2m/(2m)! (s)_{2m-1} N^{1-s-2m} + R,
    |R| <= 2 zeta(17) (2 pi)^-17 (s)_16 N^{-s-16} (periodic Bernoulli bound
    on the remainder integral).  Each term is a few rounded operations, so
    36 EPS of the sum of |terms| covers them and their summation.  Returns
    (values, bounds) as arrays over the sequence ``s``.
    """
    s = np.asarray(s, dtype=float)
    n = m0 + _EM_N - 1
    k = np.arange(float(m0), n)
    parts = [k[None, :] ** -s[:, None],
             (n ** (1.0 - s) / (s - 1.0))[:, None], (0.5 * n ** -s)[:, None]]
    rising = s.copy()  # (s)_{2m-1}
    npow = n ** (1.0 - s)
    for m, b in enumerate(_EM_B, 1):
        npow = npow / (n * n)
        parts.append((b * rising * npow)[:, None])
        rising = rising * (s + 2 * m - 1) * (s + 2 * m)
    terms = np.concatenate(parts, axis=1)
    rem = 2.00002 * (2 * math.pi) ** -17 * rising / (s + 16) * n ** (-s - 16.0)
    return terms.sum(axis=1), rem + 36 * EPS * np.abs(terms).sum(axis=1)


@dataclass(frozen=True)
class _PhaseTable:
    """The part of the polylogarithms Li_q(e^{2 pi i b}) at q = order + 1/2 + i,
    i = 0..top, that does not depend on the phase (see :func:`_polylogs`).

    ``series`` has one row per j = 0..depth and three blocks of top + 1
    columns: the real and imaginary parts of the series' coefficients
    zeta(q_i - j) i^j, and their bound weights.  ``integer`` tells whether
    every q is an integer (the harmonic/log form); ``sing`` holds the per-i
    factors of the rest of the singular term, a row per block (3 x 3 x (top
    + 1) at integer q: for 1, ln(2 pi b), |ln(2 pi b)|).  ``q`` serves the callers.
    """

    depth: int
    series: np.ndarray
    integer: bool
    sing: np.ndarray
    q: np.ndarray


@lru_cache(maxsize=32)
def _phase_table(order: float, top: int) -> _PhaseTable:
    """The phase-independent part of :func:`_polylogs`, cached per (order, top).

    zeta(s) comes from :func:`_zeta_em` for s > 0, from the functional
    equation zeta(s) = 2 (2 pi)^{s-1} cos(pi (1-s)/2) Gamma(1-s) zeta(1-s)
    (DLMF 25.4.1) for s < 0, and zeta(0) = -1/2; the pole s = 1 holds 0.
    The singular term is c_n i^n (H_n + i pi/2 - ln(2 pi b)) at integer q,
    n = q - 1, within EPS c_n ((2n + 4) |H_n + i pi/2 - ln(2 pi b)| + H_n
    + |ln(2 pi b)| + 2), and Gamma(1-q) (2 pi b)^{q-1} e^{-i pi (q-1)/2}
    within (|q-1| + 26) EPS at other q, 2 EPS of each the final rounding
    of Li; ``sing`` holds its factors.  The bound weight of term j is the
    table's bound plus EPS times its size times 2j + 1 (c_j and its
    product), 2 (the final rounding of Li, as |Re| + |Im| of the series is
    at most sum_j |coefficient c_j|) and, for j >= 1, depth/2 + 1 (a sum
    of depth terms in any order, then the addition of the term j = 0).
    Row depth carries the remainder past it (see :func:`_polylogs`).
    """
    q = order + 0.5 + np.arange(top + 1, dtype=float)
    depth = min(math.floor(q[-1]) + 1 + 60, _J_CAP)
    s = order + 0.5 + np.arange(-depth, top + 1, dtype=float)
    zeta = np.zeros(s.size)
    err = np.zeros(s.size)
    pos = (s > 0) & (s != 1.0)
    zeta[pos], err[pos] = _zeta_em(s[pos], 1)
    zeta[s == 0.0] = -0.5
    neg = s < 0
    if neg.any():
        s1 = 1.0 - s[neg]
        z1, e1 = _zeta_em(s1, 1)
        # Gamma within 10 ulps and (2 pi)^-s1 within (s1/2 + 1) EPS; the
        # cosine is exact at integer s1, else within 4 EPS absolute
        mag = 2.0 * (2 * math.pi) ** -s1 * np.array([math.gamma(v) for v in s1]) * z1
        cos = _cos_half_pi(s1)
        zeta[neg] = mag * cos
        err[neg] = mag * (np.abs(cos) * (e1 / z1 + (s1 / 2 + 16) * EPS)
                          + np.where(s1 == np.floor(s1), 0.0, 4 * EPS))
    i, j = np.arange(top + 1), _J[:depth + 1, None]
    at = depth + i - j  # zeta(q_i - j)
    coef = zeta[at] * _I_POW[j % 4]
    err = err[at]
    integer = q[0] == math.floor(q[0])  # half-integer order: every q >= 1 is an integer
    if integer:
        # the factors of 1, ln(2 pi b) and |ln(2 pi b)|, with
        # |H_n - ln(2 pi b)| <= H_n + |ln(2 pi b)|
        n = (q - 1.0).astype(int)
        harmonic = np.array([math.fsum(1.0 / np.arange(1.0, v)) for v in q])
        i_n, zero = _I_POW[n % 4], np.zeros(q.size)
        const = i_n * (harmonic + 0.5j * math.pi)
        sing = np.array([[const.real, const.imag,
                          EPS * ((2 * n + 4) * (harmonic + 0.5 * math.pi) + harmonic + 2)],
                         [-i_n.real, -i_n.imag, zero], [zero, zero, EPS * (2 * n + 5.0)]])
    else:
        gamma = np.array([math.gamma(1.0 - v) for v in q])
        sing = np.array([gamma * _cos_half_pi(q - 1.0), -gamma * _cos_half_pi(q - 2.0),
                         EPS * np.abs(gamma) * (np.abs(q - 1.0) + 26)])
    size = np.abs(coef.real) + np.abs(coef.imag)
    weight = err + EPS * size * (2 * j + 3 + np.where(j, 0.5 * depth + 1, 0))
    # the remainder past depth, rem b^{depth+1} / (1 - b) with log rem =
    # log(pi^2/3) + (q-1) log(2 pi) + lgamma(depth+2-q) - lgamma(depth+2), is
    # at most rem depth! / (2 pi)^depth times c_depth (b <= 1/2), which is
    # within 4 (depth + 1) EPS of its rounded value, plus (depth + 1) 2^-1074
    # where the running product is subnormal; infinite where depth < q
    log_rem = (_LOG_PI2_3 + (q - 1.0) * _LOG_2PI - depth * _LOG_2PI + math.lgamma(depth + 1.0)
               - math.lgamma(depth + 2.0))
    rem = np.array([math.exp(v + math.lgamma(depth + 2.0 - w)) if depth >= w else math.inf
                    for v, w in zip(log_rem.tolist(), q.tolist())]) * (1.0 + 4 * (depth + 1) * EPS)
    weight[depth] += np.where(np.isfinite(rem), rem, 0.0)
    weight[0] += rem * ((depth + 1) * 2.0 ** -1074)
    series = np.concatenate((coef.real, coef.imag, weight), axis=1)
    for arr in (series, sing, q):  # shared by every caller through the cache
        arr.setflags(write=False)
    return _PhaseTable(depth, series, integer, sing, q)


def _polylogs(tab: _PhaseTable, b: np.ndarray):
    """Li_q(e^{2 pi i b}) at every q of ``tab``, one b in (0, 1/2] per row;
    Li_q(e^{-2 pi i b}) is its conjugate.  Returns (re, im, bounds), each
    rows x (top + 1), the three blocks of one rows x 3 x (top + 1) array, to
    which the singular term is added through ``tab.sing``.

    With w = 2 pi i b, |w| <= pi < 2 pi, the expansion (DLMF 25.12.12)

        Li_q(e^w) = Gamma(1-q) (-w)^{q-1} + sum_{j>=0} zeta(q-j) w^j / j!

    converges for every phase; for a positive integer q the Gamma term and
    the j = q-1 term become w^{q-1}/(q-1)! [H_{q-1} - ln(-w)].  Each row
    forms c_j = (2 pi b)^j / j! once, for j = 1..depth, and its series at
    every q, with their bounds, are one product of c with the table
    (:func:`_phase_table`) plus the table's term j = 0, which dominates at
    small b.  The omitted terms j > depth >= q are bounded
    through |zeta(1-s)| <= 2 (2 pi)^-s Gamma(s) zeta(s) (DLMF 25.4.2): term
    j is at most 2 zeta(2) (2 pi)^{q-1} b^j Gamma(j-q+1)/Gamma(j+1), a
    majorant of ratio at most b for q > 0, whose sum the table charges to
    c_depth.  numpy's matmul takes the rows one vector-matrix product at a
    time, so a row's values and bounds do not depend on the other rows.
    """
    top = tab.q.size
    a = 2.0 * math.pi * b
    # c_1..c_depth, (2 pi b)^j / j! within 2j EPS
    c = (a[:, None] / _J[1:tab.depth + 1]).cumprod(axis=1)
    series = (c[:, None, :] @ tab.series[1:])[:, 0] + tab.series[0]
    blocks = series.reshape(b.size, 3, top)  # re, im, bounds: a view of series
    if tab.integer:
        n = int(tab.q[0]) - 1
        cn = (c[:, n - 1:n - 1 + top] if n else  # c_0 = 1
              np.concatenate((np.ones((b.size, 1)), c[:, :top - 1]), axis=1))
        if cn.shape[1] < top:
            # c_j past the depth (half-integer orders from 81.5) is left 0: those
            # q exceed the depth, so their remainder bound is already infinite
            cn = np.pad(cn, ((0, 0), (0, top - cn.shape[1])))
        lw = np.log(a)[:, None, None]
        blocks += cn[:, None, :] * (tab.sing[0] + lw * tab.sing[1] + abs(lw) * tab.sing[2])
    else:
        blocks += a[:, None, None] ** (tab.q - 1.0) * tab.sing
    return blocks[:, 0], blocks[:, 1], blocks[:, 2]


def _phase_tails(order: float, top: int, beta):
    """sum_{k>=1} e^{2 pi i beta k} k^{-q} at every q = order + 1/2 + i,
    i = 0..top, with certified absolute bounds; ``beta`` is one phase per
    row, in [-1/2, 1/2], and 0 only where every q > 1.  Returns (re, im,
    bounds), each rows x (top + 1).

    At beta != 0 the sum is the polylogarithm Li_q(z) (:func:`_polylogs`),
    at beta = 0 it is zeta(q) (:func:`_zeta_em`).  Every entry's sums run
    over widths of its own, so a row does not depend on the other rows.
    """
    tab = _phase_table(order, top)
    beta = np.asarray(beta, dtype=float).reshape(-1)
    b = abs(beta)
    if b.all():
        re, im, bounds = _polylogs(tab, b)
    else:
        phase = b > 0.0
        re, im, bounds = (np.zeros((b.size, top + 1)) for _ in range(3))
        if phase.any():
            re[phase], im[phase], bounds[phase] = _polylogs(tab, b[phase])
        re[~phase], bounds[~phase] = _zeta_em(tab.q, 1)
    im *= np.sign(beta)[:, None]  # Li_q(conj z) = conj Li_q(z); 0 on zeta rows
    return re, im, bounds


# ---------------------------------------------------------------------------
# the alternating Bessel sum
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _tail_columns(order: float, width: int):
    """Per column i < ``width`` of the Hankel terms of :func:`_alt_sum_tail`:
    the majorant sum_{k>=1} k^-q <= q/(q - 1) at q = order + 1/2 + i (0 in
    columns 0 and 1, never a first omitted term); and top, the last column
    a retained term can take (width - 2, as the last column can only be
    omitted, or the last nonzero a_i, i = order - 1/2, at half-integer
    orders, where the expansion terminates), with the real and imaginary
    parts of e^{-i omega} i^i at i = 0..top."""
    i = np.arange(width)
    q = order + 0.5 + np.maximum(i, 2)
    top = width - 2 if order % 1 == 0 else int(order - 0.5)
    rot = cmath.exp(-1j * (math.pi * order / 2.0 + math.pi / 4.0)) * _I_POW[i[:top + 1] % 4]
    arrays = (np.where(i < 2, 0.0, q / (q - 1.0)), rot.real, rot.imag)
    for arr in arrays:  # shared by every caller through the cache
        arr.setflags(write=False)
    return (top, *arrays)


@np.errstate(over="ignore", invalid="ignore")  # overflowing rows come out (0, inf)
def _alt_sum_tail(order: float, R, beta):
    """The whole sum, analytically, via Hankel + phase sums.

    ``R`` and ``beta`` are 1-D arrays, one row each, with beta = frac(R) -
    1/2: (-1)^k e^{2 pi i k frac(R)} = e^{2 pi i beta k}.  Returns (values,
    bounds) as lists over the rows.  Each row's Hankel expansion is cut
    where its first term k = 1, at x = 2 pi R, needs it
    (:func:`_hankel_plan`, whose masks give the retained and the first
    omitted columns), and its term i, a_i (2 pi R)^-i i^i, multiplies the
    phase sum at q = order + 1/2 + i; the phase sums of all rows are one
    call (:func:`_phase_tails`), over the q of every term the plan may
    retain (:func:`_tail_columns`).  Every sum runs over a width fixed by
    the order, so a row does not depend on the other rows; the rows are
    scaled by 1/(pi sqrt(R)) one at a time, in Python floats.
    """
    coef, mag, kept, omitted = _hankel_plan(order, 2.0 * math.pi * R, 18)
    top, majorant, rot_re, rot_im = _tail_columns(order, coef.shape[1])
    # Hankel remainder summed over k (integral-test zeta bounds), the two
    # first omitted terms of each row
    hankel = np.where(omitted, mag * majorant, 0.0).sum(1)
    re, im, tb = _phase_tails(order, top, beta)
    kept = kept[:, :top + 1]
    terms = np.where(kept, coef[:, :top + 1], 0.0) * (rot_re * re - rot_im * im)
    retained = np.where(kept, mag[:, :top + 1] * tb, 0.0).sum(1)
    tails, bounds = [], []
    for r, row, rem, size in zip(R.tolist(), terms.tolist(), hankel.tolist(), retained.tolist()):
        # Hankel terms that overflow (large orders at small R) leave a row (0,
        # inf): its remainder, past every retained term, is not finite.  A
        # retained term that underflowed to 0 (large orders at large R) beside
        # a phase sum of infinite bound makes the bound 0 inf = nan: it is inf
        scale = (1.0 / math.pi) / math.sqrt(r)
        tails.append(scale * math.fsum(row) if math.isfinite(rem) else 0.0)
        bound = scale * (size + rem)
        bounds.append(math.inf if math.isnan(bound) else bound)
    return tails, bounds


def alternating_bessel_sums(order: float, R, phase=None) -> list:
    """sum_{k>=1} (-1)^k k^{-order} J_order(2 pi k R) at every R of a
    sequence, for one order, each with the certified bound it reached.

    Returns one entry per R: the ``BesselEval`` at argument 2 pi R, or the
    ``PrecisionExhausted`` of a divergent sum (order <= 1/2 at frac(R) =
    1/2), returned, not raised.  No row is judged against a target: each
    caller accepts or rejects the bounds, which are inf where the expansion
    bounds nothing.  Every row is one batched :func:`_alt_sum_tail` call:
    the whole sum is Hankel's expansion cut at x = 2 pi R times
    polylogarithms.  Half-integer orders, whose expansion terminates,
    resolve at every R where rounding allows.  A row's value and bound do
    not depend on the other rows.

    ``phase``, where the caller knows frac(R) better than R - floor(R), is
    one pair (f, q) per R, 0 <= f < q, whose exact quotient f/q is
    frac(R): for R = r/delta, (fmod(r, delta), delta), as fmod is exact.
    The rounding of R itself, up to ulp(R)/2, would move the phases
    2 pi k frac(R) far past the certified bound at large R; the amplitudes
    take R.  From the pair, frac(R) = f/q and beta = frac(R) - 1/2 =
    (f - q/2)/q each carry one rounding (f - q/2 is exact wherever beta is
    small), so that beta keeps its relative accuracy near frac(R) = 1/2,
    where the polylogarithms' |beta|^(order - 1/2) terms are steep for
    orders up to 3/2.  f/q never rounds up to 1: below q the largest double
    is at most q (1 - 2^-53).
    """
    _require_half_integer(order)
    Rs = [float(r) for r in R]
    if not all(r > 0 for r in Rs):
        raise ValueError("need R > 0")
    pairs = ([(r - math.floor(r), 1.0) for r in Rs] if phase is None
             else [(float(f), float(q)) for f, q in phase])
    if len(pairs) != len(Rs) or any(not 0.0 <= f < q for f, q in pairs):
        raise ValueError("phase must be one pair (f, q) with 0 <= f < q per R")
    out: list = [None] * len(Rs)
    live = []  # (row, R, beta) of the rows the whole sum serves
    for row, (r, (f, q)) in enumerate(zip(Rs, pairs)):
        b = (f - 0.5 * q) / q
        if order == 0.5 and f == 0.0:
            # every term is sqrt(2/(pi x)) sin(2 pi k R) = 0 exactly
            out[row] = BesselEval(order, 2.0 * math.pi * r, 0.0, 0.0)
        elif order <= 0.5 and b == 0.0:
            out[row] = PrecisionExhausted(
                f"sum with p={order} at eps=1/2 reduces to a divergent zeta series")
        else:
            live.append((row, r, b))
    if live:
        rows, live_R, live_beta = zip(*live)
        tails, bounds = _alt_sum_tail(order, np.array(live_R), np.array(live_beta))
        for row, value, bound in zip(rows, tails, bounds):
            out[row] = BesselEval(order, 2.0 * math.pi * Rs[row], value, bound)
    return out


def alternating_bessel_sum_info(order: float, R: float, tol: float):
    """Certified sum_{k>=1} (-1)^k k^{-order} J_order(2 pi k R) as ``(BesselEval,
    0)``: the one row of :func:`alternating_bessel_sums` at R, judged against
    ``tol``, else ``PrecisionExhausted`` with the bound reached.  The 0, the
    number of terms summed directly, is kept for the span counts of
    ``perfbench/tracing.py``, which read it; the whole sum comes analytically
    from the Hankel expansion as unit-modulus phase sums."""
    tol = float(tol)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    (ev,) = alternating_bessel_sums(order, [R])
    if isinstance(ev, PrecisionExhausted):
        raise ev
    if not ev.abs_error_bound <= tol:
        raise PrecisionExhausted(f"alternating Bessel sum (order={order}, R={float(R)}) "
                                 f"reached bound {ev.abs_error_bound:.3e} > tol {tol:.3e}",
                                 achieved=ev.abs_error_bound)
    return ev, 0
