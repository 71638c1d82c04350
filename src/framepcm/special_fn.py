"""Self-contained Bessel-function machinery with certified error bounds.

Four evaluation routes for J_alpha (alpha a nonnegative multiple of 1/2,
the only orders the package needs), each returning a value together with a
rigorous absolute error bound so that independent routes can be checked
against each other:

* ``bessel_series``      -- the defining alternating power series, with the
  alternating-series tail bound plus an explicit rounding budget.  Only
  certifiable in binary64 for moderate arguments (cancellation grows like
  e^x), so the other routes take over for large x.
* ``bessel_integral_int_order`` -- for integer order, one Gauss-Legendre
  rule on (1/pi) int_0^pi cos(n*t - x sin t) dt, its size chosen a priori
  from the Bernstein-ellipse bound for analytic integrands.
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

with a certified bound at many R for one alpha at once: the rows
share the tables and the K ladder, and each row's sums run over widths of
its own, so its result does not depend on the other rows.
``alternating_bessel_sum_info`` is its one-row case, and returns the
truncation index K beside the value.  Direct summation is hopeless for
small alpha (the certified tail decays like K^{-alpha+1/2}), so the tail is
*computed*: the
Hankel expansion turns it into a handful of phase sums
sum_{k>K} z^k k^{-q} with |z| = 1, all at q = alpha + 1/2 + integer.  The
first rung of the K ladder is K = 0, where the tail is the whole sum and
Hankel's expansion is cut at the smallest argument, 2 pi R; that serves
every R where the expansion's remainder there meets the target (every R
for half-integer alpha, where it terminates), and the ladder climbs to
K = 64, 256, ... elsewhere.  For
z = e^{2 pi i beta} != 1 each phase sum is Li_q(z) minus the head
sum_{k<=K} (no head at K = 0), with
the polylogarithm from its expansion in w = 2 pi i beta (DLMF 25.12.12;
the harmonic/log form at integer q), which converges for every phase once
beta is reduced to (-1/2, 1/2].  The expansion's zeta(q - j) come from
one table of zeta(alpha + 1/2 + t) per tail (Euler-Maclaurin for positive
arguments, the functional equation DLMF 25.4.1 for negative ones), so all
q of a tail are one gather and one row-sum; the omitted terms are bounded
through DLMF 25.4.2.  Li - head is accurate only in absolute terms, so
where K > 0 and the trivial bound K^{1-q}/(q-1) is smaller the tail is
taken as 0 with that bound.  At z = 1 the phase sum is a Hurwitz zeta tail from the
same Euler-Maclaurin routine that fills the table.  The direct part
k <= K is evaluated as arrays over k by the Hankel sums that also serve
``bessel_large_x``: one table of terms a_j / x_k^j, built as running
ratios so that no power of x can overflow (at huge x they underflow), cut
per row by the first-omitted-term rule.
"""

from __future__ import annotations

import bisect
import cmath
import math
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

# Largest per-term argument that ``_alt_sum_direct`` evaluates by the
# series; beyond it the Hankel expansion is both cheaper and tighter.
_SERIES_AUTO_X = 12.0
# ``bessel_integral_int_order``: the node counts it may use (16 {1, 3/2} 2^k
# up to its budget of 8192), the quadrature error it targets, and the
# ellipse parameters rho it tries, 1 + 2^{j/2 - 4} for j = 0..14 (the best
# rho falls towards 1 as x grows: about 1.5 at x = 400, 1.13 at x = 1e4)
_INT_ORDER_LADDER = (16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048,
                     3072, 4096, 6144, 8192)
_INT_ORDER_TARGET = EPS
_INT_ORDER_RHO = 1.0 + 2.0 ** (np.arange(15) / 2.0 - 4.0)
# the m that meets the target at rho is n A + x B + C, with A = eta / (2 log rho),
# B = sinh(eta) / (2 log rho), C = 1 + log((32/15) / ((rho^2 - 1) target)) / (2 log rho)
_eta = math.pi * (_INT_ORDER_RHO - 1.0 / _INT_ORDER_RHO) / 4.0
_lr2 = 2.0 * np.log(_INT_ORDER_RHO)
_INT_ORDER_A = _eta / _lr2
_INT_ORDER_B = np.sinh(_eta) / _lr2
_INT_ORDER_C = 1.0 + np.log(32.0 / 15.0 / ((_INT_ORDER_RHO ** 2 - 1.0) * _INT_ORDER_TARGET)) / _lr2
del _eta, _lr2


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
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
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

    t = (x / 2.0) ** order / _gamma_order_plus_1(order, twice)
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
    value = math.fsum(terms)
    bound = tail + rounding + 2 * EPS * abs(value)
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

def _int_order_nodes(n: int, x: float):
    """The node count of :func:`bessel_integral_int_order` at (n, x), or None
    past the budget ``_INT_ORDER_LADDER[-1]``.

    The integrand g(s) = cos(n t - x sin t), t = pi (s + 1)/2, is entire:
    on the Bernstein ellipse E_rho |Im t| <= eta = pi (rho - 1/rho)/4, so
    |g| <= cosh(n eta + x sinh eta) <= e^{n eta + x sinh eta}.  The
    m-point rule errs on (1/2) int g by at most
    (32/15) e^{n eta + x sinh eta} rho^{-2(m-1)} / (rho^2 - 1) (Trefethen,
    ATAP Thm 19.3); the smallest m over ``_INT_ORDER_RHO`` that takes this
    below ``_INT_ORDER_TARGET`` is rounded up on the ladder.
    """
    need = float((n * _INT_ORDER_A + x * _INT_ORDER_B + _INT_ORDER_C).min())
    i = bisect.bisect_left(_INT_ORDER_LADDER, need)
    return _INT_ORDER_LADDER[i] if i < len(_INT_ORDER_LADDER) else None


def bessel_integral_int_order(n: int, x: float) -> BesselEval:
    """J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt by one Gauss-Legendre rule.

    The integrand is entire, so the rule's size follows a priori from the
    Bernstein-ellipse bound (:func:`_int_order_nodes`) before any node is
    built, and a J_n(x) past the 8192-node budget (x beyond ~1e4) raises
    ``PrecisionExhausted`` without building one.  The bound is the
    quadrature target plus a rounding allowance: 4 m EPS for the m-term
    sum, the weights and the nodes, and 10 (x + n) EPS for the rounding of
    the argument n t - x sin t, whose size is up to n pi + x.  Serves as an
    independent oracle for the series route.
    """
    if n != int(n) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if not x >= 0:  # nan too
        raise ValueError("argument must be nonnegative")
    n = int(n)
    m = _int_order_nodes(n, x)
    if m is None:
        raise PrecisionExhausted(
            f"quadrature for J_{n}({x}) needs more than {_INT_ORDER_LADDER[-1]} nodes")
    nodes, weights = gauss_legendre(m)
    t = 0.5 * math.pi * (nodes + 1.0)
    val = 0.5 * float(np.dot(weights, np.cos(n * t - x * np.sin(t))))
    return BesselEval(n, x, val, _INT_ORDER_TARGET + (4 * m + 10 * (x + n)) * EPS)


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
    j0 = math.sin(x) / x
    b0 = 8 * EPS / x
    if n == 0:
        v = scale * j0
        return BesselEval(order, x, v, scale * b0 + 4 * EPS * (abs(v) + 1.0 / scale))
    j1 = math.sin(x) / (x * x) - math.cos(x) / x
    b1 = 8 * EPS * (1.0 / (x * x) + 1.0 / x)
    for m in range(1, n):
        fac = (2 * m + 1) / x
        j2 = fac * j1 - j0
        b2 = fac * b1 + b0 + 4 * EPS * (abs(fac * j1) + abs(j0))
        j0, b0, j1, b1 = j1, b1, j2, b2
    v = scale * j1
    return BesselEval(order, x, v, scale * b1 + 4 * EPS * (abs(v) + 1.0 / scale))


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
    sqrt(2)/2; (0 < x < sqrt(mu), order > 1/2) -> 5/4.
    """
    if not x > 0:
        raise ValueError("need x > 0")
    omega = math.pi * order / 2.0 + math.pi / 4.0
    mu = abs(order * order - 0.25)
    c = _branch_c(order, x, mu)
    main = math.sqrt(2.0 / (math.pi * x)) * math.cos(x - omega)
    return AsymptoticEnvelope(
        order=order,
        argument=x,
        main_term=main,
        omega=omega,
        mu=mu,
        c=c,
        residual_bound=c * mu * x ** -1.5,
    )


# ---------------------------------------------------------------------------
# Hankel expansion (large argument), with first-omitted-term remainders
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _hankel_coeffs(order: float, jmax: int) -> tuple[float, ...]:
    """a_0..a_jmax with a_j = prod_{i<=j} (4 order^2 - (2i-1)^2) / (8^j j!)."""
    a = [1.0]
    for j in range(1, jmax + 1):
        a.append(a[-1] * (4.0 * order * order - (2 * j - 1) ** 2) / (8.0 * j))
    return tuple(a)


@lru_cache(maxsize=128)
def _hankel_ratios(order: float, jmax: int) -> np.ndarray:
    """a_j / a_{j-1} = (4 order^2 - (2j-1)^2) / (8j) for j = 1..jmax."""
    j = np.arange(1, jmax + 1)
    ratios = (4.0 * order * order - (2 * j - 1) ** 2) / (8.0 * j)
    ratios.setflags(write=False)  # shared by every caller through the cache
    return ratios


def _hankel_plan(order: float, x, spare: int):
    """Coefficients, terms and truncation points of the Hankel sums P, Q.

    ``x`` is an argument or a 1-D array of them.  Returns (a, terms, lp,
    lq): a = a_0..a_jmax, ``terms[i, j] = a_j / x_i^j`` built as running
    ratios (a power of x is never formed, so large x underflows the terms
    instead of overflowing), and per argument P keeps lp terms, Q keeps lq.
    For real order >= 0 and x > 0 the remainder after the retained terms
    is bounded by the first omitted term provided enough terms are kept
    (2*lp >= order - 1/2 for P, 2*lq + 1 >= order - 1/2 for Q; DLMF
    10.17(iii)); both conditions are enforced, then the truncation point is
    pushed, by at most ``spare`` coefficients, while the omitted term keeps
    shrinking.
    """
    lp_min = max(1, math.ceil((order - 0.5) / 2.0))
    lq_min = max(1, math.ceil((order - 1.5) / 2.0))
    jmax = 2 * max(lp_min, lq_min) + spare
    x = np.atleast_1d(x)
    terms = np.empty((x.size, jmax + 1))
    terms[:, 0] = 1.0
    np.divide(_hankel_ratios(order, jmax), x[:, None], out=terms[:, 1:])
    np.cumprod(terms, axis=1, out=terms)
    mag = np.abs(terms)
    # the candidate omitted terms of P are the columns 0, 2, ..., of Q the
    # columns 1, 3, ...; a cut stops at the first candidate whose successor
    # (two columns on) does not shrink, or at the last one, which has none
    stop = np.ones(terms.shape, dtype=bool)
    np.greater_equal(mag[:, 2:], mag[:, :-2], out=stop[:, :-2])
    lp = lp_min + np.argmax(stop[:, 2 * lp_min::2], axis=1)
    lq = lq_min + np.argmax(stop[:, 2 * lq_min + 1::2], axis=1)
    return _hankel_coeffs(order, jmax), terms, lp, lq


def _hankel_sums(order: float, x):
    """Partial Hankel sums P, Q with certified remainders, as arrays over x.

    Returns (P, Q, bound_P, bound_Q), each row truncated by
    :func:`_hankel_plan`; the bound is the first omitted term plus 4 EPS
    per retained term of the retained |terms| of P and Q summed, at least
    a_0 = 1 (near x = 12 the terms of order 30 reach 1e10).
    """
    _, terms, lp, lq = _hankel_plan(order, x, 26)
    even, odd = terms[:, 0::2], terms[:, 1::2]
    m = np.arange(odd.shape[1])
    sign = np.where(m % 2, -1.0, 1.0)
    kept_p = np.where(m < lp[:, None], even[:, :m.size], 0.0)
    kept_q = np.where(m < lq[:, None], odd, 0.0)
    P, Q = (sign * kept_p).sum(axis=1), (sign * kept_q).sum(axis=1)
    size = np.abs(kept_p).sum(axis=1) + np.abs(kept_q).sum(axis=1)
    rows = np.arange(terms.shape[0])
    bP = np.abs(even[rows, lp]) + 4 * lp * EPS * size
    bQ = np.abs(odd[rows, lq]) + 4 * lq * EPS * size
    return P, Q, bP, bQ


def _hankel_combine(amp, cos_chi, sin_chi, P, Q, bP, bQ, chi_err):
    """amp [cos(chi) P - sin(chi) Q] and its certified bound, for floats or arrays.

    ``amp`` is sqrt(2/(pi x)); ``chi`` is the phase x - omega, possibly
    reduced mod 2 pi, and ``chi_err`` bounds its rounding;
    |d value/d chi| <= amp*(|P|+|Q|).
    """
    value = amp * (cos_chi * P - sin_chi * Q)
    bound = amp * (bP + bQ) + amp * (abs(P) + abs(Q)) * chi_err + 4 * EPS * abs(value)
    return value, bound


def bessel_large_x(order: float, x: float) -> BesselEval:
    """J_order(x) from Hankel's expansion; certified, exact for half-integers.

    value = sqrt(2/(pi x)) [cos(x - omega) P - sin(x - omega) Q].  Intended
    for x comfortably above the order; the bound honestly blows up when the
    expansion cannot reach precision.
    """
    if not x > 0:
        raise ValueError("need x > 0")
    _require_half_integer(order)
    omega = math.pi * order / 2.0 + math.pi / 4.0
    chi = x - omega
    P, Q, bP, bQ = (float(v[0]) for v in _hankel_sums(order, x))
    # x - omega carries ~eps*x of rounding
    value, bound = _hankel_combine(math.sqrt(2.0 / (math.pi * x)), math.cos(chi),
                                   math.sin(chi), P, Q, bP, bQ, 2 * EPS * (x + 4.0))
    return BesselEval(order, x, value, bound)


# ---------------------------------------------------------------------------
# phase sums  sum_{k>K} z^k k^{-q}  (|z| = 1)
# ---------------------------------------------------------------------------

def _tail_majorant(q, K: int):
    """sum_{k>K} k^{-q} <= K^{1-q} / (q - 1), and <= 1 + 1/(q - 1) at K = 0,
    for q > 1 (floats or arrays)."""
    return q / (q - 1.0) if K == 0 else K ** (1.0 - q) / (q - 1.0)


# Euler-Maclaurin for zeta sums: the first _EM_N - 1 terms are summed and
# B_2 .. B_16 corrections taken, each B_2m already divided by (2m)!
_EM_N = 16
_EM_B = tuple(b / math.factorial(2 * m) for m, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), 1))
# deepest j of the polylogarithm series; keeps Gamma(1 - s) of the table finite
_J_CAP = 160
_I_POW = np.array([1.0, 1j, -1.0, -1j])  # i^j by j mod 4
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
    """The part of the phase tails at q = order + 1/2 + i, i = 0..top, that does
    not depend on the phase.  ``zeta[depth + t]`` is zeta(order + 1/2 + t) for
    t = -depth..top, ``zeta_err`` its absolute bound; per i: q, zeta(q) plus
    its bound, whether q is a positive integer, Gamma(1-q) (other q),
    H_{q-1} (integer q), and cos, sin of pi (q-1)/2; per (i, J), J <= depth,
    the parts of :func:`_j_remainder` that do not depend on the phase."""

    depth: int
    zeta: np.ndarray
    zeta_err: np.ndarray
    q: np.ndarray
    zeta_q_up: np.ndarray
    integer: np.ndarray
    gamma: np.ndarray
    harmonic: np.ndarray
    cos_q: np.ndarray
    sin_q: np.ndarray
    rem_log: np.ndarray
    rem_rho: np.ndarray


@lru_cache(maxsize=32)
def _phase_table(order: float, top: int) -> _PhaseTable:
    """The phase-independent part of :func:`_phase_tails`, cached per (order, top).

    zeta(s) comes from :func:`_zeta_em` for s > 0, from the functional
    equation zeta(s) = 2 (2 pi)^{s-1} cos(pi (1-s)/2) Gamma(1-s) zeta(1-s)
    (DLMF 25.4.1) for s < 0, and zeta(0) = -1/2; the pole s = 1 holds 0
    (integer q take that term from the harmonic/log form).
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
    integer = (q >= 1.0) & (q == np.round(q))
    gamma = np.array([0.0 if i else math.gamma(1.0 - v) for v, i in zip(q, integer)])
    harmonic = np.array([math.fsum(1.0 / np.arange(1.0, v)) if i else 0.0
                         for v, i in zip(q, integer)])
    # the remainder of the series cut at J: log(pi^2/3) + (q-1) log(2 pi)
    # + lgamma(J+2-q) - lgamma(J+2), infinite where J < q, and the factor
    # max(1, (J+2-q)/(J+2)) of its ratio (see _j_remainder); J + 2 - q is
    # (J - i) + 3/2 - order, so its lgamma takes one value per J - i
    J = np.arange(depth + 1)
    shift = np.arange(-top, depth + 1) + 1.5 - order
    lgamma_shift = np.array([math.lgamma(v) if v > 0 else math.inf for v in shift.tolist()])
    lgamma_top = lgamma_shift[J - np.arange(top + 1)[:, None] + top]
    rem_log = (np.where(J >= q[:, None], lgamma_top, math.inf)
               + (_LOG_PI2_3 + (q - 1.0) * _LOG_2PI)[:, None]
               - np.array([math.lgamma(v) for v in (J + 2.0).tolist()]))
    arrays = (zeta, err, q, zeta[depth:] + err[depth:], integer, gamma, harmonic,
              _cos_half_pi(q - 1.0), _cos_half_pi(q - 2.0), rem_log,
              np.maximum(1.0, (J + 2.0 - q[:, None]) / (J + 2.0)))
    for arr in arrays:  # shared by every caller through the cache
        arr.setflags(write=False)
    return _PhaseTable(depth, *arrays)


# per column j of the polylogarithm series: j, i^j and 2j + 1
_J = np.arange(_J_CAP + 1)
_J_I_POW = _I_POW[_J % 4]
_J_ROUNDINGS = 2 * _J + 1


def _j_remainder(tab: _PhaseTable, idx: np.ndarray, J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bound on sum_{j>J} |zeta(q-j)| (2 pi b)^j / j! for J >= q, b = |beta|,
    at q = order + 1/2 + idx of ``tab``, as arrays over (idx, J, b) entries.

    By |zeta(1-s)| <= 2 (2 pi)^-s Gamma(s) zeta(s) (DLMF 25.4.2), with
    zeta(s) <= zeta(2), term j is at most 2 zeta(2) (2 pi)^{q-1} b^j
    Gamma(j-q+1)/Gamma(j+1): a majorant whose ratio rho is b for q >= 0.
    Infinite where J < q (the table's depth ran out) or rho >= 1.
    """
    rho = b * tab.rem_rho[idx, J]
    rem = np.exp(tab.rem_log[idx, J] + (J + 1) * np.log(b)) / (1.0 - rho)
    return np.where(rho < 1.0, rem, math.inf)


@lru_cache(maxsize=64)
def _trivial_tails(order: float, top: int, K: int):
    """The trivial bounds on the tails of :func:`_phase_tails`, per q of
    ``_phase_table(order, top)``: K^{1-q}/(q-1), and the numerator of Abel's
    inequality |tail| <= (1 + 8 EPS) (K+1)^-q / sin(pi |beta|), which
    follows from |sum_{K<k<=n} z^k| <= 2/|1-z| = 1/sin(pi |beta|); both
    infinite where q <= 1."""
    q = _phase_table(order, top).q
    over = q > 1.0
    arrays = (np.where(over, _tail_majorant(np.where(over, q, 2.0), K), math.inf),
              np.where(over, (1.0 + 8 * EPS) * (K + 1.0) ** -q, math.inf))
    for arr in arrays:  # shared by every caller through the cache
        arr.setflags(write=False)
    return arrays


def _polylog(tab: _PhaseTable, idx: np.ndarray, beta: np.ndarray):
    """Li_q(e^{2 pi i beta}) at every q = order + 1/2 + idx of ``tab``, one
    beta per entry, in [-1/2, 1/2] but not 0.  Returns (values, bounds) as
    arrays over idx.

    With w = 2 pi i beta, |w| <= pi < 2 pi,
    so the polylogarithm expansion (DLMF 25.12.12)

        Li_q(e^w) = Gamma(1-q) (-w)^{q-1} + sum_{j>=0} zeta(q-j) w^j / j!

    converges for every phase; for a positive integer q the Gamma term and
    the j = q-1 term become w^{q-1}/(q-1)! [H_{q-1} - ln(-w)].  Every q is
    order + 1/2 + integer, so one table of zeta(order + 1/2 + t)
    (:func:`_phase_table`) serves them all and the series is one gather and
    one row-sum.  Row q stops at J_q >= q, where |beta|^j has fallen by
    2^-52; the omitted terms are bounded through |zeta(1-s)| <=
    2 (2 pi)^-s Gamma(s) zeta(s) (DLMF 25.4.2) by a geometric majorant of
    ratio |beta|.  The bound adds that remainder to the rounding of the
    zeta table, the series and the singular term.  The series is summed
    left to right, so an entry's value and bound do not depend on the
    other entries.
    """
    b = np.abs(beta)
    q = tab.q[idx]
    # the series, each row cut at J_q (the columns past it hold exact zeros)
    # and summed left to right, so that its sum does not depend on the
    # other rows' J
    jq = np.minimum((np.floor(q) + 1 + np.ceil(52 * math.log(2) / -np.log(b))).astype(int),
                    tab.depth)
    width = int(jq.max()) + 1
    keep = _J[:width] <= jq[:, None]
    at = tab.depth + idx[:, None] - _J[:width]
    zg = tab.zeta[at] * keep
    x = 2.0 * math.pi * beta
    c = np.ones((x.size, width))  # x^j / j!, within 2j EPS
    np.divide(x[:, None], _J[1:width], out=c[:, 1:])
    np.cumprod(c, axis=1, out=c)
    zc = zg * c
    series = np.cumsum(zc * _J_I_POW[:width], axis=1)[:, -1]
    # per term (2j + 1) EPS, and J_q/2 EPS of the row sum for its summation
    series_err = np.cumsum(tab.zeta_err[at] * keep * np.abs(c) + EPS * np.abs(zc) * (
        _J_ROUNDINGS[:width] + 0.5 * jq[:, None]), axis=1)[:, -1]

    # the singular term: the harmonic/log form for integer q, else
    # Gamma(1-q) (-w)^{q-1} = Gamma(1-q) (2 pi b)^{q-1} e^{-i pi sign (q-1)/2};
    # each form is evaluated only when some q takes it
    integer = tab.integer[idx]
    sign = np.copysign(1.0, beta)
    sing = sing_err = None
    if integer.any():
        n = np.where(integer, q, 1.0).astype(int) - 1
        cn = c[np.arange(n.size), n]
        lw = np.log(2.0 * math.pi * b)
        bracket = tab.harmonic[idx] - lw + 0.5j * math.pi * sign
        sing = cn * _I_POW[n % 4] * bracket
        sing_err = EPS * np.abs(cn) * ((2 * n + 2) * np.abs(bracket) + tab.harmonic[idx]
                                       + np.abs(lw) + 2)
    if not integer.all():
        power = tab.gamma[idx] * (2.0 * math.pi * b) ** (q - 1.0) * (
            tab.cos_q[idx] - 1j * sign * tab.sin_q[idx])
        power_err = EPS * np.abs(power) * (np.abs(q - 1.0) + 24)
        sing = power if sing is None else np.where(integer, sing, power)
        sing_err = power_err if sing_err is None else np.where(integer, sing_err, power_err)

    return series + sing, (series_err + sing_err + _j_remainder(tab, idx, jq, b)
                           + 2 * EPS * (np.abs(series) + np.abs(sing)))


def _phase_tails(order: float, top: int, idx: np.ndarray, beta, K: int):
    """sum_{k>K} e^{2 pi i beta k} k^{-q} at every q = order + 1/2 + idx, with
    certified absolute bounds; ``beta`` is one phase or one per entry of
    ``idx`` (a (row, q) pair each), in [-1/2, 1/2] but not 0; ``idx`` lies
    in 0..top.  Returns (values, bounds) as arrays over idx.

    At K = 0 the tail is the polylogarithm Li_q(z) itself
    (:func:`_polylog`).  Past K it is Li_q(z) minus the head
    sum_{k<=K} z^k k^-q, one (rows x K) matrix of weights against phases
    taken from beta k reduced exactly mod 1, and the bound adds the
    rounding of the head and its phases.

    Li - head is accurate only to about 1e-15 absolute, so for q > 1 the
    trivial |tail| <= min(K^{1-q}/(q-1), (K+1)^-q / sin(pi |beta|)) (the
    integral test; Abel's inequality) is returned, with value 0, wherever
    it is the smaller bound; the head of such a row is not computed.

    The head is summed over its K columns, so an entry's value and bound
    do not depend on the other entries.
    """
    tab = _phase_table(order, top)
    beta = beta + np.zeros(idx.size)
    if K == 0:
        return _polylog(tab, idx, beta)
    q = tab.q[idx]
    over = q > 1.0
    values = np.zeros(q.size, dtype=complex)
    majorant, abel = _trivial_tails(order, top, K)
    bounds = np.minimum(majorant[idx], abel[idx] / np.sin(math.pi * np.abs(beta)))
    # rounding of the head per unit weight: ~18 EPS per term (the phase, its
    # cos/sin, the power, the product) and (9 + log2(K)/2) EPS of numpy's
    # pairwise summation.  For q > 1 the weights sum to less than zeta(q),
    # so on rows not live this alone would exceed the trivial bound.
    head_scale = (K.bit_length() + 24) * EPS
    zq = tab.zeta_q_up[idx]
    live = np.flatnonzero(~over | (head_scale * 2.0 * zq <= bounds))
    if live.size == 0:
        return values, bounds
    idx, q, zq, over, beta = idx[live], q[live], zq[live], over[live], beta[live]
    li, fixed = _polylog(tab, idx, beta)
    use = ~over | (fixed + head_scale * 2.0 * zq <= bounds[live])
    if use.any():
        rows = live[use]
        k = _direct_weights(order, K)[0]
        # one row of phases per run of equal beta (the entries of one row)
        beta = beta[use]
        first = np.empty(beta.size, dtype=bool)
        first[0] = True
        np.not_equal(beta[1:], beta[:-1], out=first[1:])
        phases = beta[first]
        beta_hi = np.round(phases * (1 << 26))[:, None] / (1 << 26)  # k * beta_hi is exact below 2^26
        theta = (2.0 * math.pi) * (np.mod(k * beta_hi, 1.0) + k * (phases[:, None] - beta_hi))
        which = np.cumsum(first) - 1
        weights = k ** -q[use, None]
        head = ((weights * np.cos(theta)[which]).sum(axis=1)
                + 1j * (weights * np.sin(theta)[which]).sum(axis=1))
        values[rows] = li[use] - head
        bounds[rows] = fixed[use] + head_scale * weights.sum(axis=1) + 2 * EPS * np.abs(head)
    return values, bounds


# ---------------------------------------------------------------------------
# the alternating Bessel sum
# ---------------------------------------------------------------------------

# the direct-part sizes K the alternating sum tries, smallest first; at
# K = 0 there is no direct part
_K_LADDER = (0, 64, 256, 1024, 4096, 16384)


@lru_cache(maxsize=64)
def _direct_weights(order: float, K: int):
    """k = 1..K, k^-order, (-1)^k k^-order and 4 EPS k^-order, the weights of the
    direct part."""
    k = np.arange(1, K + 1, dtype=float)
    w = k ** (-order)
    arrays = (k, w, np.where(k % 2, -w, w), 4 * EPS * w)
    for arr in arrays:  # shared by every caller through the cache
        arr.setflags(write=False)
    return arrays


def _alt_sum_direct(order: float, R, eps_frac, K: int):
    """sum_{k=1}^{K} (-1)^k k^{-order} J_order(2 pi k R) with certified bounds.

    ``R`` and ``eps_frac`` (its fractional part) are floats or 1-D arrays,
    one row each; returns (values, bounds) as arrays over the rows.
    Evaluated as (rows x K) arrays over k.  Terms with x = 2 pi k R beyond
    ``_SERIES_AUTO_X`` come from :func:`_hankel_sums`, each cut by the
    first-omitted-term rule; the few k below it take the series.  Each
    row's sums run over its own K terms, so a row does not depend on the
    other rows.
    """
    omega = math.pi * order / 2.0 + math.pi / 4.0
    R, eps_frac = np.atleast_1d(R), np.atleast_1d(eps_frac)
    k, w, signed_w, rounding_w = _direct_weights(order, K)
    x = (2.0 * math.pi * R)[:, None] * k
    # the Hankel terms, at x = 12 in place of the arguments of series terms
    P, Q, bP, bQ = (s.reshape(x.shape)
                    for s in _hankel_sums(order, np.maximum(x, _SERIES_AUTO_X).ravel()))
    # reduced phase: 2 pi k R - omega == 2 pi k eps - omega (mod 2 pi)
    chi = 2.0 * math.pi * np.fmod(k * eps_frac[:, None], 1.0) - omega
    v, b = _hankel_combine(np.sqrt(2.0 / (math.pi * x)), np.cos(chi), np.sin(chi),
                           P, Q, bP, bQ, 2 * math.pi * EPS * (k + 4))
    if x[:, 0].min() <= _SERIES_AUTO_X:  # a leading run of some rows: x grows with k
        for row, i in zip(*np.nonzero(x <= _SERIES_AUTO_X)):
            ev = _series_eval(order, float(x[row, i]))
            # allowance for the argument itself being a rounded product
            v[row, i], b[row, i] = ev.value, ev.abs_error_bound + 2 * EPS * x[row, i]
    values = np.array([math.fsum(row) for row in (signed_w * v).tolist()])
    return values, (w * b + rounding_w * np.abs(v)).sum(axis=1)


def _alt_sum_tail(order: float, R, beta, K: int, tol):
    """Analytic continuation of the sums past k = K via Hankel + phase sums.

    ``R``, ``beta`` and ``tol`` are floats or 1-D arrays, one row each, with
    beta = frac(R) - 1/2: (-1)^k e^{2 pi i k frac(R)} = e^{2 pi i beta k}.
    Returns (values, bounds) as arrays over the rows.  The phase sums of all
    rows are one call; each row's coefficients and sums are its own.  At
    K = 0 the tail is the whole sum, and a row whose Hankel remainder alone
    exceeds its tol gets (0, inf) without phase sums: that remainder is a
    part of the bound the row would get.
    """
    omega = math.pi * order / 2.0 + math.pi / 4.0
    R, tol = np.atleast_1d(R), np.atleast_1d(tol)
    row_beta = np.atleast_1d(beta).tolist()
    # each row truncated where its first tail term k = K+1 needs it
    a, _, MP, MQ = _hankel_plan(order, (2.0 * math.pi * R) * (K + 1), 18)
    tails, errs = np.zeros(R.size), np.full(R.size, math.inf)
    rows, idx, coef, beta = [], [], [], []
    for row, (r, mp, mq) in enumerate(zip(R.tolist(), MP.tolist(), MQ.tolist())):
        twopiR = 2.0 * math.pi * r
        scale = 1.0 / (math.pi * math.sqrt(r))
        # Hankel remainder summed over the tail (integral-test zeta bounds)
        rem_p = abs(a[2 * mp]) * twopiR ** (-2 * mp) * _tail_majorant(order + 0.5 + 2 * mp, K)
        rem_q = (abs(a[2 * mq + 1]) * twopiR ** (-2 * mq - 1)
                 * _tail_majorant(order + 1.5 + 2 * mq, K))
        if K == 0 and scale * (rem_p + rem_q) > tol[row]:
            continue
        rows.append((row, scale, rem_p, rem_q, mp + mq, len(idx)))
        # phase sums at q = order + 1/2 + i: i = 2m for the P terms, which take
        # the real part of their rotated sum, 2m + 1 for the Q terms, which
        # take minus its imaginary part, Re(1j z) = -Im(z)
        row_idx = [*range(0, 2 * mp, 2), *range(1, 2 * mq, 2)]
        idx += row_idx
        coef += [(-1.0) ** (i // 2) * a[i] * twopiR ** -i * (1j if i % 2 else 1.0)
                 for i in row_idx]
        beta += [row_beta[row]] * len(row_idx)
    if not rows:
        return tails, errs
    # at frac(R) = 1/2 exactly (beta = 0) the phase sums are zeta tails
    some_at_half = 0.0 in beta
    idx, coef, beta = np.array(idx), np.array(coef), np.array(beta)
    if not some_at_half:
        tp, tb = _phase_tails(order, len(a) - 1, idx, beta, K)
    else:
        zeta = beta == 0.0
        tp = np.zeros(idx.size, dtype=complex)
        tb = np.zeros(idx.size)
        s = order + 0.5 + idx[zeta]
        values, bounds = _zeta_em(s, K + 1)
        # as in _phase_tails: the trivial bound where it is the smaller one
        trivial = _tail_majorant(s, K)
        tp[zeta], tb[zeta] = np.where(bounds < trivial, values, 0.0), np.minimum(bounds, trivial)
        if not zeta.all():
            tp[~zeta], tb[~zeta] = _phase_tails(order, len(a) - 1, idx[~zeta], beta[~zeta], K)
    terms = (coef * (cmath.exp(-1j * omega) * tp)).real.tolist()
    bounds = np.add.reduceat(np.abs(coef) * tb, [row[-1] for row in rows]).tolist()
    for (row, scale, rem_p, rem_q, n, lo), bound in zip(rows, bounds):
        tails[row] = scale * math.fsum(terms[lo:lo + n])
        errs[row] = scale * (bound + rem_p + rem_q)
    return tails, errs


def alternating_bessel_sums(order: float, R, tol, phase=None) -> list:
    """:func:`alternating_bessel_sum_info` at every R of an array, for one
    order.

    ``R`` and ``tol`` are sequences, one tol per R.  ``phase``, where the
    caller knows frac(R) better than R - floor(R), is one pair (f, q) per
    R, 0 <= f < q, whose exact quotient f/q is frac(R): for R = r/delta,
    (fmod(r, delta), delta), as fmod is exact.  The rounding of R itself,
    up to ulp(R)/2, would move the phases 2 pi k frac(R) far past the
    certified bound at large R; the amplitudes take R.  From the pair,
    frac(R) = f/q and beta = frac(R) - 1/2 = (f - q/2)/q each carry one
    rounding (f - q/2 is exact wherever beta is small), so that beta keeps
    its relative accuracy near frac(R) = 1/2, where the polylogarithms'
    |beta|^(order - 1/2) terms are steep for orders up to 3/2.  f/q never
    rounds up to 1: below q the largest double is at most q (1 - 2^-53).
    Returns one entry per R: ``(BesselEval, K)``, or the
    ``PrecisionExhausted`` that the point raised (returned, not raised).
    The rows share the Hankel tables, the phase-sum table and the K
    ladder.  The first rung, K = 0, has no direct part: the whole sum is
    Hankel's expansion cut at x = 2 pi R times polylogarithms, and a row
    whose Hankel remainder over k >= 1 alone exceeds its tol skips it
    (see :func:`_alt_sum_tail`).  Half-integer orders, whose expansion
    terminates, leave there at every R where rounding allows.  Each row
    leaves the ladder at the first rung where its own bound meets its own
    tol, or where its direct part's bound alone already exceeds it: that
    bound, sum_{k<=K} (w b + 4 EPS w |v|), only grows with K, so no larger
    K could meet tol.  A row's K, value and bound do not depend on the
    other rows.
    """
    _require_half_integer(order)
    Rs = [float(r) for r in R]
    tols = [float(t) for t in tol]
    if not all(r > 0 for r in Rs):
        raise ValueError("need R > 0")
    if len(tols) != len(Rs) or any(not t > 0 for t in tols):
        raise ValueError("tol must be positive, one per R")
    pairs = ([(r - math.floor(r), 1.0) for r in Rs] if phase is None
             else [(float(f), float(q)) for f, q in phase])
    if len(pairs) != len(Rs) or any(not 0.0 <= f < q for f, q in pairs):
        raise ValueError("phase must be one pair (f, q) with 0 <= f < q per R")
    eps_frac = [f / q for f, q in pairs]
    beta = [(f - 0.5 * q) / q for f, q in pairs]
    out: list = [None] * len(Rs)
    for row, (eps, b) in enumerate(zip(eps_frac, beta)):
        if order == 0.5 and eps == 0.0:
            # every term is sqrt(2/(pi x)) sin(2 pi k R) = 0 exactly
            out[row] = BesselEval(order, 2.0 * math.pi * Rs[row], 0.0, 0.0), 0
        elif order <= 0.5 and b == 0.0:
            out[row] = PrecisionExhausted(
                f"sum with p={order} at eps=1/2 reduces to a divergent zeta series")
    best = [math.inf] * len(Rs)
    active = [row for row, res in enumerate(out) if res is None]
    for K in _K_LADDER:
        if not active:
            break
        if K:
            direct, db = _alt_sum_direct(order, np.array([Rs[row] for row in active]),
                                         np.array([eps_frac[row] for row in active]), K)
        else:  # the tail is the whole sum
            direct = db = np.zeros(len(active))
        going = []
        for row, value, bound in zip(active, direct.tolist(), db.tolist()):
            # the margin covers the pairwise summation's rounding (~30 EPS
            # relative at K = 16384), which a larger K could round the other way
            if bound * (1.0 - 1e-12) > tols[row]:
                out[row] = PrecisionExhausted(
                    f"alternating Bessel sum (order={order}, p={order}, R={Rs[row]}): the direct "
                    f"part's bound {bound:.3e} at K={K} alone exceeds tol {tols[row]:.3e}",
                    achieved=best[row] if best[row] < math.inf else None)
            else:
                going.append((row, value, bound))
        active = [row for row, _, _ in going]
        if not active:
            break
        tail, tb = _alt_sum_tail(order, np.array([Rs[row] for row in active]),
                                 np.array([beta[row] for row in active]), K,
                                 np.array([tols[row] for row in active]))
        active = []
        for (row, value, bound), t, tbound in zip(going, tail.tolist(), tb.tolist()):
            bound += tbound
            best[row] = min(best[row], bound)
            if bound <= tols[row]:
                out[row] = BesselEval(order, 2.0 * math.pi * Rs[row], value + t, bound), K
            else:
                active.append(row)
    for row in active:
        out[row] = PrecisionExhausted(
            f"alternating Bessel sum (order={order}, p={order}, R={Rs[row]}) reached bound "
            f"{best[row]:.3e} > tol {tols[row]:.3e}",
            achieved=best[row],
        )
    return out


def alternating_bessel_sum_info(order: float, R: float, tol: float):
    """Certified sum_{k>=1} (-1)^k k^{-order} J_order(2 pi k R) as ``(BesselEval,
    K)``, the BesselEval at argument 2 pi R: the first K terms directly (none
    at K = 0), the rest analytically from the Hankel expansion as
    unit-modulus phase sums, K growing until the bound fits ``tol`` (else
    ``PrecisionExhausted`` with the best bound reached).  One row of
    :func:`alternating_bessel_sums`."""
    (res,) = alternating_bessel_sums(order, [R], [tol])
    if isinstance(res, PrecisionExhausted):
        raise res
    return res
