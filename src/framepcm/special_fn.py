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

with a certified bound at many R for one alpha at once.
``alternating_bessel_sum_info`` is its one-row case, and returns the
truncation index K beside the value.  Direct summation is hopeless for
small alpha (the certified tail decays like K^{-alpha+1/2}), so the tail is
*computed*: the Hankel expansion turns it into a handful of phase sums
sum_{k>K} z^k k^{-q} with |z| = 1, all at q = alpha + 1/2 + integer.  Every
row first takes K = 0, in one batched call: the tail is the whole sum, and
Hankel's expansion is cut at the smallest argument, 2 pi R.  That serves
every R where the expansion's remainder there meets the target (every R
for half-integer alpha, where it terminates); a row it does not serve
climbs K = 64, 256, ... on its own, summing k <= K directly.  For
z = e^{2 pi i beta} != 1 each phase sum is Li_q(z) minus the head
sum_{k<=K} (no head at K = 0), with
the polylogarithm from its expansion in w = 2 pi i beta (DLMF 25.12.12;
the harmonic/log form at integer q), which converges for every phase once
beta is reduced to (-1/2, 1/2].  All q of a row share beta, so each row
forms the powers c_j = (2 pi |beta|)^j / j! once, and its polylogarithms
at every q, with their bounds, are one product of c with a Toeplitz table
of zeta(q_i - j) i^j and its bound weights, cached per (alpha, number of
q) (Euler-Maclaurin for positive arguments, the functional equation DLMF
25.4.1 for negative ones); the omitted terms are bounded through DLMF
25.4.2.  Li - head is accurate only in absolute terms, so
where K > 0 and the trivial bound K^{1-q}/(q-1) is smaller the tail is
taken as 0 with that bound.  At z = 1 the phase sum is a Hurwitz zeta tail from the
same Euler-Maclaurin routine that fills the table.  The direct part
k <= K is evaluated as arrays over k by the Hankel sums that also serve
``bessel_large_x``: one table of terms a_j / x_k^j, built as running
ratios so that no power of x can overflow (at huge x they underflow), cut
per term by the first-omitted-term rule.
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
    every q is an integer (the harmonic/log form); ``sing`` holds three
    blocks of per-i factors of the rest of the singular term.  ``q`` and
    ``zeta_q_up``, zeta(q) plus its bound, serve the callers.
    """

    depth: int
    series: np.ndarray
    integer: bool
    sing: np.ndarray
    q: np.ndarray
    zeta_q_up: np.ndarray


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
    zeta_q_up = zeta[depth:] + err[depth:]
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
        sing = np.array([[*const.real, *const.imag,
                          *(EPS * ((2 * n + 4) * (harmonic + 0.5 * math.pi) + harmonic + 2))],
                         [*-i_n.real, *-i_n.imag, *zero], [*zero, *zero, *(EPS * (2 * n + 5.0))]])
    else:
        gamma = np.array([math.gamma(1.0 - v) for v in q])
        sing = np.concatenate((gamma * _cos_half_pi(q - 1.0), -gamma * _cos_half_pi(q - 2.0),
                               EPS * np.abs(gamma) * (np.abs(q - 1.0) + 26)))
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
    for arr in (series, sing, q, zeta_q_up):  # shared by every caller through the cache
        arr.setflags(write=False)
    return _PhaseTable(depth, series, integer, sing, q, zeta_q_up)


def _polylogs(tab: _PhaseTable, b: np.ndarray):
    """Li_q(e^{2 pi i b}) at every q of ``tab``, one b in (0, 1/2] per row;
    Li_q(e^{-2 pi i b}) is its conjugate.  Returns (re, im, bounds), each
    rows x (top + 1).

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
    c = np.cumprod(np.divide.outer(a, _J[1:tab.depth + 1]), axis=1)
    series = (c[:, None, :] @ tab.series[1:])[:, 0] + tab.series[0]
    if tab.integer:
        n = int(tab.q[0]) - 1
        cn = (c[:, n - 1:n - 1 + top] if n else  # c_0 = 1
              np.concatenate((np.ones((b.size, 1)), c[:, :top - 1]), axis=1))
        lw = np.log(a)[:, None]
        series += np.concatenate((cn, cn, cn), axis=1) * (
            tab.sing[0] + lw * tab.sing[1] + np.abs(lw) * tab.sing[2])
    else:
        power = a[:, None] ** (tab.q - 1.0)
        series += np.concatenate((power, power, power), axis=1) * tab.sing
    return series[:, :top], series[:, top:2 * top], series[:, 2 * top:]


def _phase_tails(order: float, top: int, beta, K: int):
    """sum_{k>K} e^{2 pi i beta k} k^{-q} at every q = order + 1/2 + i,
    i = 0..top, with certified absolute bounds; ``beta`` is one phase per
    row, in [-1/2, 1/2], and 0 only where every q > 1.  Returns (re, im,
    bounds), each rows x (top + 1).

    At beta = 0 the tail is the Hurwitz zeta tail sum_{k>K} k^-q
    (:func:`_zeta_em`).  At K = 0 and beta != 0 it is the polylogarithm
    Li_q(z) itself (:func:`_polylogs`).  Past K it is Li_q(z) minus the
    head sum_{k<=K} z^k k^-q, one (entries x K) matrix of weights against
    phases taken from beta k reduced exactly mod 1, and the bound adds the
    rounding of the head and its phases.

    Li - head is accurate only to about 1e-15 absolute, so for q > 1 the
    trivial |tail| <= min(K^{1-q}/(q-1), (K+1)^-q / sin(pi |beta|)) (the
    integral test; Abel's inequality) is returned, with value 0, wherever
    it is the smaller bound (for zeta tails: the first); the head of such
    an entry is not computed.  Every entry's sums run over widths of its
    own, so a row does not depend on the other rows.
    """
    tab = _phase_table(order, top)
    beta = np.asarray(beta, dtype=float).reshape(-1)
    b = np.abs(beta)
    phase = b > 0.0
    zeta_rows = not phase.all()
    if zeta_rows:
        re, im, bounds = (np.zeros((b.size, top + 1)) for _ in range(3))
        if phase.any():
            re[phase], im[phase], bounds[phase] = _polylogs(tab, b[phase])
    else:
        re, im, bounds = _polylogs(tab, b)
    im *= np.sign(beta)[:, None]  # Li_q(conj z) = conj Li_q(z); 0 on zeta rows
    if K and phase.any():
        # K^{1-q}/(q-1), and Abel's |tail| <= (1 + 8 EPS) (K+1)^-q / sin(pi |beta|)
        # from |sum_{K<k<=n} z^k| <= 2/|1-z| = 1/sin(pi |beta|); infinite where q <= 1
        over = tab.q > 1.0
        majorant = np.where(over, _tail_majorant(np.where(over, tab.q, 2.0), K), math.inf)
        abel = np.where(over, (1.0 + 8 * EPS) * (K + 1.0) ** -tab.q, math.inf)
        trivial = np.minimum(majorant, abel / np.sin(math.pi * np.where(phase, b, 0.5))[:, None])
        # rounding of the head per unit weight: ~18 EPS per term (the phase, its
        # cos/sin, the power, the product) and (9 + log2(K)/2) EPS of numpy's
        # pairwise summation.  For q > 1 the weights sum to less than zeta(q),
        # so where the trivial bound is smaller than that, this alone exceeds it
        head_scale = (K.bit_length() + 24) * EPS
        use = phase[:, None] & ((tab.q <= 1.0) | (bounds + head_scale * 2.0 * tab.zeta_q_up
                                                  <= trivial))
        re, im = np.where(use, re, 0.0), np.where(use, im, 0.0)
        bounds = np.where(use, bounds, trivial)
        rows, cols = np.nonzero(use)
        if rows.size:
            k = np.arange(1, K + 1, dtype=float)
            # one row of phases per row with a head
            heads = np.flatnonzero(use.any(axis=1))
            phases = beta[heads, None]
            beta_hi = np.round(phases * (1 << 26)) / (1 << 26)  # k * beta_hi is exact below 2^26
            theta = (2.0 * math.pi) * (np.mod(k * beta_hi, 1.0) + k * (phases - beta_hi))
            which = np.searchsorted(heads, rows)
            weights = k ** -tab.q[cols, None]
            head_re = (weights * np.cos(theta)[which]).sum(axis=1)
            head_im = (weights * np.sin(theta)[which]).sum(axis=1)
            re[rows, cols] -= head_re
            im[rows, cols] -= head_im
            bounds[rows, cols] += (head_scale * weights.sum(axis=1)
                                   + 2 * EPS * np.hypot(head_re, head_im))
    if zeta_rows:
        values, zeta_bounds = _zeta_em(tab.q, K + 1)
        trivial = _tail_majorant(tab.q, K)
        re[~phase] = np.where(zeta_bounds < trivial, values, 0.0)
        bounds[~phase] = np.minimum(zeta_bounds, trivial)
    return re, im, bounds


# ---------------------------------------------------------------------------
# the alternating Bessel sum
# ---------------------------------------------------------------------------

# the direct-part sizes K the alternating sum tries, smallest first; at
# K = 0 there is no direct part
_K_LADDER = (0, 64, 256, 1024, 4096, 16384)


def _alt_sum_direct(order: float, R: float, eps_frac: float, K: int):
    """sum_{k=1}^{K} (-1)^k k^{-order} J_order(2 pi k R) with a certified bound,
    as floats (value, bound); ``eps_frac`` is frac(R).

    Evaluated as arrays over k.  Terms with x = 2 pi k R beyond
    ``_SERIES_AUTO_X`` come from :func:`_hankel_sums`, each cut by the
    first-omitted-term rule; the few k below it take the series.
    """
    omega = math.pi * order / 2.0 + math.pi / 4.0
    k = np.arange(1, K + 1, dtype=float)
    w = k ** (-order)
    x = 2.0 * math.pi * R * k
    # the Hankel terms, at x = 12 in place of the arguments of series terms
    P, Q, bP, bQ = _hankel_sums(order, np.maximum(x, _SERIES_AUTO_X))
    # reduced phase: 2 pi k R - omega == 2 pi k eps - omega (mod 2 pi)
    chi = 2.0 * math.pi * np.fmod(k * eps_frac, 1.0) - omega
    v, b = _hankel_combine(np.sqrt(2.0 / (math.pi * x)), np.cos(chi), np.sin(chi),
                           P, Q, bP, bQ, 2 * math.pi * EPS * (k + 4))
    for i in np.flatnonzero(x <= _SERIES_AUTO_X):  # a leading run: x grows with k
        ev = _series_eval(order, float(x[i]))
        # allowance for the argument itself being a rounded product
        v[i], b[i] = ev.value, ev.abs_error_bound + 2 * EPS * x[i]
    value = math.fsum((np.where(k % 2, -w, w) * v).tolist())
    return value, float((w * b + 4 * EPS * w * np.abs(v)).sum())


@lru_cache(maxsize=64)
def _tail_columns(order: float, width: int, K: int):
    """Per column i < ``width`` of the Hankel terms of :func:`_alt_sum_tail`:
    i // 2, whether i is odd, and the majorant of sum_{k>K} k^-q at
    q = order + 1/2 + i (0 in columns 0 and 1, never a first omitted term);
    and top, the last column a retained term can take (width - 2, as the
    last column can only be omitted, or the last nonzero a_i,
    i = order - 1/2, at half-integer orders, where the expansion
    terminates), with the real and imaginary parts of e^{-i omega} i^i at
    i = 0..top."""
    i = np.arange(width)
    q = order + 0.5 + np.maximum(i, 2)
    top = width - 2 if order % 1 == 0 else int(order - 0.5)
    rot = cmath.exp(-1j * (math.pi * order / 2.0 + math.pi / 4.0)) * _I_POW[i[:top + 1] % 4]
    arrays = (i // 2, i % 2 == 1, np.where(i < 2, 0.0, _tail_majorant(q, K)), rot.real, rot.imag)
    for arr in arrays:  # shared by every caller through the cache
        arr.setflags(write=False)
    return (top, *arrays)


def _alt_sum_tail(order: float, R, beta, K: int):
    """Analytic continuation of the sums past k = K via Hankel + phase sums.

    ``R`` and ``beta`` are 1-D arrays, one row each, with beta = frac(R) -
    1/2: (-1)^k e^{2 pi i k frac(R)} = e^{2 pi i beta k}.  Returns (values,
    bounds) as arrays over the rows.  Each row's Hankel expansion is cut
    where its first tail term k = K+1 needs it, and its term i,
    a_i (2 pi R)^-i i^i (the plan's own terms at K = 0, where the tail is
    the whole sum), multiplies the phase sum at q = order + 1/2 + i; the
    phase sums of all rows are one call (:func:`_phase_tails`), over the q
    of every term the plan may retain (:func:`_tail_columns`).  Every sum
    runs over a width fixed by (order, K), so a row does not depend on the
    other rows.
    """
    twopiR = 2.0 * math.pi * R
    # each row truncated where its first tail term k = K+1 needs it
    a, coef, lp, lq = _hankel_plan(order, twopiR * (K + 1), 18)
    if K:  # the plan's terms are a_i / (2 pi R (K+1))^i
        coef = np.array(a) * twopiR[:, None] ** -np.arange(len(a))
    top, half, odd, majorant, rot_re, rot_im = _tail_columns(order, len(a), K)
    # the retained terms: i < 2 lp for the P terms (even i), i < 2 lq for
    # Q; the first omitted ones: i = 2 lp and 2 lq + 1
    cut = np.where(odd, lq[:, None], lp[:, None])
    kept, omitted = half < cut, half == cut
    # Hankel remainder summed over the tail (integral-test zeta bounds)
    hankel = (np.abs(np.where(omitted, coef, 0.0)) * majorant).sum(axis=1)
    scale = (1.0 / math.pi) / np.sqrt(R)
    re, im, tb = _phase_tails(order, top, beta, K)
    kept = kept[:, :top + 1]
    coef = np.where(kept, coef[:, :top + 1], 0.0)
    terms = coef * (rot_re * re - rot_im * im)
    # Hankel terms that overflow (large orders at small R) leave a row (0, inf):
    # its remainder, a term past every retained one, is then not finite
    finite = np.isfinite(hankel)
    tails = scale * np.array([math.fsum(row) if ok else 0.0
                              for row, ok in zip(terms.tolist(), finite.tolist())])
    bounds = scale * ((np.abs(coef) * np.where(kept, tb, 0.0)).sum(axis=1) + hankel)
    return tails, np.where(finite, bounds, math.inf)


def _alt_sum_climb(order: float, R: float, eps_frac: float, beta: float, tol: float,
                   best: float):
    """One row of :func:`alternating_bessel_sums` whose K = 0 bound ``best``
    missed ``tol``: the first K of ``_K_LADDER[1:]`` terms directly, the
    rest by :func:`_alt_sum_tail`, K climbing until the bound meets tol.

    Returns ``(BesselEval, K)``, or the ``PrecisionExhausted`` it gives up
    with (returned, not raised), ``achieved`` the best bound reached.  It
    gives up at the first K whose direct part's bound alone exceeds tol:
    that bound, sum_{k<=K} (w b + 4 EPS w |v|), only grows with K, so no
    larger K could meet tol.
    """
    for K in _K_LADDER[1:]:
        value, bound = _alt_sum_direct(order, R, eps_frac, K)
        # the margin covers the pairwise summation's rounding (~30 EPS
        # relative at K = 16384), which a larger K could round the other way
        if bound * (1.0 - 1e-12) > tol:
            return PrecisionExhausted(
                f"alternating Bessel sum (order={order}, p={order}, R={R}): the direct "
                f"part's bound {bound:.3e} at K={K} alone exceeds tol {tol:.3e}",
                achieved=best if best < math.inf else None)
        tail, tb = _alt_sum_tail(order, np.array([R]), np.array([beta]), K)
        bound += float(tb[0])
        best = min(best, bound)
        if bound <= tol:
            return BesselEval(order, 2.0 * math.pi * R, value + float(tail[0]), bound), K
    return PrecisionExhausted(
        f"alternating Bessel sum (order={order}, p={order}, R={R}) reached bound "
        f"{best:.3e} > tol {tol:.3e}", achieved=best)


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
    Every row first takes the rung K = 0, in one batched
    :func:`_alt_sum_tail` call: no direct part, the whole sum is Hankel's
    expansion cut at x = 2 pi R times polylogarithms.  Half-integer
    orders, whose expansion terminates, end there at every R where
    rounding allows.  A row whose K = 0 bound misses its tol climbs the
    rest of the K ladder on its own (:func:`_alt_sum_climb`).  A row's K,
    value and bound do not depend on the other rows.
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
    live = [row for row, res in enumerate(out) if res is None]
    if live:
        tails, bounds = _alt_sum_tail(order, np.array([Rs[row] for row in live]),
                                      np.array([beta[row] for row in live]), 0)
        for row, value, bound in zip(live, tails.tolist(), bounds.tolist()):
            out[row] = ((BesselEval(order, 2.0 * math.pi * Rs[row], value, bound), 0)
                        if bound <= tols[row] else
                        _alt_sum_climb(order, Rs[row], eps_frac[row], beta[row], tols[row],
                                       bound))
    return out


def alternating_bessel_sum_info(order: float, R: float, tol: float):
    """Certified sum_{k>=1} (-1)^k k^{-order} J_order(2 pi k R) as ``(BesselEval,
    K)``, the BesselEval at argument 2 pi R: the first K terms directly (none
    at K = 0), the rest analytically from the Hankel expansion as
    unit-modulus phase sums, K climbing from 0 until the bound fits ``tol``
    (else ``PrecisionExhausted`` with the best bound reached).  One row of
    :func:`alternating_bessel_sums`."""
    (res,) = alternating_bessel_sums(order, [R], [tol])
    if isinstance(res, PrecisionExhausted):
        raise res
    return res
