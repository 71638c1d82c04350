"""Self-contained Bessel-function machinery with certified error bounds.

Four evaluation routes for J_alpha (alpha a nonnegative multiple of 1/2,
the only orders the package needs), each returning a value together with a
rigorous absolute error bound so that independent routes can be checked
against each other:

* ``bessel_series``      -- the defining alternating power series, with the
  alternating-series tail bound plus an explicit rounding budget.  Only
  certifiable in binary64 for moderate arguments (cancellation grows like
  e^x), so the other routes take over for large x.
* ``bessel_integral_int_order`` -- for integer order, Gauss-Legendre
  quadrature of (1/pi) int_0^pi cos(n*t - x sin t) dt with order doubling.
* ``bessel_half_order``  -- for half-integer order, the closed sin/cos
  forms propagated by the spherical upward recurrence (falls back to the
  series when x < order, where upward recurrence is unstable).
* ``bessel_large_x``     -- Hankel's large-argument expansion; for real
  order and positive argument the remainder of each cosine/sine series is
  bounded by the first omitted term once enough terms are taken, which
  makes the expansion a certified method (and an exact one for
  half-integer orders, where it terminates).

On top of these, ``alternating_bessel_sum`` evaluates

    S = sum_{k>=1} (-1)^k k^{-p} J_alpha(2 pi k R)

with a certified bound.  Direct summation is hopeless for small p (the
certified tail decays like K^{-p+1/2}), so the tail is *computed*: the
Hankel expansion turns it into a handful of phase sums
sum_{k>K} z^k k^{-q} with |z| = 1, and those are evaluated by repeated
Abel summation by parts (z != 1) or an Euler-Maclaurin zeta tail (z = 1),
each step with an explicit remainder bound.
"""

from __future__ import annotations

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
    "alternating_bessel_sum",
    "alternating_bessel_sum_info",
    "gauss_legendre",
]

EPS = float(np.finfo(float).eps)

# Largest per-term argument that ``_alt_sum_direct`` evaluates by the
# series; beyond it the Hankel expansion is both cheaper and tighter.
_SERIES_AUTO_X = 12.0


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

def bessel_integral_int_order(n: int, x: float, quad_tol: float = 1e-13) -> BesselEval:
    """J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt by Gauss-Legendre.

    The integrand is entire, so fixed-order rules converge spectrally; the
    order is doubled until two successive rules agree to ``quad_tol``, and
    the disagreement (plus a summation rounding allowance) is reported as
    the bound.  Serves as an independent oracle for the series route.
    """
    if n != int(n) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if x < 0:
        raise ValueError("argument must be nonnegative")
    if quad_tol <= 0:
        raise ValueError("quad_tol must be positive")
    n = int(n)
    prev = None
    m = 32
    while m <= 8192:
        nodes, weights = gauss_legendre(m)
        t = 0.5 * math.pi * (nodes + 1.0)
        f = np.cos(n * t - x * np.sin(t)) / math.pi
        val = 0.5 * math.pi * float(np.dot(weights, f))
        if prev is not None and abs(val - prev) <= quad_tol:
            return BesselEval(n, x, val, abs(val - prev) + 4 * m * EPS)
        prev = val
        m *= 2
    raise PrecisionExhausted(
        f"quadrature for J_{n}({x}) did not converge to {quad_tol} within budget"
    )


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

def _hankel_coeffs(order: float, jmax: int) -> list[float]:
    """a_0..a_jmax with a_j = prod_{i<=j} (4 order^2 - (2i-1)^2) / (8^j j!)."""
    a = [1.0]
    for j in range(1, jmax + 1):
        a.append(a[-1] * (4.0 * order * order - (2 * j - 1) ** 2) / (8.0 * j))
    return a


def _hankel_plan(order: float, x: float, spare: int):
    """Coefficients and truncation points of the Hankel sums P, Q at x.

    Returns (a, lp, lq): P keeps lp terms, Q keeps lq.  For real order >= 0
    and x > 0 the remainder after the retained terms is bounded by the
    first omitted term provided enough terms are kept (2*lp >= order - 1/2
    for P, 2*lq + 1 >= order - 1/2 for Q; DLMF 10.17(iii)); both conditions
    are enforced, then the truncation point is pushed, by at most ``spare``
    coefficients, while the omitted term keeps shrinking.
    """
    lp_min = max(1, math.ceil((order - 0.5) / 2.0))
    lq_min = max(1, math.ceil((order - 1.5) / 2.0))
    jmax = 2 * max(lp_min, lq_min) + spare
    a = _hankel_coeffs(order, jmax)

    def best_cut(first: int, minimum: int) -> int:
        # indices first, first+2, ... are the candidate omitted terms
        l = minimum
        while True:
            j = first + 2 * l
            if j + 2 > jmax:
                return l
            if abs(a[j + 2]) / x ** (j + 2) >= abs(a[j]) / x ** j:
                return l
            l += 1

    return a, best_cut(0, lp_min), best_cut(1, lq_min)


def _hankel_pq(order: float, x: float):
    """Partial Hankel sums P, Q at argument x with certified remainders.

    Returns (P, Q, bound_P, bound_Q), truncated by :func:`_hankel_plan`.
    """
    a, lp, lq = _hankel_plan(order, x, 26)
    P = math.fsum((-1.0) ** m * a[2 * m] / x ** (2 * m) for m in range(lp))
    Q = math.fsum((-1.0) ** m * a[2 * m + 1] / x ** (2 * m + 1) for m in range(lq))
    bP = abs(a[2 * lp]) / x ** (2 * lp) + 4 * lp * EPS
    bQ = abs(a[2 * lq + 1]) / x ** (2 * lq + 1) + 4 * lq * EPS
    return P, Q, bP, bQ


def _hankel_value(order: float, x: float, chi: float, chi_err: float):
    """sqrt(2/(pi x)) [cos(chi) P - sin(chi) Q] and its certified bound.

    ``chi`` is the phase x - omega, possibly reduced mod 2 pi, and
    ``chi_err`` bounds its rounding; |d value/d chi| <= amp*(|P|+|Q|).
    """
    P, Q, bP, bQ = _hankel_pq(order, x)
    amp = math.sqrt(2.0 / (math.pi * x))
    value = amp * (math.cos(chi) * P - math.sin(chi) * Q)
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
    # x - omega carries ~eps*x of rounding
    value, bound = _hankel_value(order, x, x - omega, 2 * EPS * (x + 4.0))
    return BesselEval(order, x, value, bound)


# ---------------------------------------------------------------------------
# phase sums  sum_{k>K} z^k k^{-q}  (|z| = 1)
# ---------------------------------------------------------------------------

def _unit_phase(beta: float, m: int) -> complex:
    """e^{2 pi i beta m} via exact reduction of beta*m mod 1."""
    return cmath.exp(2j * math.pi * math.fmod(beta * m, 1.0))


def _zeta_tail_real(q: float, m0: int):
    """sum_{k>=m0} k^{-q} for q > 1 with an Euler-Maclaurin remainder bound."""
    mm = m0 + 1000
    ks = np.arange(m0, mm, dtype=float)
    head = math.fsum(ks ** -q)
    em = mm ** (1 - q) / (q - 1) + 0.5 * mm ** -q + q * mm ** (-q - 1) / 12.0
    # |remainder| <= 2 zeta(4)/(2 pi)^4 * int |f''''| = 0.00139 q(q+1)(q+2) mm^{-q-3}
    bound = 0.00139 * q * (q + 1) * (q + 2) * mm ** (-q - 3) + (mm - m0 + 8) * EPS * max(head, 1.0)
    return head + em, bound


def _tail_phase_sum(q: float, beta: float, K: int, target: float):
    """sum_{k>K} e^{2 pi i beta k} k^{-q}, with a certified remainder bound.

    beta = 0 reduces to a real zeta tail.  Otherwise the sum is resolved by
    repeated summation by parts against the geometric sequence: r steps at
    start M leave boundary terms plus u^r sum (Delta^r a)_k z^k with
    u = 1/(1-z), and |Delta^r a|_k <= q(q+1)...(q+r-1) (k-r)^{-q-r} because
    t^{-q} is completely monotone.  High-order differences of nearly equal
    values lose bits, and every lost bit is amplified by |u|^{j+1}, so the
    (M, r) plan, r <= 16, minimizes the analytic remainder PLUS the
    float-noise estimate; when |u| is large (beta near an integer) the
    start M is pushed outward (K+1, 2^16, 4e5, 2e6: the first whose planned
    bound meets ``target``) and the stretch K+1..M-1 is summed directly
    with split-precision phases (k*beta_hi exact below 2^26).
    """
    m0 = K + 1
    if beta == 0.0:
        val, bound = _zeta_tail_real(q, m0)
        return complex(val), bound
    z = cmath.exp(2j * math.pi * beta)
    u = 1.0 / (1.0 - z)
    au = abs(u)

    def plan(M: int):
        best = None
        rising = 1.0
        for r in range(1, 17):
            rising *= q + r - 1
            rem = au ** r * rising * (M - 1) ** (1 - q - r) / (q + r - 1)
            noise = au ** (r + 1) * 2.0 ** r * 8 * EPS * M ** (-q)
            if best is None or rem + noise < best[1]:
                best = (r, rem + noise, rem)
        return best

    M = m0
    for cand in (m0, 1 << 16, 400_000, 2_000_000):
        if cand < m0:
            continue
        M = cand
        if plan(M)[1] <= target:
            break
    r, _, rem = plan(M)

    head = 0.0 + 0.0j
    head_fp = 0.0
    if M > m0:
        k = np.arange(m0, M, dtype=float)
        beta_hi = round(beta * (1 << 26)) / (1 << 26)
        beta_lo = beta - beta_hi
        phase = np.mod(k * beta_hi, 1.0) + k * beta_lo
        weights = k ** -q
        head = complex(np.sum(np.exp((2j * math.pi) * phase) * weights))
        head_fp = (2 * math.pi * 8 + 64) * EPS * float(np.sum(weights))

    # backward-difference table over a_M .. a_{M+r-1}
    row = [(M + i) ** (-q) for i in range(r)]
    diag = [row[0]]
    for _ in range(1, r):
        row = [row[i] - row[i - 1] for i in range(1, len(row))]
        diag.append(row[0])
    total = 0.0 + 0.0j
    fp = 0.0
    upow = u
    for j in range(r):
        total += upow * diag[j] * _unit_phase(beta, M + j)
        fp += abs(upow) * (2.0 ** j * 4 * EPS * M ** (-q)
                           + (j + 6 + 2 * math.pi * (M + j)) * EPS * abs(diag[j]))
        upow *= u
    return head + total, rem + fp + head_fp


# ---------------------------------------------------------------------------
# the alternating Bessel sum
# ---------------------------------------------------------------------------

def _alt_sum_direct(order: float, p: float, R: float, eps_frac: float, K: int):
    """sum_{k=1}^{K} (-1)^k k^{-p} J_order(2 pi k R) with certified bound."""
    omega = math.pi * order / 2.0 + math.pi / 4.0
    twopiR = 2.0 * math.pi * R
    terms = []
    bound = 0.0
    for k in range(1, K + 1):
        x = twopiR * k
        w = k ** (-p)
        if x <= _SERIES_AUTO_X:
            ev = _series_eval(order, x)
            # allowance for the argument itself being a rounded product
            v, b = ev.value, ev.abs_error_bound + 2 * EPS * x
        else:
            # reduced phase: 2 pi k R - omega == 2 pi k eps - omega (mod 2 pi)
            chi = 2.0 * math.pi * math.fmod(k * eps_frac, 1.0) - omega
            v, b = _hankel_value(order, x, chi, 2 * math.pi * EPS * (k + 4))
        sgn = -1.0 if k % 2 else 1.0
        terms.append(sgn * w * v)
        bound += w * b + 4 * EPS * w * abs(v)
    return math.fsum(terms), bound


def _alt_sum_tail(order: float, p: float, R: float, eps_frac: float, K: int, tol: float):
    """Analytic continuation of the sum past k = K via Hankel + phase sums."""
    omega = math.pi * order / 2.0 + math.pi / 4.0
    twopiR = 2.0 * math.pi * R
    # truncated where the first tail term k = K+1 needs it
    a, MP, MQ = _hankel_plan(order, twopiR * (K + 1), 18)
    beta = math.fmod(eps_frac + 0.5, 1.0)
    e_omega = cmath.exp(-1j * omega)
    scale = 1.0 / (math.pi * math.sqrt(R))

    tail = 0.0
    bound = 0.0
    for m in range(MP):
        q = p + 0.5 + 2 * m
        coef = (-1.0) ** m * a[2 * m] * twopiR ** (-2 * m)
        target = tol * 0.4 / ((MP + MQ) * max(abs(coef) * scale, 1e-300))
        tp, b = _tail_phase_sum(q, beta, K, target)
        tail += coef * (e_omega * tp).real
        bound += abs(coef) * b
    for m in range(MQ):
        q = p + 1.5 + 2 * m
        coef = (-1.0) ** m * a[2 * m + 1] * twopiR ** (-2 * m - 1)
        target = tol * 0.4 / ((MP + MQ) * max(abs(coef) * scale, 1e-300))
        tp, b = _tail_phase_sum(q, beta, K, target)
        tail -= coef * (e_omega * tp).imag
        bound += abs(coef) * b

    # Hankel remainder summed over the tail (integral-test zeta bounds)
    def ztail(q):
        return K ** (1 - q) / (q - 1)

    bound += abs(a[2 * MP]) * twopiR ** (-2 * MP) * ztail(p + 0.5 + 2 * MP)
    bound += abs(a[2 * MQ + 1]) * twopiR ** (-2 * MQ - 1) * ztail(p + 1.5 + 2 * MQ)
    return scale * tail, scale * bound


def alternating_bessel_sum_info(order: float, p: float, R: float, tol: float):
    """Like :func:`alternating_bessel_sum` but also reports the direct-part
    truncation index K as ``(BesselEval, K)``."""
    _require_half_integer(order)
    if not R > 0:
        raise ValueError("need R > 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    eps_frac = R - math.floor(R)
    if order == 0.5 and eps_frac == 0.0:
        # every term is sqrt(2/(pi x)) sin(2 pi k R) = 0 exactly
        return BesselEval(order, 2.0 * math.pi * R, 0.0, 0.0), 0
    if p <= 0.5 and eps_frac == 0.5:
        raise PrecisionExhausted(
            f"sum with p={p} at eps=1/2 reduces to a divergent zeta series"
        )
    best_bound = math.inf
    for K in (64, 256, 1024, 4096, 16384):
        direct, db = _alt_sum_direct(order, p, R, eps_frac, K)
        tail, tb = _alt_sum_tail(order, p, R, eps_frac, K, tol)
        bound = db + tb
        best_bound = min(best_bound, bound)
        if bound <= tol:
            return BesselEval(order, 2.0 * math.pi * R, direct + tail, bound), K
    raise PrecisionExhausted(
        f"alternating Bessel sum (order={order}, p={p}, R={R}) reached bound "
        f"{best_bound:.3e} > tol {tol:.3e}",
        achieved=best_bound,
    )


def alternating_bessel_sum(order: float, p: float, R: float, tol: float) -> BesselEval:
    """Certified evaluation of sum_{k>=1} (-1)^k k^{-p} J_order(2 pi k R).

    The first K terms are evaluated directly (series or Hankel per term);
    the rest of the sum is computed analytically from the Hankel expansion
    as a combination of unit-modulus phase sums.  K grows until the total
    certified bound fits ``tol``; if it never does, PrecisionExhausted
    reports the best achieved bound.  The returned BesselEval carries the
    base argument 2*pi*R.
    """
    return alternating_bessel_sum_info(order, p, R, tol)[0]
