"""The N -> infinity reconstruction error, computed three independent ways.

For an asymptotically equidistributed unit-norm tight frame sequence the
reconstruction error converges to

    lim E = d * || int_{S^{d-1}} Delta(x . z) z dnu(z) ||,

dnu the normalized surface measure and Delta the sawtooth quantization
error.  Rotating x onto the first axis reduces this to a 1-D integral:
with r = ||x||, n = d//2 (even d) or (d-1)//2 (odd d),

    lim E = d * c_d * | int_0^pi Delta(r cos t) cos t sin^{d-2} t dt |,

where c_d = Gamma(d/2)/(sqrt(pi) Gamma((d-1)/2)) is the ratio of the
surface measures of S^{d-2} and S^{d-1} (the constant is cross-validated
by the Monte Carlo route; for r < delta/2 the whole expression collapses
to exactly r, which pins it down).

The 1-D integral is computed two ways that check each other:

* QUADRATURE -- Gauss-Legendre on each smooth piece, the pieces cut at
  every jump u = cos t = delta(k+1/2)/r of the sawtooth.  Delta is odd,
  so the integrand is symmetric about t = pi/2 and only u in [0, 1] is
  integrated, then doubled.  For odd d the call works in u, where a
  piece's integrand is the polynomial (r u - delta k) u (1 - u^2)^m of
  degree d - 1, m = (d - 3)/2, and the (d + 1)/2-point rule is exact.
  For even d it works in t, where a piece's integrand is a trigonometric
  polynomial of degree d, so the classical Gauss-Legendre remainder (DLMF
  3.5.19) with Bernstein's inequality bounds the error of an order before
  anything is evaluated, and the call takes the lowest order whose bound
  meets the rounding floor.  Either way every piece is evaluated once,
  slice by slice in O(1) memory, the estimate is that bound (0 for odd d)
  plus a model of the rounding, and past a fixed number of nodes the call
  raises ``PrecisionExhausted`` instead;
* BESSEL_SERIES -- the closed form through the alternating Bessel sums
  (the Fourier expansion of the sawtooth composed with the finite
  cosine-projection identities), delegated to
  ``special_fn.alternating_bessel_sums``.

AUTO, the default, picks one of the two per call (``_auto_route``): the
quadrature below R = r/delta = 100 when its rounding floor meets the
target, the series otherwise, and the quadrature again if the series
raises ``PrecisionExhausted``.  The result names the route that ran.
``limiting_error_grid`` applies the same rule at many delta for one (d, r),
with the series points in one batched alternating sum.

``monte_carlo_limit`` integrates the sphere integral directly and is the
coarse referee for both, and the only route that reads x beyond ||x||.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .frames import uniform_sphere_points
from .quantization import QuantScheme, SignalSpec, quant_error
# alternating_bessel_sum_info is not called here but stays importable from
# this module: perfbench/tracing.py wraps framepcm.limit_error's copy
from .special_fn import (EPS, PrecisionExhausted, alternating_bessel_sum_info,  # noqa: F401
                         alternating_bessel_sums, gauss_legendre)

__all__ = [
    "Method",
    "LimitErrorResult",
    "ParitySplit",
    "parity_split",
    "angular_constant",
    "integral_even",
    "integral_odd",
    "limiting_error",
    "limiting_error_grid",
    "monte_carlo_limit",
    "LIMIT_CSV_FIELDS",
]

# default per-piece quadrature target and the samples drawn per Monte
# Carlo batch
DEFAULT_PIECE_TOL = 1e-10
_MC_BATCH = 1 << 17
# quadrature pieces evaluated per numpy slice: bounds the quadrature's
# memory at any R (4096 was the fastest of the sizes measured)
_QUAD_CHUNK = 4096
# the most Gauss-Legendre nodes, (pieces of [0, 1]) x order, one quadrature
# call evaluates.  A call at the cap took 0.64 s at d = 3 (R = 8.4e6), 0.74-
# 0.84 s at d = 2, 4 and 12 (R = 4.2e6) and 0.29 s at d = 41 (R = 8e5), each
# under 35 MB peak RSS, on a 2-vCPU VM with one BLAS thread
_QUAD_MAX_NODES = 1 << 24
# the Gauss-Legendre orders the even-d quadrature chooses from, lowest first
_QUAD_ORDERS = (4, 8, 16, 32, 64, 128, 256, 512)
# a rational upper bound on pi (math.pi lies below it)
_PI_UP = Fraction(math.nextafter(math.pi, 4.0))
# AUTO takes the quadrature only below this R = r/delta.  Measured per call
# at d = 2..12 with one BLAS thread, the quadrature costs 0.05-0.11 ms
# against the series' 0.34-0.53 ms at R = 80.3, and 0.04-0.14 ms against
# 0.34-0.54 ms at R = 160.3: it is the cheaper route up to R ~ 1000 for
# even d and R ~ 2000-4000 for odd d, but moving the crossover would move
# default values
_AUTO_QUAD_MAX_R = 100.0


class Method(str, Enum):
    AUTO = "auto"
    QUADRATURE = "quadrature"
    BESSEL_SERIES = "bessel_series"
    MONTE_CARLO = "monte_carlo"


def _as_method(method) -> Method:
    if isinstance(method, Method):
        return method
    return Method(str(method).lower())


@dataclass(frozen=True)
class LimitErrorResult:
    value: float
    method: Method
    error_estimate: float
    breakpoint_count: int | None = None
    truncation_K: int | None = None
    sample_count: int | None = None


LIMIT_CSV_FIELDS = ["r", "delta", "eps", "d", "method", "value", "error_estimate"]


class ParitySplit(NamedTuple):
    """How the dimension d = 2n (even) or 2n+1 (odd) enters the 1-D integral.

    The integrand is Delta(r cos t) cos t sin^{sin_pow} t, its closed form
    goes through J_order, and its size is ``scale(r, delta)`` =
    delta^s / r^{s-1}.
    """

    n: int
    parity: str
    sin_pow: int
    order: float
    s: float

    def scale(self, r: float, delta: float) -> float:
        """delta^s / r^{s-1}; ``PrecisionExhausted`` where it leaves
        binary64 (e.g. d = 500, r/delta = 20.3, where r^{s-1} overflows)."""
        return _binary64(lambda: delta ** self.s / r ** (self.s - 1.0),
                         f"scale delta^{self.s} / r^{self.s - 1.0}", r, delta)


def _binary64(compute, what: str, r: float, delta: float) -> float:
    """compute(), or ``PrecisionExhausted`` named after ``what`` where it, or
    a factor of it, overflows or underflows below the normal range (a
    subnormal has lost relative precision), which no route's target or
    prefactor survives."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError, PrecisionExhausted):
        value = math.nan
    if not sys.float_info.min <= abs(value) < math.inf:
        raise PrecisionExhausted(f"{what} leaves binary64 (r={r}, delta={delta})")
    return value


def _checked_ratio(r: float, delta: float) -> float:
    """R = r/delta; ``ValueError`` unless r, delta and R are positive and
    finite (floor(R) overflows at R = inf)."""
    if not (0 < r < math.inf and 0 < delta < math.inf and r / delta < math.inf):
        raise ValueError(f"need finite r, delta > 0 with a finite r/delta, "
                         f"got r={r}, delta={delta}")
    return r / delta


def parity_split(d: int) -> ParitySplit:
    """The :class:`ParitySplit` of dimension d: (n, "even", 2n-2, n, n+1/2) for
    d = 2n, (n, "odd", 2n-1, n+1/2, n+1) for d = 2n+1."""
    n = d // 2
    if d % 2 == 0:
        return ParitySplit(n, "even", 2 * n - 2, float(n), n + 0.5)
    return ParitySplit(n, "odd", 2 * n - 1, n + 0.5, n + 1.0)


def angular_constant(d: int) -> float:
    """c_d = (surface of S^{d-2}) / (surface of S^{d-1}); satisfies
    c_d * int_0^pi sin^{d-2} = 1."""
    if d < 2:
        raise ValueError("need d >= 2")
    if d < 344:
        return math.gamma(d / 2.0) / (math.sqrt(math.pi) * math.gamma((d - 1) / 2.0))
    # math.gamma overflows; ln Gamma(y + 1/2) - ln Gamma(y) from the Stirling
    # series (DLMF 5.11.8), whose next term is below 1e-18 at y >= 171.5
    t = 2.0 / (d - 1)
    log_ratio = -t / 8.0 + t ** 3 / 192.0 - t ** 5 / 640.0 + 17.0 * t ** 7 / 14336.0
    return math.sqrt((d - 1) / (2.0 * math.pi)) * math.exp(log_ratio)


# ---------------------------------------------------------------------------
# piecewise quadrature route
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gl_remainder_constant(n: int) -> Fraction:
    """An upper bound on C_n = (n!)^4 / ((2n+1) ((2n)!)^3), a 64-bit dyadic.

    The n-point Gauss-Legendre rule on an interval of width h errs by
    C_n h^{2n+1} f^{(2n)}(xi) for some xi in it (DLMF 3.5.19 mapped from
    [-1, 1]).  C_n is computed exactly in integers and rounded up to a
    64-bit mantissa; binary64 would underflow from n = 128 on.
    """
    num = math.factorial(n) ** 4
    den = (2 * n + 1) * math.factorial(2 * n) ** 3
    shift = den.bit_length() - num.bit_length() + 64
    return Fraction(-(-(num << shift) // den), 1 << shift)


def _ceil_float(num: int, den: int) -> float:
    """The least binary64 value >= num/den (num, den > 0, below overflow)."""
    f = num / den  # correctly rounded
    f_num, f_den = f.as_integer_ratio()
    return f if f_num * den >= num * f_den else math.nextafter(f, math.inf)


def _quad_order(max_width: float, degree: int, sup: Fraction, threshold: float):
    """The smallest order n in _QUAD_ORDERS whose summed remainder bound
    C_n (max_width degree)^{2n} sup pi is at most ``threshold``, and that
    bound rounded up; (None, None) when no order reaches it.

    On a piece the integrand is a trigonometric polynomial of ``degree``
    and sup-norm at most ``sup``, so Bernstein's inequality bounds its
    2n-th derivative by degree^{2n} sup; the piece widths sum to pi/2,
    and the folded sum counts each piece twice.  The comparison is exact,
    in integers.
    """
    h_num, h_den = max_width.as_integer_ratio()
    h_num *= degree
    scale = sup * _PI_UP
    t_num, t_den = threshold.as_integer_ratio()
    for n in _QUAD_ORDERS:
        c = _gl_remainder_constant(n)
        num = c.numerator * h_num ** (2 * n) * scale.numerator
        den = c.denominator * h_den ** (2 * n) * scale.denominator
        if num * t_den <= t_num * den:
            return n, _ceil_float(num, den)
    return None, None


def _jump_count(r: float, delta: float) -> int:
    """K, the number of jumps u_k = delta (k + 1/2) / r of u |-> Delta(r u)
    in (0, 1), as computed in binary64 (valid for r/delta below 2^50)."""
    K = max(math.ceil(r / delta - 0.5), 0)
    while K > 0 and delta * (K - 0.5) / r >= 1.0:
        K -= 1
    while delta * (K + 0.5) / r < 1.0:
        K += 1
    return K


def _edges(r: float, delta: float, K: int, start: int, stop: int) -> np.ndarray:
    """u_{start-1}, ..., u_{stop-1}: the ends of pieces start..stop-1 of
    [0, 1], piece j running from the jump u_{j-1} to u_j, with u_{-1} = 0
    and u_K = 1 standing for the ends.  On piece j, Delta(r u) = r u - delta j."""
    u = delta * (np.arange(start, stop + 1) - 0.5) / r
    if start == 0:
        u[0] = 0.0
    if stop == K + 1:
        u[-1] = 1.0
    return u


def _widest_t_piece(r: float, delta: float, K: int) -> float:
    """The largest t-width arccos u_{j-1} - arccos u_j of the pieces of
    [0, 1] (see ``_edges``).  The widths grow with u, as arccos is concave
    there, except for the half piece at u = 0: the widest is that one or
    one of the two next to u = 1."""
    def t(k):
        return math.pi / 2 if k < 0 else 0.0 if k == K else math.acos(delta * (k + 0.5) / r)
    return max(t(j - 1) - t(j) for j in {0, K - 1, K} if j >= 0)


def _quad_integral(r: float, delta: float, sin_pow: int, tol: float | None):
    """Breakpoint-aware Gauss-Legendre for int_0^pi Delta(r cos t) cos t sin^p t dt.

    Delta is odd, so the integrand is symmetric about t = pi/2: the call
    integrates over u = cos t in [0, 1], cut at the K jumps u_k, and
    doubles the sum (2K + 1 pieces over [0, pi]).

    * Odd d (p odd): in u the integral is int_0^1 Delta(r u) u (1 - u^2)^m
      du with m = (p - 1)/2, and on a piece the integrand is a polynomial
      of degree p + 1, which the (m + 2)-point rule integrates exactly.
    * Even d: in t on [0, pi/2], the integrand on a piece is a
      trigonometric polynomial of degree p + 2 with sup-norm at most
      2r + delta, whose Gauss-Legendre error ``_quad_order`` bounds a
      priori from the widest piece, taken in closed form.  The call takes
      the lowest order whose summed bound meets the rounding floor (and
      leaves the target room for that floor).

    Every piece is evaluated once, at that order, over slices of
    _QUAD_CHUNK pieces generated on the fly and summed by one
    ``math.fsum``: the memory is O(_QUAD_CHUNK) at any R (under 1 MB at
    d = 3).  Above _QUAD_MAX_NODES nodes the call raises
    ``PrecisionExhausted`` before evaluating anything.

    The estimate is the truncation bound (0 for odd d) plus a rounding
    model: the floor npieces EPS delta, one rounding of about EPS delta
    per piece, and the relative rounding of the products and the dot
    product.  ``tol`` is the target (default DEFAULT_PIECE_TOL per piece);
    ``PrecisionExhausted`` when the estimate would exceed it or no order
    of _QUAD_ORDERS is fine enough.  Returns (value, estimate, piece count
    over [0, pi]).
    """
    if tol is not None and not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    # at least 2 nodes on each of the K + 1 >= R + 1/2 pieces of [0, 1]
    if 2.0 * r / delta + 1.0 > _QUAD_MAX_NODES:
        raise PrecisionExhausted(f"piecewise quadrature needs more than {_QUAD_MAX_NODES} "
                                 f"nodes (r={r}, delta={delta})")
    K = _jump_count(r, delta)
    npieces = 2 * K + 1
    target = tol if tol is not None else DEFAULT_PIECE_TOL * npieces
    floor = npieces * EPS * delta
    odd = sin_pow % 2 == 1
    if odd:
        m = (sin_pow - 1) // 2
        # (1 - u)(1 + u) rounds w = 1 - u^2 by 3 EPS/2 at most, w^m by 3m
        # of them plus 4 ulp of pow; the piece's products, its dot product
        # and its scaling by the half-width add order + 6
        order, bound = m + 2, 0.0
        ops = order + 3 * m + 14
    else:
        order, bound = _quad_order(_widest_t_piece(r, delta, K), sin_pow + 2,
                                   2 * Fraction(r) + Fraction(delta),
                                   min(floor, target - floor))
        if order is None:
            raise PrecisionExhausted(f"piecewise quadrature did not reach {target:.3e}: no order "
                                     f"up to {_QUAD_ORDERS[-1]} is fine enough (r={r}, delta={delta})")
        ops = order + sin_pow + 6
    # the products and the order-term dot product round a piece by at most
    # ops EPS/2 of its integral of |f| (the gamma_n bound), and |f| <=
    # min(r, delta/2) |cos t| sin^p t integrates to at most 2 min(r, delta/2) / (p + 1)
    estimate = bound + floor + ops * EPS * min(r, 0.5 * delta) / (sin_pow + 1)
    if estimate > target:
        raise PrecisionExhausted(
            f"piecewise quadrature did not reach {target:.3e} (r={r}, delta={delta})"
        )
    if (K + 1) * order > _QUAD_MAX_NODES:
        raise PrecisionExhausted(f"piecewise quadrature needs {(K + 1) * order} nodes, more "
                                 f"than {_QUAD_MAX_NODES} (r={r}, delta={delta})")
    nodes, weights = gauss_legendre(order)
    shifted = nodes + 1.0

    def slices():
        for start in range(0, K + 1, _QUAD_CHUNK):
            stop = min(start + _QUAD_CHUNK, K + 1)
            u = _edges(r, delta, K, start, stop)
            step = delta * np.arange(start, stop)[:, None]
            if odd:
                half = 0.5 * (u[1:] - u[:-1])
                x = u[:-1, None] + half[:, None] * shifted
                f = (r * x - step) * x
                if m:
                    f *= ((1.0 - x) * (1.0 + x)) ** m
            else:
                t = np.arccos(u)
                half = 0.5 * (t[:-1] - t[1:])
                theta = t[1:, None] + half[:, None] * shifted
                cos = np.cos(theta)
                f = (r * cos - step) * cos * np.sin(theta) ** sin_pow
            # fsum reads and drops one float at a time: no list of a slice's floats
            yield memoryview(half * (f @ weights))

    return 2.0 * math.fsum(chain.from_iterable(slices())), estimate, npieces


# ---------------------------------------------------------------------------
# Bessel-series route
# ---------------------------------------------------------------------------

def _base_coef(n: int, parity: str) -> float:
    """(n-1)! C(2n-2, n-1) / (2^{2n-2} pi^n) (even) or (n-1)! / pi^{n+1}
    (odd), pi being math.pi, within 2 ulps: the leading coefficient of the
    series prefactor and of the bounds.  ``PrecisionExhausted`` where it
    leaves binary64 (from n = 221 even, n = 220 odd: d >= 441).

    The integer ratio is divided first, as Python's int / int is correctly
    rounded; a power of two taken out of it beforehand, and put back
    after the division by pi^n, keeps it below overflow.
    """
    if parity == "even":
        num, den, power = math.factorial(n - 1) * math.comb(2 * n - 2, n - 1), 4 ** (n - 1), n
    else:
        num, den, power = math.factorial(n - 1), 1, n + 1
    shift = max(0, num.bit_length() - den.bit_length() - 1000)
    try:
        value = math.ldexp(num / (den << shift) / math.pi ** power, shift)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise PrecisionExhausted(f"the {parity} bound coefficient at n={n} leaves binary64")
    return value


def _series_target(r: float, delta: float, split: ParitySplit, tol: float | None) -> float:
    """Absolute target of the series route: ``tol``, else 1e-10 of the scale."""
    return tol if tol is not None else 1e-10 * split.scale(r, delta)


def _series_prefactor(r: float, delta: float, split: ParitySplit) -> float:
    """-pi * _base_coef * scale * sqrt(r/delta), the factor that turns the
    alternating sum into the 1-D integral; ``PrecisionExhausted`` where it,
    the coefficient (d >= 441) or the scale leaves binary64."""
    return _binary64(lambda: -_base_coef(split.n, split.parity) * split.scale(r, delta)
                     * math.pi * math.sqrt(r / delta),
                     f"the order-{split.order:g} series prefactor", r, delta)


def _auto_route(r: float, delta: float, target: float) -> Method:
    """The route AUTO tries first, given the series' ``_series_target``.

    The quadrature below R = _AUTO_QUAD_MAX_R, where it is the cheaper one,
    provided its rounding floor (2R + 2) EPS delta (one rounding of about
    EPS delta per piece, 2R + 2 pieces at most) already meets the target
    the series would work to; the series otherwise.  The floor rules the
    quadrature out at d = 8, R = 20.3 and at d = 12 beyond R ~ 6.6.
    """
    R = r / delta
    if R < _AUTO_QUAD_MAX_R and (2 * R + 2) * EPS * delta <= target:
        return Method.QUADRATURE
    return Method.BESSEL_SERIES


class _Integral(NamedTuple):
    value: float
    error_estimate: float
    breakpoint_count: int | None
    truncation_K: int | None
    method: Method  # the route that ran, never AUTO


def _quad_full(r: float, delta: float, split: ParitySplit, tol: float | None) -> _Integral:
    val, err, npieces = _quad_integral(r, delta, split.sin_pow, tol)
    return _Integral(val, err, npieces, None, Method.QUADRATURE)


def _series_integrals(r: float, deltas: list, split: ParitySplit, tol: float | None) -> list:
    """The series route at every delta of ``deltas``, in one
    :func:`alternating_bessel_sums` call.

    Returns per delta an ``_Integral``, or the ``PrecisionExhausted`` that
    delta raised (returned, not raised).
    """
    out: list = [None] * len(deltas)
    rows = []  # (point, prefactor, R, target of the alternating sum)
    for i, delta in enumerate(deltas):
        try:
            prefac = _series_prefactor(r, delta, split)
            rows.append((i, prefac, r / delta,
                         _series_target(r, delta, split, tol) / abs(prefac)))
        except PrecisionExhausted as exc:
            out[i] = exc
    sums = alternating_bessel_sums(split.order, [row[2] for row in rows],
                                   [row[3] for row in rows])
    for (i, prefac, _, _), res in zip(rows, sums):
        if isinstance(res, PrecisionExhausted):
            out[i] = res
        else:
            ev, trunc_k = res
            out[i] = _Integral(prefac * ev.value, abs(prefac) * ev.abs_error_bound, None,
                               trunc_k, Method.BESSEL_SERIES)
    return out


def _auto_integrals(r: float, deltas: list, split: ParitySplit, tol: float | None) -> list:
    """The 1-D integral by AUTO at every delta of ``deltas``.

    Each delta takes the route ``_auto_route`` gives it, and the
    quadrature where the series raises ``PrecisionExhausted`` (e.g. d = 40,
    R = 100.375, where the order-20 sum cancels below binary64 resolution,
    or d = 500, R = 20.3, where the scale and the prefactor leave binary64).
    The series deltas share one :func:`_series_integrals` call; a delta's
    route, K, value and estimate do not depend on the other deltas.
    """
    series_at = []
    for i, delta in enumerate(deltas):
        try:
            # the series' default target is relative to the scale, which
            # can leave binary64 at large d
            if _auto_route(r, delta, _series_target(r, delta, split, tol)) == Method.BESSEL_SERIES:
                series_at.append(i)
        except PrecisionExhausted:
            pass
    series = dict(zip(series_at, _series_integrals(r, [deltas[i] for i in series_at], split, tol)))
    out = []
    for i, delta in enumerate(deltas):
        res = series.get(i)
        out.append(res if isinstance(res, _Integral) else _quad_full(r, delta, split, tol))
    return out


def _integral_full(r, delta, split: ParitySplit, method, tol) -> _Integral:
    """The 1-D integral by ``method``; AUTO resolves to the route that runs
    (see :func:`_auto_integrals`)."""
    _checked_ratio(r, delta)
    method = _as_method(method)
    if method == Method.AUTO:
        return _auto_integrals(r, [delta], split, tol)[0]
    if method == Method.QUADRATURE:
        return _quad_full(r, delta, split, tol)
    if method == Method.BESSEL_SERIES:
        (res,) = _series_integrals(r, [delta], split, tol)
        if isinstance(res, PrecisionExhausted):
            raise res
        return res
    raise ValueError(f"method {method} not available for the 1-D integrals")


def _checked_n(n) -> int:
    if n < 1 or n != int(n):
        raise ValueError("need integer n >= 1")
    return int(n)


def integral_even(r: float, delta: float, n: int, method=Method.AUTO,
                  tol: float | None = None) -> float:
    """int_0^pi Delta(r cos t) cos t sin^{2n-2} t dt by the chosen route
    (default AUTO: see the module docstring).

    With r/delta < 1/2 the quantizer is the identity and the single smooth
    piece gives the closed Beta-type value; QUADRATURE handles that case
    naturally.
    """
    return _integral_full(r, delta, parity_split(2 * _checked_n(n)), method, tol).value


def integral_odd(r: float, delta: float, n: int, method=Method.AUTO,
                 tol: float | None = None) -> float:
    """int_0^pi Delta(r cos t) cos t sin^{2n-1} t dt by the chosen route
    (default AUTO)."""
    return _integral_full(r, delta, parity_split(2 * _checked_n(n) + 1), method, tol).value


# ---------------------------------------------------------------------------
# the limiting error
# ---------------------------------------------------------------------------

def _as_signal(x, scheme: QuantScheme) -> SignalSpec:
    if isinstance(x, SignalSpec):
        return x
    return SignalSpec.from_vector(x, scheme)


def limiting_error(x, scheme: QuantScheme, method=Method.AUTO,
                   tol: float | None = None) -> LimitErrorResult:
    """lim_{N->inf} reconstruction error for signal x and step delta.

    Reduces to d * c_d * |1-D integral| through the sphere-coordinate
    rotation; only ||x|| enters.  ``method`` selects the integral route:
    AUTO (the default) takes the quadrature below R = r/delta = 100 where
    its rounding floor meets the target, and the certified Bessel series
    otherwise, falling back to the quadrature if the series raises
    ``PrecisionExhausted``.  The result's ``method`` is the route that ran,
    never AUTO (QUADRATURE for x = 0, where nothing is integrated).
    MONTE_CARLO raises ``ValueError``: its estimate needs a sample count
    and a seed, which :func:`monte_carlo_limit` takes.
    """
    sig = _as_signal(x, scheme)
    d = sig.dim
    if d < 2:
        raise ValueError("need dimension >= 2")
    method = _as_method(method)
    if method == Method.MONTE_CARLO:
        raise ValueError("limiting_error has no Monte Carlo route: call "
                         "monte_carlo_limit(x, scheme, samples, seed)")
    if sig.r == 0.0:
        return LimitErrorResult(0.0, Method.QUADRATURE if method == Method.AUTO else method, 0.0)
    res = _integral_full(sig.r, scheme.delta, parity_split(d), method, tol)
    return _lifted(d * angular_constant(d), res)


def _lifted(dcd: float, res: _Integral) -> LimitErrorResult:
    """The limiting error d c_d |integral| of a 1-D integral; dcd = d c_d."""
    return LimitErrorResult(
        value=dcd * abs(res.value),
        method=res.method,
        error_estimate=dcd * res.error_estimate,
        breakpoint_count=res.breakpoint_count,
        truncation_K=res.truncation_K,
    )


def limiting_error_grid(d: int, r: float, deltas, tol: float | None = None) -> list:
    """:func:`limiting_error` by AUTO at ||x|| = r and every delta of ``deltas``.

    Returns one :class:`LimitErrorResult` per delta.  Each point takes the
    route ``_auto_route`` gives it.  The quadrature points run one at a
    time; the series points share one :func:`alternating_bessel_sums`
    call, so the series' fixed cost is paid once per grid, not per point.
    A series point that raises ``PrecisionExhausted`` falls back to the
    quadrature on its own, as AUTO does.  A point's route, K, value and
    estimate do not depend on the other deltas: each equals
    ``limiting_error(x, QuantScheme(delta))`` for any x with ||x|| = r.
    """
    if d < 2:
        raise ValueError("need dimension >= 2")
    deltas = [float(delta) for delta in deltas]
    for delta in deltas:
        _checked_ratio(r, delta)
    dcd = d * angular_constant(d)
    return [_lifted(dcd, res) for res in _auto_integrals(r, deltas, parity_split(d), tol)]


def monte_carlo_limit(x, scheme: QuantScheme, samples: int, seed: int) -> LimitErrorResult:
    """Direct Monte Carlo estimate d * ||(1/S) sum Delta(x . z_s) z_s||.

    Uniform sphere samples from normalized Gaussians, drawn in batches of
    2^17; deterministic for a fixed seed.  Each batch adds its moment sums
    as two products, sum_s e_s z_s = e @ z and sum_s e_s^2 z_s^2 =
    (e*e) @ (z*z) with e_s = Delta(x . z_s), squaring z in place, so a
    batch holds no m x d array beyond z.  ``error_estimate`` propagates
    the per-component standard errors to the norm as sqrt(sum sigma_i^2):
    |  ||mean_hat|| - ||mean||  | <= ||error vector||, whose rms is exactly
    that, so the estimate stays valid even when the true mean sits below
    the noise floor (where a delta-method estimate would undershoot).
    """
    if samples < 1000:
        raise ValueError("need samples >= 1000")
    sig = _as_signal(x, scheme)
    d = sig.dim
    rng = np.random.default_rng(seed)
    total = np.zeros(d)
    total_sq = np.zeros(d)
    done = 0
    while done < samples:
        m = min(_MC_BATCH, samples - done)
        z = uniform_sphere_points(rng, m, d)
        e = quant_error(z @ sig.x, scheme)
        total += e @ z
        total_sq += (e * e) @ np.square(z, out=z)
        done += m
    mean = total / samples
    var = np.maximum(total_sq / samples - mean * mean, 0.0) / samples
    norm = float(np.linalg.norm(mean))
    sigma = math.sqrt(float(var.sum()))
    return LimitErrorResult(
        value=d * norm,
        method=Method.MONTE_CARLO,
        error_estimate=d * sigma,
        sample_count=samples,
    )


def result_csv_row(sig: SignalSpec, scheme: QuantScheme, res: LimitErrorResult) -> dict:
    """Row for the documented limit CSV schema (see LIMIT_CSV_FIELDS)."""
    return {
        "r": sig.r,
        "delta": scheme.delta,
        "eps": sig.eps,
        "d": sig.dim,
        "method": res.method.value,
        "value": res.value,
        "error_estimate": res.error_estimate,
    }
