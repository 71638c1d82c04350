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

* QUADRATURE -- the breakpoint sum, piece by piece in closed form: the
  sawtooth steps by delta at each jump u = cos t = delta(k+1/2)/r, so the
  integral is (delta/e) (R G - sum_{k<K} (1 - u_k^2)^e), e = (d - 1)/2,
  R = r/delta, G rational (times pi for even d), summed in O(1) memory by
  one ``math.fsum``, with an a priori bound on its rounding as estimate;
* BESSEL_SERIES -- the closed form through the alternating Bessel sums
  (the Fourier expansion of the sawtooth composed with the finite
  cosine-projection identities), delegated to
  ``special_fn.alternating_bessel_sums``.

AUTO, the default, picks one of the two per delta (``_auto_route``): the
quadrature below R = r/delta = 100 when its rounding bound meets the
series' target, the series otherwise, and the quadrature again if the
series raises ``PrecisionExhausted`` (naming both causes, the series'
first, if that raises too).  One dispatcher, ``_integrals``, runs every
route at one or many delta for one (d, r), with the series points in one
batched alternating sum, and returns one :class:`LimitErrorResult` per
delta, which names the route that ran.

``monte_carlo_limit`` integrates the sphere integral directly and is the
coarse referee for both, and the only route that reads x beyond ||x||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .frames import uniform_sphere_points
from .quantization import QuantScheme, SignalSpec, _pcm_quantize_into
# alternating_bessel_sum_info and gauss_legendre are not called here but stay
# importable from this module: perfbench/tracing.py wraps this module's copies
from .special_fn import (EPS, PrecisionExhausted, _binary64,  # noqa: F401
                         alternating_bessel_sum_info, alternating_bessel_sums, gauss_legendre)

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

# the coordinates drawn per Monte Carlo batch, 2^17 samples up to d = 16:
# bounds a batch's memory at any d
_MC_BATCH_ELEMENTS = 1 << 21
# breakpoint-sum terms evaluated per numpy slice: bounds the quadrature's
# memory at any R
_QUAD_CHUNK = 4096
# the most terms one breakpoint sum evaluates: a call at the cap took
# 0.35-0.39 s at d = 3, 4 and 41 on a 2-vCPU VM with one BLAS thread
_QUAD_MAX_TERMS = 1 << 24
# AUTO takes the quadrature only below this R = r/delta.  Measured per call
# at d = 2..12 with one BLAS thread on a 2-vCPU VM (median over d), the
# quadrature costs 0.018 ms against the series' 0.069 ms at R = 80.3 and
# 0.045 ms against 0.069 ms at R = 1000.3; the two cost the same near
# R = 2000, but moving the crossover would move default values
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
    """One route's result: the signed 1-D integral inside this module, the
    limiting error d c_d |integral| outside it.  ``method`` is the route
    that ran, never AUTO."""

    value: float
    method: Method
    error_estimate: float
    breakpoint_count: int | None = None
    sample_count: int | None = None

    @property
    def unresolved(self) -> bool:
        """An estimate as large as |value| leaves even its sign unresolved
        (an exact 0 with estimate 0 is resolved)."""
        return self.error_estimate >= abs(self.value) and self.error_estimate > 0


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
        """delta^s / r^{s-1}; ``PrecisionExhausted`` where the scale leaves
        binary64 (e.g. d = 500, r/delta = 20.3).

        Where a factor of that direct form leaves binary64 but the scale may
        not (d = 3, r = 1e200, delta = 1e199: 1e198; d = 41, r = 1e36,
        delta = 1e20: 1e-300), the power is taken of the mantissa m of
        delta/r = m 2^e, e made even so that 2^{e (s-1)} is an integer power
        of two, and multiplied by delta's mantissa before one ``ldexp``
        applies all the powers of two.  Only there: ``**`` is not exactly
        invariant under scaling by 2^k, and the values the direct form
        gives stay bit for bit."""
        def message():
            return (f"scale delta^{self.s} / r^{self.s - 1.0} leaves binary64 "
                    f"(r={r}, delta={delta})")
        try:
            return _binary64(lambda: delta ** self.s / r ** (self.s - 1.0), message)
        except PrecisionExhausted:
            (m, e), (dm, de) = math.frexp(delta / r), math.frexp(delta)
            if e % 2:
                m, e = 2.0 * m, e - 1
            exponent = de + e // 2 * round(2.0 * self.s - 2.0)
            return _binary64(lambda: math.ldexp(dm * m ** (self.s - 1.0), exponent), message)


def _checked_ratio(r: float, delta: float) -> float:
    """R = r/delta; ``ValueError`` unless r, delta and R are positive and
    finite (floor(R) overflows at R = inf)."""
    if not (0 < r < math.inf and 0 < delta < math.inf and r / delta < math.inf):
        raise ValueError(f"need finite r, delta > 0 with a finite r/delta, "
                         f"got r={r}, delta={delta}")
    return r / delta


@lru_cache(maxsize=64, typed=True)  # one small tuple per d; typed: a numpy d keeps its own
def parity_split(d: int) -> ParitySplit:
    """The :class:`ParitySplit` of dimension d: (n, "even", 2n-2, n, n+1/2) for
    d = 2n, (n, "odd", 2n-1, n+1/2, n+1) for d = 2n+1."""
    n = d // 2
    if d % 2 == 0:
        return ParitySplit(n, "even", 2 * n - 2, float(n), n + 0.5)
    return ParitySplit(n, "odd", 2 * n - 1, n + 0.5, n + 1.0)


def angular_constant(d: int) -> float:
    """c_d = (surface of S^{d-2}) / (surface of S^{d-1}); satisfies
    c_d * int_0^pi sin^{d-2} = 1.  With u = cos theta the integral is 2 G at
    d - 2, G(d) = int_0^1 (1 - u^2)^{(d-1)/2} du of :func:`_smooth_coef`, and
    G(d) = G(d - 2) (d - 1)/d, so c_d = (d - 1) / (2 d G(d)) is one integer
    ratio rounded once; G(d) is the one the quadrature at d takes."""
    if d < 2:
        raise ValueError("need d >= 2")
    d = int(d)  # a numpy int would overflow 4^n
    num, den = _smooth_coef(d)
    return (d - 1) * den / (2 * d * num)


# ---------------------------------------------------------------------------
# breakpoint-sum route (QUADRATURE)
# ---------------------------------------------------------------------------

# pi to 40 digits, as an integer ratio
_PI_NUM, _PI_DEN = 31415926535897932384626433832795028841972, 10 ** 40


@lru_cache(maxsize=128)  # a pair of ~0.6 d-digit integers per d: bounded, not one per d seen
def _smooth_coef(d: int) -> tuple[int, int]:
    """G = int_0^1 (1 - u^2)^e du, e = (d - 1)/2, as an integer ratio: exactly
    4^n / ((2n + 1) C(2n, n)) at d = 2n + 1 (2/3 at d = 3), and pi C(2n, n) /
    (2 4^n) at d = 2n (pi/4 at d = 2) with pi to 40 digits."""
    n = d // 2
    if d % 2:
        return 4 ** n, (2 * n + 1) * math.comb(2 * n, n)
    return _PI_NUM * math.comb(2 * n, n), _PI_DEN * 2 * 4 ** n


def _quad_plan(r: float, delta: float, d: int):
    """(q, f, K, estimate) of :func:`_quad_integral` at (r, delta, d).

    r = q delta + f exactly (divmod takes the exact f = fmod(r, delta) and
    rounds (r - f)/delta to q), so K = q + [f > delta/2] jumps u_k lie in
    (0, 1).  The estimate bounds the rounding a priori and, like r and
    delta, scales with the units.  To first order in
    EPS, with e = (d - 1)/2 and t_k = (1 - u_k^2)^e: x_k = 1 - u_k errs by
    3 EPS/2 of itself, and t_k, a function of u_k through x_k (2 - x_k),
    follows it through its derivative, by 3 EPS/2 e h_k with h_k = 2 u_k
    (1 - u_k) (1 - u_k^2)^{e-1}; 2 - x_k, the product and the power add
    (2e + P) EPS/2 t_k, P = 0 at e = 1, 1 at e = 1/2 and 2 (numpy's w ** 0.5
    and w ** 2 are sqrt and square), else 8 (pow within 4 ulp).  h and t
    are unimodal on [0, 1], at most 1, so their sums are at most K and R
    times their integrals, (1 - G)/e and G, plus 1.  R G rounds once, and
    |I| <= min(r, delta/2)/e three times; 1 % covers the higher orders.
    With t_sum, h_sum <= K, G <= 1 and R < K + 1/2, the estimate is at most
    7.4 EPS delta (2K + 1) at every d >= 2.
    """
    q, f = divmod(r, delta)
    K = int(q) + (f > 0.5 * delta)
    e = (d - 1) / 2
    num, den = _smooth_coef(d)
    G, R = num / den, r / delta
    P = 0.0 if e == 1 else 1.0 if e in (0.5, 2) else 8.0
    t_sum, h_sum = min(K, R * G + 1.0), min(K, R * (1.0 - G) / e + 1.0)
    estimate = 0.505 * EPS * (r * G / e + delta * ((2.0 + P / e) * t_sum + 3.0 * h_sum)
                              + 3.0 * min(r, 0.5 * delta) / e)
    return q, f, K, estimate


def _quad_integral(r: float, delta: float, sin_pow: int, tol: float | None):
    """int_0^pi Delta(r cos t) cos t sin^p t dt by the breakpoint sum.

    In u = cos t it is int_{-1}^{1} Delta(r u) u (1 - u^2)^{e-1} du,
    e = (p + 1)/2, where Delta(r u) = r u - delta round(r u/delta) steps by
    delta at each jump +-u_k, k < K; piece by piece, in closed form,

        I = (delta/e) (R G - sum_{k<K} (1 - u_k^2)^e),  R = r/delta,

    G = :func:`_smooth_coef`, R G rounded once from the exact ratio (scaled
    by a power of two where it is below binary64's normal range).  1 - u_k
    is (f + delta (q - k - 1/2))/r from r = q delta + f (:func:`_quad_plan`),
    so each term keeps its relative accuracy up to u_k = 1.  The terms are
    generated _QUAD_CHUNK at a time and summed, with R G, by one
    ``math.fsum``, in O(_QUAD_CHUNK) memory at any R.  ``PrecisionExhausted``
    past _QUAD_MAX_TERMS terms (each a node of the midpoint sum), before
    any is evaluated, or where the estimate exceeds an explicit ``tol``;
    with no ``tol`` there is no target to miss.  Returns (value, estimate,
    2K + 1), the number of pieces over [0, pi].
    """
    r, delta, d = float(r), float(delta), sin_pow + 2  # as_integer_ratio below
    q, f, K, estimate = _quad_plan(r, delta, d)
    if K > _QUAD_MAX_TERMS:
        raise PrecisionExhausted(f"piecewise quadrature needs more than {_QUAD_MAX_TERMS} nodes "
                                 f"(r={r}, delta={delta})")
    if tol is not None and estimate > tol:
        raise PrecisionExhausted(f"piecewise quadrature did not reach {tol:.3e}: its rounding "
                                 f"bound is {estimate:.3e} (r={r}, delta={delta})")
    e = (d - 1) / 2

    def terms():
        for start in range(0, K, _QUAD_CHUNK):
            # q - k - 1/2 is exact, and so is f - delta/2 at k = q
            x = (f + delta * ((q - 0.5 - start) - np.arange(min(_QUAD_CHUNK, K - start)))) / r
            # fsum reads and drops one float at a time: no list of a slice's floats
            yield memoryview((x * (2.0 - x)) ** e)

    (r_num, r_den), (d_num, d_den), (g_num, g_den) = (
        r.as_integer_ratio(), delta.as_integer_ratio(), _smooth_coef(d))
    num, den = r_num * d_den * g_num, r_den * d_num * g_den
    # below 2^-1022 R G would round to a subnormal and keep few bits: round
    # 2^k R G, in (2^-1021, 2^-1019), and scale back at the end.  R G lies
    # in (2^(-1-shift), 2^(1-shift)): normal wherever shift <= 1021, where
    # k = 0; else R < 1/2, so K = 0 and no term is scaled
    shift = den.bit_length() - num.bit_length()
    k = shift - 1020 if shift > 1021 else 0
    total = math.fsum(chain((-((num << k) / den),), chain.from_iterable(terms())))
    return math.ldexp(-delta / e * total, -k), estimate, 2 * K + 1


# ---------------------------------------------------------------------------
# Bessel-series route
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)  # one float per (n, parity) below d = 441; a raise is not cached
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
    return _binary64(lambda: math.ldexp(num / (den << shift) / math.pi ** power, shift),
                     lambda: f"the {parity} bound coefficient at n={n} leaves binary64")


def _series_prefactor(r: float, delta: float, split: ParitySplit) -> tuple[float, float]:
    """(-pi * _base_coef * scale * sqrt(r/delta), scale): the factor that
    turns the alternating sum into the 1-D integral, and the scale it took;
    ``PrecisionExhausted`` where the factor, the coefficient (d >= 441) or
    the scale leaves binary64."""
    try:
        scale = split.scale(r, delta)
    except PrecisionExhausted:  # so does the factor, which says so
        scale = math.nan
    return _binary64(lambda: -_base_coef(split.n, split.parity) * scale
                     * math.pi * math.sqrt(r / delta),
                     lambda: f"the order-{split.order:g} series prefactor leaves binary64 "
                             f"(r={r}, delta={delta})"), scale


def _auto_route(r: float, delta: float, split: ParitySplit, tol: float | None) -> Method:
    """The route AUTO tries first.

    The quadrature below R = _AUTO_QUAD_MAX_R, where it is the cheaper one,
    provided its rounding bound (:func:`_quad_plan`) already meets the
    target the series would work to, which is also the quadrature's own
    target where ``tol`` is given, so that it never refuses a point AUTO
    hands it; or where that series target leaves binary64, so that the
    series could not run; the series otherwise.  The bound rules the
    quadrature out at d = 8, R = 20.3 and at d = 12 beyond R ~ 7.1.
    """
    if r / delta < _AUTO_QUAD_MAX_R:
        estimate = _quad_plan(r, delta, split.sin_pow + 2)[3]
        try:
            if estimate <= (tol if tol is not None else 1e-10 * split.scale(r, delta)):
                return Method.QUADRATURE
        except PrecisionExhausted:  # the series' target leaves binary64
            return Method.QUADRATURE
    return Method.BESSEL_SERIES


def _series_integrals(r: float, deltas: list, split: ParitySplit, tol: float | None) -> list:
    """The series route at every delta of ``deltas``, in one
    :func:`alternating_bessel_sums` call with no target, whose rows one
    rule then accepts.

    An explicit ``tol`` is the absolute target of each integral.  Under the
    default target a row is accepted where its bound meets 1e-10 of the
    scale or 1e-10 of the value, whichever is larger: at large d the scale
    alone asks for less than the sum's own rounding (d = 40, R = 100.375:
    1.8e-18 of a sum of 9.9e-3, bounded to 1.6e-15).
    Returns per delta a :class:`LimitErrorResult` of the signed integral, or
    the ``PrecisionExhausted`` that delta raised (returned, not raised).
    """
    out: list = [None] * len(deltas)
    rows = []  # (point, prefactor, R, target of the alternating sum, phase of R)
    for i, delta in enumerate(deltas):
        try:
            prefac, scale = _series_prefactor(r, delta, split)
            # frac(r/delta) = fmod(r, delta)/delta exactly: fmod is exact
            rows.append((i, prefac, r / delta,
                         (tol if tol is not None else 1e-10 * scale) / abs(prefac),
                         (math.fmod(r, delta), delta)))
        except PrecisionExhausted as exc:
            out[i] = exc
    # every order here is at least 1 (d >= 2): no row is a divergent sum
    sums = alternating_bessel_sums(split.order, [row[2] for row in rows], [row[4] for row in rows])
    for (i, prefac, R, target, _), ev in zip(rows, sums):
        bound = ev.abs_error_bound
        accept = target if tol is not None else max(target, 1e-10 * abs(ev.value))
        if not bound <= accept or bound == math.inf:  # an infinite bound certifies nothing
            rule = (f"tol {accept:.3e}" if tol is not None else
                    f"{accept:.3e}, the larger of its target and 1e-10 of its value")
            out[i] = PrecisionExhausted(f"alternating Bessel sum (order={split.order}, R={R}) "
                                        f"reached bound {bound:.3e} > {rule}", achieved=bound)
        else:
            out[i] = LimitErrorResult(prefac * ev.value, Method.BESSEL_SERIES, abs(prefac) * bound)
    return out


def _integrals(r: float, deltas: list, split: ParitySplit, method, tol: float | None) -> list:
    """The signed 1-D integral by ``method`` at every delta of ``deltas``: one
    :class:`LimitErrorResult` each, naming the route that ran, never AUTO.

    The series deltas share one :func:`_series_integrals` call: every delta
    under BESSEL_SERIES, which raises the series' ``PrecisionExhausted``,
    and under AUTO those :func:`_auto_route` gives the series.  Every other
    delta takes the quadrature, and so does an AUTO delta where the series
    raises ``PrecisionExhausted`` (e.g. d = 165, R = 5000.3, where the
    order-82.5 polylogarithms run past their table's depth, or d = 500,
    R = 20.3, where the scale and the prefactor leave binary64).  Where
    that fall-back raises too, its ``PrecisionExhausted`` carries the
    series' reason first.  A delta's route, value and estimate do not
    depend on the other deltas.
    """
    for delta in deltas:
        _checked_ratio(r, delta)
    if tol is not None and not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    method = _as_method(method)
    if method not in (Method.AUTO, Method.QUADRATURE, Method.BESSEL_SERIES):
        raise ValueError(f"method {method} not available for the 1-D integrals")
    first = [_auto_route(r, delta, split, tol) if method == Method.AUTO else method
             for delta in deltas]  # the route each delta tries first
    series_at = [i for i, route in enumerate(first) if route == Method.BESSEL_SERIES]
    series = (dict(zip(series_at, _series_integrals(r, [deltas[i] for i in series_at], split, tol)))
              if series_at else {})
    out = []
    for i, delta in enumerate(deltas):
        res = series.get(i)
        if isinstance(res, PrecisionExhausted) and method == Method.BESSEL_SERIES:
            raise res
        if not isinstance(res, LimitErrorResult):
            try:
                value, estimate, pieces = _quad_integral(r, delta, split.sin_pow, tol)
            except PrecisionExhausted as exc:
                if res is None:
                    raise
                raise PrecisionExhausted(f"{res}; the quadrature fall-back: {exc}") from exc
            res = LimitErrorResult(value, Method.QUADRATURE, estimate, pieces)
        out.append(res)
    return out


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
    return _integrals(r, [delta], parity_split(2 * _checked_n(n)), method, tol)[0].value


def integral_odd(r: float, delta: float, n: int, method=Method.AUTO,
                 tol: float | None = None) -> float:
    """int_0^pi Delta(r cos t) cos t sin^{2n-1} t dt by the chosen route
    (default AUTO)."""
    return _integrals(r, [delta], parity_split(2 * _checked_n(n) + 1), method, tol)[0].value


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
    its rounding floor meets the series' target, and the certified Bessel
    series otherwise, falling back to the quadrature if the series raises
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
    (res,) = _integrals(sig.r, [scheme.delta], parity_split(d), method, tol)
    return _lifted(d * angular_constant(d), res)


def _lifted(dcd: float, res: LimitErrorResult) -> LimitErrorResult:
    """The limiting error d c_d |integral| of a 1-D integral; dcd = d c_d.
    The estimate adds 4 EPS of the value for the lift: c_d is an exact ratio
    rounded once (within 0.48 EPS of 50-digit mpmath at d = 2..399, 500,
    1000, 5000, 1e4 and 1e5), d c_d within 0.84 EPS, and the product adds
    one more rounding."""
    value = dcd * abs(res.value)
    return LimitErrorResult(value, res.method, dcd * res.error_estimate + 4 * EPS * value,
                            res.breakpoint_count, res.sample_count)


def limiting_error_grid(d: int, r: float, deltas, tol: float | None = None) -> list:
    """:func:`limiting_error` by AUTO at ||x|| = r and every delta of ``deltas``.

    Returns one :class:`LimitErrorResult` per delta.  Each point takes the
    route ``_auto_route`` gives it.  The quadrature points run one at a
    time; the series points share one :func:`alternating_bessel_sums`
    call, so the series' fixed cost is paid once per grid, not per point.
    A series point that raises ``PrecisionExhausted`` falls back to the
    quadrature on its own, as AUTO does.  A point's route, value and
    estimate do not depend on the other deltas: each equals
    ``limiting_error(x, QuantScheme(delta))`` for any x with ||x|| = r.
    """
    if d < 2:
        raise ValueError("need dimension >= 2")
    results = _integrals(r, [float(delta) for delta in deltas], parity_split(d), Method.AUTO, tol)
    dcd = d * angular_constant(d)
    return [_lifted(dcd, res) for res in results]


def monte_carlo_limit(x, scheme: QuantScheme, samples: int, seed: int) -> LimitErrorResult:
    """Direct Monte Carlo estimate d * ||(1/S) sum Delta(x . z_s) z_s||.

    Uniform sphere samples from normalized Gaussians, drawn in batches of
    2^17 up to d = 16 and of 2^21 // d past it, so that a batch's memory
    does not grow with d; deterministic for a fixed seed, however the
    draws are batched.  Every batch is drawn into one (batch, d) array and
    quantized in two batch-long ones, all allocated once per call: a fresh
    16 MB array per batch would be fresh pages to fault in each time.
    Each batch adds its moment sums as two products, sum_s e_s z_s = e @ z
    and sum_s e_s^2 z_s^2 = (e*e) @ (z*z) with e_s = Delta(x . z_s),
    squaring z in place, so a batch holds no m x d array beyond z.
    ``error_estimate`` propagates
    the per-component standard errors to the norm as sqrt(sum sigma_i^2):
    |  ||mean_hat|| - ||mean||  | <= ||error vector||, whose rms is exactly
    that, so the estimate stays valid even when the true mean sits below
    the noise floor (where a delta-method estimate would undershoot).

    It runs on (2^-k x, 2^-k delta), 2^k near min(r, delta) (delta at most
    2^1020 there), and scales back: every step is homogeneous, so that the
    result scales exactly with (x, delta) and is the unscaled one bit for
    bit where no square leaves binary64; ``PrecisionExhausted`` on overflow.
    """
    if samples < 1000:
        raise ValueError("need samples >= 1000")
    sig = _as_signal(x, scheme)
    d = sig.dim
    k = max(math.frexp(min(sig.r, scheme.delta))[1], math.frexp(scheme.delta)[1] - 1020)
    x, delta = np.ldexp(sig.x, -k), math.ldexp(scheme.delta, -k)
    rng = np.random.default_rng(seed)
    total = np.zeros(d)
    total_sq = np.zeros(d)
    done = 0
    batch = min(samples, max(1, _MC_BATCH_ELEMENTS // max(d, 16)))
    z_buf, t_buf, e_buf = np.empty((batch, d)), np.empty(batch), np.empty(batch)
    while done < samples:
        m = min(batch, samples - done)
        z, t, e = uniform_sphere_points(rng, z_buf[:m]), t_buf[:m], e_buf[:m]
        np.matmul(z, x, out=t)
        np.subtract(t, _pcm_quantize_into(t, delta, e), out=e)  # Delta(x . z)
        total += e @ z
        total_sq += np.multiply(e, e, out=t) @ np.square(z, out=z)
        done += m
    mean = total / samples
    var = np.maximum(total_sq / samples - mean * mean, 0.0) / samples
    try:
        value = math.ldexp(d * float(np.linalg.norm(mean)), k)
        estimate = math.ldexp(d * math.sqrt(float(var.sum())), k)
    except OverflowError:
        raise PrecisionExhausted(f"the Monte Carlo value overflows (r={sig.r}, "
                                 f"delta={scheme.delta})") from None
    return LimitErrorResult(value, Method.MONTE_CARLO, estimate, sample_count=samples)


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
