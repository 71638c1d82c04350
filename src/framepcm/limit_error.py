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
  every jump cos t = delta(k+1/2)/r of the sawtooth.  On a piece the
  integrand is a trigonometric polynomial of degree d, so the classical
  Gauss-Legendre remainder (DLMF 3.5.19) with Bernstein's inequality
  bounds the error of an order before anything is evaluated: one call
  evaluates every piece once, at the lowest order whose bound meets the
  rounding floor, and its estimate is that certified bound plus a model
  of the rounding;
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

MONTE_CARLO integrates the sphere integral directly and is the coarse
referee for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
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
    "rotation_invariance_check",
    "LIMIT_CSV_FIELDS",
]

# default per-piece quadrature target, Monte Carlo sample count and the
# samples drawn per Monte Carlo batch
DEFAULT_PIECE_TOL = 1e-10
DEFAULT_MC_SAMPLES = 10 ** 6
_MC_BATCH = 1 << 17
# quadrature pieces evaluated per numpy slice: bounds the quadrature's
# memory at any R (4096 was the fastest of the sizes measured)
_QUAD_CHUNK = 4096
# the Gauss-Legendre orders the quadrature chooses from, lowest first
_QUAD_ORDERS = (4, 8, 16, 32, 64, 128, 256, 512)
# a rational upper bound on pi (math.pi lies below it)
_PI_UP = Fraction(math.nextafter(math.pi, 4.0))
# AUTO takes the quadrature only below this R = r/delta.  Measured per call
# at d = 2..12 with one BLAS thread, the quadrature costs 0.12-0.14 ms
# against the series' 0.48-0.57 ms at R = 80.3, and 0.17-0.20 ms against
# 0.47-0.54 ms at R = 160.3: since the quadrature evaluates one order, it
# is the cheaper route up to R ~ 500, but moving the crossover would move
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
    """compute(), or ``PrecisionExhausted`` where its value overflows or
    underflows to zero, which no route's target or prefactor survives."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not 0.0 < abs(value) < math.inf:
        raise PrecisionExhausted(f"{what} leaves binary64 (r={r}, delta={delta})")
    return value


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

def _breakpoints(r: float, delta: float) -> np.ndarray:
    """Jump locations of t |-> Delta(r cos t) in (0, pi), sorted ascending.

    The cosines c come out ascending and arccos is decreasing, so reversing
    the angles sorts them.
    """
    k_lo = math.floor(-r / delta - 0.5)
    k_hi = math.ceil(r / delta + 0.5)
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    c = delta * (k + 0.5) / r
    c = c[(c > -1.0) & (c < 1.0)]
    return np.arccos(c)[::-1]


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
    2n-th derivative by degree^{2n} sup; the piece widths sum to pi.  The
    comparison is exact, in integers.
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


def _quad_integral(r: float, delta: float, sin_pow: int, tol: float | None):
    """Breakpoint-aware Gauss-Legendre for int_0^pi Delta(r cos t) cos t sin^p t dt.

    On the piece between two jumps the integrand is (r cos t - delta m)
    cos t sin^p t: a trigonometric polynomial of degree p + 2 with sup-norm
    at most 2r + delta, whose Gauss-Legendre error ``_quad_order`` bounds
    a priori.  The call takes the lowest order whose summed bound meets
    the rounding floor npieces EPS delta (and leaves the target room for
    that floor), then evaluates every piece once at that order, over
    slices of _QUAD_CHUNK pieces: beyond the O(R) piece arrays its memory
    is bounded at any R (about 15 MB at its peak at d = 3, R = 1e5, where
    the order is 4).

    The estimate is the certified truncation bound plus a rounding model:
    the floor, one rounding of about EPS delta per piece, and the relative
    rounding of the products and the dot product.
    ``tol`` is the target (default DEFAULT_PIECE_TOL per piece);
    ``PrecisionExhausted`` when the estimate would exceed it or no order
    of _QUAD_ORDERS is fine enough.  Returns (value, estimate, piece
    count).
    """
    if tol is not None and not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    pts = np.concatenate(([0.0], _breakpoints(r, delta), [math.pi]))
    widths = np.diff(pts)
    keep = widths > 1e-15
    lo = pts[:-1][keep]
    half = 0.5 * widths[keep]
    npieces = lo.size
    target = tol if tol is not None else DEFAULT_PIECE_TOL * npieces
    floor = npieces * EPS * delta
    order, bound = _quad_order(2.0 * float(half.max()), sin_pow + 2,
                               2 * Fraction(r) + Fraction(delta), min(floor, target - floor))
    if order is not None:
        # the products and the order-term dot product round a piece by at
        # most (order + p + 6) EPS/2 of its integral of |f| (the gamma_n
        # bound), and |f| <= min(r, delta/2) |cos t| sin^p t integrates to
        # at most 2 min(r, delta/2) / (p + 1)
        relative = (order + sin_pow + 6) * EPS * min(r, 0.5 * delta) / (sin_pow + 1)
        estimate = bound + floor + relative
    if order is None or estimate > target:
        raise PrecisionExhausted(
            f"piecewise quadrature did not reach {target:.3e} (r={r}, delta={delta})"
        )
    scheme = QuantScheme(delta)
    pieces = np.empty(npieces)
    nodes, weights = gauss_legendre(order)
    for start in range(0, npieces, _QUAD_CHUNK):
        part = slice(start, start + _QUAD_CHUNK)
        theta = lo[part, None] + half[part, None] * (nodes[None, :] + 1.0)
        cos = np.cos(theta)
        f = quant_error(r * cos, scheme) * cos * np.sin(theta) ** sin_pow
        pieces[part] = half[part] * (f @ weights)
    return math.fsum(pieces.tolist()), estimate, npieces


# ---------------------------------------------------------------------------
# Bessel-series route
# ---------------------------------------------------------------------------

def _even_prefactor(r: float, delta: float, n: int) -> float:
    return (
        -(1.0 / math.pi ** n)
        * (delta ** n / r ** (n - 1))
        * (math.pi / 2 ** (2 * n - 2))
        * math.comb(2 * n - 2, n - 1)
        * math.factorial(n - 1)
    )


def _odd_prefactor(r: float, delta: float, n: int) -> float:
    return -(math.factorial(n - 1) / math.pi ** n) * (delta ** (n + 0.5) / r ** (n - 0.5))


def _series_target(r: float, delta: float, split: ParitySplit, tol: float | None) -> float:
    """Absolute target of the series route: ``tol``, else 1e-10 of the scale."""
    return tol if tol is not None else 1e-10 * split.scale(r, delta)


def _series_prefactor(r: float, delta: float, split: ParitySplit) -> float:
    prefactor = _even_prefactor if split.parity == "even" else _odd_prefactor
    return _binary64(lambda: prefactor(r, delta, split.n),
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
    sums = alternating_bessel_sums(split.order, split.order, [row[2] for row in rows],
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
    if not (r > 0 and delta > 0):
        raise ValueError("need r > 0 and delta > 0")
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
    MONTE_CARLO delegates to :func:`monte_carlo_limit` with defaults.
    """
    sig = _as_signal(x, scheme)
    d = sig.dim
    if d < 2:
        raise ValueError("need dimension >= 2")
    method = _as_method(method)
    if method == Method.MONTE_CARLO:
        return monte_carlo_limit(sig, scheme, samples=DEFAULT_MC_SAMPLES, seed=0)
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
    if not (r > 0 and all(delta > 0 for delta in deltas)):
        raise ValueError("need r > 0 and delta > 0")
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


def _random_rotation(d: int, rng) -> np.ndarray:
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def rotation_invariance_check(x, scheme: QuantScheme, rotations: int, seed: int,
                              method=Method.QUADRATURE, tol: float | None = None) -> float:
    """Max pairwise relative spread of limiting_error over random rotations of x.

    The limit depends on x only through its norm, so the spread must sit at
    the level of the integration tolerance.
    """
    if rotations < 2:
        raise ValueError("need at least 2 rotations")
    sig = _as_signal(x, scheme)
    rng = np.random.default_rng(seed)
    values = [limiting_error(sig, scheme, method, tol).value]
    for _ in range(rotations):
        qx = _random_rotation(sig.dim, rng) @ sig.x
        values.append(limiting_error(qx, scheme, method, tol).value)
    vmax, vmin = max(values), min(values)
    scale = max(abs(vmax), abs(vmin), 1e-300)
    return (vmax - vmin) / scale


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
