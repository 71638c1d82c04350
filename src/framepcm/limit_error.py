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
  every jump cos t = delta(k+1/2)/r of the sawtooth;
* BESSEL_SERIES -- the closed form through the alternating Bessel sums
  (the Fourier expansion of the sawtooth composed with the finite
  cosine-projection identities), delegated to
  ``special_fn.alternating_bessel_sum``.

AUTO, the default, picks one of the two per call (``_auto_route``): the
quadrature below R = r/delta = 100 when its rounding floor meets the
target, the series otherwise, and the quadrature again if the series
raises ``PrecisionExhausted``.  The result names the route that ran.

MONTE_CARLO integrates the sphere integral directly and is the coarse
referee for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .frames import uniform_sphere_points
from .quantization import QuantScheme, SignalSpec, quant_error
from .special_fn import EPS, PrecisionExhausted, alternating_bessel_sum_info, gauss_legendre

__all__ = [
    "Method",
    "LimitErrorResult",
    "ParitySplit",
    "parity_split",
    "angular_constant",
    "integral_even",
    "integral_odd",
    "limiting_error",
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
# AUTO takes the quadrature only below this R = r/delta: measured per call
# at d = 2..12, the quadrature costs 0.27-0.46 ms against the series'
# 0.36-0.61 ms at R = 80.3, and 0.48-0.88 ms against 0.35-0.60 ms at R = 160.3
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
        return delta ** self.s / r ** (self.s - 1.0)


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
    """Jump locations of t |-> Delta(r cos t) in (0, pi), sorted ascending."""
    k_lo = math.floor(-r / delta - 0.5)
    k_hi = math.ceil(r / delta + 0.5)
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    c = delta * (k + 0.5) / r
    c = c[(c > -1.0) & (c < 1.0)]
    return np.sort(np.arccos(c))


def _quad_integral(r: float, delta: float, sin_pow: int, tol: float | None):
    """Breakpoint-aware Gauss-Legendre for int_0^pi Delta(r cos t) cos t sin^p t dt.

    Doubles the per-piece rule until the summed inter-order disagreement
    meets the tolerance (``tol``; default DEFAULT_PIECE_TOL per piece).
    Each order is evaluated over slices of _QUAD_CHUNK pieces, so beyond
    the O(R) piece arrays the memory stays bounded at any R (at d = 3,
    R = 1e5 it allocates about 17 MB at its peak, one slice of all pieces
    about 240 MB); returns (value, estimate, piece count).
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
    scheme = QuantScheme(delta)
    pieces = np.empty(npieces)

    prev = None
    for order in (16, 32, 64, 128, 256, 512):
        nodes, weights = gauss_legendre(order)
        for start in range(0, npieces, _QUAD_CHUNK):
            part = slice(start, start + _QUAD_CHUNK)
            theta = lo[part, None] + half[part, None] * (nodes[None, :] + 1.0)
            cos = np.cos(theta)
            f = quant_error(r * cos, scheme) * cos * np.sin(theta) ** sin_pow
            pieces[part] = half[part] * (f @ weights)
        val = math.fsum(pieces.tolist())
        if prev is not None:
            diff = abs(val - prev) + npieces * EPS * delta
            if diff <= target:
                return val, diff, npieces
        prev = val
    raise PrecisionExhausted(
        f"piecewise quadrature did not reach {target:.3e} (r={r}, delta={delta})"
    )


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


def _series_integral(r: float, delta: float, split: ParitySplit, tol: float | None):
    prefactor = _even_prefactor if split.parity == "even" else _odd_prefactor
    prefac = prefactor(r, delta, split.n)
    ev, trunc_k = alternating_bessel_sum_info(split.order, split.order, r / delta,
                                              _series_target(r, delta, split, tol) / abs(prefac))
    return prefac * ev.value, abs(prefac) * ev.abs_error_bound, trunc_k


def _auto_route(r: float, delta: float, split: ParitySplit, tol: float | None) -> Method:
    """The route AUTO tries first.

    The quadrature below R = _AUTO_QUAD_MAX_R, where it is the cheaper one,
    provided its rounding floor (2R + 2) EPS delta (one rounding of about
    EPS delta per piece, 2R + 2 pieces at most) already meets the target
    the series would work to; the series otherwise.  The floor rules the
    quadrature out at d = 8, R = 20.3 and at d = 12 beyond R ~ 6.6.
    """
    R = r / delta
    if R < _AUTO_QUAD_MAX_R and (2 * R + 2) * EPS * delta <= _series_target(r, delta, split, tol):
        return Method.QUADRATURE
    return Method.BESSEL_SERIES


class _Integral(NamedTuple):
    value: float
    error_estimate: float
    breakpoint_count: int | None
    truncation_K: int | None
    method: Method  # the route that ran, never AUTO


def _integral_full(r, delta, split: ParitySplit, method, tol) -> _Integral:
    """The 1-D integral by ``method``; AUTO resolves to the route that runs.

    AUTO falls back to the quadrature when the series raises
    ``PrecisionExhausted`` (e.g. d = 40, R = 100.375, where the order-20
    sum cancels below binary64 resolution).
    """
    if not (r > 0 and delta > 0):
        raise ValueError("need r > 0 and delta > 0")
    method = _as_method(method)
    if method == Method.AUTO:
        method = _auto_route(r, delta, split, tol)
        if method == Method.BESSEL_SERIES:
            try:
                return _integral_full(r, delta, split, method, tol)
            except PrecisionExhausted:
                method = Method.QUADRATURE
    if method == Method.QUADRATURE:
        val, err, npieces = _quad_integral(r, delta, split.sin_pow, tol)
        return _Integral(val, err, npieces, None, method)
    if method == Method.BESSEL_SERIES:
        val, err, trunc_k = _series_integral(r, delta, split, tol)
        return _Integral(val, err, None, trunc_k, method)
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
    cd = angular_constant(d)
    return LimitErrorResult(
        value=d * cd * abs(res.value),
        method=res.method,
        error_estimate=d * cd * res.error_estimate,
        breakpoint_count=res.breakpoint_count,
        truncation_K=res.truncation_K,
    )


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
