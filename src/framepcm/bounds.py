"""Constants and two-sided bounds for the limiting error, plus rate fits.

The two-sided estimates for the 1-D integrals take the form

    lower_coef(eps) * delta^{s} / r^{s-1}  <=  |integral|  <=  upper_coef * delta^{s} / r^{s-1}

(s = n + 1/2 for the even sine power, s = n + 1 for the odd one), valid
for eps = frac(r/delta) inside a parity-specific window and r/delta above
an empirical threshold.  The classical fixed-phase coefficient kernels are

    M1(eps) = 4/5 |cos(2 pi eps - 3 pi/4)|   - 5/4 sum_{k>=2} k^{-(2n+1)/2}
    M2(eps) = 7/8 |cos(2 pi eps -   pi/2)|   - 8/7 sum_{k>=2} k^{-(n+1)}

The cosine phase of the leading Bessel term depends on the order: the
Hankel asymptotics J_nu(x) ~ sqrt(2/(pi x)) cos(x - nu pi/2 - pi/4)
(DLMF 10.17.3) give (2n+1) pi/4 in the even case and (n+1) pi/2 in the
odd case, s pi/2 in both.  The printed phases match only half of the
orders: they are wrong for even n in the even case and for odd n in the
odd case, i.e. for every d = 0 or 3 (mod 4).  There the paper's kernel over-claims on whole
eps-families (even n=2 for eps ~ 0.35-0.44, even n=4 for eps ~ 0.29-0.46,
odd n=1 for eps ~ 0.27-0.31, odd n=3 on the whole window); the d=3 call
``lower_bound(3, 100.2887, 1.0, order_matched_phase=False)`` claims
1.70e-4 against a true limit of 2.61e-6.

``lower_bound`` (the d-dimensional report) and ``sandwich_check`` (the
check on the 1-D integral) are two views of one bound with one set of
hypotheses.  They default to the order-matched phase, which never
over-claims on a dense eps sweep for n <= 4 in either parity; where its
kernel goes negative the lower bound is the trivial 0.  The paper's kernel stays available through
``order_matched_phase=False``.  ``M1_constant`` and ``M2_constant`` keep
the printed formula as their default, since they reproduce the paper's
worst-case values 0.138 and 0.02.

Zeta tails come from the Euler-Maclaurin routine that ``special_fn``
uses for its own zeta sums; its certified error (a few ulps) is far below
every tolerance used here.
``scaling_slope_fit`` recovers the exponent (d+1)/2 of the sharp
decay rate from log-log sweeps at fixed eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np

# limiting_error is not called here but stays importable from this module:
# perfbench/tracing.py wraps framepcm.bounds.limiting_error
from .limit_error import (Method, ParitySplit, _base_coef, _checked_ratio,  # noqa: F401
                          _integrals, angular_constant, limiting_error,
                          limiting_error_grid, parity_split)
from .special_fn import PrecisionExhausted, _zeta_em

__all__ = [
    "BoundReport",
    "SandwichResult",
    "zeta_tail",
    "M1_constant",
    "M2_constant",
    "I_constant",
    "lower_bound",
    "sandwich_check",
    "scaling_slope_fit",
    "EVEN_WINDOW",
    "ODD_WINDOW",
    "DEFAULT_R_MIN",
    "BOUND_CSV_FIELDS",
]

# eps-windows where the lower bounds are claimed, and the empirical
# "r/delta big enough" threshold (measured by sweeping R; below ~50 the
# asymptotic envelope slack is not yet dominant).
EVEN_WINDOW = (0.25, 0.5)
ODD_WINDOW = (1.0 / 6.0, 1.0 / 3.0)
DEFAULT_R_MIN = 50.0
_WINDOWS = {"even": EVEN_WINDOW, "odd": ODD_WINDOW}

# closed windows: membership must not flip on the one rounding of
# eps = fmod(r, delta)/delta
_WINDOW_SLACK = 1e-9


def _in_window(eps: float, window) -> bool:
    return window[0] - _WINDOW_SLACK <= eps <= window[1] + _WINDOW_SLACK


@lru_cache(maxsize=512)  # one p per d of the bounds, 439 below d = 441: bounded, not one per p seen
def zeta_tail(p: float) -> float:
    """sum_{k>=2} k^{-p} = zeta(p) - 1 by Euler-Maclaurin (15 terms and
    B_2 .. B_16 corrections), with a certified bound of a few ulps; for
    p = 1.5, 2, ..., 13 the value is within 2 ulps of zeta(p) - 1.
    """
    if p <= 1:
        raise ValueError("tail diverges for p <= 1")
    return float(_zeta_em([p], 2)[0][0])


# per parity (a, b, the paper's fixed phase) of the kernel
# a |cos(2 pi eps - phase)| - b zeta_tail(s), and b (1 + zeta_tail(s)) of
# the upper coefficient; the order-matched phase is s pi/2
_KERNELS = {"even": (0.8, 1.25, 3.0 * math.pi / 4.0), "odd": (0.875, 8.0 / 7.0, math.pi / 2.0)}


def _kernel(eps: float, split: ParitySplit, order_matched_phase: bool) -> float:
    a, b, paper_phase = _KERNELS[split.parity]
    phase = split.s * math.pi / 2.0 if order_matched_phase else paper_phase
    return a * abs(math.cos(2 * math.pi * eps - phase)) - b * zeta_tail(split.s)


def M1_constant(eps: float, n: int, order_matched_phase: bool = False) -> float:
    """Even-case lower-bound kernel; may legitimately be negative outside
    the window [1/4, 1/2].  ``order_matched_phase`` replaces the fixed
    3 pi/4 phase by the order's own asymptotic phase (2n+1) pi/4."""
    if n < 2:
        raise ValueError("even-case kernel needs n >= 2")
    return _kernel(eps, parity_split(2 * n), order_matched_phase)


def M2_constant(eps: float, n: int, order_matched_phase: bool = False) -> float:
    """Odd-case lower-bound kernel on [1/6, 1/3]; order-matched phase is
    (n+1) pi/2 in place of the fixed pi/2."""
    if n < 1:
        raise ValueError("odd-case kernel needs n >= 1")
    return _kernel(eps, parity_split(2 * n + 1), order_matched_phase)


def I_constant(d: int) -> float:
    """Angular constant lifting the 1-D integral bounds to the d-dim limit.

    Defined so that C * delta^{(d+1)/2} / r^{(d-1)/2} with
    C = (1-D coefficient) * I is literally a bound on the independently
    computed limiting error: I = d * c_d with c_d the exact surface-measure
    ratio.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    return d * angular_constant(d)


@dataclass(frozen=True)
class BoundReport:
    d: int
    r: float
    delta: float
    eps: float
    lower: float
    upper_scaling: float
    M: float
    I_const: float
    C_const: float
    window_ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


BOUND_CSV_FIELDS = ["d", "r", "delta", "eps", "lower", "upper_scaling", "M",
                    "I_const", "C_const", "window_ok"]


def _bound(d: int, r: float, delta: float, order_matched_phase: bool):
    """The 1-D two-sided bound at (d, r, delta) as (split, eps, kernel M,
    lower and upper coefficients, scale, window_ok, unmet), unmet naming
    the first unmet hypothesis (eps outside the parity window, then
    R = r/delta below DEFAULT_R_MIN) or None when both hold."""
    if d < 3:
        raise ValueError("need d >= 3")
    R = _checked_ratio(r, delta)
    eps = math.fmod(r, delta) / delta  # frac(r/delta), rounded once: fmod is exact
    split = parity_split(d)
    M = _kernel(eps, split, order_matched_phase)
    base = _base_coef(split.n, split.parity)
    window = _WINDOWS[split.parity]
    window_ok = _in_window(eps, window)
    if not window_ok:
        unmet = f"hypothesis unmet: eps={eps:.6g} outside window {window}"
    elif R < DEFAULT_R_MIN:
        unmet = f"hypothesis unmet: R={R:.6g} below threshold {DEFAULT_R_MIN}"
    else:
        unmet = None
    upper_coef = _KERNELS[split.parity][1] * base * (1.0 + zeta_tail(split.s))
    return split, eps, M, base * M, upper_coef, split.scale(r, delta), window_ok, unmet


def lower_bound(d: int, r: float, delta: float,
                order_matched_phase: bool = True) -> BoundReport:
    """Full report for the limiting-error lower bound at (d, r, delta).

    The bound is claimed only under the hypotheses of
    :func:`sandwich_check` (eps in the parity window, R >= DEFAULT_R_MIN);
    elsewhere lower = 0 (report, never extrapolate), and window_ok tells
    whether eps lies in the window.  The kernel uses the order-matched
    phase unless ``order_matched_phase=False`` asks for the paper's fixed
    phase, which can over-claim (see the module docstring).
    """
    _, eps, M, low_c, up_c, scale, window_ok, unmet = _bound(d, r, delta, order_matched_phase)
    I = I_constant(d)
    lower = I * low_c * scale if unmet is None and low_c > 0 else 0.0
    return BoundReport(d=d, r=r, delta=delta, eps=eps, lower=lower,
                       upper_scaling=I * up_c * scale, M=M, I_const=I, C_const=I * low_c,
                       window_ok=window_ok)


@dataclass(frozen=True)
class SandwichResult:
    """Outcome of the two-sided check on a 1-D integral.

    ``status`` is "ok" when the hypotheses held and the check ran,
    "unresolved" (``holds`` None) when the integral's estimate is at least
    its magnitude; otherwise it explains which hypothesis was unmet, and
    ``holds``, ``integral_abs`` and ``method`` (the route) are None.
    """

    lower: float
    upper: float
    integral_abs: float | None
    holds: bool | None
    status: str
    method: Method | None = None


def sandwich_check(d: int, r: float, delta: float,
                   order_matched_phase: bool = True) -> SandwichResult:
    """Evaluate lower <= |integral| <= upper for the 1-D integral of dimension d.

    The integral comes from AUTO (the certified series from R = 100 on);
    the result names the route that ran.  The check needs eps = frac(r/delta)
    in the parity window and R = r/delta >= DEFAULT_R_MIN; d must be at
    least 3, and r, delta and R positive and finite.

    A negative lower coefficient (the order-matched kernel at eps where the
    leading term is small) degrades the lower bound to 0, which is still
    an honest claim.  ``order_matched_phase=False`` selects the paper's
    fixed-phase kernel, whose lower bound can be false.  Window or
    threshold violations return a hypothesis-unmet status instead of a
    boolean, and so does an unresolved integral (d = 165, R = 5000.3),
    which can neither confirm nor refute the bound.
    """
    split, _, _, low_c, up_c, scale, _, unmet = _bound(d, r, delta, order_matched_phase)
    if unmet is not None:
        return SandwichResult(math.nan, math.nan, None, None, unmet)
    lower = max(low_c, 0.0) * scale
    upper = up_c * scale
    (integral,) = _integrals(r, [delta], split, Method.AUTO, None)
    val = abs(integral.value)
    holds, status = (None, "unresolved") if integral.unresolved else (lower <= val <= upper, "ok")
    return SandwichResult(lower, upper, val, holds, status, integral.method)


def scaling_slope_fit(d: int, r: float, eps_fixed: float, k_range) -> float:
    """Least-squares slope of log(limiting error) vs log(delta).

    The sweep uses delta_k = r / (k + eps_fixed) so the fractional part is
    pinned to eps_fixed at every point; the expected slope is (d+1)/2.
    The points come from one ``limiting_error_grid`` call: each takes its
    default AUTO route, so sweeps to large R use the certified series, not
    the quadrature, whose own estimate exceeds its value there at d >= 8.
    The series points share one batched alternating Bessel sum, whose
    fixed cost they pay once: measured with one BLAS thread on a 2-vCPU
    VM at d = 3, 4, 8 and 12, a one-row call costs 0.045-0.050 ms and a
    nine-row call 0.080-0.094 ms.  Each point's route, value and estimate
    are those of ``limiting_error`` at that point alone.  A point that is
    unresolved (``LimitErrorResult.unresolved``) or not positive raises
    ``PrecisionExhausted`` naming it rather than fitting noise.  Requires
    eps_fixed inside the parity window and at least 4 points.
    """
    ks = [int(k) for k in k_range]
    if len(ks) < 4:
        raise ValueError("need at least 4 sweep points")
    window = _WINDOWS[parity_split(d).parity]
    if not _in_window(eps_fixed, window):
        raise ValueError(f"eps_fixed={eps_fixed} outside the parity window {window}")
    deltas = [r / (k + eps_fixed) for k in ks]
    results = limiting_error_grid(d, r, deltas)
    for k, res in zip(ks, results):
        if res.unresolved or not res.value > 0:  # no logarithm to fit
            raise PrecisionExhausted(
                f"slope point k={k} (d={d}, eps={eps_fixed}) is unresolved: the "
                f"{res.method.value} value {res.value:.3e} has estimate "
                f"{res.error_estimate:.3e} >= |value|")
    slope, _ = np.polyfit([math.log(delta) for delta in deltas],
                          [math.log(res.value) for res in results], 1)
    return float(slope)
