import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import jv

import framepcm
from framepcm import (
    PrecisionExhausted,
    alternating_bessel_sum,
    asymptotic_estimate,
    bessel_half_order,
    bessel_integral_int_order,
    bessel_large_x,
    bessel_series,
)
from framepcm.limit_error import integral_even
from framepcm.special_fn import alternating_bessel_sum_info

# scipy reference itself carries a couple of ulps; grant it this allowance
# when it plays the role of an extra oracle.
SCIPY_SLACK = 5e-15


def test_series_trivial_values():
    ev = bessel_series(0, 0.0, 1e-12)
    assert ev.value == 1.0 and ev.abs_error_bound == 0.0
    ev = bessel_series(1, 0.0, 1e-12)
    assert ev.value == 0.0 and ev.abs_error_bound == 0.0


def test_series_j1_at_1():
    # frozen from the alternating-series bracket (partial sums straddle it)
    ev = bessel_series(1, 1.0, 1e-12)
    assert abs(ev.value - 0.4400505857449335) <= ev.abs_error_bound + 1e-16
    assert ev.abs_error_bound <= 1e-12


def test_series_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bessel_series(0.3, 1.0, 1e-10)  # not a multiple of 1/2
    with pytest.raises(ValueError):
        bessel_series(1, 100.0, 1e-10)  # outside the evaluation domain
    with pytest.raises(ValueError):
        bessel_series(1, 1.0, 0.0)


def test_series_precision_exhausted_is_explicit():
    with pytest.raises(PrecisionExhausted) as info:
        bessel_series(0, 55.0, 1e-12)  # cancellation makes this unreachable
    assert info.value.achieved is not None and info.value.achieved > 1e-12


def test_integral_trivial_values():
    assert bessel_integral_int_order(0, 0.0).value == pytest.approx(1.0, abs=1e-14)
    assert bessel_integral_int_order(2, 0.0).value == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("n", range(0, 7))
def test_series_vs_integral_cross_method(n):
    for x in (0.25, 1.0, 3.0, 7.5, 12.0):
        a = bessel_series(n, x, 1e-9)
        b = bessel_integral_int_order(n, x)
        assert abs(a.value - b.value) <= a.abs_error_bound + b.abs_error_bound


def test_half_order_closed_forms():
    ev = bessel_half_order(0, math.pi / 2)
    assert ev.value == pytest.approx(2.0 / math.pi, abs=1e-14)
    assert bessel_half_order(0, math.pi).value == pytest.approx(0.0, abs=1e-14)
    a = bessel_half_order(2, 3.0)
    b = bessel_series(2.5, 3.0, 1e-12)
    assert abs(a.value - b.value) <= a.abs_error_bound + b.abs_error_bound
    with pytest.raises(ValueError):
        bessel_half_order(0, 0.0)


@pytest.mark.parametrize("n", range(0, 6))
def test_half_order_grid_against_series_and_scipy(n):
    order = n + 0.5
    for x in np.linspace(0.5, 50.0, 12):
        ev = bessel_half_order(n, float(x))
        ref = jv(order, x)
        assert abs(ev.value - ref) <= ev.abs_error_bound + SCIPY_SLACK
        if x <= 12.0:
            s = bessel_series(order, float(x), 1e-8)
            assert abs(ev.value - s.value) <= ev.abs_error_bound + s.abs_error_bound


def test_half_order_vs_series_full_range():
    # the two routes agree within combined certified bounds on (0, 50];
    # the series bound legitimately explodes at large x and the inequality
    # must still hold
    for x in np.linspace(0.5, 50.0, 25):
        a = bessel_series(0.5, float(x), math.inf)
        b = bessel_half_order(0, float(x))
        assert abs(a.value - b.value) <= a.abs_error_bound + b.abs_error_bound


@pytest.mark.parametrize("order", [0, 1, 3, 6, 1.5, 4.5])
def test_large_x_route(order):
    for x in (15.0, 30.0, 80.0):
        ev = bessel_large_x(order, x)
        ref = jv(order, x)
        assert abs(ev.value - ref) <= ev.abs_error_bound + SCIPY_SLACK
        assert ev.abs_error_bound < 1e-9


def test_envelope_exact_at_order_half():
    env = asymptotic_estimate(0.5, 2.7)
    assert env.mu == 0.0 and env.residual_bound == 0.0
    assert env.main_term == pytest.approx(math.sqrt(2 / (math.pi * 2.7)) * math.sin(2.7))


def test_envelope_branch_table():
    # 0 < x < sqrt(mu) with order > 1/2 selects c = 5/4
    assert asymptotic_estimate(3, 2.0).c == 1.25
    assert asymptotic_estimate(3, 4.0).c == pytest.approx(math.sqrt(2) / 2)
    assert asymptotic_estimate(0.5, 9.0).c == pytest.approx((2 / math.pi) ** 1.5)
    assert asymptotic_estimate(1, 10.0).omega == pytest.approx(0.75 * math.pi)


def test_envelope_bound_holds_for_j1_at_10():
    ev = bessel_series(1, 10.0, 1e-9)
    env = asymptotic_estimate(1, 10.0)
    assert env.residual_bound == pytest.approx((math.sqrt(2) / 2) * 0.75 * 10.0 ** -1.5)
    assert abs(ev.value - env.main_term) <= env.residual_bound + ev.abs_error_bound


def test_envelope_grid_no_violations():
    for twice in range(1, 13):
        order = twice / 2.0
        for x in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
            if twice % 2 == 0:
                ev = bessel_integral_int_order(int(order), x)
            elif x >= order:
                ev = bessel_half_order(int(order - 0.5), x)
            else:
                ev = bessel_series(order, x, 1e-9)
            env = asymptotic_estimate(order, x)
            assert abs(ev.value - env.main_term) <= env.residual_bound + ev.abs_error_bound


def test_alternating_sum_half_order_integer_R_is_zero():
    ev = alternating_bessel_sum(0.5, 0.5, 1.0, 1e-12)
    assert ev.value == 0.0 and ev.abs_error_bound == 0.0


def test_alternating_sum_matches_quadrature_backsolve():
    # invert the even-case closed form: quadrature integral / prefactor
    r, delta, n = 10.25, 1.0, 2
    quad_val = integral_even(r, delta, n, method="quadrature", tol=1e-12)
    prefac = -(1 / math.pi ** n) * (delta ** n / r ** (n - 1)) \
        * (math.pi / 2 ** (2 * n - 2)) * math.comb(2 * n - 2, n - 1) * math.factorial(n - 1)
    ev = alternating_bessel_sum(2, 2, r / delta, 1e-11)
    assert ev.value == pytest.approx(quad_val / prefac, abs=2e-10)


@pytest.mark.parametrize("R", [300.25, 500.375])
def test_alternating_sum_large_R_upper_estimate(R):
    # |sum| <= (5/4) (1/pi) sqrt(1/R) * zeta(3/2)-style full sum, order 1
    ev = alternating_bessel_sum(1, 1, R, 1e-10)
    full = 2.7 / 1.0  # sum_{k>=1} k^{-3/2} ~ 2.612; 2.7 is a safe cover
    assert abs(ev.value) <= 1.25 / math.pi * math.sqrt(1.0 / R) * full


def test_alternating_sum_bracket_consistency():
    # loosening the tolerance may not move the value outside the loose bracket
    tight = alternating_bessel_sum(1.5, 1.5, 37.25, 1e-12)
    loose = alternating_bessel_sum(1.5, 1.5, 37.25, 1e-6)
    assert abs(tight.value - loose.value) <= loose.abs_error_bound + tight.abs_error_bound


def test_alternating_sum_against_brute_force():
    # brute-force scipy partial sum with k^{-(p+1/2)} tail allowance
    order, p, R = 2, 2, 25.375
    K = 200000
    k = np.arange(1, K + 1, dtype=float)
    brute = math.fsum(((-1.0) ** k) * k ** -p * jv(order, 2 * math.pi * k * R))
    tail_allow = (1 / (math.pi * math.sqrt(R))) * (2.0 / math.sqrt(K)) * K ** -p * K
    ev = alternating_bessel_sum(order, p, R, 1e-11)
    assert abs(ev.value - brute) <= 1e-9 + tail_allow


def test_alternating_sum_tolerance_failure_is_explicit():
    with pytest.raises(PrecisionExhausted):
        alternating_bessel_sum(1, 1, 5.5, 1e-30)


def test_determinism():
    a = alternating_bessel_sum(2.5, 2.5, 12.125, 1e-10)
    b = alternating_bessel_sum(2.5, 2.5, 12.125, 1e-10)
    assert a.value == b.value and a.abs_error_bound == b.abs_error_bound


# (order, R): integer and half-integer orders, two of them near eps = 1/2
# where the tail's phase sums share a directly summed head
_PURITY_CASES = [(1.5, 57.4), (2.0, 20.4995), (6.0, 1000.3), (6.5, 10.5041)]


def test_alternating_sum_caches_are_pure():
    # each case first in a fresh process, then here after calls at other
    # orders, other R and eps ~ 1/2: the (BesselEval, K) must not change
    script = ("import sys; from framepcm.special_fn import alternating_bessel_sum_info as f; "
              "print(repr(f(float(sys.argv[1]), float(sys.argv[1]), float(sys.argv[2]), 1e-10)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(framepcm.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    fresh = [subprocess.run([sys.executable, "-c", script, repr(order), repr(R)], env=env,
                            capture_output=True, text=True, check=True).stdout.strip()
             for order, R in _PURITY_CASES]
    for order in (0.5, 3.0, 6.0, 9.5):
        for R in (1.3, 100.375, 3000.4993):
            alternating_bessel_sum_info(order, order, R, 1e-10)
    for (order, R), first in zip(_PURITY_CASES, fresh):
        assert repr(alternating_bessel_sum_info(order, order, R, 1e-10)) == first


def _direct_part_loop(order, R, K):
    """The per-term loop that the array evaluation of the direct part
    replaced: scalar Hankel sums a_j / x^j at the reduced phase, each cut
    by walking the first-omitted-term rule (spare 26), or the series for
    x <= 12.  Returns (sum, bound, rounding scale sum_k w amp (|P|+|Q|))."""
    from framepcm.special_fn import EPS, _hankel_coeffs, _series_eval

    eps_frac = R - math.floor(R)
    omega = math.pi * order / 2.0 + math.pi / 4.0
    lp_min = max(1, math.ceil((order - 0.5) / 2.0))
    lq_min = max(1, math.ceil((order - 1.5) / 2.0))
    jmax = 2 * max(lp_min, lq_min) + 26
    a = _hankel_coeffs(order, jmax)

    def cut(x, first, l):
        while first + 2 * l + 2 <= jmax and (
                abs(a[first + 2 * l + 2]) / x ** (first + 2 * l + 2)
                < abs(a[first + 2 * l]) / x ** (first + 2 * l)):
            l += 1
        return l

    terms, bound, scale = [], 0.0, 0.0
    for k in range(1, K + 1):
        x = 2.0 * math.pi * R * k
        w = k ** -order
        if x <= 12.0:
            ev = _series_eval(order, x)
            v, b = ev.value, ev.abs_error_bound + 2 * EPS * x
            scale += w * abs(v)
        else:
            lp, lq = cut(x, 0, lp_min), cut(x, 1, lq_min)
            P = math.fsum((-1.0) ** m * a[2 * m] / x ** (2 * m) for m in range(lp))
            Q = math.fsum((-1.0) ** m * a[2 * m + 1] / x ** (2 * m + 1) for m in range(lq))
            bP = abs(a[2 * lp]) / x ** (2 * lp) + 4 * lp * EPS
            bQ = abs(a[2 * lq + 1]) / x ** (2 * lq + 1) + 4 * lq * EPS
            chi = 2.0 * math.pi * math.fmod(k * eps_frac, 1.0) - omega
            amp = math.sqrt(2.0 / (math.pi * x))
            v = amp * (math.cos(chi) * P - math.sin(chi) * Q)
            b = (amp * (bP + bQ) + amp * (abs(P) + abs(Q)) * 2 * math.pi * EPS * (k + 4)
                 + 4 * EPS * abs(v))
            scale += w * amp * (abs(P) + abs(Q))
        terms.append((-1.0) ** k * w * v)
        bound += w * b + 4 * EPS * w * abs(v)
    return math.fsum(terms), bound, scale


@pytest.mark.parametrize("order, R", [(0.0, 0.3), (2.0, 10.25), (5.5, 57.4),
                                      (12.0, 3.7), (6.0, 4321.49)])
def test_direct_part_matches_per_term_loop(order, R):
    # same terms and cuts; only the rounding of each Hankel term and the
    # order of the sums changed, a few ulps of each term's scale
    from framepcm.special_fn import EPS, _alt_sum_direct

    ref, ref_bound, scale = _direct_part_loop(order, R, 256)
    value, bound = _alt_sum_direct(order, order, R, R - math.floor(R), 256)
    assert abs(value - ref) <= 32 * EPS * scale
    assert bound == pytest.approx(ref_bound, rel=1e-14, abs=0.0)
