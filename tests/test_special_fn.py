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
    asymptotic_estimate,
    bessel_half_order,
    bessel_integral_int_order,
    bessel_large_x,
    bessel_series,
)
from framepcm.limit_error import integral_even
from framepcm.special_fn import _series_eval, alternating_bessel_sum_info, alternating_bessel_sums

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


@pytest.mark.parametrize("x, tol", [(1.0, math.nan), (math.nan, 1e-10)])
def test_series_rejects_a_nan_argument_or_tol(x, tol):
    # a nan tol judged nothing, and a nan argument ran 600 terms before
    # it raised PrecisionExhausted
    with pytest.raises(ValueError, match="tol must be positive" if x == 1.0 else "nonnegative"):
        bessel_series(0, x, tol)


def test_series_refuses_terms_still_growing_after_600():
    # x = 2e4 is inside order 100's domain 2 order^2, but the terms'
    # ratio (x/2)^2 / ((k + 1)(k + 101)) is still above 1 at k = 600
    with pytest.raises(PrecisionExhausted, match="still growing after 600 terms"):
        bessel_series(100.0, 2e4, 1e-10)


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


def test_envelope_says_nothing_where_x_to_the_minus_3_halves_overflows():
    # x ** -1.5 raised a raw OverflowError below x ~ 1e-205
    assert asymptotic_estimate(0, 1e-300).residual_bound == math.inf
    assert asymptotic_estimate(0, 1e-200).residual_bound < math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_x_route_where_the_hankel_terms_overflow():
    # order 300 at x = 10: the terms overflowed and the value and bound were nan
    ev = bessel_large_x(300, 10.0)
    assert (ev.value, ev.abs_error_bound) == (0.0, math.inf)


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
    ev = alternating_bessel_sum_info(0.5, 1.0, 1e-12)[0]
    assert ev.value == 0.0 and ev.abs_error_bound == 0.0


def test_alternating_sum_matches_quadrature_backsolve():
    # invert the even-case closed form: quadrature integral / prefactor
    r, delta, n = 10.25, 1.0, 2
    quad_val = integral_even(r, delta, n, method="quadrature", tol=1e-12)
    prefac = -(1 / math.pi ** n) * (delta ** n / r ** (n - 1)) \
        * (math.pi / 2 ** (2 * n - 2)) * math.comb(2 * n - 2, n - 1) * math.factorial(n - 1)
    ev = alternating_bessel_sum_info(2, r / delta, 1e-11)[0]
    assert ev.value == pytest.approx(quad_val / prefac, abs=2e-10)


@pytest.mark.parametrize("R", [300.25, 500.375])
def test_alternating_sum_large_R_upper_estimate(R):
    # |sum| <= (5/4) (1/pi) sqrt(1/R) * zeta(3/2)-style full sum, order 1
    ev = alternating_bessel_sum_info(1, R, 1e-10)[0]
    full = 2.7 / 1.0  # sum_{k>=1} k^{-3/2} ~ 2.612; 2.7 is a safe cover
    assert abs(ev.value) <= 1.25 / math.pi * math.sqrt(1.0 / R) * full


def test_alternating_sum_bracket_consistency():
    # loosening the tolerance may not move the value outside the loose bracket
    tight = alternating_bessel_sum_info(1.5, 37.25, 1e-12)[0]
    loose = alternating_bessel_sum_info(1.5, 37.25, 1e-6)[0]
    assert abs(tight.value - loose.value) <= loose.abs_error_bound + tight.abs_error_bound


def test_alternating_sum_against_brute_force():
    # brute-force scipy partial sum with k^{-(order+1/2)} tail allowance
    order, R = 2, 25.375
    K = 200000
    k = np.arange(1, K + 1, dtype=float)
    brute = math.fsum(((-1.0) ** k) * k ** -order * jv(order, 2 * math.pi * k * R))
    tail_allow = (1 / (math.pi * math.sqrt(R))) * (2.0 / math.sqrt(K)) * K ** -order * K
    ev = alternating_bessel_sum_info(order, R, 1e-11)[0]
    assert abs(ev.value - brute) <= 1e-9 + tail_allow


def test_alternating_sum_tolerance_failure_is_explicit():
    with pytest.raises(PrecisionExhausted):
        alternating_bessel_sum_info(1, 5.5, 1e-30)[0]


@pytest.mark.parametrize("order, R", [(9.5, 0.5), (12.0, 0.5), (12.0, 1.5), (12.0, 2.5),
                                      (12.0, 3.5)])
def test_alternating_sum_at_half_against_direct_sum(order, R):
    # eps = 1/2 exactly: the phase sums are real zeta values, weighted by
    # large Hankel coefficients at small R; past k = 200 the sum is below
    # 1e-21.  At order 12 below R = 2.5 the expansion at 2 pi R cannot
    # meet 1e-10, and the sum says so
    mpmath = pytest.importorskip("mpmath")
    if order == 12.0 and R < 2.5:
        with pytest.raises(PrecisionExhausted):
            alternating_bessel_sum_info(order, R, 1e-10)
        return
    ev = alternating_bessel_sum_info(order, R, 1e-10)[0]
    with mpmath.workdps(30):
        ref = mpmath.fsum((-1) ** k * mpmath.mpf(k) ** -order
                          * mpmath.besselj(order, 2 * mpmath.pi * k * mpmath.mpf(R))
                          for k in range(1, 201))
    assert abs(ev.value - ref) <= ev.abs_error_bound


@pytest.mark.parametrize("order, R", [(4, 10.5), (1, 100.5), (6.5, 57.5)])
def test_alternating_sum_bound_at_half_not_above_its_neighbour(order, R):
    # eps = 1/2 exactly takes the zeta tails, eps = 1/2 + 1e-7 the phase
    # sums; both rest on the same Euler-Maclaurin sums, so the exact point
    # may not carry the looser bound
    at = alternating_bessel_sum_info(order, R, 1e-10)[0]
    beside = alternating_bessel_sum_info(order, R + 1e-7, 1e-10)[0]
    assert at.abs_error_bound <= beside.abs_error_bound


def test_zeta_em_against_hurwitz_oracle():
    # sum_{k>=m0} k^-s = zeta(s, m0) (DLMF 25.11.1, continued to s < 1) by
    # Euler-Maclaurin (DLMF 2.10.1) with its Bernoulli remainder bound.
    # mpmath's Hurwitz zeta cancels down from zeta(s) ~ 1 to ~m0^{1-s}, so
    # it is worked at 40 digits past that cancellation
    mpmath = pytest.importorskip("mpmath")
    from framepcm.special_fn import _zeta_em

    s = [0.5, 1.5, 2.5, 4.5, 10.5, 30.0]
    for m0 in (1, 2, 65, 16385):
        values, bounds = _zeta_em(s, m0)
        for si, value, bound in zip(s, values, bounds):
            with mpmath.workdps(40 + math.ceil(si * math.log10(m0))):
                err = abs(mpmath.mpf(float(value)) - mpmath.zeta(si, m0))
            assert err <= bound, (si, m0, float(err), bound)


def test_determinism():
    a = alternating_bessel_sum_info(2.5, 12.125, 1e-10)[0]
    b = alternating_bessel_sum_info(2.5, 12.125, 1e-10)[0]
    assert a.value == b.value and a.abs_error_bound == b.abs_error_bound


# (order, R): integer and half-integer orders, two of them near eps = 1/2
# where the tail's phase sums have z close to 1
_PURITY_CASES = [(1.5, 57.4), (2.0, 20.4995), (6.0, 1000.3), (6.5, 10.5041)]


def test_alternating_sum_caches_are_pure():
    # each case first in a fresh process, then here after calls at other
    # orders, other R and eps ~ 1/2: the (BesselEval, K) must not change
    script = ("import sys; from framepcm.special_fn import alternating_bessel_sum_info as f; "
              "print(repr(f(float(sys.argv[1]), float(sys.argv[2]), 1e-10)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(framepcm.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    fresh = [subprocess.run([sys.executable, "-c", script, repr(order), repr(R)], env=env,
                            capture_output=True, text=True, check=True).stdout.strip()
             for order, R in _PURITY_CASES]
    for order in (0.5, 3.0, 6.0, 9.5):
        # R = 1.3 is past the reach of the expansion: a loose bound, not a raise
        alternating_bessel_sums(order, [1.3, 100.375, 3000.4993])
    for (order, R), first in zip(_PURITY_CASES, fresh):
        assert repr(alternating_bessel_sum_info(order, R, 1e-10)) == first


def _polylog(mpmath, q, beta):
    """mpmath.polylog(q, z) at z = e^{2 pi i beta}, q a multiple of 1/2, at 60
    digits."""
    with mpmath.workdps(60):
        return complex(mpmath.polylog(mpmath.mpf(q), mpmath.expjpi(2 * mpmath.mpf(beta))))


# the rows of the polylog check, (i, phases) per p with q = p + 1/2 + i:
# the smallest q at every phase, one q above it and the largest q <= 30 at
# two; mpmath needs ~0.1 s for each polylog at a half-integer q
_TAIL_BETAS = (1e-9, 1e-7, 4e-4, 0.01, 0.1, 0.3, 0.49, 0.5)


def _tail_rows(p):
    return [(0, _TAIL_BETAS), (1 + int(p) % 3, (4e-4, 0.1)), (math.floor(29.5 - p), (1e-9, 0.3))]


def test_phase_tails_against_polylog():
    # the vectorized phase sums sum_{k>=1} z^k k^-q against 60-digit
    # polylogarithms, at p in 1/2 N (half-integer q, and integer q by the
    # harmonic/log form)
    mpmath = pytest.importorskip("mpmath")
    from framepcm.special_fn import _phase_table, _phase_tails

    for p in (0.5, 1.0, 1.5, 2.0, 3.5, 4.0, 4.5, 6.0):
        rows = _tail_rows(p)
        top = max(i for i, _ in rows)
        for i, betas in rows:
            q = p + 0.5 + i
            for beta in betas:
                exact = _polylog(mpmath, q, beta)
                # Li_q(conj z) = conj Li_q(z) gives -beta without a second reference
                for sign in (1.0, -1.0) if beta < 1e-6 else (1.0,):
                    re, im, bounds = _phase_tails(_phase_table(p, top), [sign * beta])
                    ref = exact if sign > 0 else exact.conjugate()
                    assert abs(complex(re[0, i], im[0, i]) - ref) <= bounds[0, i], (
                        p, q, sign * beta)
                    assert bounds[0, i] <= 1e-11 * max(1.0, abs(ref)), (p, q, sign * beta)


# ---------------------------------------------------------------------------
# single-value Bessel routes against a 50-digit oracle
# ---------------------------------------------------------------------------

def _besselj_50(mpmath, order, x):
    with mpmath.workdps(50):
        return mpmath.besselj(mpmath.mpf(order), mpmath.mpf(x))


def _oracle_draws(seed, n, orders, x_of):
    import random

    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        order = rng.choice(orders)
        draws.append((order, x_of(rng, order)))
    return draws


def test_bessel_series_against_oracle():
    # the alternating series of DLMF 10.2.2 is bracketed by its first
    # omitted term once the terms decrease; the bound adds the rounding
    mpmath = pytest.importorskip("mpmath")
    orders = [t / 2 for t in range(0, 25)]
    for order, x in _oracle_draws(701, 60, orders,
                                  lambda rng, o: rng.uniform(0.0, 1.0) ** 2 * 2 * max(30, o * o)):
        ev = bessel_series(order, x, math.inf)
        assert abs(ev.value - _besselj_50(mpmath, order, x)) <= ev.abs_error_bound, (order, x)


@pytest.mark.parametrize("order, x", [(170.5, 50.0), (171.0, 30.0), (180.5, 100.0),
                                      (200.0, 100.0), (220.5, 120.0), (250.5, 100.0),
                                      (300.0, 30.0)])
def test_series_past_order_170_against_oracle(order, x):
    # Gamma(order + 1) leaves binary64 from order 170.5 on: the first term
    # is taken in logarithms.  J is a normal double at each point; where
    # the terms cancel (I/J ~ 1e12 at order 180.5, x = 100) the bound says
    # so instead of certifying the value
    mpmath = pytest.importorskip("mpmath")
    ev = _series_eval(order, x)
    exact = _besselj_50(mpmath, order, x)
    assert abs(ev.value - exact) <= ev.abs_error_bound, (order, x)
    if order in (170.5, 171.0, 250.5, 300.0):
        assert ev.abs_error_bound <= 1e-2 * abs(exact), (order, x)


def test_series_reports_cancelling_and_unrepresentable_terms():
    # J_200.5(150) = 5.39e-14 cancels from I_200.5(150) ~ 2e11: the bound
    # exceeds the value, and a tol below it raises; at x = 1 the first term
    # is below the normal range (at order 100, x = 1e-3 it underflowed to 0,
    # returned as 0 +- 0), and at order 200.5, x = 1000 the terms leave
    # binary64 (a raw ValueError from fsum of inf and -inf)
    ev = _series_eval(200.5, 150.0)
    assert ev.abs_error_bound > abs(ev.value)
    with pytest.raises(PrecisionExhausted):
        bessel_series(200.5, 150.0, 1e-13)
    for order, x in ((200.5, 1.0), (100.0, 1e-3)):
        with pytest.raises(PrecisionExhausted, match="not a normal double"):
            _series_eval(order, x)
    with pytest.raises(PrecisionExhausted, match="leave binary64"):
        _series_eval(200.5, 1000.0)


def test_bessel_half_order_against_oracle():
    # sin/cos closed forms (DLMF 10.49.3) climbed by the recurrence
    # DLMF 10.51.1 with the error propagated through every step
    mpmath = pytest.importorskip("mpmath")
    for n, x in _oracle_draws(702, 60, list(range(0, 13)),
                              lambda rng, n: 10 ** rng.uniform(-2.0, 4.0)):
        ev = bessel_half_order(n, x)
        assert abs(ev.value - _besselj_50(mpmath, n + 0.5, x)) <= ev.abs_error_bound, (n, x)


def test_bessel_large_x_against_oracle():
    # Hankel's expansion: past the order the remainder of each of P, Q is
    # bounded by the first omitted term (DLMF 10.17(iii))
    mpmath = pytest.importorskip("mpmath")
    orders = [t / 2 for t in range(0, 25)]
    for order, x in _oracle_draws(703, 60, orders,
                                  lambda rng, o: 10 ** rng.uniform(-1.0, 6.0)):
        ev = bessel_large_x(order, x)
        assert abs(ev.value - _besselj_50(mpmath, order, x)) <= ev.abs_error_bound, (order, x)


@pytest.mark.parametrize("order, x", [(20.5, 12.6), (20.5, 20.0), (30.5, 13.0)])
def test_bessel_large_x_bound_covers_the_rounding_of_large_terms(order, x):
    # the Hankel terms a_j / x^j reach 1e3-1e10 here; an allowance of
    # 4 EPS per retained term, as if each were at most 1, fell 10-60x
    # short of the actual error
    mpmath = pytest.importorskip("mpmath")
    ev = bessel_large_x(order, x)
    assert abs(ev.value - _besselj_50(mpmath, order, x)) <= ev.abs_error_bound


def test_alternating_sums_take_the_phase_as_an_exact_quotient():
    from framepcm.special_fn import alternating_bessel_sums

    # (f, 1.0) with f = R - floor(R) is the phase taken when none is given
    for R in (3.7, 10.5, 100.375):
        assert (alternating_bessel_sums(1.5, [R], [(R - math.floor(R), 1.0)])
                == alternating_bessel_sums(1.5, [R]))
    # just below an integer: f/q stays below 1, and the sum meets the one at
    # the integer, from which it differs by ~2^-53 in R
    for q in (0.37, 0.5, 1.0, 3.0):
        f = math.nextafter(q, 0.0)
        assert f / q < 1.0
        [below], [at] = (alternating_bessel_sums(2.0, [10.0], [phase])
                         for phase in ((f, q), (0.0, q)))
        assert max(below.abs_error_bound, at.abs_error_bound) <= 1e-12
        assert abs(below.value - at.value) <= below.abs_error_bound + at.abs_error_bound
    for phase in ([(1.0, 1.0)], [(0.5, 0.37)], [(-0.1, 1.0)], [(math.nan, 1.0)], []):
        with pytest.raises(ValueError, match="phase"):
            alternating_bessel_sums(1.5, [10.3], phase)


def test_alternating_sums_reject_a_nan_tol():
    # NaN passed a `t <= 0` check and climbed the whole K ladder; the batch
    # takes no tol, its one-row form judges its row
    for tol in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            alternating_bessel_sum_info(1.5, 10.3, tol)


def test_bessel_integral_int_order_against_oracle():
    # Bessel's integral J_n(x) = (1/2pi) int_0^2pi cos(n t - x sin t) dt
    # (DLMF 10.9.2) by the trapezoidal rule, sized a priori from the bound
    # on its aliased Bessel terms: seeded points over n = 0..40, x in
    # [0, 1e4] and log-uniform x in [1e-12, 10], and x = 0
    mpmath = pytest.importorskip("mpmath")
    draws = _oracle_draws(704, 200, list(range(0, 41)), lambda rng, n: rng.uniform(0.0, 1e4))
    small = _oracle_draws(705, 60, list(range(0, 41)), lambda rng, n: 10 ** rng.uniform(-12, 1))
    for n, x in [(0, 0.0), (1, 0.0), (40, 0.0)] + draws + small:
        ev = bessel_integral_int_order(n, x)
        assert abs(ev.value - _besselj_50(mpmath, n, x)) <= ev.abs_error_bound, (n, x)


def _least_rule(mpmath, n, x):
    """n + the least k >= 1 with 2.01 (x/2)^k / k! <= EPS, rounded up to
    even, by a linear scan in 30-digit arithmetic."""
    with mpmath.workdps(30):
        half, target = mpmath.mpf(x) / 2, mpmath.mpf(2) ** -52 / mpmath.mpf("2.01")
        k, term = 1, mpmath.mpf(x) / 2
        while term > target:
            k += 1
            term *= half / k
    return n + k + (n + k) % 2


class _CountingNumpy:
    """numpy, with the sizes of the arrays passed to cos recorded."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, a):
        self.sizes.append(np.size(a))
        return np.cos(a)


def test_bessel_integral_int_order_builds_one_rule(monkeypatch):
    # one trapezoidal rule per call, its m/2 + 1 nodes on [0, pi] fixed
    # before any is evaluated: m = n + the least k that meets the target
    mpmath = pytest.importorskip("mpmath")
    from framepcm import special_fn

    counting = _CountingNumpy()
    monkeypatch.setattr(special_fn, "np", counting)
    for n, x in ((0, 0.0), (5, 0.7), (0, 1e-300), (5, 120.0), (12, 400.0), (3, 1000.0),
                 (40, 9999.9)):
        counting.sizes.clear()
        bessel_integral_int_order(n, x)
        assert counting.sizes == [_least_rule(mpmath, n, x) // 2 + 1], (n, x)
    # past the 16384-node budget it raises before evaluating a node
    counting.sizes.clear()
    for n, x in ((1, 1.25e4), (1, 1e5), (1, 1.7e308), (1, math.inf), (16384, 1.0)):
        with pytest.raises(PrecisionExhausted, match="more than 16384 nodes"):
            bessel_integral_int_order(n, x)
    assert counting.sizes == []
    with pytest.raises(ValueError):
        bessel_integral_int_order(1, math.nan)


def test_cli_bessel_past_the_node_budget_exits_3_without_a_rule(monkeypatch, tmp_path):
    from framepcm import special_fn
    from framepcm.cli import EXIT_PRECISION, main

    monkeypatch.setattr(special_fn, "np", None)  # any node would need numpy
    argv = ["--outdir", str(tmp_path), "bessel", "--orders", "1", "--xs", "1e5"]
    assert EXIT_PRECISION == 3 and main(argv) == EXIT_PRECISION


def test_cli_bessel_takes_no_gauss_legendre_rule(monkeypatch, tmp_path):
    from framepcm import special_fn
    from framepcm.cli import EXIT_OK, main

    def no_rule(m):
        raise AssertionError(f"built a {m}-node Gauss-Legendre rule")

    monkeypatch.setattr(special_fn, "gauss_legendre", no_rule)
    argv = ["--outdir", str(tmp_path), "bessel", "--orders", "1", "2", "12",
            "--xs", "0.5", "400", "9000"]
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("order", [0, 0.5, 3, 12.5])
def test_bessel_large_x_at_huge_arguments(order):
    # the Hankel terms a_j / x^j are running ratios: where x^j would
    # overflow binary64 they underflow, and the cut stops there
    mpmath = pytest.importorskip("mpmath")
    for x in (1e11, 1e12, 1e15):
        ev = bessel_large_x(order, x)
        assert math.isfinite(ev.value) and math.isfinite(ev.abs_error_bound)
    ev = bessel_large_x(order, 1e12)
    assert abs(ev.value - _besselj_50(mpmath, order, 1e12)) <= ev.abs_error_bound


# ---------------------------------------------------------------------------
# the array form of the alternating sum
# ---------------------------------------------------------------------------

def _one_row(order, R, tol):
    try:
        return alternating_bessel_sum_info(order, R, tol)
    except PrecisionExhausted as exc:
        return exc


@pytest.mark.parametrize("order", [0.0, 0.5, 1.5, 2.0, 4.0, 6.5])
def test_alternating_sums_rows_equal_their_one_row_calls(order):
    # seeded R over 1e-1.5..1e4, eps = 1/2 exactly (the zeta path), eps
    # within 1e-4 of 1/2, integer R (order 1/2 at eps = 0 is exactly 0),
    # R near 1/2 past the reach of the expansion at order 4, and tolerances
    # from easy to unreachable, so that some one-row calls resolve and some
    # raise: a resolved call is its row, a missed one reports the row's bound
    from framepcm.special_fn import alternating_bessel_sums

    rng = np.random.default_rng(int(2 * order) + 7)
    Rs = ([float(R) for R in 10 ** rng.uniform(-1.5, 4, 8)]
          + [10.5, 100.5, 1000.49993, 20.50004, 0.49997, 0.50002, 3.0, 57.0])
    tols = [float(t) for t in 10 ** rng.uniform(-14, -8, len(Rs))]
    tols[-4:-2] = [1e-13, 1e-13]
    rows = alternating_bessel_sums(order, Rs)
    resolved = 0
    for R, tol, row in zip(Rs, tols, rows):
        one = _one_row(order, R, tol)
        if isinstance(row, PrecisionExhausted):  # a divergent sum raises alike
            assert type(one) is PrecisionExhausted and str(row) == str(one)
        elif isinstance(one, PrecisionExhausted):
            assert row.abs_error_bound == one.achieved and not row.abs_error_bound <= tol
        else:
            assert repr(row) == repr(one[0]) and row.abs_error_bound <= tol
            resolved += 1
    if order == 4.0:
        assert 0 < resolved < len(rows)
    if order == 0.5:
        assert rows[-2] == framepcm.BesselEval(0.5, 2 * math.pi * 3.0, 0.0, 0.0)


def test_alternating_sums_row_does_not_depend_on_its_neighbours():
    # the same rows in batches of different sizes and company, at a
    # half-integer and an integer order: eps within 1e-4 of 1/2, eps = 1/2
    # exactly (the zeta values), R < 1 (past the reach of the expansion at
    # order 4) and a row whose bound is far above its tol
    from framepcm.special_fn import alternating_bessel_sums

    Rs, tols = [300.4999, 1000.50008, 57.5, 0.83, 2.2], [1e-10, 1e-12, 1e-11, 1e-9, 1e-14]
    for order in (2.5, 4.0):
        alone = [alternating_bessel_sums(order, [R])[0] for R in Rs]
        meets = [row.abs_error_bound <= tol for row, tol in zip(alone, tols)]
        assert meets[:3] == [True] * 3 and not meets[4]
        for company in ([1.3], [0.07, 5000.25, 12.5], list(np.linspace(100.1, 900.9, 19))):
            rows = alternating_bessel_sums(order, company + Rs)
            assert [repr(row) for row in rows[len(company):]] == [repr(row) for row in alone]
            rows = alternating_bessel_sums(order, Rs + company)
            assert [repr(row) for row in rows[:len(Rs)]] == [repr(row) for row in alone]
    assert not alone[3].abs_error_bound <= tols[3]


def test_alternating_sums_return_python_floats():
    # numpy inputs, rows that resolve (eps = 1/2 exactly among them) and a
    # row past the reach of the expansion (order 4 at R = 0.3): every value,
    # bound, argument and achieved bound is a float, which
    # tools/golden_grid.py writes by repr
    from framepcm.special_fn import alternating_bessel_sums

    Rs = np.array([0.3, 100.25, 57.5, 3.0])
    phase = [(np.float64(R % 1.0), np.float64(1.0)) for R in Rs]
    # order 1/2 at eps = 0 is exactly 0; at eps = 1/2 it has no sum
    for order, at in ((4.0, Rs), (2.5, Rs), (0.5, Rs[[0, 1, 3]])):
        for ev in alternating_bessel_sums(order, at, phase if order == 2.5 else None):
            assert all(type(v) is float for v in (ev.order, ev.argument, ev.value,
                                                  ev.abs_error_bound)), (order, ev)
    with pytest.raises(PrecisionExhausted) as info:
        alternating_bessel_sum_info(4.0, Rs[0], np.float64(1e-10))
    assert type(info.value.achieved) is float


def test_a_row_past_its_tol_raises_with_the_bound_it_reached():
    # no direct part and no climb: the row's bound is the one reported
    [ev] = alternating_bessel_sums(1, [5.5])
    with pytest.raises(PrecisionExhausted, match="reached bound") as info:
        alternating_bessel_sum_info(1, 5.5, 1e-30)
    assert info.value.achieved == ev.abs_error_bound > 1e-30
    assert (f"(order=1, R=5.5) reached bound {ev.abs_error_bound:.3e} > tol 1.000e-30"
            in str(info.value))


# ---------------------------------------------------------------------------
# the whole sum from Hankel terms times polylogarithms
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_order_half_sum_against_its_closed_form():
    # sum_k (-1)^k k^-1/2 J_1/2(2 pi k R) = (1/2 - frac(R + 1/2)) / sqrt(R):
    # Hankel's expansion of J_1/2 is its first term, so K = 0 serves every
    # R, also R < 1, and the phase sums are Li_1 = -log(1 - z) and Li_2
    mpmath = pytest.importorskip("mpmath")
    from fractions import Fraction

    from framepcm import special_fn

    rng = np.random.default_rng(1912)
    Rs = [float(R) for R in np.exp(rng.uniform(math.log(0.05), math.log(1e6), 120))]
    assert sum(R < 1 for R in Rs) >= 10
    rows = special_fn.alternating_bessel_sums(0.5, Rs)
    for R, ev in zip(Rs, rows):
        assert not isinstance(ev, PrecisionExhausted), R
        assert ev.abs_error_bound <= 1e-12, R
        shifted = Fraction(R) + Fraction(1, 2)
        saw = Fraction(1, 2) - (shifted - math.floor(shifted))
        with mpmath.workdps(30):
            exact = mpmath.mpf(saw.numerator) / saw.denominator / mpmath.sqrt(R)
            assert abs(ev.value - exact) <= ev.abs_error_bound, R


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_phase_tails_at_k0_are_polylogarithms_with_q_at_most_one():
    # orders 0 and 1/2 have q = 1/2 and q = 1, where sum_k z^k k^-q
    # converges only conditionally: the phase sum is Li_q(z) from its
    # expansion
    mpmath = pytest.importorskip("mpmath")
    from framepcm.special_fn import _phase_table, _phase_tails

    for order in (0.0, 0.5):
        for beta in (1e-7, 0.01, 0.3, 0.5):
            re, im, bounds = _phase_tails(_phase_table(order, 2), [beta])
            values, bounds = re[0] + 1j * im[0], bounds[0]
            for i, value, bound in zip(range(3), values, bounds):
                with mpmath.workdps(30):
                    exact = complex(mpmath.polylog(mpmath.mpf(order + 0.5 + i),
                                                   mpmath.expjpi(2 * mpmath.mpf(beta))))
                assert abs(value - exact) <= bound, (order, i, beta)
                assert bound < 1e-12 * max(1.0, abs(exact)), (order, i, beta)
            # Li_q(conj z) = conj Li_q(z)
            mirror_re, mirror_im, mirror_bounds = _phase_tails(_phase_table(order, 2), [-beta])
            mirror = mirror_re[0] + 1j * mirror_im[0]
            assert np.array_equal(mirror, values.conjugate()) or beta == 0.5
            assert np.array_equal(mirror_bounds[0], bounds)
        # the sums themselves resolve away from eps = 1/2
        for R in (3.3, 100.25, 1000.49):
            assert alternating_bessel_sum_info(order, R, 1e-10)[1] == 0


def _k0_reference(mpmath, order, R, beta, lp, lq, negligible):
    """The K = 0 sum's Hankel-times-polylogarithm form at 20 digits, over the
    retained terms (i < 2 lp even, i < 2 lq odd) whose size exceeds
    ``negligible``, and the Hankel remainder the bound must cover: the
    first omitted terms times sum_k k^-q <= q/(q - 1)."""
    with mpmath.workdps(20):
        nu, x = mpmath.mpf(order), 2 * mpmath.pi * mpmath.mpf(R)
        a = [mpmath.mpf(1)]
        for j in range(1, max(2 * lp, 2 * lq + 1) + 1):
            a.append(a[-1] * (4 * nu ** 2 - (2 * j - 1) ** 2) / (8 * j))
        z = mpmath.expjpi(2 * mpmath.mpf(beta))
        total = mpmath.mpc(0)
        for i in [*range(0, 2 * lp, 2), *range(1, 2 * lq, 2)]:
            coef = a[i] / x ** i * mpmath.mpc(0, 1) ** i
            if i and abs(coef) * 3 < negligible:  # |Li_q| <= zeta(3/2) < 3 for q >= 3/2
                continue
            total += coef * mpmath.polylog(nu + mpmath.mpf(1) / 2 + i, z)
        scale = 1 / (mpmath.pi * mpmath.sqrt(mpmath.mpf(R)))
        ref = (mpmath.expj(-(mpmath.pi * nu / 2 + mpmath.pi / 4)) * total).real * scale
        rem = sum(abs(a[i]) / x ** i * (nu + mpmath.mpf(1) / 2 + i) / (nu + i - mpmath.mpf(1) / 2)
                  for i in (2 * lp, 2 * lq + 1)) * scale
        return float(ref), float(rem)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # terms overflow at large orders, small x
def test_each_hankel_cut_omits_the_smallest_term_of_its_window():
    # past column order - 1/2 the same-parity ratio |t_{j+2}/t_j| never
    # decreases in j, so the magnitudes of a window fall strictly to its
    # smallest term and no further: the smallest term is also the first
    # that its successor does not undercut.  P's window starts at the first
    # even column >= max(2, order - 1/2), Q's at the first odd one >=
    # max(3, order - 1/2) (DLMF 10.17(iii))
    from framepcm.special_fn import _hankel_plan

    rng = np.random.default_rng(1017)
    rows = 0
    for spare in (26, 18):
        for order in np.arange(200) / 2:
            x = 10 ** rng.uniform(math.log10(0.5), 7.0, size=100)
            terms, _, kept, omitted = _hankel_plan(order, x, spare)
            mag = np.abs(terms)
            for parity, floor in ((0, 2), (1, 3)):
                first = max(floor, math.ceil(order - 0.5))
                first += (first - parity) % 2
                window = mag[:, first::2]
                assert (omitted[:, parity::2].sum(axis=1) == 1).all()
                cut = omitted[:, first::2].argmax(axis=1)
                assert omitted[np.arange(x.size), first + 2 * cut].all()
                col = np.arange(parity, terms.shape[1], 2)
                assert (kept[:, parity::2] == (col < first + 2 * cut[:, None])).all()
                ok = np.isfinite(window).all(axis=1)
                window, cut = window[ok], cut[ok]
                assert (window[np.arange(cut.size), cut] == window.min(axis=1)).all()
                falls = np.diff(window, axis=1) < 0
                assert (falls | (np.arange(falls.shape[1]) >= cut[:, None])).all()
                rows += cut.size
    assert rows >= 70_000


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # terms overflow at large orders
def test_hankel_layout_cache_is_bounded():
    from framepcm.special_fn import _hankel_layout, _hankel_plan

    for order in np.arange(400) / 2:
        for spare in (18, 26):
            _hankel_plan(order, 10.0, spare)
    assert _hankel_layout.cache_info().maxsize is not None
    assert _hankel_layout.cache_info().currsize <= _hankel_layout.cache_info().maxsize


def test_k0_sums_against_mpmath_one_row_and_batched():
    # the whole sum, Hankel's expansion at 2 pi R times
    # polylogarithms, at orders 0..12 in steps of 1/2 over seeded |beta| in
    # [1e-6, 1/2] (either sign) and R in [0.05, 1e6]: each batch equals
    # its one-row calls bit for bit, and where the bound is informative it
    # covers the distance to a 20-digit reference of the retained terms
    # plus the Hankel remainder
    mpmath = pytest.importorskip("mpmath")
    from framepcm.special_fn import _alt_sum_tail, _hankel_plan

    rng = np.random.default_rng(2201)
    checked = 0
    for order in [t / 2 for t in range(25)]:
        Rs, betas = [], []
        for _ in range(4):
            b = float(10 ** rng.uniform(-6, math.log10(0.5)))
            R0 = float(10 ** rng.uniform(math.log10(0.05), 6))
            beta = b if rng.random() < 0.5 else -b
            R = math.floor(R0) + 0.5 + beta
            if R < 0.05:
                beta, R = -beta, R + 2 * b
            Rs.append(R)
            betas.append(beta)
        values, bounds = _alt_sum_tail(order, np.array(Rs), np.array(betas))
        for row, (R, beta) in enumerate(zip(Rs, betas)):
            one = _alt_sum_tail(order, np.array([R]), np.array([beta]))
            assert (one[0][0], one[1][0]) == (values[row], bounds[row]), (order, R, beta)
            if not bounds[row] < 1e-6 * max(abs(values[row]), 1e-3):
                continue  # an uninformative bound (small R at integer orders)
            _, _, _, (omitted,) = _hankel_plan(order, 2 * math.pi * R, 18)
            lp, lq = (int(np.argmax(omitted[parity::2])) for parity in (0, 1))
            ref, rem = _k0_reference(mpmath, order, R, beta, lp, lq,
                                     1e-6 * bounds[row] * math.pi * math.sqrt(R))
            assert abs(values[row] - ref) <= bounds[row] - (1 - 1e-9) * rem, (order, R, beta)
            checked += 1
    assert checked >= 80


@pytest.mark.parametrize("order", [81.5, 180.5, 200.0, 249.5, 300.0])
def test_alternating_sums_at_large_orders_give_a_value_or_precision_exhausted(order):
    # the polylogarithm table's depth is capped at 160, below q from order
    # 81.5 on (a broadcast ValueError at half-integer orders), and the Hankel
    # terms overflow at small R (a RuntimeWarning, an error here): each row
    # is a value or a bound that says it is none, which the one-row call
    # at 1e-10 turns into PrecisionExhausted
    import warnings

    Rs = [0.05, 0.3, 0.5, 1.0, 2.3, 20.3, 200.3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = alternating_bessel_sums(order, Rs)
    for R, ev in zip(Rs, rows):
        assert not math.isnan(ev.abs_error_bound), (order, R, ev)
        if ev.abs_error_bound <= 1e-10:
            assert math.isfinite(ev.value), (order, R, ev)
        else:
            assert isinstance(_one_row(order, R, 1e-10), PrecisionExhausted), (order, R, ev)


@pytest.mark.parametrize("order", [81.5, 82.0])
def test_a_term_that_underflows_beside_an_unbounded_phase_sum_gives_bound_inf(order):
    # at R = 1e6 + 0.3 the retained Hankel terms past q = 160 underflow to 0
    # where their polylogarithms, past the table's depth, have infinite
    # bounds: 0 inf made the bound nan
    (ev,) = alternating_bessel_sums(order, [1e6 + 0.3])
    assert ev.abs_error_bound == math.inf
    with pytest.raises(PrecisionExhausted) as info:
        alternating_bessel_sum_info(order, 1e6 + 0.3, 1e-10)
    assert info.value.achieved == math.inf
    assert f"(order={order}, R=1000000.3) reached bound inf > tol 1.000e-10" in str(info.value)
