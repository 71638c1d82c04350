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


@pytest.mark.parametrize("order, R", [(9.5, 0.5), (12.0, 0.5), (12.0, 1.5)])
def test_alternating_sum_at_half_against_direct_sum(order, R):
    # eps = 1/2 exactly: the tails are real zeta tails, weighted by large
    # Hankel coefficients at small R; past k = 200 the sum is below 1e-21
    mpmath = pytest.importorskip("mpmath")
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
        for R in (1.3, 100.375, 3000.4993):
            alternating_bessel_sum_info(order, R, 1e-10)
    for (order, R), first in zip(_PURITY_CASES, fresh):
        assert repr(alternating_bessel_sum_info(order, R, 1e-10)) == first


def _direct_part_loop(order, R, K):
    """The per-term loop that the array evaluation of the direct part
    replaced: scalar Hankel sums a_j / x^j at the reduced phase, each cut
    by walking the first-omitted-term rule (spare 26), with 4 EPS per
    retained term of the retained terms' size, or the series for x <= 12.
    Returns (sum, bound, rounding scale sum_k w amp (|P|+|Q|))."""
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
            size = (math.fsum(abs(a[2 * m]) / x ** (2 * m) for m in range(lp))
                    + math.fsum(abs(a[2 * m + 1]) / x ** (2 * m + 1) for m in range(lq)))
            bP = abs(a[2 * lp]) / x ** (2 * lp) + 4 * lp * EPS * size
            bQ = abs(a[2 * lq + 1]) / x ** (2 * lq + 1) + 4 * lq * EPS * size
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
    value, bound = _alt_sum_direct(order, R, R - math.floor(R), 256)
    assert abs(value - ref) <= 32 * EPS * scale
    assert bound == pytest.approx(ref_bound, rel=1e-14, abs=0.0)


def _polylog_tails(mpmath, q, beta, Ks):
    """{K: mpmath.polylog(q, z) - sum_{k<=K} z^k k^-q} at z = e^{2 pi i beta}.

    q is a multiple of 1/2.  The difference cancels to about K^{1-q}, so it
    is worked at 30 digits past that, never at fewer than 60; the precision
    is set locally.
    """
    with mpmath.workdps(max(60, 30 + math.ceil((q - 1) * math.log10(max(Ks))))):
        z = mpmath.expjpi(2 * mpmath.mpf(beta))
        li = mpmath.polylog(mpmath.mpf(q), z)
        zk, head, out = mpmath.mpf(1), mpmath.mpc(0), {}
        for k in range(1, max(Ks) + 1):
            zk *= z
            head += zk / (mpmath.mpf(k) ** int(q) * (mpmath.sqrt(k) if q % 1 else 1))
            if k in Ks:
                out[k] = complex(li - head)
        return out


# the rows of the polylog check, (i, phases, K) per p with q = p + 1/2 + i:
# the smallest q (always the expansion) at every phase, one q above it and
# the largest q <= 30 (the trivial bound) at two; mpmath needs ~0.1 s for
# each polylog at a half-integer q
_TAIL_BETAS = (1e-9, 1e-7, 4e-4, 0.01, 0.1, 0.3, 0.49, 0.5)


def _tail_rows(p):
    return [(0, _TAIL_BETAS, (64, 1024)),
            (1 + int(p) % 3, (4e-4, 0.1), (64, 1024)),
            (math.floor(29.5 - p), (1e-9, 0.3), (64,))]


def test_phase_tails_against_polylog():
    # the vectorized tails sum_{k>K} z^k k^-q against 60+ digit references,
    # at p in 1/2 N (half-integer q, and integer q by the harmonic/log form)
    mpmath = pytest.importorskip("mpmath")
    from framepcm.special_fn import _phase_tails

    for p in (0.5, 1.0, 1.5, 2.0, 3.5, 4.0, 4.5, 6.0):
        rows = _tail_rows(p)
        top = max(i for i, _, _ in rows)
        for i, betas, Ks in rows:
            q = p + 0.5 + i
            for beta in betas:
                exacts = _polylog_tails(mpmath, q, beta, Ks)
                for K, exact in exacts.items():
                    # Li_q(conj z) = conj Li_q(z) gives -beta without a second reference
                    for sign in (1.0, -1.0) if beta < 1e-6 else (1.0,):
                        re, im, bounds = _phase_tails(p, top, [sign * beta], K)
                        ref = exact if sign > 0 else exact.conjugate()
                        assert abs(complex(re[0, i], im[0, i]) - ref) <= bounds[0, i], (
                            p, q, sign * beta, K)
                        if q > 1:
                            assert bounds[0, i] <= K ** (1 - q) / (q - 1)


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
        assert (alternating_bessel_sums(1.5, [R], [1e-10], [(R - math.floor(R), 1.0)])
                == alternating_bessel_sums(1.5, [R], [1e-10]))
    # just below an integer: f/q stays below 1, and the sum meets the one at
    # the integer, from which it differs by ~2^-53 in R
    for q in (0.37, 0.5, 1.0, 3.0):
        f = math.nextafter(q, 0.0)
        assert f / q < 1.0
        [(below, _)], [(at, _)] = (alternating_bessel_sums(2.0, [10.0], [1e-12], [phase])
                                   for phase in ((f, q), (0.0, q)))
        assert abs(below.value - at.value) <= below.abs_error_bound + at.abs_error_bound
    for phase in ([(1.0, 1.0)], [(0.5, 0.37)], [(-0.1, 1.0)], [(math.nan, 1.0)], []):
        with pytest.raises(ValueError, match="phase"):
            alternating_bessel_sums(1.5, [10.3], [1e-10], phase)


def test_alternating_sums_reject_a_nan_tol():
    # NaN passed a `t <= 0` check and climbed the whole K ladder
    from framepcm.special_fn import alternating_bessel_sums

    for tol in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            alternating_bessel_sums(1.5, [10.3], [tol])


def _ladder_crossings(n, top):
    """x just below and just above each x where the rule of
    bessel_integral_int_order(n, x) steps up the ladder, for x <= top."""
    from framepcm.special_fn import _INT_ORDER_LADDER, _int_order_nodes

    points = []
    for below, above in zip(_INT_ORDER_LADDER, _INT_ORDER_LADDER[1:]):
        if _int_order_nodes(n, 0.0) > below or _int_order_nodes(n, top) <= below:
            continue
        lo, hi = 0.0, top  # the node count is nondecreasing in x
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _int_order_nodes(n, mid) <= below else (lo, mid)
        assert (_int_order_nodes(n, lo), _int_order_nodes(n, hi)) == (below, above)
        points += [(n, lo), (n, hi)]
    return points


def test_bessel_integral_int_order_against_oracle():
    # Bessel's integral J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt
    # (DLMF 10.9.2) by one Gauss-Legendre rule, sized a priori from the
    # Bernstein-ellipse bound: seeded points over n = 0..40, x in [0, 1000],
    # and the points on either side of each step of the node ladder, where
    # the rule below the step is the smallest that meets the target
    mpmath = pytest.importorskip("mpmath")
    draws = _oracle_draws(704, 300, list(range(0, 41)),
                          lambda rng, n: rng.uniform(0.0, 1000.0))
    crossings = [p for n in (0, 1, 7, 20, 40) for p in _ladder_crossings(n, 1000.0)]
    assert len(crossings) >= 40
    for n, x in [(0, 0.0), (40, 0.0)] + crossings + draws:
        ev = bessel_integral_int_order(n, x)
        assert abs(ev.value - _besselj_50(mpmath, n, x)) <= ev.abs_error_bound, (n, x)


def test_bessel_integral_int_order_builds_one_rule(monkeypatch):
    from framepcm import special_fn

    built = []
    real = special_fn.gauss_legendre
    monkeypatch.setattr(special_fn, "gauss_legendre", lambda m: built.append(m) or real(m))
    for n, x in ((0, 0.0), (5, 0.7), (5, 120.0), (12, 400.0), (3, 1000.0)):
        built.clear()
        bessel_integral_int_order(n, x)
        assert built == [special_fn._int_order_nodes(n, x)], (n, x)
    # past the 8192-node budget it raises before building a rule
    built.clear()
    for x in (1.1e4, 1e5, math.inf):
        with pytest.raises(PrecisionExhausted, match="more than 8192 nodes"):
            bessel_integral_int_order(1, x)
    assert built == []
    with pytest.raises(ValueError):
        bessel_integral_int_order(1, math.nan)


def test_cli_bessel_past_the_node_budget_exits_3_without_a_rule(monkeypatch, tmp_path):
    from framepcm import special_fn
    from framepcm.cli import EXIT_PRECISION, main

    def no_rule(m):
        raise AssertionError(f"built a {m}-node rule")

    monkeypatch.setattr(special_fn, "gauss_legendre", no_rule)
    argv = ["--outdir", str(tmp_path), "bessel", "--orders", "1", "--xs", "1e5"]
    assert EXIT_PRECISION == 3 and main(argv) == EXIT_PRECISION


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
    # R near 1/2 that climbs past K = 64 at order 4, and tolerances from
    # easy to unreachable, so that rows leave the ladder at different rungs
    from framepcm.special_fn import alternating_bessel_sums

    rng = np.random.default_rng(int(2 * order) + 7)
    Rs = ([float(R) for R in 10 ** rng.uniform(-1.5, 4, 8)]
          + [10.5, 100.5, 1000.49993, 20.50004, 0.49997, 0.50002, 3.0, 57.0])
    tols = [float(t) for t in 10 ** rng.uniform(-14, -8, len(Rs))]
    tols[-4:-2] = [1e-13, 1e-13]
    rows = alternating_bessel_sums(order, Rs, tols)
    for R, tol, row in zip(Rs, tols, rows):
        one = _one_row(order, R, tol)
        assert type(row) is type(one) and repr(row) == repr(one) and str(row) == str(one)
    if order == 4.0:
        Ks = {row[1] for row in rows if not isinstance(row, PrecisionExhausted)}
        assert 64 in Ks and max(Ks) > 64
    if order == 0.5:
        assert rows[-2] == (framepcm.BesselEval(0.5, 2 * math.pi * 3.0, 0.0, 0.0), 0)


def test_alternating_sums_row_does_not_depend_on_its_neighbours():
    # the same rows in batches of different sizes and company, at a
    # half-integer and an integer order: eps within 1e-4 of 1/2, eps = 1/2
    # exactly (the zeta tails), R < 1 (which climbs past K = 0 at order 4)
    # and a row at a tol far below its K = 0 bound
    from framepcm.special_fn import alternating_bessel_sums

    Rs, tols = [300.4999, 1000.50008, 57.5, 0.83, 2.2], [1e-10, 1e-12, 1e-11, 1e-9, 1e-14]
    for order in (2.5, 4.0):
        alone = [alternating_bessel_sums(order, [R], [tol])[0] for R, tol in zip(Rs, tols)]
        assert [row[1] for row in alone if not isinstance(row, PrecisionExhausted)][:3] == [0] * 3
        for company in ([1.3], [0.07, 5000.25, 12.5], list(np.linspace(100.1, 900.9, 19))):
            rows = alternating_bessel_sums(order, company + Rs, [1e-10] * len(company) + tols)
            assert [repr(row) for row in rows[len(company):]] == [repr(row) for row in alone]
            rows = alternating_bessel_sums(order, Rs + company, tols + [1e-10] * len(company))
            assert [repr(row) for row in rows[:len(Rs)]] == [repr(row) for row in alone]
    assert alone[3][1] > 0


def test_alternating_sums_return_python_floats():
    # numpy inputs, rows that end at K = 0 in the batch (eps = 1/2 exactly
    # among them) and a row that climbs to K = 64 (order 4 at R = 0.3):
    # every value, bound and argument is a float, which tools/golden_grid.py
    # writes by repr
    from framepcm.special_fn import alternating_bessel_sums

    Rs = np.array([0.3, 100.25, 57.5, 3.0])
    phase = [(np.float64(R % 1.0), np.float64(1.0)) for R in Rs]
    # order 1/2 at eps = 0 is exactly 0; at eps = 1/2 it has no sum
    for order, at, Ks in ((4.0, Rs, [64, 0, 0, 0]), (2.5, Rs, [0, 0, 0, 0]),
                          (0.5, Rs[[0, 1, 3]], [0, 0, 0])):
        rows = alternating_bessel_sums(order, at, np.full(at.size, 1e-10),
                                       phase if order == 2.5 else None)
        assert [row[1] for row in rows] == Ks
        for ev, K in rows:
            assert type(K) is int
            assert all(type(v) is float for v in (ev.order, ev.argument, ev.value,
                                                  ev.abs_error_bound)), (order, ev)


def test_hopeless_ladder_raises_at_the_first_rung(monkeypatch):
    # the direct part's bound alone exceeds tol at K = 64, and it only
    # grows with K: the ladder stops there instead of climbing to 16384
    from framepcm import special_fn

    rungs = []
    direct = special_fn._alt_sum_direct
    monkeypatch.setattr(special_fn, "_alt_sum_direct",
                        lambda *args: rungs.append(args[3]) or direct(*args))
    with pytest.raises(PrecisionExhausted, match="direct part's bound .* at K=64"):
        alternating_bessel_sum_info(1, 5.5, 1e-30)
    assert rungs == [64]


# ---------------------------------------------------------------------------
# the first rung, K = 0: the whole sum from Hankel terms times polylogarithms
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
    rows = special_fn.alternating_bessel_sums(0.5, Rs, [1e-12] * len(Rs))
    for R, row in zip(Rs, rows):
        assert not isinstance(row, PrecisionExhausted), R
        ev, K = row
        shifted = Fraction(R) + Fraction(1, 2)
        saw = Fraction(1, 2) - (shifted - math.floor(shifted))
        with mpmath.workdps(30):
            exact = mpmath.mpf(saw.numerator) / saw.denominator / mpmath.sqrt(R)
            assert abs(ev.value - exact) <= ev.abs_error_bound, R
        assert K == 0
    # the climb past K = 0 alone cannot certify some of these rows
    frac = [R - math.floor(R) for R in Rs]
    rows = [special_fn._alt_sum_climb(0.5, R, f, f - 0.5, 1e-12, math.inf)
            for R, f in zip(Rs, frac)]
    assert any(isinstance(row, PrecisionExhausted) for row in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_phase_tails_at_k0_are_polylogarithms_with_q_at_most_one():
    # orders 0 and 1/2 have q = 1/2 and q = 1, where sum_k z^k k^-q
    # converges only conditionally: at K = 0 the tail is Li_q(z) itself,
    # from the expansion alone, without the trivial bounds (which need q > 1)
    mpmath = pytest.importorskip("mpmath")
    from framepcm.special_fn import _phase_tails

    for order in (0.0, 0.5):
        for beta in (1e-7, 0.01, 0.3, 0.5):
            re, im, bounds = _phase_tails(order, 2, [beta], 0)
            values, bounds = re[0] + 1j * im[0], bounds[0]
            for i, value, bound in zip(range(3), values, bounds):
                with mpmath.workdps(30):
                    exact = complex(mpmath.polylog(mpmath.mpf(order + 0.5 + i),
                                                   mpmath.expjpi(2 * mpmath.mpf(beta))))
                assert abs(value - exact) <= bound, (order, i, beta)
                assert bound < 1e-12 * max(1.0, abs(exact)), (order, i, beta)
            # Li_q(conj z) = conj Li_q(z)
            mirror_re, mirror_im, mirror_bounds = _phase_tails(order, 2, [-beta], 0)
            mirror = mirror_re[0] + 1j * mirror_im[0]
            assert np.array_equal(mirror, values.conjugate()) or beta == 0.5
            assert np.array_equal(mirror_bounds[0], bounds)
        # the sums themselves resolve at K = 0 away from eps = 1/2
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


def test_k0_sums_against_mpmath_one_row_and_batched():
    # the first rung's whole sum, Hankel's expansion at 2 pi R times
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
        values, bounds = _alt_sum_tail(order, np.array(Rs), np.array(betas), 0)
        for row, (R, beta) in enumerate(zip(Rs, betas)):
            one = _alt_sum_tail(order, np.array([R]), np.array([beta]), 0)
            assert (one[0][0], one[1][0]) == (values[row], bounds[row]), (order, R, beta)
            if not bounds[row] < 1e-6 * max(abs(values[row]), 1e-3):
                continue  # an uninformative bound (small R at integer orders)
            _, _, lp, lq = _hankel_plan(order, 2 * math.pi * R, 18)
            ref, rem = _k0_reference(mpmath, order, R, beta, int(lp[0]), int(lq[0]),
                                     1e-6 * bounds[row] * math.pi * math.sqrt(R))
            assert abs(values[row] - ref) <= bounds[row] - (1 - 1e-9) * rem, (order, R, beta)
            checked += 1
    assert checked >= 80
