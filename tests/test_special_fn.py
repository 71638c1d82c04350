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
        idx = np.array([i for i, _, _ in rows])
        for row, (i, betas, Ks) in enumerate(rows):
            q = p + 0.5 + i
            for beta in betas:
                exacts = _polylog_tails(mpmath, q, beta, Ks)
                for K, exact in exacts.items():
                    # Li_q(conj z) = conj Li_q(z) gives -beta without a second reference
                    for sign in (1.0, -1.0) if beta < 1e-6 else (1.0,):
                        values, bounds = _phase_tails(p, int(idx.max()), idx, sign * beta, K)
                        ref = exact if sign > 0 else exact.conjugate()
                        assert abs(values[row] - ref) <= bounds[row], (p, q, sign * beta, K)
                        if q > 1:
                            assert bounds[row] <= K ** (1 - q) / (q - 1)


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


def test_alternating_sums_reject_a_nan_tol():
    # NaN passed a `t <= 0` check and climbed the whole K ladder
    from framepcm.special_fn import alternating_bessel_sums

    for tol in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            alternating_bessel_sums(1.5, [10.3], [tol])


def test_bessel_integral_int_order_against_oracle():
    # Bessel's integral J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt
    # (DLMF 10.9.2) by Gauss-Legendre; the bound is the disagreement of two
    # successive orders plus the summation rounding
    mpmath = pytest.importorskip("mpmath")
    for n, x in _oracle_draws(704, 60, list(range(0, 13)),
                              lambda rng, n: rng.uniform(0.0, 60.0)):
        ev = bessel_integral_int_order(n, x)
        assert abs(ev.value - _besselj_50(mpmath, n, x)) <= ev.abs_error_bound, (n, x)


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
    # the same R in batches of different sizes and company
    from framepcm.special_fn import alternating_bessel_sums

    R = 300.4999
    alone = alternating_bessel_sums(2.5, [R], [1e-10])[0]
    for company in ([1.3], [0.07, 5000.25, 12.5], list(np.linspace(100.1, 900.9, 19))):
        rows = alternating_bessel_sums(2.5, company + [R], [1e-10] * (len(company) + 1))
        assert rows[-1] == alone


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
