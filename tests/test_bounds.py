import math

import numpy as np
import pytest

from framepcm import (
    I_constant,
    M1_constant,
    M2_constant,
    Method,
    QuantScheme,
    integral_even,
    integral_odd,
    limiting_error,
    limiting_error_grid,
    lower_bound,
    sandwich_check,
    scaling_slope_fit,
    zeta_tail,
)
from framepcm.bounds import BOUND_CSV_FIELDS, DEFAULT_R_MIN, EVEN_WINDOW, ODD_WINDOW


def test_zeta_tails_against_known_values():
    assert zeta_tail(2.0) == pytest.approx(math.pi ** 2 / 6 - 1, abs=1e-11)
    assert zeta_tail(2.5) == pytest.approx(0.3414872572509171, abs=1e-12)
    assert zeta_tail(3.0) == pytest.approx(1.2020569031595943 - 1, abs=1e-12)
    with pytest.raises(ValueError):
        zeta_tail(1.0)
    mpmath = pytest.importorskip("mpmath")
    for t in range(3, 27):
        with mpmath.workdps(40):
            exact = mpmath.zeta(t / 2) - 1
            err = abs(mpmath.mpf(zeta_tail(t / 2)) - exact)
        assert err <= 2 * math.ulp(float(exact)), (t / 2, float(err))


def test_zeta_tail_cache_is_bounded():
    # it holds the one p per d that the bounds take below d = 441, and no
    # more than its maxsize of the floats a caller may pass
    from framepcm.limit_error import parity_split

    zeta_tail.cache_clear()
    for d in range(2, 441):
        zeta_tail(parity_split(d).s)
    info = zeta_tail.cache_info()
    assert info.maxsize is not None and info.currsize == 439 <= info.maxsize
    for k in range(1000):
        zeta_tail(1.5 + k / 7)
    assert zeta_tail.cache_info().currsize <= zeta_tail.cache_info().maxsize


def test_M1_values():
    assert M1_constant(3.0 / 8.0, 2) == pytest.approx(0.3731409284, abs=1e-9)
    assert M1_constant(0.25, 2) == pytest.approx(0.1388263534, abs=1e-9)
    # |cos| symmetry of the window endpoints
    assert M1_constant(0.5, 2) == pytest.approx(M1_constant(0.25, 2), abs=1e-12)


def test_M2_values():
    assert M2_constant(1.0 / 6.0, 1) == pytest.approx(0.0207047233, abs=1e-9)
    assert M2_constant(0.25, 1) == pytest.approx(0.875 - (8 / 7) * (math.pi ** 2 / 6 - 1), abs=1e-11)
    assert M2_constant(0.0, 1) < 0  # cosine term vanishes outside the window
    assert M2_constant(1.0 / 3.0, 1) == pytest.approx(M2_constant(1.0 / 6.0, 1), abs=1e-12)


def test_M_symmetry_and_monotonicity():
    for e in np.linspace(0.0, 0.125, 7):
        assert M1_constant(0.375 - e, 2) == pytest.approx(M1_constant(0.375 + e, 2), abs=1e-12)
    for e in np.linspace(0.0, 1.0 / 12.0, 7):
        assert M2_constant(0.25 - e, 1) == pytest.approx(M2_constant(0.25 + e, 1), abs=1e-12)
    # tails shrink with n
    assert M1_constant(0.3, 3) > M1_constant(0.3, 2)
    assert M2_constant(0.3, 2) > M2_constant(0.3, 1)


def test_M_validation():
    with pytest.raises(ValueError):
        M1_constant(0.3, 1)
    with pytest.raises(ValueError):
        M2_constant(0.3, 0)


def test_I_constant_readings():
    assert I_constant(3) == pytest.approx(1.5)
    assert I_constant(4) == pytest.approx(8.0 / math.pi)
    for d in range(3, 9):
        assert I_constant(d) > 0
    with pytest.raises(ValueError):
        I_constant(2)


def test_lower_bound_outside_window():
    rep = lower_bound(4, 100.1, 1.0)  # eps = 0.1 outside [1/4, 1/2]
    assert not rep.window_ok and rep.lower == 0.0


def test_lower_bound_homogeneity():
    a = lower_bound(5, 100.25, 1.0)
    b = lower_bound(5, 2 * 100.25, 2.0)
    assert b.lower == pytest.approx(2 * a.lower, rel=1e-12)
    assert b.eps == pytest.approx(a.eps)


@pytest.mark.parametrize("d,r", [(4, 100.25), (5, 100.25), (6, 100.3)])
def test_lower_bound_below_computed_limit(d, r):
    rep = lower_bound(d, r, 1.0)
    assert rep.window_ok
    val = limiting_error(np.concatenate(([r], np.zeros(d - 1))), QuantScheme(1.0)).value
    assert rep.lower <= val <= rep.upper_scaling


def test_bound_report_serialization():
    rep = lower_bound(4, 100.25, 1.0)
    d = rep.to_dict()
    assert list(d.keys()) == BOUND_CSV_FIELDS


def test_sandwich_good_cells():
    assert sandwich_check(4, 100.25, 1.0).holds
    assert sandwich_check(6, 1000.25, 1.0).holds
    assert sandwich_check(3, 50.25, 1.0).holds


def test_sandwich_hypothesis_unmet_states():
    out = sandwich_check(4, 100.1, 1.0)  # eps outside window
    assert out.holds is None and "window" in out.status
    out = sandwich_check(4, 10.25, 1.0)  # R below threshold
    assert out.holds is None and "threshold" in out.status
    assert DEFAULT_R_MIN == 50.0
    with pytest.raises(ValueError):
        sandwich_check(2, 100.25, 1.0)


@pytest.mark.parametrize("call", [
    lambda: lower_bound(3, math.inf, 1.0),
    lambda: lower_bound(3, 1e300, 1e-10),  # r/delta overflows
    lambda: lower_bound(3, math.nan, 1.0),
    lambda: sandwich_check(4, math.inf, 1.0),
    lambda: sandwich_check(3, 1e300, 1e-10),
    lambda: sandwich_check(4, 100.25, 0.0),
    lambda: integral_even(math.inf, 1.0, 2),
    lambda: limiting_error_grid(3, math.inf, [1.0]),
    lambda: integral_odd(2.0, math.inf, 1),
    lambda: integral_even(1e308, 1e-308, 2),  # r/delta overflows
    lambda: scaling_slope_fit(3, math.inf, 0.25, range(100, 110)),
    lambda: integral_even(1.0, math.inf, 2),
    lambda: limiting_error_grid(3, 1.0, [math.inf]),
])
def test_non_finite_r_delta_or_ratio_raise_value_error(call):
    # the bounds reached math.floor(inf), a raw OverflowError; the 1-D
    # integrals and the grid raised PrecisionExhausted from the quadrature
    # or a raw OverflowError, and the slope fit a float-to-int conversion
    # error
    with pytest.raises(ValueError, match="finite r/delta"):
        call()


def test_sandwich_fixed_phase_defect_is_reported_not_patched():
    # the paper's fixed-phase lower bound over-claims for n = 2 at eps = 3/8:
    # the leading Bessel term's true phase is (2n+1)pi/4, which kills the
    # k=1 contribution there.  Requested explicitly, the check must fail
    # honestly...
    for r in (100.375, 1000.375):
        out = sandwich_check(4, r, 1.0, order_matched_phase=False)
        assert out.status == "ok" and out.holds is False
        assert out.lower > out.integral_abs
    # ...while the order-matched variant never over-claims (the kernel goes
    # negative there, so the lower bound degrades to the trivial 0)
    for r in (100.375, 1000.375):
        out = sandwich_check(4, r, 1.0, order_matched_phase=True)
        assert out.status == "ok" and out.holds is True


def test_fixed_phase_defect_reaches_d3():
    # odd case n = 1 (d = 3): the true phase (n+1)pi/2 = pi differs from the
    # printed pi/2 by a quarter turn, so the paper's kernel over-claims near
    # eps = 0.2887, a cell the acceptance grid does not visit
    r = 100.2887
    out = sandwich_check(3, r, 1.0, order_matched_phase=False)
    assert out.status == "ok" and out.holds is False
    lim = limiting_error(np.array([r, 0.0, 0.0]), QuantScheme(1.0)).value
    assert lower_bound(3, r, 1.0, order_matched_phase=False).lower > lim
    # the default (order-matched) bound is true there
    assert sandwich_check(3, r, 1.0).holds is True
    assert lower_bound(3, r, 1.0).lower <= lim


def test_default_sandwich_never_overclaims_dense_eps():
    # guards the order-matched default beyond the acceptance grid: every
    # order n <= 4 of both parities, 21 eps per window, two radii each
    for parity, window, orders in (("even", EVEN_WINDOW, (2, 3, 4)),
                                   ("odd", ODD_WINDOW, (1, 2, 3, 4))):
        for n in orders:
            for eps in np.linspace(window[0], window[1], 21):
                for base in (100, 1000):
                    out = sandwich_check(2 * n if parity == "even" else 2 * n + 1,
                                         base + eps, 1.0)
                    assert out.status == "ok" and out.holds, (parity, n, eps, base)


def test_lower_bound_is_claimed_only_where_the_sandwich_checks_it():
    # one bound, one set of hypotheses: below R = DEFAULT_R_MIN the report
    # claimed a lower bound the sandwich did not check; at and above it
    # the two verdicts agree
    for d in range(3, 13):
        window = EVEN_WINDOW if d % 2 == 0 else ODD_WINDOW
        for K in range(60):
            for eps in np.linspace(window[0], window[1], 7):
                r = K + eps
                out = sandwich_check(d, r, 1.0)
                rep = lower_bound(d, r, 1.0)
                if out.status != "ok":
                    assert rep.lower == 0.0, (d, r)
                    continue
                value = limiting_error(np.array([r] + [0.0] * (d - 1)), QuantScheme(1.0)).value
                assert out.holds == (rep.lower <= value <= rep.upper_scaling), (d, r)


def test_slope_fit_validation():
    with pytest.raises(ValueError):
        scaling_slope_fit(3, 1.0, 0.25, [100, 200, 300])
    with pytest.raises(ValueError):
        scaling_slope_fit(3, 1.0, 0.05, [100, 200, 300, 400])


def test_slope_fit_quick():
    slope = scaling_slope_fit(3, 1.0, 0.25, [60, 90, 140, 210, 320])
    assert slope == pytest.approx(2.0, abs=0.05)


def test_sandwich_at_large_R_uses_the_series():
    # the default quadrature's |integral| at d = 12, R = 1000.3 is rounding
    # noise outside the sandwich; AUTO's certified series lies inside
    out = sandwich_check(12, 1000.3, 1.0)
    assert out.holds is True and out.method == Method.BESSEL_SERIES
    assert sandwich_check(4, 100.1, 1.0).method is None  # hypothesis unmet


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_base_coefficient_within_2_ulp_of_the_exact_ratio(parity):
    # (n-1)! C(2n-2, n-1) / (4^{n-1} pi^n) or (n-1)! / pi^{n+1}, pi = math.pi,
    # as exact fractions; n = 171..200 put the integer ratio past binary64
    from fractions import Fraction

    from framepcm.bounds import _base_coef

    pi = Fraction(math.pi)
    for n in [*range(2, 61), 171, 185, 200]:
        if parity == "even":
            exact = Fraction(math.factorial(n - 1) * math.comb(2 * n - 2, n - 1),
                             4 ** (n - 1)) / pi ** n
        else:
            exact = Fraction(math.factorial(n - 1)) / pi ** (n + 1)
        got = _base_coef(n, parity)
        assert abs(Fraction(got) - exact) <= 2 * Fraction(math.ulp(float(exact))), n


def test_base_coefficient_past_binary64_raises_precision_exhausted():
    from framepcm import PrecisionExhausted
    from framepcm.bounds import _base_coef

    for _ in range(2):  # the cache keeps no value for a raise: every call raises
        with pytest.raises(PrecisionExhausted, match="n=250"):
            _base_coef(250, "even")  # d = 500; this was a raw OverflowError
        with pytest.raises(PrecisionExhausted):
            _base_coef(700, "odd")  # pi^701 itself overflows


def test_slope_fit_refuses_an_unresolved_point():
    # d = 165: every point falls back to a quadrature whose estimate exceeds
    # its value (the order-82.5 series runs past its polylogarithm table);
    # the fit used to return noise (0.48 at d = 40, which now resolves)
    from framepcm import PrecisionExhausted

    with pytest.raises(PrecisionExhausted, match=r"k=100 \(d=165, eps=0.3\) is unresolved: "
                                                  r"the quadrature value"):
        scaling_slope_fit(165, 1.0, 0.3, [100, 200, 400, 800])


def test_sandwich_neither_holds_nor_fails_on_an_unresolved_integral():
    # d = 165, R = 5000.3: the quadrature fall-back's 1.35e-16 has a larger
    # estimate; the true integral, ~1.4e-224, lies inside the sandwich, which
    # returned holds=False on the unresolved value
    out = sandwich_check(165, 5000.3, 1.0)
    assert (out.holds, out.status, out.method) == (None, "unresolved", Method.QUADRATURE)
    assert out.lower <= 1.4e-224 <= out.upper and out.integral_abs > out.upper


def test_the_phase_is_the_exact_fractional_part_rounded_once():
    # eps = fmod(r, delta)/delta: fmod is exact, so eps is frac(r/delta)
    # rounded once.  R - floor(R) carried the rounding of R = r/delta, up
    # to 6e-8 at R <= 1e9, far past the windows' 1e-9 slack: at this point
    # it read 0.25, inside the even window, for an exact 0.24999997644
    import random
    from fractions import Fraction

    from framepcm.quantization import SignalSpec

    r, delta = 66723219.70782858, 0.09759118545857538
    rep = lower_bound(4, r, delta)
    assert abs(rep.eps - 0.24999997644) < 1e-10
    assert not rep.window_ok and rep.lower == 0.0
    assert "outside window" in sandwich_check(4, r, delta).status
    rng = random.Random(2202)
    for _ in range(2000):
        delta = 10 ** rng.uniform(-3, 1)
        r = delta * 10 ** rng.uniform(0, 9)
        exact = Fraction(r) / Fraction(delta)
        frac = float(exact - math.floor(exact))  # correctly rounded
        assert lower_bound(3, r, delta).eps == frac, (r, delta)
        sig = SignalSpec.from_vector(np.array([r, 0.0, 0.0]), QuantScheme(delta))
        exact = Fraction(sig.r) / Fraction(delta)
        assert sig.eps == float(exact - math.floor(exact)), (r, delta)
