import math

import numpy as np
import pytest

from framepcm import (
    Method,
    PrecisionExhausted,
    QuantScheme,
    SignalSpec,
    integral_even,
    integral_odd,
    limiting_error,
    monte_carlo_limit,
    rotation_invariance_check,
)
from framepcm.limit_error import angular_constant, parity_split, result_csv_row

UNIT = QuantScheme(1.0)


def _x(d, r):
    out = np.zeros(d)
    out[0] = r
    return out


def test_angular_constant_values():
    assert angular_constant(3) == pytest.approx(0.5)
    assert angular_constant(4) == pytest.approx(2.0 / math.pi)
    # normalization: c_d * int_0^pi sin^{d-2} = 1
    for d in range(2, 9):
        w = math.sqrt(math.pi) * math.gamma((d - 1) / 2) / math.gamma(d / 2)
        assert angular_constant(d) * w == pytest.approx(1.0, abs=1e-14)


# d -> (n, parity, sine power, Bessel order, scale exponent s)
PARITY_TABLE = {
    2: (1, "even", 0, 1.0, 1.5),
    3: (1, "odd", 1, 1.5, 2.0),
    4: (2, "even", 2, 2.0, 2.5),
    5: (2, "odd", 3, 2.5, 3.0),
    6: (3, "even", 4, 3.0, 3.5),
    7: (3, "odd", 5, 3.5, 4.0),
    8: (4, "even", 6, 4.0, 4.5),
    9: (4, "odd", 7, 4.5, 5.0),
}


@pytest.mark.parametrize("d", sorted(PARITY_TABLE))
def test_parity_split_table(d):
    split = parity_split(d)
    assert tuple(split) == PARITY_TABLE[d]
    assert split.scale(3.0, 0.5) == 0.5 ** split.s / 3.0 ** (split.s - 1)


def test_below_threshold_closed_forms():
    # quantizer is the identity for r/delta < 1/2
    assert integral_even(0.4, 1.0, 1) == pytest.approx(0.4 * math.pi / 2, abs=1e-12)
    assert integral_odd(0.4, 1.0, 1) == pytest.approx(0.4 * 2.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_limit_equals_r_below_threshold(d):
    res = limiting_error(_x(d, 0.37), UNIT)
    assert res.value == pytest.approx(0.37, abs=1e-10)


def test_zero_signal():
    res = limiting_error(np.zeros(3), UNIT)
    assert res.value == 0.0
    mc = monte_carlo_limit(np.zeros(3), UNIT, samples=2000, seed=0)
    assert mc.value == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("R", [10.25, 25.375, 100.25])
def test_dual_method_even(n, R):
    q = integral_even(R, 1.0, n, method=Method.QUADRATURE)
    b = integral_even(R, 1.0, n, method=Method.BESSEL_SERIES)
    scale = 1.0 / R ** (n - 0.5)
    assert abs(q - b) <= 1e-6 * max(abs(q), scale)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("R", [10.25, 25.375, 100.25])
def test_dual_method_odd(n, R):
    q = integral_odd(R, 1.0, n, method=Method.QUADRATURE)
    b = integral_odd(R, 1.0, n, method=Method.BESSEL_SERIES)
    scale = 1.0 / R ** n
    assert abs(q - b) <= 1e-6 * max(abs(q), scale)


@pytest.mark.parametrize("R", [5.25, 500.25])
def test_dual_method_range_ends(R):
    q = integral_even(R, 1.0, 2, method=Method.QUADRATURE)
    b = integral_even(R, 1.0, 2, method=Method.BESSEL_SERIES)
    assert abs(q - b) <= 1e-6 * max(abs(q), R ** -1.5)


def test_integer_R_odd_series_still_matches():
    # eps = 0 sits outside the bound windows but the identity chain holds
    q = integral_odd(12.0, 1.0, 1, method=Method.QUADRATURE)
    b = integral_odd(12.0, 1.0, 1, method=Method.BESSEL_SERIES)
    assert abs(q - b) <= 1e-9


def test_result_metadata():
    res = limiting_error(_x(4, 30.25), UNIT, method=Method.QUADRATURE)
    assert res.breakpoint_count is not None and res.breakpoint_count >= 2 * 29
    res2 = limiting_error(_x(4, 30.25), UNIT, method=Method.BESSEL_SERIES)
    assert res2.truncation_K is not None and res2.truncation_K >= 64
    assert res.value == pytest.approx(res2.value, rel=1e-8)


def test_scale_invariance():
    for s in (0.25, 3.0):
        a = limiting_error(_x(3, 7.3), UNIT)
        b = limiting_error(_x(3, s * 7.3), QuantScheme(s))
        assert b.value == pytest.approx(s * a.value, rel=1e-11)


def test_nearby_radius_periodicity_trend():
    # the value depends on r through (r, eps); shifting r by one full delta
    # changes it only at the O(delta/r) relative level
    a = limiting_error(_x(3, 60.25), UNIT)
    b = limiting_error(_x(3, 61.25), UNIT)
    assert abs(a.value - b.value) <= 0.2 * max(a.value, b.value)


def test_monte_carlo_agrees_with_quadrature():
    sig = SignalSpec.from_vector(_x(3, 2.3), UNIT)
    q = limiting_error(sig, UNIT)
    mc = monte_carlo_limit(sig, UNIT, samples=400000, seed=9)
    assert abs(q.value - mc.value) <= 3 * mc.error_estimate


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monte_carlo_small_signal_regime(seed):
    # value far below the per-sample noise floor: the norm estimate is all
    # bias, and the conservative error propagation must still cover it
    sig = SignalSpec.from_vector(_x(4, 50.375), UNIT)
    q = limiting_error(sig, UNIT)
    mc = monte_carlo_limit(sig, UNIT, samples=400000, seed=seed)
    assert abs(q.value - mc.value) <= 3 * mc.error_estimate


def test_monte_carlo_error_scaling():
    sig = SignalSpec.from_vector(_x(3, 2.3), UNIT)
    a = monte_carlo_limit(sig, UNIT, samples=50000, seed=4)
    b = monte_carlo_limit(sig, UNIT, samples=200000, seed=4)
    ratio = b.error_estimate / a.error_estimate
    assert 0.35 <= ratio <= 0.72  # ~1/2 expected for 4x the samples


def test_monte_carlo_rotation_pairing():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    x = _x(4, 3.6)
    a = monte_carlo_limit(x, UNIT, samples=200000, seed=13)
    b = monte_carlo_limit(q @ x, UNIT, samples=200000, seed=13)
    assert abs(a.value - b.value) <= 3 * (a.error_estimate + b.error_estimate)


def test_monte_carlo_determinism_and_validation():
    a = monte_carlo_limit(_x(3, 1.3), UNIT, samples=5000, seed=1)
    b = monte_carlo_limit(_x(3, 1.3), UNIT, samples=5000, seed=1)
    assert a.value == b.value
    with pytest.raises(ValueError):
        monte_carlo_limit(_x(3, 1.3), UNIT, samples=10, seed=1)


def test_rotation_invariance_2d_quarter_turn():
    a = limiting_error(_x(2, 6.25), UNIT)
    b = limiting_error(np.array([0.0, 6.25]), UNIT)
    assert a.value == pytest.approx(b.value, rel=1e-12)


@pytest.mark.parametrize("d", [3, 5])
def test_rotation_invariance_random(d):
    dev = rotation_invariance_check(_x(d, 17.3), UNIT, rotations=5, seed=21)
    assert dev < 1e-6


def test_sparse_vs_dense_equal_norm():
    # only the norm enters
    dense = np.full(5, 11.35 / math.sqrt(5))
    sparse = _x(5, 11.35)
    a = limiting_error(dense, UNIT)
    b = limiting_error(sparse, UNIT)
    assert a.value == pytest.approx(b.value, rel=1e-9)


def test_csv_row_schema():
    sig = SignalSpec.from_vector(_x(3, 5.25), UNIT)
    res = limiting_error(sig, UNIT)
    row = result_csv_row(sig, UNIT, res)
    assert list(row.keys()) == ["r", "delta", "eps", "d", "method", "value", "error_estimate"]
    assert row["method"] == "quadrature" and row["d"] == 3


# ---------------------------------------------------------------------------
# the Bessel-series route against an independent breakpoint-sum oracle
# ---------------------------------------------------------------------------

def _breakpoint_sum_limit(mpmath, d, R):
    """d c_d |I| at delta = 1, r = R, in mpmath, with I the 1-D integral

        I = r G(3/2) G(s+1)/G(s+5/2) - 1/(s+1) sum_{u_k<1} (1-u_k^2)^{s+1},

    u_k = (k+1/2)/r and s = (d-3)/2: the linear part of the sawtooth minus
    one closed-form step per jump of the quantizer.
    """
    with mpmath.workdps(int(30 + (d + 1) / 2 * math.log10(max(R, 10.0)))):
        r = mpmath.mpf(R)
        s = mpmath.mpf(d - 3) / 2
        main = r * mpmath.gamma(1.5) * mpmath.gamma(s + 1) / mpmath.gamma(s + 2.5)
        jumps = mpmath.fsum((1 - (mpmath.mpf(2 * k + 1) / (2 * r)) ** 2) ** (s + 1)
                            for k in range(math.floor(R - 0.5) + 1))
        integral = main - jumps / (s + 1)
        cd = mpmath.gamma(mpmath.mpf(d) / 2) / (mpmath.sqrt(mpmath.pi)
                                                * mpmath.gamma(mpmath.mpf(d - 1) / 2))
        return float(d * cd * abs(integral))


def _oracle_points():
    """20 seeded (d, R): d = 3..12, R = K + eps with K in [10, 2000]; four
    with |eps - 1/2| in [4e-4, 0.01] (the phase-sum head) and one R < 2
    (the series branch of the direct part)."""
    import random

    rng = random.Random(20141)
    points = []
    for i in range(19):
        d = 3 + i % 10
        K = round(10 ** rng.uniform(1.0, math.log10(2000.0)))
        if i < 4:
            eps = 0.5 + rng.choice((-1.0, 1.0)) * rng.uniform(4e-4, 0.01)
        else:
            eps = rng.uniform(0.0, 1.0)
        points.append((d, K + eps))
    points.append((rng.randint(3, 12), 1.0 + 0.9 * rng.random()))
    return points


def test_series_route_against_breakpoint_sum_oracle():
    mpmath = pytest.importorskip("mpmath")
    points = _oracle_points()
    assert sum(abs(R % 1.0 - 0.5) <= 0.01 for _, R in points) >= 4
    assert any(2 * math.pi * R <= 12.0 for _, R in points)
    for d, R in points:
        res = limiting_error(_x(d, R), UNIT, Method.BESSEL_SERIES)
        oracle = _breakpoint_sum_limit(mpmath, d, R)
        assert abs(res.value - oracle) <= res.error_estimate, (d, R, res, oracle)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d, R", [(4, 1e9 + 0.375), (40, 100.375)])
def test_series_route_at_huge_hankel_arguments(d, R):
    # x = 2 pi k R reaches ~1e14 (d = 4) and the order 20 needs ~46
    # Hankel terms (d = 40); no power of x may overflow
    try:
        res = limiting_error(_x(d, R), UNIT, Method.BESSEL_SERIES)
    except PrecisionExhausted:
        assert d == 40  # the order-20 sum cancels below binary64 resolution
        return
    assert math.isfinite(res.value) and math.isfinite(res.error_estimate)
    assert res.error_estimate < 1e-6 * res.value
    # the limit scales like R^{-(d-1)/2} at fixed eps; compare with R = 1e4 + eps
    ref = limiting_error(_x(d, 1e4 + 0.375), UNIT, Method.BESSEL_SERIES).value
    assert res.value * R ** 1.5 == pytest.approx(ref * (1e4 + 0.375) ** 1.5, rel=1e-3)
