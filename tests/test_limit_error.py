import math
import sys
from fractions import Fraction

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


@pytest.mark.parametrize("d", [344, 401, 1000, 10 ** 4])
def test_angular_constant_past_gamma_overflow(d):
    # math.gamma overflows from d = 344 on
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = mpmath.gamma(mpmath.mpf(d) / 2) / (mpmath.sqrt(mpmath.pi)
                                                 * mpmath.gamma(mpmath.mpf(d - 1) / 2))
    assert angular_constant(d) == pytest.approx(float(ref), rel=1e-13, abs=0.0)


def test_signal_spec_rejects_non_finite_entries():
    with pytest.raises(ValueError, match=r"x\[1\] = nan"):
        SignalSpec.from_vector([1.0, math.nan, 2.0], UNIT)
    with pytest.raises(ValueError, match=r"x\[0\] = inf"):
        limiting_error([math.inf, 0.0, 0.0], UNIT)
    with pytest.raises(ValueError, match="overflows"):
        SignalSpec.from_vector([1e200, 1e200], UNIT)


def test_quadrature_rejects_bad_tol_up_front():
    for tol in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError, match="tol"):
            limiting_error(_x(3, 5.0), UNIT, Method.QUADRATURE, tol=tol)


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


@pytest.mark.parametrize("r", [1.3, 0.0])
def test_limiting_error_has_no_monte_carlo_route(r):
    # x = 0 must not return a zero labelled monte_carlo
    with pytest.raises(ValueError, match="monte_carlo_limit"):
        limiting_error(_x(3, r), UNIT, Method.MONTE_CARLO)


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
    from framepcm.special_fn import _K_LADDER

    assert res2.truncation_K in _K_LADDER
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


def _per_sample_monte_carlo(x, scheme, samples, seed):
    # the estimator as it was: per-sample contributions Delta(x . z) z as an
    # m x d array per batch, summed by column; returns (value, estimate)
    d = len(x)
    rng = np.random.default_rng(seed)
    total, total_sq, done = np.zeros(d), np.zeros(d), 0
    while done < samples:
        m = min(1 << 17, samples - done)
        z = rng.standard_normal((m, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        t = z @ x
        contrib = (t - scheme.delta * np.floor(t / scheme.delta + 0.5))[:, None] * z
        total += contrib.sum(axis=0)
        total_sq += (contrib * contrib).sum(axis=0)
        done += m
    mean = total / samples
    var = np.maximum(total_sq / samples - mean * mean, 0.0) / samples
    return d * float(np.linalg.norm(mean)), d * math.sqrt(float(var.sum()))


@pytest.mark.parametrize("d, R, delta", [(2, 3.7, 0.1), (3, 0.3, 1.0), (5, 10.25, 0.37),
                                         (8, 2.3, 1.0)])
def test_monte_carlo_matches_per_sample_contributions(d, R, delta):
    # same samples (300000: two full batches and a partial one); only the
    # row norms and the order of the batch sums differ
    x = np.arange(1.0, d + 1.0)
    x *= R * delta / np.linalg.norm(x)
    scheme = QuantScheme(delta)
    res = monte_carlo_limit(x, scheme, samples=300_000, seed=d)
    value, estimate = _per_sample_monte_carlo(x, scheme, 300_000, d)
    assert res.sample_count == 300_000
    assert abs(res.value - value) <= 1e-12 * value
    assert abs(res.error_estimate - estimate) <= 1e-12 * estimate


def test_rotation_invariance_2d_quarter_turn():
    a = limiting_error(_x(2, 6.25), UNIT)
    b = limiting_error(np.array([0.0, 6.25]), UNIT)
    assert a.value == pytest.approx(b.value, rel=1e-12)


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

def _breakpoint_sum_limit(mpmath, d, R, delta=1.0):
    """d c_d |I| at r = R delta, in mpmath, with I the 1-D integral at step 1

        I = R G(3/2) G(s+1)/G(s+5/2) - 1/(s+1) sum_{u_k<1} (1-u_k^2)^{s+1},

    u_k = (k+1/2)/R and s = (d-3)/2: the linear part of the sawtooth minus
    one closed-form step per jump of the quantizer.  The limit scales with
    delta at fixed R; R is taken as the exact quotient of R delta by delta.
    """
    with mpmath.workdps(int(30 + (d + 1) / 2 * math.log10(max(R, 10.0)))):
        r = mpmath.mpf(R * delta) / mpmath.mpf(delta)
        s = mpmath.mpf(d - 3) / 2
        main = r * mpmath.gamma(1.5) * mpmath.gamma(s + 1) / mpmath.gamma(s + 2.5)
        jumps = mpmath.fsum((1 - (mpmath.mpf(2 * k + 1) / (2 * r)) ** 2) ** (s + 1)
                            for k in range(int(mpmath.floor(r - 0.5)) + 1))
        integral = main - jumps / (s + 1)
        cd = mpmath.gamma(mpmath.mpf(d) / 2) / (mpmath.sqrt(mpmath.pi)
                                                * mpmath.gamma(mpmath.mpf(d - 1) / 2))
        return float(delta * d * cd * abs(integral))


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


def _benchmark_oracle():
    """``perfbench/oracle.py``, loaded from its file: it imports no framepcm."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_series_route_against_the_benchmark_oracle_on_a_seeded_grid():
    # d = 2..16 at delta = 2^-k and R = r/delta in [3, 2000], a quarter of
    # the points within 1e-2 of eps = 1/2; most take the series at K = 0,
    # where the whole sum is Hankel terms times polylogarithms
    pytest.importorskip("mpmath")
    oracle = _benchmark_oracle()
    rng = np.random.default_rng(2026)
    Ks = []
    for i in range(60):
        d = 2 + i % 15
        delta = 2.0 ** -int(rng.integers(0, 8))
        if i % 4 == 0:
            R = int(10 ** rng.uniform(0.5, 3.3)) + 0.5 + rng.choice((-1, 1)) * rng.uniform(1e-4, 1e-2)
        else:
            R = float(10 ** rng.uniform(0.5, 3.3))
        res = limiting_error(_x(d, R * delta), QuantScheme(delta), Method.BESSEL_SERIES)
        ref = oracle.limit_oracle(d, R * delta, delta)
        assert abs(res.value - ref) <= res.error_estimate, (d, R, delta, res, ref)
        Ks.append(res.truncation_K)
    assert Ks.count(0) >= 40


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_series_route_takes_the_exact_phase_at_non_dyadic_delta():
    # delta log-uniform in [0.05, 1], so r/delta is rounded: up to ulp(R)/2
    # off frac(R) moves the phases 2 pi k frac(R) far past the bound, so the
    # phase comes from fmod(r, delta), which is exact (22 of these 40 points
    # missed their estimate, by up to 43x, when it was taken from R)
    pytest.importorskip("mpmath")
    oracle = _benchmark_oracle()
    rng = np.random.default_rng(5)
    for i in range(40):
        d = (3, 4, 5, 6, 8)[i % 5]
        delta = float(10 ** rng.uniform(math.log10(0.05), 0.0))
        r = float(10 ** rng.uniform(math.log10(200.0), math.log10(3000.0))) * delta
        res = limiting_error(_x(d, r), QuantScheme(delta), Method.BESSEL_SERIES)
        ref = oracle.limit_oracle(d, r, delta)
        assert abs(res.value - ref) <= res.error_estimate, (d, r, delta, res, ref)


@pytest.mark.parametrize("d, R", [(2, 100.5), (3, 100.5), (2, 1000.5), (4, 1000.5)])
def test_series_route_near_half_at_non_dyadic_delta(d, R):
    # r = fl(R delta) puts frac(r/delta) within ~1e-14 of 1/2, where the
    # d = 2 and 3 sums have |beta|^(1/2) and |beta| terms: beta = frac - 1/2
    # must keep its relative accuracy, so it is (fmod(r, delta) - delta/2)/delta
    pytest.importorskip("mpmath")
    delta = 0.37
    res = limiting_error(_x(d, R * delta), QuantScheme(delta), Method.BESSEL_SERIES)
    ref = _benchmark_oracle().limit_oracle(d, R * delta, delta)
    assert abs(res.value - ref) <= res.error_estimate, (res, ref)


def test_series_route_at_a_large_non_dyadic_ratio():
    pytest.importorskip("mpmath")
    # R = 8856.0...: the phase taken from the rounded R missed by 15.6x the
    # estimate; the exact phase meets the oracle to the last bit
    r, delta = 6207.174704544109, 0.7008946717927919
    res = limiting_error(_x(3, r), QuantScheme(delta), Method.BESSEL_SERIES)
    oracle = _benchmark_oracle()
    for ref in (oracle.limit_oracle(3, r, delta), oracle.limit_d3_closed_form(r, delta)):
        assert abs(res.value - ref) <= res.error_estimate, (res, ref)


@pytest.mark.parametrize("d, R", [(3, 13.499999), (3, 1000.4999999), (3, 20.499999999),
                                  (2, 0.5000000036707667)])
def test_series_route_near_half_against_breakpoint_sum_oracle(d, R):
    # eps within 1e-6 of 1/2: the phase sums' z lies within 2e-5 of 1; at
    # R < 1 the phase must not be rounded on its way to the tails
    mpmath = pytest.importorskip("mpmath")
    res = limiting_error(_x(d, R), UNIT, Method.BESSEL_SERIES)
    assert abs(res.value - _breakpoint_sum_limit(mpmath, d, R)) <= res.error_estimate


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


# ---------------------------------------------------------------------------
# the quadrature route: its a-priori order and its estimate
# ---------------------------------------------------------------------------

def test_gauss_legendre_remainder_constant_is_rounded_up():
    from framepcm.limit_error import _QUAD_ORDERS, _gl_remainder_constant

    for n in _QUAD_ORDERS:
        exact = Fraction(math.factorial(n) ** 4,
                         (2 * n + 1) * math.factorial(2 * n) ** 3)
        assert exact <= _gl_remainder_constant(n) <= exact * (1 + Fraction(1, 2 ** 62)), n


# pi < 3.14159265358979324
_PI_ABOVE = Fraction(314159265358979324, 10 ** 17)


def _half_range_widths(r, delta):
    """The t-widths of the quadrature's pieces of [0, pi/2], cut at
    t = arccos(delta (k + 1/2) / r), apart from the code under test."""
    k = np.arange(math.ceil(r / delta + 0.5) + 1, dtype=float)
    c = delta * (k + 0.5) / r
    pts = np.concatenate(([0.0], np.arccos(c[c < 1.0])[::-1], [math.pi / 2]))
    return np.diff(pts)


@pytest.mark.parametrize("d, R, delta", [
    (2, 0.3, 1.0), (3, 10.3, 1.0), (12, 5.3, 0.37), (40, 100.375, 1.0),
    (3, 1e5 + 0.3, 1.0), (8, 2000.3, 1.0 / 16.0), (2, 10.5 + 1e-7, 1.0), (7, 0.8, 3.0),
])
def test_quadrature_takes_the_lowest_order_its_bound_certifies(monkeypatch, d, R, delta):
    from framepcm import limit_error
    from framepcm.special_fn import EPS

    orders = []
    real = limit_error.gauss_legendre
    monkeypatch.setattr(limit_error, "gauss_legendre", lambda n: orders.append(n) or real(n))
    r = R * delta
    value, estimate, npieces = limit_error._quad_integral(r, delta, d - 2, None)
    [n] = orders  # every piece at one order, in one pass
    widths = _half_range_widths(r, delta)
    assert 2 * widths.size - 1 == npieces  # pieces over [0, pi]: the middle one folds in two
    floor = npieces * EPS * delta
    if d % 2:
        # in u = cos t a piece's integrand is a polynomial of degree d - 1, which the
        # (d + 1)/2-point rule integrates exactly: the estimate is the rounding model
        # alone, (order + 3m + 14) EPS/2 of the integral of |f| <= 2 min(r, delta/2)/(d - 1)
        m = (d - 3) // 2
        assert n == (d + 1) // 2
        assert estimate == floor + (n + 3 * m + 14) * EPS * min(r, 0.5 * delta) / (d - 1)
        return
    # C_n (h_max d)^{2n} (2r + delta) pi: the summed Gauss-Legendre remainder
    # on trigonometric polynomials of degree d, sup-norm <= 2r + delta
    spread = (Fraction(float(widths.max())) * d, (2 * Fraction(r) + Fraction(delta)) * _PI_ABOVE)

    def bound(m, c_m):
        return c_m * spread[0] ** (2 * m) * spread[1]

    def exact_c(m):
        return Fraction(math.factorial(m) ** 4, (2 * m + 1) * math.factorial(2 * m) ** 3)

    assert bound(n, limit_error._gl_remainder_constant(n)) <= floor
    assert estimate >= bound(n, exact_c(n)) + floor
    if n > limit_error._QUAD_ORDERS[0]:
        assert bound(n // 2, exact_c(n // 2)) > floor  # the order below fails


def test_quadrature_raises_for_a_target_below_its_rounding_floor():
    with pytest.raises(PrecisionExhausted):
        integral_even(10.25, 1.0, 2, method=Method.QUADRATURE, tol=1e-16)


def test_breakpoints_come_out_sorted():
    # the pieces of [0, 1] run between the K jumps delta (k + 1/2)/r in (0, 1);
    # generated slice by slice, their ends ascend from 0 to 1 and the slices meet
    from framepcm.limit_error import _edges, _jump_count

    for r, delta in ((0.3, 1.0), (0.7, 1.0), (10.5 + 1e-9, 1.0), (2000.3, 1.0 / 16.0),
                     (1e5 + 0.3, 0.37)):
        K = _jump_count(r, delta)
        k = np.arange(math.ceil(r / delta + 0.5) + 1, dtype=float)
        c = delta * (k + 0.5) / r
        assert np.count_nonzero(c < 1.0) == K
        whole = _edges(r, delta, K, 0, K + 1)
        assert whole[0] == 0.0 and whole[-1] == 1.0 and np.all(np.diff(whole) > 0)
        assert np.array_equal(whole[1:-1], c[:K])
        parts = [_edges(r, delta, K, start, min(start + 333, K + 1))
                 for start in range(0, K + 1, 333)]
        assert np.array_equal(np.concatenate([parts[0]] + [p[1:] for p in parts[1:]]), whole)


@pytest.mark.parametrize("r, delta, start, K", [
    (263609.14413675776, 0.3858190710904905, 683246, 683245),  # steps down
    (508650.475006533, 0.8839047038257892, 575458, 575459),    # steps up
])
def test_jump_count_corrects_its_first_guess(r, delta, start, K):
    # ceil(r/delta - 1/2) misses the binary64 count of the jumps
    # delta (k + 1/2)/r < 1 by one either way, and a correction loop mends it
    from framepcm.limit_error import _jump_count

    assert math.ceil(r / delta - 0.5) == start
    assert _jump_count(r, delta) == K
    # the binary64 jumps ascend with k, so the count is the first k at 1 or above
    assert delta * (K - 0.5) / r < 1.0 <= delta * (K + 0.5) / r
    k = np.arange(K - 3, K + 4, dtype=float)
    assert np.count_nonzero(delta * (k + 0.5) / r < 1.0) == 3


@pytest.mark.parametrize("d", [3, 5, 11])
def test_odd_d_quadrature_is_exact_below_the_first_jump(d):
    # at R < 1/2 Delta(r u) = r u, and the integral is r int_{-1}^{1} u^2 (1 - u^2)^m du
    # = r m! 2^{m+1} / (3 5 ... (2m + 3)), m = (d - 3)/2: exact for the (m + 2)-point rule
    from framepcm.limit_error import _quad_integral

    m = (d - 3) // 2
    rational = Fraction(math.factorial(m) * 2 ** (m + 1), math.prod(range(3, 2 * m + 4, 2)))
    for r, delta in ((0.3, 1.0), (0.049, 0.1), (1e-3, 7.0)):
        value, estimate, npieces = _quad_integral(r, delta, d - 2, None)
        exact = Fraction(r) * rational
        assert npieces == 1
        assert abs(Fraction(value) - exact) <= estimate
        assert abs(Fraction(value) - exact) <= 4 * Fraction(math.ulp(float(exact)))


def _quadrature_oracle_points():
    """Seeded (d, R, delta) for the quadrature route: d = 2..12 twice each at
    R in [0.6, 3000]; R < 1/2 (one piece of width pi); d = 2 and even d with
    R within 1e-3 of K + 1/2 (a jump next to u = +-1); d = 40 at R = 100.375.
    delta is log-uniform in [1e-3, 1e2], so r/delta rounds."""
    import random

    rng = random.Random(20142)

    def delta():
        return 10 ** rng.uniform(-3.0, 2.0)

    points = [(d, 10 ** rng.uniform(math.log10(0.6), math.log10(3000.0)), delta())
              for d in range(2, 13) for _ in range(2)]
    points += [(d, 10 ** rng.uniform(-2.0, math.log10(0.49)), delta()) for d in (2, 3, 6, 12)]
    points += [(d, rng.randint(3, 300) + 0.5 + rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-9, -3),
                delta()) for d in (2, 2, 4, 8)]
    points.append((40, 100.375, 1.0))
    return points


def test_quadrature_route_against_breakpoint_sum_oracle():
    mpmath = pytest.importorskip("mpmath")
    points = _quadrature_oracle_points()
    assert {d for d, _, _ in points} >= set(range(2, 13)) | {40}
    assert sum(R < 0.5 for _, R, _ in points) >= 4
    assert sum(abs(R % 1.0 - 0.5) <= 1e-3 for _, R, _ in points) >= 4
    for d, R, delta in points:
        res = limiting_error(_x(d, R * delta), QuantScheme(delta), Method.QUADRATURE)
        oracle = _breakpoint_sum_limit(mpmath, d, R, delta)
        assert abs(res.value - oracle) <= res.error_estimate, (d, R, delta, res, oracle)


def test_quadrature_route_at_large_R_against_the_d3_closed_form():
    # x.z is uniform on [-R, R] for z on S^2: lim = 3 |int_0^R Delta(s) s ds| / R^2,
    # K (v^2/2 - 1/24) + v^3/3 for K = floor(R + 1/2), v = R - K (delta = 1);
    # at R = 4e6, 2 nodes on each of 4e6 pieces of [0, 1] take about 0.3 s
    mpmath = pytest.importorskip("mpmath")
    for R in (1e5 + 0.3, 1e6 + 0.3, 4e6 + 0.7):
        res = limiting_error(_x(3, R), UNIT, Method.QUADRATURE)
        assert res.breakpoint_count == 2 * math.floor(R + 0.5) + 1
        with mpmath.workdps(40):
            v = mpmath.mpf(R) - math.floor(R + 0.5)
            exact = float(3 * abs(math.floor(R + 0.5) * (v * v / 2 - mpmath.mpf(1) / 24)
                                  + v ** 3 / 3) / mpmath.mpf(R) ** 2)
        assert abs(res.value - exact) <= res.error_estimate, R


# ---------------------------------------------------------------------------
# the AUTO route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d, R, route", [
    (3, 10.3, Method.QUADRATURE),       # below the crossover, floor far below target
    (3, 1000.375, Method.BESSEL_SERIES),  # beyond the crossover R = 100
    (8, 20.3, Method.BESSEL_SERIES),    # quadrature rounding floor above the target
    (12, 5.3, Method.QUADRATURE),
])
def test_auto_route_table(d, R, route):
    res = limiting_error(_x(d, R), UNIT, Method.AUTO)
    assert res.method == route
    assert limiting_error(_x(d, R), UNIT) == res  # AUTO is the default
    ran = limiting_error(_x(d, R), UNIT, route)
    assert (res.value, res.error_estimate) == (ran.value, ran.error_estimate)


def test_auto_falls_back_to_quadrature_with_an_honest_estimate():
    # the order-20 series cancels below binary64 resolution at d = 40
    mpmath = pytest.importorskip("mpmath")
    with pytest.raises(PrecisionExhausted):
        limiting_error(_x(40, 100.375), UNIT, Method.BESSEL_SERIES)
    res = limiting_error(_x(40, 100.375), UNIT, Method.AUTO)
    assert res.method == Method.QUADRATURE
    assert abs(res.value - _breakpoint_sum_limit(mpmath, 40, 100.375)) <= res.error_estimate


@pytest.mark.parametrize("d", [500, 501])
@pytest.mark.parametrize("R", [0.3, 2.3, 20.3])
def test_series_route_at_d_500_raises_precision_exhausted(d, R):
    # the order-250 prefactor leaves binary64 (factorial(249) is no float);
    # this was a raw OverflowError
    with pytest.raises(PrecisionExhausted, match="prefactor leaves binary64"):
        limiting_error(_x(d, R), UNIT, Method.BESSEL_SERIES)


@pytest.mark.parametrize("r, delta", [(370.111, 0.37), (20.3, 1.0), (3.7, 0.0625),
                                      (100.375, 1.0)])
def test_series_prefactor_against_mpmath(r, delta):
    # the prefactor is -pi * (bound coefficient) * scale * sqrt(r/delta);
    # the reference is the closed form at 40 digits and the true pi.  A
    # float formula of its own was off by 1.8e-4 at d = 158, r = 370.111
    # (a subnormal intermediate) and raised from d = 160 on there.  Where
    # the scale leaves the normal range, so does the series' default
    # target, and the prefactor raises too
    mpmath = pytest.importorskip("mpmath")
    from framepcm.limit_error import _series_prefactor

    def normal(v):
        return sys.float_info.min <= abs(v) <= sys.float_info.max

    with mpmath.workdps(40):
        rm, dm = mpmath.mpf(r), mpmath.mpf(delta)
        for d in range(2, 441):
            split = parity_split(d)
            n = split.n
            if split.parity == "even":
                ref = -(mpmath.factorial(n - 1) * mpmath.binomial(2 * n - 2, n - 1)
                        / (4 ** (n - 1) * mpmath.pi ** (n - 1)) * dm ** n / rm ** (n - 1))
            else:
                ref = -mpmath.factorial(n - 1) / mpmath.pi ** n * dm ** (n + 0.5) / rm ** (n - 0.5)
            scale = dm ** split.s / rm ** (split.s - 1)
            if normal(ref) and normal(scale):
                got = _series_prefactor(r, delta, split)
                assert abs(got / ref - 1) <= 1e-14, d
            else:
                with pytest.raises(PrecisionExhausted, match="prefactor leaves binary64"):
                    _series_prefactor(r, delta, split)


def test_scale_that_leaves_binary64_raises_precision_exhausted():
    split = parity_split(500)
    with pytest.raises(PrecisionExhausted, match="scale"):
        split.scale(20.3, 1.0)  # 20.3^249.5 overflows
    with pytest.raises(PrecisionExhausted, match="scale"):
        split.scale(1.0, 1e-3)  # 1e-3^250.5 underflows to zero
    assert split.scale(2.3, 1.0) == 1.0 / 2.3 ** 249.5


def test_auto_at_d_500_falls_back_to_quadrature():
    # the scale, and with it the series' default target, leaves binary64;
    # this was a raw OverflowError in ParitySplit.scale
    res = limiting_error(_x(500, 20.3), UNIT)
    assert res.method == Method.QUADRATURE
    assert res == limiting_error(_x(500, 20.3), UNIT, Method.QUADRATURE)
    assert 0 < res.error_estimate < 1e-4 * res.value


def test_auto_result_never_names_auto():
    for d in (2, 3, 8, 12):
        for R in (0.0, 0.3, 6.5, 99.9, 100.375):
            assert limiting_error(_x(d, R), UNIT).method in (Method.QUADRATURE,
                                                             Method.BESSEL_SERIES)
    assert limiting_error(_x(3, 1000.375), UNIT, "auto").method == Method.BESSEL_SERIES
    assert integral_odd(1000.375, 1.0, 1) == integral_odd(1000.375, 1.0, 1,
                                                          method=Method.BESSEL_SERIES)


# ---------------------------------------------------------------------------
# the quadrature's bounded memory
# ---------------------------------------------------------------------------

def test_quadrature_memory_is_bounded_at_large_R():
    import tracemalloc

    from framepcm.limit_error import _quad_integral

    for R in (1e5 + 0.3, 4e6 + 0.3):
        tracemalloc.start()
        try:
            _quad_integral(R, 1.0, 1, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the pieces are generated slice by slice, so the peak does not grow with R
        assert peak <= 2e6, R


def test_quadrature_refuses_beyond_its_node_cap(monkeypatch):
    # both checks come before any piece is evaluated (the rule is never fetched)
    from framepcm import limit_error

    monkeypatch.setattr(limit_error, "gauss_legendre", None)
    for r, sin_pow in ((1e9, 1), (1e9 + 0.3, 39), (1e9 + 0.3, 62)):
        with pytest.raises(PrecisionExhausted, match="nodes"):
            limit_error._quad_integral(r, 1.0, sin_pow, None)
    # d = 41: 21 nodes on each of 500,001 pieces of [0, 1]
    monkeypatch.setattr(limit_error, "_QUAD_MAX_NODES", 21 * 500_001 - 1)
    with pytest.raises(PrecisionExhausted, match="10500021 nodes"):
        limit_error._quad_integral(5e5 + 0.3, 1.0, 39, None)


def test_quadrature_chunks_cover_every_piece(monkeypatch):
    from framepcm import limit_error

    whole = limit_error._quad_integral(2000.3, 1.0, 4, None)
    monkeypatch.setattr(limit_error, "_QUAD_CHUNK", 333)  # 2001 pieces of [0, 1], a partial last slice
    value, estimate, pieces = limit_error._quad_integral(2000.3, 1.0, 4, None)
    assert pieces == whole[2] == 4001
    # the pieces may round differently in another slicing (the BLAS kernel
    # for a row depends on its place), by far less than the rounding floor
    # the estimate carries; a lost or doubled piece would move it by ~1e-4
    assert abs(value - whole[0]) <= 1e-6 * whole[1]
    assert estimate == pytest.approx(whole[1], rel=1e-6)


# ---------------------------------------------------------------------------
# limiting_error_grid
# ---------------------------------------------------------------------------

def _grid_equals_points(d, r, deltas, tol=None):
    """limiting_error_grid at (d, r, deltas), after checking that each row
    equals limiting_error at its point alone: route, K, value, estimate."""
    from framepcm import limiting_error_grid

    grid = limiting_error_grid(d, r, deltas, tol)
    assert len(grid) == len(deltas)
    for delta, res in zip(deltas, grid):
        assert res == limiting_error(_x(d, r), QuantScheme(delta), tol=tol)
    return grid


@pytest.mark.parametrize("d, eps", [(3, 0.25), (4, 0.375), (5, 0.3), (8, 0.3), (12, 0.45)])
def test_grid_rows_equal_limiting_error_at_each_point(d, eps):
    # seeded ks beside the quadrature points k = 60, 90 (R < 100) and a
    # point at eps = 1/2 exactly, where the tail is a zeta tail
    rng = np.random.default_rng(d)
    ks = [60, 90] + sorted(int(k) for k in rng.integers(100, 5000, 6))
    deltas = [1.0 / (k + eps) for k in ks] + [1.0 / 100.5]
    assert 1.0 / deltas[-1] == 100.5
    grid = _grid_equals_points(d, 1.0, deltas)
    routes = [res.method for res in grid]
    # the quadrature's rounding floor rules it out at k = 60 from d = 8 on
    assert routes[0] == (Method.QUADRATURE if d < 8 else Method.BESSEL_SERIES)
    assert routes[2:] == [Method.BESSEL_SERIES] * (len(deltas) - 2)


def test_grid_falls_back_to_quadrature_row_by_row(monkeypatch):
    # at d = 40 the series cancels below binary64 at every R; at R = 50.3
    # too, the quadrature's rounding floor misses the target, so all three
    # rows leave the ladder at its first climbed rung and take the
    # quadrature, as AUTO does at each point
    from framepcm import special_fn

    rungs = []
    direct = special_fn._alt_sum_direct
    monkeypatch.setattr(special_fn, "_alt_sum_direct",
                        lambda *args: rungs.append(args[3]) or direct(*args))
    grid = _grid_equals_points(40, 1.0, [1.0 / 100.375, 1.0 / 50.3, 1.0 / 1000.375])
    assert [res.method for res in grid] == [Method.QUADRATURE] * 3
    assert rungs == [64] * 6  # each row of the grid, then each single point


def test_grid_rows_climbing_past_the_first_rung_beside_rows_that_stop_there():
    # at d = 10 and tol 1e-17 Hankel's expansion at 2 pi R cannot reach the
    # target for the first two points, which need K = 1024 and 256; the
    # quadrature's rounding floor misses it too, so every point takes the
    # series
    Rs = [2.7, 2.9, 3.3, 20.3, 100.375, 150.50003]
    grid = _grid_equals_points(10, 1.0, [1.0 / R for R in Rs], tol=1e-17)
    assert [res.method for res in grid] == [Method.BESSEL_SERIES] * 6
    Ks = [res.truncation_K for res in grid]
    assert Ks[0] > 256 and Ks[1] > 64 and Ks[2:] == [0] * 4  # Rs[5]: eps within 1e-4 of 1/2


def test_grid_of_nine_equals_its_nine_single_point_grids():
    # an odd d (half-integer order) and two even d (integer orders, whose
    # tails use every retained Hankel term); 60 and 90 take the quadrature
    # below d = 8
    from framepcm import limiting_error_grid

    deltas = [1.0 / (k + 0.3) for k in (60, 90, 100, 180, 316, 562, 1000, 1778, 3162)]
    for d in (4, 5, 12):
        grid = limiting_error_grid(d, 1.0, deltas)
        assert grid == [limiting_error_grid(d, 1.0, [delta])[0] for delta in deltas], d
        assert sum(res.method == Method.BESSEL_SERIES for res in grid) >= 7, d


def test_grid_validation():
    from framepcm import limiting_error_grid

    with pytest.raises(ValueError):
        limiting_error_grid(1, 1.0, [0.1])
    with pytest.raises(ValueError):
        limiting_error_grid(3, 0.0, [0.1])
    with pytest.raises(ValueError):
        limiting_error_grid(3, 1.0, [0.1, -0.2])
    assert limiting_error_grid(3, 1.0, []) == []


def test_auto_fall_back_stops_the_series_at_its_first_rung(monkeypatch):
    # d = 40, R = 100.375: the series' direct part alone exceeds the target
    # at K = 64, so AUTO falls back after one rung instead of climbing the
    # whole ladder; the route, value and estimate are the quadrature's
    from framepcm import special_fn

    rungs = []
    direct = special_fn._alt_sum_direct
    monkeypatch.setattr(special_fn, "_alt_sum_direct",
                        lambda *args: rungs.append(args[3]) or direct(*args))
    res = limiting_error(_x(40, 100.375), UNIT)
    assert rungs == [64]
    quad = limiting_error(_x(40, 100.375), UNIT, Method.QUADRATURE)
    assert (res.method, res.value, res.error_estimate) == (Method.QUADRATURE, quad.value,
                                                            quad.error_estimate)
    assert res == quad
