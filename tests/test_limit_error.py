import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from framepcm import (
    LimitErrorResult,
    Method,
    PrecisionExhausted,
    QuantScheme,
    SignalSpec,
    fibonacci_sphere_frame,
    integral_even,
    integral_odd,
    limiting_error,
    monte_carlo_limit,
    quant_error,
    quantize_and_reconstruct,
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
        SignalSpec.from_vector([1.7e308, 1.7e308], UNIT)


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
    # past the first R G is subnormal: rounded as it stands, it kept few
    # bits.  At (1e-300, 3.53e7), R G is in (2^-1023, 2^-1022) for d <= 5
    for r, delta in ((0.37, 1.0), (1e-10, 1e300), (1e-300, 1e10), (1e-300, 3.53e7)):
        res = limiting_error(_x(d, r), QuantScheme(delta))
        assert res.value == pytest.approx(r, rel=1e-10)
        assert abs(res.value - r) <= res.error_estimate, (r, delta)


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
    assert (res2.method, res2.breakpoint_count) == (Method.BESSEL_SERIES, None)
    assert res.value == pytest.approx(res2.value, rel=1e-8)


def _per_delta(d, R, delta, method):
    """(route, value/delta, estimate/delta) at r = R delta, None on a raise."""
    try:
        res = limiting_error(_x(d, R * delta), QuantScheme(delta), method)
    except PrecisionExhausted:
        return None
    return res.method, res.value / delta, res.error_estimate / delta


def test_scale_invariance():
    for s in (0.25, 3.0):
        a = limiting_error(_x(3, 7.3), UNIT)
        b = limiting_error(_x(3, s * 7.3), QuantScheme(s))
        assert b.value == pytest.approx(s * a.value, rel=1e-11)
    # at a power of two every route scales exactly: the quadrature's default
    # target scales with delta (at delta = 2^100, d = 4, R = 0.3 it raised).
    # From 2^600 on the squares of r and delta leave binary64 (every route
    # read 0 or raised at 2^-600 and 2^-900); the series may move by 2 ulps
    # there, where the scale takes its mantissa fall-back (1 at d = 4, R = 7.3)
    ks = (100, -100, 300, -300, 600, -600, 900, -900)
    for d, R, method in itertools.product((3, 4), (0.3, 2.3, 7.3), (
            Method.AUTO, Method.QUADRATURE, Method.BESSEL_SERIES)):
        ref = _per_delta(d, R, 1.0, method)
        assert ref is not None or (d, R, method) == (4, 0.3, Method.BESSEL_SERIES)
        for k in ks:
            got = _per_delta(d, R, 2.0 ** k, method)
            if method == Method.BESSEL_SERIES and abs(k) > 300 and ref is not None:
                assert got[0] == ref[0], (d, R, k)
                for a, b in zip(got[1:], ref[1:]):
                    assert abs(a - b) <= 2 * math.ulp(b), (d, R, k)
            else:
                assert got == ref, (d, R, method, k)
    # the Monte Carlo route and the finite-frame error E_N scale exactly too
    # (both read 0, inf or nan at every k from 600 on)
    frame = fibonacci_sphere_frame(500)
    direction = np.arange(1.0, 4.0) / math.sqrt(14.0)
    for d, R in itertools.product((3, 4), (0.3, 2.3, 7.3)):
        mc = monte_carlo_limit(_x(d, R), UNIT, 2000, seed=3)
        for k in ks:
            got = monte_carlo_limit(_x(d, R * 2.0 ** k), QuantScheme(2.0 ** k), 2000, seed=3)
            assert (got.value, got.error_estimate) == (math.ldexp(mc.value, k),
                                                       math.ldexp(mc.error_estimate, k)), (d, R, k)
    for R in (0.3, 2.3, 7.3):
        e_n = quantize_and_reconstruct(R * direction, frame, UNIT)[1]
        for k in ks:
            scaled = quantize_and_reconstruct(2.0 ** k * R * direction, frame, QuantScheme(2.0 ** k))
            assert scaled[1] == math.ldexp(e_n, k), (R, k)


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
                                         (8, 2.3, 1.0), (40, 7.3, 0.37)])
def test_monte_carlo_matches_per_sample_contributions(d, R, delta):
    # same samples (300000: two full batches of 2^17 and a partial one, or
    # at d = 40 six batches of 2^21 // 40); only the row norms and the order
    # of the batch sums differ
    x = np.arange(1.0, d + 1.0)
    x *= R * delta / np.linalg.norm(x)
    scheme = QuantScheme(delta)
    res = monte_carlo_limit(x, scheme, samples=300_000, seed=d)
    value, estimate = _per_sample_monte_carlo(x, scheme, 300_000, d)
    assert res.sample_count == 300_000
    assert abs(res.value - value) <= 1e-12 * value
    assert abs(res.error_estimate - estimate) <= 1e-12 * estimate


def _batch_loop_monte_carlo(x, scheme, samples, seed):
    # the batch loop as it was before its arrays were allocated once per
    # call: fresh normals, row norms and quantization per batch
    d = len(x)
    rng = np.random.default_rng(seed)
    total, total_sq, done = np.zeros(d), np.zeros(d), 0
    batch = max(1, (1 << 21) // max(d, 16))
    while done < samples:
        m = min(batch, samples - done)
        z = rng.standard_normal((m, d))
        z /= np.sqrt(np.einsum("ij,ij->i", z, z))[:, None]
        e = quant_error(z @ x, scheme)
        total += e @ z
        total_sq += (e * e) @ np.square(z, out=z)
        done += m
    mean = total / samples
    var = np.maximum(total_sq / samples - mean * mean, 0.0) / samples
    return d * float(np.linalg.norm(mean)), d * math.sqrt(float(var.sum()))


@pytest.mark.parametrize("d, R, delta, samples", [(2, 3.7, 0.1, 300_000), (3, 10.25, 1.0, 1000),
                                                  (8, 2.3, 0.37, 270_001), (40, 7.3, 0.37, 60_000)])
def test_monte_carlo_equals_the_batch_loop_exactly(d, R, delta, samples):
    x = np.arange(1.0, d + 1.0)
    x *= R * delta / np.linalg.norm(x)
    scheme = QuantScheme(delta)
    res = monte_carlo_limit(x, scheme, samples=samples, seed=d)
    assert (res.value, res.error_estimate) == _batch_loop_monte_carlo(x, scheme, samples, d)


def test_smooth_coef_cache_is_bounded():
    from framepcm.limit_error import _smooth_coef

    for d in range(2, 1002):
        angular_constant(d)
    assert _smooth_coef.cache_info().maxsize is not None
    assert _smooth_coef.cache_info().currsize <= _smooth_coef.cache_info().maxsize


def test_parity_split_cache_is_bounded():
    for d in range(2, 1002):
        parity_split(d)
    assert parity_split.cache_info().maxsize is not None
    assert parity_split.cache_info().currsize <= parity_split.cache_info().maxsize
    # a numpy d keeps its own entry, as it did uncached: n stays a numpy int
    assert type(parity_split(np.int64(6)).n) is np.int64 and type(parity_split(6).n) is int


def test_monte_carlo_memory_is_bounded_in_d():
    # a batch held 2^17 x d coordinates, 132 MB of allocations here and
    # 1.05 GB per array at d = 1000; now at most 2^21, twice over (the
    # normal draws and their row norms' scaling)
    import tracemalloc

    tracemalloc.start()
    try:
        res = monte_carlo_limit(_x(2000, 3.7), UNIT, samples=8192, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.sample_count == 8192 and math.isfinite(res.value)
    assert peak <= 3 * 8 * 2 ** 21


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
    # the points within 1e-2 of eps = 1/2; the series' whole sum is Hankel
    # terms times polylogarithms
    pytest.importorskip("mpmath")
    oracle = _benchmark_oracle()
    rng = np.random.default_rng(2026)
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
        assert res.method == Method.BESSEL_SERIES


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
                                  (2, 0.5000000036707667), (3, 0.5000000036707667)])
def test_series_route_near_half_against_breakpoint_sum_oracle(d, R):
    # eps within 1e-6 of 1/2: the phase sums' z lies within 2e-5 of 1; at
    # R < 1 the phase must not be rounded on its way to the tails.  The
    # order-1 expansion at 2 pi R < 2 pi cannot reach the target (d = 2);
    # the half-integer one terminates (d = 3)
    mpmath = pytest.importorskip("mpmath")
    if d == 2:
        with pytest.raises(PrecisionExhausted):
            limiting_error(_x(d, R), UNIT, Method.BESSEL_SERIES)
        return
    res = limiting_error(_x(d, R), UNIT, Method.BESSEL_SERIES)
    assert abs(res.value - _breakpoint_sum_limit(mpmath, d, R)) <= res.error_estimate


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d, R", [(4, 1e9 + 0.375), (40, 100.375)])
def test_series_route_at_huge_hankel_arguments(d, R):
    # x = 2 pi k R reaches ~1e14 (d = 4) and the order 20 needs ~46
    # Hankel terms (d = 40); no power of x may overflow
    res = limiting_error(_x(d, R), UNIT, Method.BESSEL_SERIES)
    assert math.isfinite(res.value) and math.isfinite(res.error_estimate)
    assert res.error_estimate < 1e-6 * res.value
    if d == 4:
        # the limit scales like R^{-(d-1)/2} at fixed eps; compare with R = 1e4 + eps
        ref = limiting_error(_x(d, 1e4 + 0.375), UNIT, Method.BESSEL_SERIES).value
        assert res.value * R ** 1.5 == pytest.approx(ref * (1e4 + 0.375) ** 1.5, rel=1e-3,
                                                     abs=0.0)


# ---------------------------------------------------------------------------
# the quadrature route: the breakpoint sum and its a-priori estimate
# ---------------------------------------------------------------------------

def _exact_odd_integral(d, r, delta):
    """The 1-D integral I = (delta/e) (R G - sum_{k<K} (1 - u_k^2)^e) at odd
    d, e = (d - 1)/2, as an exact Fraction: R = r/delta = a/b is rational,
    G = 4^e / ((2e + 1) C(2e, e)), and 1 - u_k^2 = (4a^2 - (2k + 1)^2 b^2)/(4a^2)."""
    e = (d - 1) // 2
    a, b = (Fraction(r) / Fraction(delta)).as_integer_ratio()
    steps = 0
    k = 0
    while (2 * k + 1) * b < 2 * a:
        steps += (4 * a * a - (2 * k + 1) ** 2 * b * b) ** e
        k += 1
    smooth = Fraction(a, b) * Fraction(4 ** e, (2 * e + 1) * math.comb(2 * e, e))
    return Fraction(delta) / e * (smooth - Fraction(steps, (4 * a * a) ** e))


def _mp_even_integral(mpmath, d, r, delta):
    """The same integral at even d, in mpmath with digits to spare, as a
    Fraction (exactly the mpmath value)."""
    with mpmath.workdps(int(40 + (d + 1) / 2 * math.log10(max(r / delta, 10.0)))):
        R = mpmath.mpf(r) / mpmath.mpf(delta)
        e = mpmath.mpf(d - 1) / 2
        smooth = R * mpmath.gamma(1.5) * mpmath.gamma(e + 1) / mpmath.gamma(e + 1.5)
        steps = mpmath.fsum((1 - (mpmath.mpf(2 * k + 1) / (2 * R)) ** 2) ** e
                            for k in range(int(mpmath.ceil(R - 0.5))))
        man, exp = (mpmath.mpf(delta) / e * (smooth - steps)).man_exp
    return Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("d, R, delta", [
    (2, 0.3, 1.0), (3, 10.3, 1.0), (12, 5.3, 0.37), (40, 100.375, 1.0),
    (3, 1e5 + 0.3, 1.0), (8, 2000.3, 1.0 / 16.0), (2, 10.5 + 1e-7, 1.0), (7, 0.8, 3.0),
])
def test_quadrature_takes_the_lowest_order_its_bound_certifies(monkeypatch, d, R, delta):
    # the breakpoint sum is each piece's integral in closed form: it takes no
    # Gauss-Legendre rule at all, and its estimate is an a priori bound on
    # its rounding alone, a few EPS of r + delta at most
    mpmath = pytest.importorskip("mpmath")
    from framepcm import limit_error
    from framepcm.special_fn import EPS

    monkeypatch.setattr(limit_error, "gauss_legendre", None)
    r = R * delta
    value, estimate, npieces = limit_error._quad_integral(r, delta, d - 2, None)
    # K jumps k + 1/2 < R in [0, 1], 2K + 1 pieces over [0, pi]
    assert npieces == 2 * math.ceil(Fraction(r) / Fraction(delta) - Fraction(1, 2)) + 1
    exact = (_exact_odd_integral(d, r, delta) if d % 2 else
             _mp_even_integral(mpmath, d, r, delta))
    assert abs(Fraction(value) - exact) <= Fraction(estimate)
    assert 0 < estimate <= 4 * EPS * (r + delta)


def test_quadrature_takes_numpy_scalars():
    # R G is formed from the exact integer ratios of r and delta
    r = float(np.float32(10.3))
    assert (integral_odd(np.float32(10.3), np.int64(1), 1, method=Method.QUADRATURE)
            == integral_odd(r, 1.0, 1, method=Method.QUADRATURE))
    assert (integral_even(np.int64(10), np.float64(1.0), 2, method=Method.QUADRATURE)
            == integral_even(10.0, 1.0, 2, method=Method.QUADRATURE))


def test_quadrature_raises_for_a_target_below_its_rounding_floor():
    with pytest.raises(PrecisionExhausted):
        integral_even(10.25, 1.0, 2, method=Method.QUADRATURE, tol=1e-16)


def test_quadrature_rounding_bound_is_at_most_7_4_eps_per_piece():
    # with t_sum, h_sum <= K, G <= 1 and R < K + 1/2 the estimate is at most
    # 0.505 (2.5 + 6/e) EPS delta (2K + 1), e = (d - 1)/2 >= 1/2: 6e4 times
    # below 1e-10 delta per piece, so a default target of that size could
    # never refuse a point, and the quadrature takes none
    from framepcm.limit_error import _quad_plan
    from framepcm.special_fn import EPS

    rng = np.random.default_rng(28)
    worst = 0.0
    for _ in range(20_000):
        d = int(rng.integers(2, 601))
        R = float(10 ** rng.uniform(-3.0, math.log10(1.6e7)))
        delta = float(2.0 ** rng.uniform(-300.0, 300.0))
        *_, K, estimate = _quad_plan(R * delta, delta, d)
        ratio = estimate / (EPS * delta * (2 * K + 1))
        assert ratio <= 7.4, (d, R, delta)
        worst = max(worst, ratio)
    assert worst > 2.0  # it reaches 2.15 here


@pytest.mark.parametrize("r, delta, start, K", [
    (263609.14413675776, 0.3858190710904905, 683246, 683246),  # binary64 counts 683245
    (508650.475006533, 0.8839047038257892, 575458, 575459),    # the guess is one short
])
def test_jump_count_corrects_its_first_guess(r, delta, start, K):
    # frac(r/delta) is within 1e-10 of 1/2 at both: ceil(r/delta - 1/2), and
    # the count of the binary64 jumps delta (k + 1/2)/r < 1, each miss the
    # count by one at one of them; from r = q delta + f, exact in binary64,
    # it is q + [f > delta/2], checked here with Fractions
    from framepcm.limit_error import _quad_plan

    assert math.ceil(r / delta - 0.5) == start
    q, f, count, _ = _quad_plan(r, delta, 3)
    assert count == K
    assert Fraction(r) == q * Fraction(delta) + Fraction(f) and 0 <= f < delta
    assert K - Fraction(1, 2) < Fraction(r) / Fraction(delta) < K + Fraction(1, 2)
    # the binary64 jumps ascend with k: their count is the first k at 1 or above
    k = np.arange(K - 3, K + 4, dtype=float)
    binary64 = K - 3 + int(np.count_nonzero(delta * (k + 0.5) / r < 1.0))
    assert start != K or binary64 != K


def _odd_d_points():
    """Seeded (d, r, delta) at odd d = 3..63, R = r/delta in [0.3, 200] with
    delta log-uniform in [1e-3, 1e3], a quarter of them within 1e-9 of
    K + 1/2, where a jump sits next to u = 1."""
    import random

    rng = random.Random(2024)
    points = []
    for i in range(48):
        d = rng.randrange(3, 64, 2)
        R = 10 ** rng.uniform(math.log10(0.3), math.log10(200.0))
        if i % 4 == 0:
            R = math.floor(R) + 0.5 + rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-12, -9)
        delta = 10 ** rng.uniform(-3.0, 3.0)
        points.append((d, R * delta, delta))
    return points


def test_odd_d_quadrature_against_the_exact_breakpoint_sum():
    # at odd d the breakpoint sum is rational in r and delta, so its exact
    # value is a Fraction: the float sum lies within its estimate of it
    from framepcm.limit_error import _quad_integral

    worst = 0.0
    for d, r, delta in _odd_d_points():
        value, estimate, _ = _quad_integral(r, delta, d - 2, None)
        miss = abs(Fraction(value) - _exact_odd_integral(d, r, delta)) / Fraction(estimate)
        assert miss <= 1, (d, r, delta, float(miss))
        worst = max(worst, float(miss))
    assert worst > 1e-3  # the estimate is not vacuous


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quadrature_against_the_benchmark_oracle_on_a_seeded_sweep():
    # d = 2..64, delta log-uniform in [1e-2, 1e2], R log-uniform in [0.3, 1e4],
    # and d = 2 with eps within 1e-9 of 1/2, where the last term (1 - u_k^2)^(1/2)
    # is steep: each term keeps its relative accuracy there
    pytest.importorskip("mpmath")
    oracle = _benchmark_oracle()
    rng = np.random.default_rng(24)
    points = [(int(d), float(10 ** rng.uniform(math.log10(0.3), 4.0)),
               float(10 ** rng.uniform(-2.0, 2.0))) for d in rng.integers(2, 65, size=36)]
    points += [(2, int(10 ** rng.uniform(0.0, 3.0)) + 0.5 + float(rng.choice((-1, 1)))
                * float(10 ** rng.uniform(-12, -9)), float(10 ** rng.uniform(-2.0, 2.0)))
               for _ in range(8)]
    for d, R, delta in points:
        res = limiting_error(_x(d, R * delta), QuantScheme(delta), Method.QUADRATURE)
        ref = oracle.limit_oracle(d, R * delta, delta)
        assert abs(res.value - ref) <= res.error_estimate, (d, R, delta, res, ref)


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


def test_unresolved_is_an_estimate_at_least_the_value_except_an_exact_zero():
    assert LimitErrorResult(1e-13, Method.QUADRATURE, 1.1e-10).unresolved
    assert LimitErrorResult(-2.0, Method.QUADRATURE, 2.0).unresolved
    assert not LimitErrorResult(0.0, Method.QUADRATURE, 0.0).unresolved
    assert not LimitErrorResult(1.0, Method.BESSEL_SERIES, 0.5).unresolved


def test_auto_falls_back_to_quadrature_with_an_honest_estimate():
    # the order-82.5 polylogarithms run past their table's depth at d = 165;
    # the quadrature's estimate exceeds its value there, but covers its error
    mpmath = pytest.importorskip("mpmath")
    with pytest.raises(PrecisionExhausted):
        limiting_error(_x(165, 5000.3), UNIT, Method.BESSEL_SERIES)
    res = limiting_error(_x(165, 5000.3), UNIT, Method.AUTO)
    assert res.method == Method.QUADRATURE
    assert res.error_estimate >= res.value
    assert abs(res.value - _breakpoint_sum_limit(mpmath, 165, 5000.3)) <= res.error_estimate


# at large d the value is far above the scale delta^s / r^(s-1) (~5e5 times
# at d = 40, R = 100.375), so 1e-10 of the scale asked the series for less
# than its own rounding; 1e-10 of the value is what it reaches
_RELATIVE_TARGET_POINTS = [(40, 100.375), (40, 1000.3), (40, 10000.3), (41, 1e6 + 0.3),
                           (41, 1e9 + 0.3), (63, 1e9 + 0.3), (21, 1e12 + 0.3)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d, R", _RELATIVE_TARGET_POINTS)
def test_auto_takes_the_series_under_the_relative_default_target(d, R):
    # these exited 3 or printed an unresolved quadrature under the
    # scale-based target alone
    res = limiting_error(_x(d, R), UNIT)
    assert res.method == Method.BESSEL_SERIES
    assert 0 < res.error_estimate <= 1e-10 * res.value
    if d == 40:
        pytest.importorskip("mpmath")
        ref = _benchmark_oracle().limit_oracle(d, R, 1.0)
        assert abs(res.value - ref) <= res.error_estimate, (res, ref)


def test_series_refuses_an_infinite_bound():
    # at R = 1e-300 Hankel's expansion at 2 pi R overflows, and the
    # alternating sum returns inf with an infinite bound, which "1e-10 of
    # the value" accepted: inf +- inf, once the norm of 1e-300 stopped reading 0
    with pytest.raises(PrecisionExhausted, match="reached bound inf"):
        limiting_error(_x(3, 1e-300), UNIT, Method.BESSEL_SERIES)


def test_an_explicit_tol_keeps_its_absolute_meaning():
    # 1e-10 of the value is met at d = 40, R = 100.375, an absolute 1e-50 is not
    res = limiting_error(_x(40, 100.375), UNIT, Method.BESSEL_SERIES)
    assert res.error_estimate > 1e-50
    with pytest.raises(PrecisionExhausted):
        limiting_error(_x(40, 100.375), UNIT, Method.BESSEL_SERIES, tol=1e-50)


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
                got, _ = _series_prefactor(r, delta, split)
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


@pytest.mark.parametrize("d, r, delta", [(3, 1e200, 1e199), (4, 1e200, 1e199),
                                         (41, 1e21, 1e20), (40, 3.7e-200, 1e-201)])
def test_scale_where_only_a_factor_leaves_binary64(d, r, delta):
    # delta^s or r^(s-1) leaves binary64 where the scale does not; this raised
    # PrecisionExhausted, and with it the series' prefactor and target
    mpmath = pytest.importorskip("mpmath")
    from framepcm.special_fn import EPS

    split = parity_split(d)
    with pytest.raises((OverflowError, ZeroDivisionError)):
        delta ** split.s / r ** (split.s - 1.0)
    with mpmath.workdps(40):
        ref = mpmath.mpf(delta) ** split.s / mpmath.mpf(r) ** (split.s - 1)
        # delta/r rounds once, and the power carries that s - 1 times
        assert abs(split.scale(r, delta) / ref - 1) <= (split.s + 2) * EPS / 2


def test_scale_keeps_its_direct_value_and_refuses_a_subnormal_power():
    assert parity_split(3).scale(10.3, 0.37) == 0.37 ** 2 / 10.3
    assert parity_split(40).scale(1e3, 1e-2) == 1e-2 ** 20.5 / 1e3 ** 19.5
    # delta^21 overflows and (delta/r)^20 is 1e-320, subnormal, but the scale
    # 1e-300 is normal: the power is taken of delta/r's mantissa (this raised)
    split = parity_split(41)
    assert abs(split.scale(1e36, 1e20) - 1e-300) <= 4 * math.ulp(1e-300)
    with pytest.raises(PrecisionExhausted, match="scale"):
        split.scale(1e36, 1e19)  # the scale itself, 1e-321, is subnormal


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
    # one term per jump in [0, 1], each a node of the midpoint sum; the cap
    # is checked before any term is evaluated (numpy is not reached)
    from framepcm import limit_error

    monkeypatch.setattr(limit_error, "np", None)
    for r, sin_pow in ((1e9, 1), (1e9 + 0.3, 39), (1e9 + 0.3, 62)):
        with pytest.raises(PrecisionExhausted, match="more than 16777216 nodes"):
            limit_error._quad_integral(r, 1.0, sin_pow, None)
    monkeypatch.undo()
    # d = 41 at R = 5e5 + 0.3: 500,000 terms
    monkeypatch.setattr(limit_error, "_QUAD_MAX_TERMS", 499_999)
    with pytest.raises(PrecisionExhausted, match="more than 499999 nodes"):
        limit_error._quad_integral(5e5 + 0.3, 1.0, 39, None)
    monkeypatch.setattr(limit_error, "_QUAD_MAX_TERMS", 500_000)
    assert limit_error._quad_integral(5e5 + 0.3, 1.0, 39, None)[2] == 1_000_001


def test_quadrature_chunks_cover_every_piece(monkeypatch):
    from framepcm import limit_error

    whole = limit_error._quad_integral(2000.3, 1.0, 4, None)
    monkeypatch.setattr(limit_error, "_QUAD_CHUNK", 333)  # 2000 terms, a partial last slice
    # each term is computed elementwise and fsum is exact, so the slicing
    # changes nothing; a lost or doubled term would move the value by ~1e-4
    assert limit_error._quad_integral(2000.3, 1.0, 4, None) == whole
    assert whole[2] == 4001


# ---------------------------------------------------------------------------
# limiting_error_grid
# ---------------------------------------------------------------------------

def _grid_equals_points(d, r, deltas, tol=None):
    """limiting_error_grid at (d, r, deltas), after checking that each row
    equals limiting_error at its point alone: route, value, estimate."""
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


def test_grid_falls_back_to_quadrature_row_by_row():
    # at d = 165 the order-82.5 polylogarithms run past their table's depth
    # at every R, so the series rows of the grid take the quadrature, as
    # AUTO does at each point; at R = 50.3 AUTO takes the quadrature first
    grid = _grid_equals_points(165, 1.0, [1.0 / 5000.3, 1.0 / 50.3, 1.0 / 1000.375])
    assert [res.method for res in grid] == [Method.QUADRATURE] * 3
    with pytest.raises(PrecisionExhausted):
        limiting_error(_x(165, 5000.3), UNIT, Method.BESSEL_SERIES)


def test_grid_rows_the_series_cannot_serve_beside_rows_it_serves():
    # at d = 10 and tol 1e-17 Hankel's expansion at 2 pi R cannot reach the
    # target at R = 2.7, and the quadrature's rounding floor misses it too,
    # so that point raises, alone or in a grid; the rows beside it resolve
    # by the series and do not depend on it
    from framepcm import limiting_error_grid

    Rs = [3.3, 20.3, 100.375, 150.50003]  # the last: eps within 1e-4 of 1/2
    grid = _grid_equals_points(10, 1.0, [1.0 / R for R in Rs], tol=1e-17)
    assert [res.method for res in grid] == [Method.BESSEL_SERIES] * 4
    with pytest.raises(PrecisionExhausted):
        limiting_error(_x(10, 2.7), UNIT, tol=1e-17)
    with pytest.raises(PrecisionExhausted):
        limiting_error_grid(10, 1.0, [1.0 / R for R in [2.7] + Rs], tol=1e-17)


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
