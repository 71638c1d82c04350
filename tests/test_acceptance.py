"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Two criteria rest on facts worth stating here:

* criterion 5: the paper's fixed-phase lower-bound kernels M1 (phase
  3pi/4) and M2 (phase pi/2) match the leading Bessel term's phase only
  for half of the orders.  The true phase is (2n+1)pi/4 in the even case
  and (n+1)pi/2 in the odd case, so the printed kernels over-claim for
  every d = 0 or 3 (mod 4): on this grid at even n=2, eps=3/8, and off the
  grid at odd n=1 near eps=0.2887, even n=4 and odd n=3.  ``sandwich_check``
  defaults to the order-matched phase, which never over-claims; the paper's
  kernel, requested with ``order_matched_phase=False``, is pinned as a
  defect in tests/test_bounds.py.
* criterion 7: for d = 3 the limit has the closed form
  lim = 3 delta |K (v^2/2 - 1/24) + v^3/3| / R^2 with R = r/delta,
  K = floor(R + 1/2), v = R - K, and the white-noise RMS error is
  3 delta / sqrt(12 N).  Their ratio does not depend on delta.  At
  N = 2e5 it is 12.6 at R = 5.03 but only 0.284 at R = 20.3, and no eps
  near R = 20 lifts it above sqrt(12 N)(R+1)/(12 R^2) ~ 6.7, so a 10x
  margin over the white-noise figure cannot be reached there.  At
  R = 20.3 the test instead checks that the measured ratio follows the
  closed-form ratio: the white-noise model over-predicts the error ~3.5x.
"""

import math
import time

import numpy as np
import pytest

from framepcm import (
    M1_constant,
    M2_constant,
    Method,
    QuantScheme,
    SignalSpec,
    asymptotic_estimate,
    bessel_half_order,
    bessel_integral_int_order,
    bessel_series,
    check_coeff_identity_even,
    check_coeff_identity_odd,
    check_gould,
    check_identity_A,
    check_identity_B,
    fibonacci_sphere_frame,
    gosper_certificate,
    integral_even,
    integral_odd,
    limiting_error,
    monte_carlo_limit,
    quantize_and_reconstruct,
    sandwich_check,
    scaling_slope_fit,
    wnh_mse,
)

UNIT = QuantScheme(1.0)


def _report(criterion: int, ok: bool, detail: str):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_exact_identity_suites():
    t0 = time.time()
    mx = 30
    ok = True
    ok &= all(check_identity_A(n, h) for n in range(1, mx + 1) for h in range(mx + 1))
    ok &= all(check_identity_B(h, l) for h in range(1, mx + 1) for l in range(h))
    ok &= all(gosper_certificate(h, l, m)
              for h in range(1, mx + 1) for l in range(h) for m in range(l, h + 1))
    ok &= all(check_gould(n, h) for n in range(mx + 1) for h in range(mx + 1))
    ok &= all(check_coeff_identity_even(n, h) for n in range(1, mx + 1) for h in range(mx + 1))
    ok &= all(check_coeff_identity_odd(n, h) for n in range(1, mx + 1) for h in range(mx + 1))
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    assert _report(1, ok, f"exhaustive identity suites to {mx} in {elapsed:.1f}s")


def test_criterion_2_worst_case_kernels():
    eps_even = np.linspace(0.25, 0.5, 2001)
    m1_worst = min(M1_constant(float(e), 2) for e in eps_even)
    eps_odd = np.linspace(1.0 / 6.0, 1.0 / 3.0, 2001)
    m2_worst = min(M2_constant(float(e), 1) for e in eps_odd)
    ok = abs(m1_worst - 0.138) <= 0.002 and abs(m2_worst - 0.02) <= 0.005
    assert _report(2, ok, f"M1 worst={m1_worst:.6f} (0.138+-0.002), "
                          f"M2 worst={m2_worst:.6f} (0.02+-0.005)")


def test_criterion_3_envelope_grid():
    violations = []
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
            if abs(ev.value - env.main_term) > env.residual_bound + ev.abs_error_bound:
                violations.append((order, x))
    ok = not violations
    assert _report(3, ok, f"84-point envelope grid, violations: {violations or 'none'}")


def test_criterion_4_dual_method_agreement():
    t0 = time.time()
    bad = []
    for n in (1, 2, 3):
        for R in (10.25, 25.375, 100.25):
            q = integral_even(R, 1.0, n, method=Method.QUADRATURE)
            b = integral_even(R, 1.0, n, method=Method.BESSEL_SERIES)
            if abs(q - b) > 1e-6 * max(abs(q), R ** (0.5 - n)):
                bad.append(("even", n, R))
            q = integral_odd(R, 1.0, n, method=Method.QUADRATURE)
            b = integral_odd(R, 1.0, n, method=Method.BESSEL_SERIES)
            if abs(q - b) > 1e-6 * max(abs(q), R ** (-float(n))):
                bad.append(("odd", n, R))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 60.0
    assert _report(4, ok, f"18 dual-method cells to 1e-6 rel in {elapsed:.1f}s, "
                          f"failures: {bad or 'none'}")


def test_criterion_5_sandwich_grid():
    cells = []
    for n in (2, 3):
        for eps in (0.25, 0.3, 0.375, 0.5):
            for base in (100, 1000):
                cells.append((base + eps, n, "even", eps))
    for n in (1, 2):
        for eps in (1.0 / 6.0, 0.25, 1.0 / 3.0):
            for base in (100, 1000):
                cells.append((base + eps, n, "odd", eps))
    violations = []
    for r, n, parity, eps in cells:
        out = sandwich_check(2 * n if parity == "even" else 2 * n + 1, r, 1.0)
        assert out.status == "ok"
        if not out.holds:
            violations.append((parity, n, round(eps, 4), r))
    ok = not violations
    _report(5, ok, f"{len(cells)} sandwich cells (order-matched phase), "
                   f"violations: {violations or 'none'}")
    assert ok


def test_criterion_5_supplement_order_matched_phase_never_overclaims():
    # pins the order-matched kernel by name, so the result on the same grid
    # does not depend on which kernel ``sandwich_check`` uses by default
    cells = []
    for n in (2, 3):
        for eps in (0.25, 0.3, 0.375, 0.5):
            for base in (100, 1000):
                cells.append((base + eps, n, "even"))
    for n in (1, 2):
        for eps in (1.0 / 6.0, 0.25, 1.0 / 3.0):
            for base in (100, 1000):
                cells.append((base + eps, n, "odd"))
    bad = [c for c in cells
           if not sandwich_check(2 * c[1] if c[2] == "even" else 2 * c[1] + 1, c[0], 1.0,
                                 order_matched_phase=True).holds]
    print(f"criterion 5 supplement: order-matched phase violations: {bad or 'none'}")
    assert not bad


def test_criterion_6_sharp_rate_slopes():
    t0 = time.time()
    ks = np.unique(np.round(np.logspace(2, 3, 9)).astype(int))
    results = {}
    ok = True
    for d, eps in ((3, 0.25), (4, 0.375), (5, 0.25)):
        slope = scaling_slope_fit(d, 1.0, eps, ks)
        results[d] = slope
        ok &= abs(slope - (d + 1) / 2.0) <= 0.05
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    assert _report(6, ok, f"slopes {({d: round(s, 4) for d, s in results.items()})} "
                          f"vs (d+1)/2 +-0.05 in {elapsed:.1f}s")


def _limit_d3_closed_form(R: float, delta: float) -> float:
    """Exact d = 3 limit at |x| = R * delta.

    x.z is uniform on [-|x|, |x|] for z uniform on S^2 and the sawtooth is
    odd, so lim = (3 delta / R^2) |int_0^R Delta_1(s) s ds|; every whole
    step contributes 1/12, which sums to K (v^2/2 - 1/24) + v^3/3.
    """
    K = math.floor(R + 0.5)
    v = R - K
    return 3.0 * delta * abs(K * (v * v / 2.0 - 1.0 / 24.0) + v ** 3 / 3.0) / R ** 2


def test_criterion_7_frame_limit_convergence_and_wnh_gap():
    N = 200000
    frame = fibonacci_sphere_frame(N)
    # fixed generic direction, chosen away from the lattice axis
    u = np.array([0.3, -0.55, 0.8])
    u /= np.linalg.norm(u)
    wnh_rmse = math.sqrt(wnh_mse(3, N, UNIT))
    lines = []
    conv_ok, exact_ok, gap_ok = True, True, True
    for R in (5.03, 20.3):
        x = R * u
        _, e_delta = quantize_and_reconstruct(x, frame, UNIT)
        lim = limiting_error(SignalSpec.from_vector(x, UNIT), UNIT).value
        exact = _limit_d3_closed_form(R, UNIT.delta)
        rel = abs(e_delta - lim) / lim
        ratio = e_delta / wnh_rmse
        predicted = exact / wnh_rmse
        conv_ok &= rel <= 0.05
        exact_ok &= abs(lim - exact) <= 1e-8 * exact
        if R == 5.03:
            # the frame error beats the white-noise figure by 10x or more
            gap_ok &= ratio >= 10.0
        else:
            # the white-noise figure is far above the error, and the error
            # follows the limit's own ratio to it
            gap_ok &= abs(ratio - predicted) <= 0.05 * predicted
        lines.append(f"R={R}: |E-lim|/lim={rel:.3%}, |lim-exact|/exact="
                     f"{abs(lim - exact) / exact:.1e}, E/wnh_rmse={ratio:.3f}x "
                     f"(closed form {predicted:.3f}x)")
    ok = conv_ok and exact_ok and gap_ok
    _report(7, ok, "; ".join(lines))
    assert ok


def test_criterion_8_rotation_invariance():
    # limiting_error reads x only through ||x||; Monte Carlo, the one route
    # that reads its direction, must agree with it at rotated copies of x
    ok = True
    worst_dev = worst_rel = 0.0
    for d in (3, 4, 5):
        x = np.zeros(d)
        x[0] = 1.3
        lim = limiting_error(x, UNIT).value
        rng = np.random.default_rng(d)
        for i in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            mc = monte_carlo_limit(q @ x, UNIT, samples=10 ** 6, seed=10 * d + i)
            dev = abs(mc.value - lim) / mc.error_estimate
            rel = mc.error_estimate / lim
            ok &= dev <= 3.0 and rel <= 0.05
            worst_dev, worst_rel = max(worst_dev, dev), max(worst_rel, rel)
    assert _report(8, ok, f"Monte Carlo at 5 random rotations of x, ||x|| = 1.3, d = 3, 4, 5: "
                          f"worst |MC - lim|/sigma {worst_dev:.2f} (<= 3), "
                          f"worst sigma/lim {worst_rel:.1%} (<= 5%)")
