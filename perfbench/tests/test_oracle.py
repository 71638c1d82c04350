"""Tests of the benchmark's independent references.

    python3 -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_below_half_step_the_limit_is_r(d):
    # no breakpoint: the quantizer maps every coefficient to 0
    assert oracle.limit_oracle(d, 0.3, 1.0) == pytest.approx(0.3, rel=1e-15)


@pytest.mark.parametrize("R", [1.3, 20.3, 137.75, 2000.125])
def test_d3_matches_closed_form(R):
    delta = 0.25
    assert oracle.limit_oracle(3, R * delta, delta) == pytest.approx(
        oracle.limit_d3_closed_form(R * delta, delta), rel=1e-13)


@pytest.mark.parametrize("d,R", [(2, 3.3), (4, 2.7), (5, 6.2), (8, 4.45)])
def test_matches_piecewise_quadrature(d, R):
    # d c_d | int_0^pi Delta(R cos t) cos t sin^{d-2} t dt | with the
    # integrand smooth between the jumps at cos t = (k + 1/2) / R
    with mp.workdps(30):
        R_ = mp.mpf(R)
        jumps = sorted(mp.acos((k + mp.mpf(1) / 2) / R_)
                       for k in range(-math.ceil(R) - 1, math.ceil(R) + 1)
                       if abs(k + 0.5) < R)

        def f(t):
            u = R_ * mp.cos(t)
            return (u - mp.floor(u + mp.mpf(1) / 2)) * mp.cos(t) * mp.sin(t) ** (d - 2)

        integral = mp.quad(f, [0] + jumps + [mp.pi])
        c_d = mp.gamma(mp.mpf(d) / 2) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(d - 1) / 2))
        expected = float(d * c_d * abs(integral))
    assert oracle.limit_oracle(d, R, 1.0) == pytest.approx(expected, rel=1e-12)


def test_scales_with_delta():
    # the limit is delta times the limit at delta = 1 for the same r/delta
    assert oracle.limit_oracle(5, 137.3 * 0.125, 0.125) == pytest.approx(
        0.125 * oracle.limit_oracle(5, 137.3, 1.0), rel=1e-14)


@pytest.mark.parametrize("beta,expected", [
    ((2, 0, 0), 1 / 3), ((4, 0, 0), 3 / 15), ((2, 2, 0), 1 / 15),
    ((1, 1, 0), 0.0), ((2, 2, 2, 0), 1 / 192),
])
def test_sphere_moments(beta, expected):
    assert oracle.sphere_moment(beta) == pytest.approx(expected, rel=1e-15)


def test_equidistribution_of_harmonic_frame_is_exact_up_to_degree():
    # N equally spaced directions integrate trigonometric polynomials of
    # degree < N exactly
    v = oracle.frame_vectors("harmonic", 2, 64, 0)
    assert oracle.equidistribution_reference(v, 4) < 1e-15


def test_simulate_reference_of_exact_alphabet_signal():
    # x on the first axis at a multiple of delta: a 2-D harmonic frame with
    # N = 4 reproduces it exactly
    error, defect = oracle.simulate_reference("harmonic", 2, 4, 0.5, 2.0, seed=0)
    assert defect < 1e-15
    assert error >= 0.0
    np.testing.assert_allclose(oracle.frame_vectors("harmonic", 2, 4, 0),
                               [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)


def test_bessel_reference():
    assert oracle.bessel_j(0.5, 2.0) == pytest.approx(
        math.sqrt(2 / (math.pi * 2.0)) * math.sin(2.0), rel=1e-15)
