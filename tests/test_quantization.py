import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from framepcm import (
    PrecisionExhausted,
    QuantScheme,
    SignalSpec,
    harmonic_frame_2d,
    pcm_quantize,
    quant_error,
    quantize_and_reconstruct,
    random_sphere_frame,
    wnh_mse,
)

UNIT = QuantScheme(1.0)


def test_quantizer_examples():
    assert pcm_quantize(0.4, UNIT) == 0.0
    assert pcm_quantize(0.5, UNIT) == 1.0  # tie rounds up
    assert pcm_quantize(0.3, QuantScheme(0.5)) == 0.5


def test_error_examples():
    assert quant_error(0.4, UNIT) == pytest.approx(0.4)
    assert quant_error(0.5, UNIT) == -0.5  # tie convention
    assert quant_error(7.3, UNIT) == pytest.approx(0.3)


def test_invalid_scheme():
    with pytest.raises(ValueError):
        QuantScheme(0.0)
    with pytest.raises(ValueError):
        QuantScheme(-1.0)


@pytest.mark.parametrize("delta", [1.0, 0.5, 0.013, 3.7])
def test_sawtooth_properties(delta):
    scheme = QuantScheme(delta)
    t = np.linspace(-7.3, 11.1, 4001)
    err = quant_error(t, scheme)
    assert np.all(np.abs(err) <= delta / 2 + 1e-12)
    # delta-periodicity
    assert_allclose(quant_error(t + delta, scheme), err, atol=1e-12 * max(1.0, delta))
    # quantized values are integer multiples of delta
    q = pcm_quantize(t, scheme) / delta
    assert_allclose(q, np.round(q), atol=1e-9)


@pytest.mark.parametrize("s", [0.5, 2.0, 17.0])
def test_scale_covariance(s):
    t = np.linspace(-3.0, 3.0, 301)
    lhs = pcm_quantize(s * t, QuantScheme(s * 1.0))
    rhs = s * pcm_quantize(t, UNIT)
    assert_allclose(lhs, rhs, rtol=0, atol=1e-14 * s)


def test_signal_spec_fields():
    sig = SignalSpec.from_vector([3.0, 4.0], QuantScheme(2.0))
    assert sig.r == pytest.approx(5.0)
    assert sig.R == pytest.approx(2.5)
    assert sig.eps == pytest.approx(0.5)
    assert 0.0 <= sig.eps < 1.0
    assert sig.dim == 2


def test_signal_spec_where_the_squares_of_the_entries_overflow():
    # np.linalg.norm squares the entries: r = 1e200 read as inf, R = 10 as an overflow
    sig = SignalSpec.from_vector([1e200, 0.0, 0.0], QuantScheme(1e199))
    assert (sig.r, sig.R) == (1e200, 1e200 / 1e199)
    assert SignalSpec.from_vector([3e200, -4e200], UNIT).r == pytest.approx(5e200, rel=1e-15)
    # a finite norm is taken as before, bit for bit
    x = np.random.default_rng(3).standard_normal(7) * 1e150
    assert SignalSpec.from_vector(x, UNIT).r == float(np.linalg.norm(x))


def test_reconstruct_zero_signal():
    frame = harmonic_frame_2d(7)
    _, err = quantize_and_reconstruct(np.zeros(2), frame, UNIT)
    assert err == 0.0


def test_reconstruct_hand_example():
    # all coefficients below delta/2 quantize to zero, so the error is ||x||
    frame = harmonic_frame_2d(4)
    rec, err = quantize_and_reconstruct(np.array([0.3, 0.0]), frame, UNIT)
    assert_allclose(rec, [0.0, 0.0], atol=1e-15)
    assert err == pytest.approx(0.3)


def test_fine_quantization_limit():
    frame = harmonic_frame_2d(9)
    x = np.array([0.77, -0.41])
    delta = 1e-9
    _, err = quantize_and_reconstruct(x, frame, QuantScheme(delta))
    assert err <= 2 * delta / 2 * frame.dim


def test_dimension_mismatch():
    frame = harmonic_frame_2d(5)
    with pytest.raises(ValueError):
        quantize_and_reconstruct(np.zeros(3), frame, UNIT)


def test_error_expressions_agree_for_tight_frame():
    # ||x - xtilde|| == (d/N) || sum quant_error(<x,e_j>) e_j || when tight
    frame = harmonic_frame_2d(13)
    rng = np.random.default_rng(3)
    scheme = QuantScheme(0.25)
    for _ in range(5):
        x = rng.standard_normal(2) * 3.0
        _, err = quantize_and_reconstruct(x, frame, scheme)
        coeffs = frame.vectors @ x
        resid = (2.0 / frame.count) * (quant_error(coeffs, scheme) @ frame.vectors)
        assert err == pytest.approx(float(np.linalg.norm(resid)), abs=1e-12)


def test_wnh_mse_values():
    assert wnh_mse(2, 100, QuantScheme(0.1)) == pytest.approx(10.0 / 3.0 * 1e-5)
    assert wnh_mse(1, 12, UNIT) == pytest.approx(1.0 / 144.0)  # d^2 delta^2/(12N)
    assert wnh_mse(1, 1, UNIT) == pytest.approx(1.0 / 12.0)
    assert wnh_mse(3, 1, QuantScheme(2.0)) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        wnh_mse(0, 5, UNIT)


@pytest.mark.parametrize("delta", [1e160, 1e-170])
def test_wnh_mse_that_leaves_binary64_raises_precision_exhausted(delta):
    # delta ** 2 raised a raw OverflowError past ~1.3e154, and below ~1e-162
    # it is 0, which simulate divides by
    with pytest.raises(PrecisionExhausted, match="WNH MSE leaves binary64"):
        wnh_mse(3, 10, QuantScheme(delta))
