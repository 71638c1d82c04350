"""PCM quantization of unit-norm tight frame expansions.

A numerical library for the reconstruction error of PCM-quantized frame
expansions: the quantizer and its sawtooth error, frame constructions with
tightness/equidistribution diagnostics, the N -> infinity limiting error
by three mutually checking routes, certified Bessel-function machinery,
exact verification of the supporting combinatorial identities, and the
sharp delta^{(d+1)/2} / r^{(d-1)/2} two-sided bounds with slope fits.
"""

from .quantization import (
    QuantScheme,
    SignalSpec,
    pcm_quantize,
    quant_error,
    quantize_and_reconstruct,
    wnh_mse,
)
from .frames import (
    UnitNormFrame,
    harmonic_frame_2d,
    random_sphere_frame,
    fibonacci_sphere_frame,
    equidistribution_diagnostic,
    sphere_moment,
    frame_to_csv,
    frame_from_csv,
)
from .special_fn import (
    PrecisionExhausted,
    BesselEval,
    AsymptoticEnvelope,
    bessel_series,
    bessel_integral_int_order,
    bessel_half_order,
    bessel_large_x,
    asymptotic_estimate,
    alternating_bessel_sum_info,
    alternating_bessel_sums,
)
from .combinatorics import (
    binom,
    check_identity_A,
    check_identity_B,
    gosper_g,
    gosper_certificate,
    check_gould,
    L_closed,
    D_closed,
    check_coeff_identity_even,
    check_coeff_identity_odd,
    identity_suites,
)
from .limit_error import (
    Method,
    LimitErrorResult,
    angular_constant,
    integral_even,
    integral_odd,
    limiting_error,
    limiting_error_grid,
    monte_carlo_limit,
)
from .bounds import (
    BoundReport,
    SandwichResult,
    zeta_tail,
    M1_constant,
    M2_constant,
    I_constant,
    lower_bound,
    sandwich_check,
    scaling_slope_fit,
)

__version__ = "0.1.0"
