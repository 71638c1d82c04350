#!/usr/bin/env python3
"""Four certified Bessel routes checking each other, plus the envelope.

Every evaluator returns (value, abs_error_bound); two independent routes
must agree within the sum of their bounds, which is the working definition
of "certified" throughout the package.
"""

import math

from framepcm import (
    alternating_bessel_sum_info,
    asymptotic_estimate,
    bessel_half_order,
    bessel_integral_int_order,
    bessel_large_x,
    bessel_series,
)

print("J_1(1) three ways:")
s = bessel_series(1, 1.0, 1e-13)
i = bessel_integral_int_order(1, 1.0)
print(f"  series   : {s.value:.16f} +- {s.abs_error_bound:.1e}")
print(f"  integral : {i.value:.16f} +- {i.abs_error_bound:.1e}")
print(f"  |diff| = {abs(s.value - i.value):.2e} <= bound sum = "
      f"{s.abs_error_bound + i.abs_error_bound:.2e}")

print("\nJ_{5/2}(3): closed trig forms vs the series")
h = bessel_half_order(2, 3.0)
s = bessel_series(2.5, 3.0, 1e-13)
print(f"  closed form: {h.value:.16f} +- {h.abs_error_bound:.1e}")
print(f"  series     : {s.value:.16f} +- {s.abs_error_bound:.1e}")

print("\nJ_3(80): large-argument expansion vs quadrature")
g = bessel_large_x(3, 80.0)
i = bessel_integral_int_order(3, 80.0)
print(f"  large-x  : {g.value:.16f} +- {g.abs_error_bound:.1e}")
print(f"  integral : {i.value:.16f} +- {i.abs_error_bound:.1e}")

print("\nasymptotic envelope sqrt(2/(pi x)) cos(x - omega) +- c mu x^(-3/2):")
for order, x in ((1, 10.0), (3, 2.0), (0.5, 7.0)):
    env = asymptotic_estimate(order, x)
    print(f"  order={order} x={x}: main={env.main_term:+.6f} "
          f"residual<={env.residual_bound:.3e} (branch c={env.c:.4f})")

print("\nalternating sum  S = sum (-1)^k k^-2 J_2(2 pi k R)  at R=10.25:")
ev = alternating_bessel_sum_info(2, 10.25, 1e-10)[0]
print(f"  S = {ev.value:.12e} +- {ev.abs_error_bound:.1e}")
print("  (direct summation would need ~1e4 terms for this bound; the tail")
print("   here is evaluated analytically from the large-x expansion)")
