#!/usr/bin/env python3
"""The N -> infinity reconstruction error by three independent routes.

The limit is d * || int Delta(x.z) z dnu ||, which reduces to a 1-D
integral in ||x||.  Breakpoint-aware quadrature, the Bessel-series closed
form, and Monte Carlo must agree -- and do, far below the tolerances the
bounds need.  Below ||x|| < delta/2 the quantizer is the identity and the
limit is exactly ||x||, which pins the angular normalization.
"""

import numpy as np

from framepcm import Method, QuantScheme, SignalSpec, limiting_error, monte_carlo_limit

scheme = QuantScheme(1.0)

print("sanity anchor: r < delta/2 gives limit == r exactly")
for d in (3, 4, 5):
    x = np.zeros(d)
    x[0] = 0.37
    print(f"  d={d}: {limiting_error(x, scheme).value:.15f}")

print("\nthree routes at d=4, r=30.25:")
x = np.zeros(4)
x[0] = 30.25
sig = SignalSpec.from_vector(x, scheme)
q = limiting_error(sig, scheme, method=Method.QUADRATURE)
b = limiting_error(sig, scheme, method=Method.BESSEL_SERIES)
mc = monte_carlo_limit(sig, scheme, samples=2_000_000, seed=11)
print(f"  quadrature   : {q.value:.12e}  (err est {q.error_estimate:.1e}, "
      f"{q.breakpoint_count} smooth pieces)")
print(f"  bessel series: {b.value:.12e}  (certified {b.error_estimate:.1e}, "
      "Hankel terms times polylogarithms)")
print(f"  monte carlo  : {mc.value:.12e}  (+- {mc.error_estimate:.1e}, "
      f"{mc.sample_count} samples)")
print(f"  quad-series disagreement: {abs(q.value - b.value):.2e}")

print("\nonly the norm matters (rotation invariance of the limit):")
rng = np.random.default_rng(0)
for _ in range(3):
    g = rng.standard_normal((4, 4))
    qmat, r = np.linalg.qr(g)
    y = (qmat * np.sign(np.diag(r))) @ x
    print(f"  rotated copy: {limiting_error(y, scheme).value:.12e}")
