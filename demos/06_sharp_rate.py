#!/usr/bin/env python3
"""The sharp delta^{(d+1)/2} / r^{(d-1)/2} rate, and the two-sided bounds.

Sweeping delta at pinned eps = frac(r/delta) recovers log-log slope
(d+1)/2; the two-sided sandwich brackets the 1-D integral wherever its
hypotheses hold.  The bounds use the order-matched phase by default.  The
demo also requests the paper's fixed-phase kernel explicitly to show where
it over-claims (even case n=2 at eps=3/8, odd case n=1 near eps=0.2887):
the package reports this instead of patching it silently.
"""

import numpy as np

from framepcm import (
    M1_constant,
    QuantScheme,
    limiting_error,
    lower_bound,
    sandwich_check,
    scaling_slope_fit,
)

print("log-log slope of the limiting error vs delta (expected (d+1)/2):")
ks = np.unique(np.round(np.logspace(2, 3, 9)).astype(int))
for d, eps in ((3, 0.25), (4, 0.375), (5, 0.25)):
    slope = scaling_slope_fit(d, 1.0, eps, ks)
    print(f"  d={d}, eps={eps}: slope = {slope:.4f}  (expected {(d + 1) / 2})")

print("\ntwo-sided sandwich for the 1-D integrals, R = 100 + eps:")
for n, parity, eps in ((2, "even", 0.25), (3, "even", 0.5), (1, "odd", 0.25)):
    out = sandwich_check(2 * n if parity == "even" else 2 * n + 1, 100 + eps, 1.0)
    print(f"  {parity} n={n} eps={eps}: {out.lower:.3e} <= {out.integral_abs:.3e} "
          f"<= {out.upper:.3e}  holds={out.holds}")

print("\nfull lower-bound report lifted to d dimensions (d=5, r=100.25):")
rep = lower_bound(5, 100.25, 1.0)
print(f"  {rep.to_dict()}")

print("\nthe paper's fixed-phase kernel's blind spot: even n=2 at eps = 3/8")
print(f"  fixed-phase M1(3/8, 2)      = {M1_constant(0.375, 2):+.4f} (claims a bound)")
print(f"  order-matched M1(3/8, 2)    = {M1_constant(0.375, 2, order_matched_phase=True):+.4f} "
      "(no positive bound available)")
for r in (100.375, 1000.375):
    a = sandwich_check(4, r, 1.0, order_matched_phase=False)
    b = sandwich_check(4, r, 1.0)
    print(f"  R={r}: fixed-phase holds={a.holds} "
          f"(lower {a.lower:.2e} vs |I| {a.integral_abs:.2e}); "
          f"order-matched holds={b.holds}")
print("  the leading oscillatory term's phase depends on the order; at")
print("  eps=3/8 it vanishes for n=2, so no k=1-based lower bound exists.")

print("\nthe same blind spot in d=3 (odd n=1), r/delta = 100.2887:")
a = lower_bound(3, 100.2887, 1.0, order_matched_phase=False)
b = lower_bound(3, 100.2887, 1.0)
lim = limiting_error(np.array([100.2887, 0.0, 0.0]), QuantScheme(1.0)).value
print(f"  fixed-phase lower = {a.lower:.3e}, order-matched lower = {b.lower:.3e}, "
      f"limit = {lim:.3e}")
