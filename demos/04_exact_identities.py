#!/usr/bin/env python3
"""The discrete identities, verified in exact arithmetic.

These identities are what let the oscillatory sphere integrals collapse to
single Bessel sums: two weighted binomial identities (one proved by a
telescoping certificate), Gould's convolution, and closed forms for the
cosine-projection integrals whose coefficient identities tie everything
together.
"""

from fractions import Fraction

from framepcm import (
    D_closed,
    L_closed,
    check_coeff_identity_even,
    check_coeff_identity_odd,
    check_gould,
    check_identity_A,
    check_identity_B,
    gosper_certificate,
    gosper_g,
)

MX = 20
print(f"exhaustive checks for all indices <= {MX}:")
print("  weighted closed form  :",
      all(check_identity_A(n, h) for n in range(1, MX + 1) for h in range(MX + 1)))
print("  vanishing sum         :",
      all(check_identity_B(h, l) for h in range(1, MX + 1) for l in range(h)))
print("  telescoping certificate:",
      all(gosper_certificate(h, l, m)
          for h in range(1, MX + 1) for l in range(h) for m in range(l, h + 1)))
print("  Gould convolution     :",
      all(check_gould(n, h) for n in range(MX + 1) for h in range(MX + 1)))
print("  coefficient identities:",
      all(check_coeff_identity_even(n, h) for n in range(1, 11) for h in range(11)),
      all(check_coeff_identity_odd(n, h) for n in range(1, 9) for h in range(9)))

print("\nhow the telescoping works (h=4, l=1): the antidifference g vanishes")
print("at both ends, so the telescoped sum collapses to zero exactly")
for m in range(1, 6):
    print(f"  g_{m} = {gosper_g(4, 1, m)}")

print("\nclosed forms of the projection integrals (exact rationals):")
for n in (1, 2, 3):
    row = [L_closed(n, m) for m in range(n)]
    print(f"  even, n={n}: {row} (times pi)")
for n in (1, 2):
    row = [D_closed(n, m) for m in range(4)]
    print(f"  odd,  n={n}: {row}")
assert D_closed(1, 0) == Fraction(2, 3)
