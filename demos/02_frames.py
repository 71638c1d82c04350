#!/usr/bin/env python3
"""Frame constructions and their tightness/equidistribution diagnostics.

Writes fibonacci_500.csv to $FRAMEPCM_OUTDIR, or ./framepcm_out, like the CLI.
"""

import os
from pathlib import Path

import numpy as np

from framepcm import (
    equidistribution_diagnostic,
    fibonacci_sphere_frame,
    frame_to_csv,
    harmonic_frame_2d,
    random_sphere_frame,
)

print("harmonic frame on the circle: exactly tight at every size")
for N in (3, 4, 12, 101):
    f = harmonic_frame_2d(N)
    print(f"  N={N:4d}: tightness defect = {f.tightness_defect:.2e}")

print("\nperfect reconstruction through the tight frame (N=12):")
f = harmonic_frame_2d(12)
x = np.array([0.7, -1.9])
rec = (f.dim / f.count) * ((f.vectors @ x) @ f.vectors)
print("  x =", x, " reconstructed =", rec)

print("\ni.i.d. uniform frames: tight only in expectation")
for N in (100, 10000, 1000000):
    f = random_sphere_frame(3, N, seed=1)
    print(f"  N={N:7d}: defect = {f.tightness_defect:.3e}  (~ sqrt(d/N))")

print("\nspherical Fibonacci lattice: low-discrepancy, defect ~ 1/N")
for N in (100, 1000, 10000, 100000):
    f = fibonacci_sphere_frame(N)
    diag = equidistribution_diagnostic(f, 3) if N <= 10000 else None
    extra = f"  moment discrepancy (deg<=3) = {diag:.2e}" if diag is not None else ""
    print(f"  N={N:6d}: defect = {f.tightness_defect:.3e}{extra}")

outdir = Path(os.environ.get("FRAMEPCM_OUTDIR", "framepcm_out"))
outdir.mkdir(parents=True, exist_ok=True)
frame_to_csv(fibonacci_sphere_frame(500), outdir / "fibonacci_500.csv")
print(f"\nwrote {outdir / 'fibonacci_500.csv'} (one unit vector per row, columns c0,c1,c2)")
