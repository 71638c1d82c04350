#!/usr/bin/env python3
"""Golden outputs of framepcm on a fixed grid, and a comparison of two of them.

    PYTHONPATH=src python3 tools/golden_grid.py OUT.json
    python3 tools/golden_grid.py --compare A.json B.json

The first form imports the framepcm found on PYTHONPATH (point it at
another checkout's ``src`` to take that version's golden file) and writes
one key per value or bound, holding its ``repr``; a call that raises is
recorded as ``raise <Type>: <message>``.  The grid:

* ``limiting_error`` by its default route (``limit/default``), by
  quadrature and by the Bessel series, and ``monte_carlo_limit``, at
  d = 2..12, R = r/delta in RS, delta in DELTAS, and by its default
  route at the large-d points LARGE_D (delta = 1), where the default
  target is 1e-10 of the value rather than of the scale;
* ``lower_bound`` and ``sandwich_check`` with both kernel phases on the
  same points (d >= 3);
* ``bessel_large_x`` at XS and ``alternating_bessel_sum_info`` at
  RS, for the orders 0, 1/2, ..., 12, and ``bessel_integral_int_order`` at
  INT_XS for the integer ones (``bessel_integral_int_order/n=<n>/x=<x>``);
  per order, whether one ``alternating_bessel_sums`` batch over all of RS
  equals its one-row calls
  (``alternating_bessel_sums/order=<o>/batch_equals_rows``);
* ``zeta_tail``, ``M1_constant`` and ``M2_constant``;
* ``scaling_slope_fit`` at d = 3..12 over the default k sweep of
  ``framepcm bounds --slope`` (SLOPE_KS), one key per d
  (``slope/d=<d>/eps=<eps>``), at eps 3/8 for even d and 1/4 for odd d.
  These are the CLI's former default eps, kept so that golden files from
  either side of that change compare; the CLI now defaults to 0.46 and
  0.31, off the zeros of the leading coefficient C_d(eps);
* for the frames in FRAMES (harmonic, Fibonacci and random, N <= 7e4,
  three of them larger than one block),
  ``tightness_defect``, ``equidistribution_diagnostic`` at degree 4 and
  the ``quantize_and_reconstruct`` error of a fixed signal per delta in
  DELTAS (``frames/<kind>/...``);
* the ends of binary64 (``edge/...``): ``limiting_error`` by its default
  route and ``monte_carlo_limit`` at the EDGE_POINTS (d, R) and delta in
  EDGE_DELTAS, 2^-900 and 2^900, where the squares of r and delta leave
  binary64, and the ``quantize_and_reconstruct`` error of the Fibonacci
  frame of N = 500 at those delta.  Each is 2^+-900 times its value at
  delta = 1 (to 2 ulps for the series).  Besides, ``limiting_error`` by
  its default route at d = 3 and 4 and the (r, delta) of EDGE_SUBNORMAL_R
  (``edge/limit/default/d=<d>/r=<r>/delta=<delta>``), where R G is
  subnormal and the limit is r;
* the per-d constants (``dimension/d=<d>/...``) at DIMENSION_DS: the
  angular constant ``c_d`` and the leading coefficient ``base`` of the
  series prefactor and the bounds, read off ``parity_split(d)``, whose
  raise is recorded from d = 441 on;
* the exact layer (``combinatorics/...``) at indices up to COMB_MAX:
  ``L_closed``, ``D_closed``, ``weighted_sum_A`` and ``gosper_g`` as exact
  ``Fraction`` and integer reprs, and the result of each of the six identity
  checks at every index tuple of ``framepcm verify --max COMB_MAX``;
* the suite path: the ``ok`` of each suite in the ``verify.csv`` that
  ``framepcm verify --max M`` writes through ``cli.main``, for M = 1..COMB_MAX
  (``verify/max=<M>/<suite>``).

The second form goes through the key prefixes (``limit/bessel_series``,
``alternating_bessel_sum``, ...) and prints for each the keys only in A,
the keys only in B, and the keys whose value moved.  A moved key comes
with its relative difference and, for a ``/value`` key, |Δvalue| over the
key's own certified bound (``abs_error_bound`` or ``error_estimate``) in
each file, "of A" and "of B": when a change tightens a bound, a move can
lie inside the old bound and outside the new one.  A line per prefix then
counts the three kinds and gives the largest relative difference and
|Δvalue|/bound of each file over its moved keys; it exits 1 if any key
differs.
Takes about 10 s.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

DIMS = range(2, 13)
# 13.499999 and 1000.4999999 put eps within 1e-6 of 1/2, where the phase
# sums of the alternating Bessel sum have z close to 1; 10.5 and 100.5 put
# it at 1/2 exactly, where they are zeta tails (z = 1)
RS = (0.3, 3.7, 10.25, 10.5, 13.499999, 57.4, 100.375, 100.5, 1000.3, 1000.4999999, 4321.49,
      9999.9)
DELTAS = (1.0, 1.0 / 16.0, 0.37)
ORDERS = [0.5 * t for t in range(25)]
XS = (0.7, 3.7, 12.5, 57.4, 100.0, 1000.3, 9999.9)
# XS below 9999.9, where the integral route's rule takes ~13,600 of its 16384 nodes, and 0
INT_XS = (0.0, *XS[:-1])
EPSS = (1.0 / 6.0, 0.2, 0.25, 0.3, 1.0 / 3.0, 0.375, 0.45, 0.5)
MC_SAMPLES = 200_000  # more than one Monte Carlo batch
# (kind, d, N); random frames take seed 0
# harmonic N = 70,000, Fibonacci N = 50,000 and random d = 8, N = 20,000 are
# larger than one block of frames._BLOCK_ELEMENTS = 2^17 coordinates, so
# they are generated block by block on each pass; the others are one block
FRAMES = (("harmonic", 2, 7), ("harmonic", 2, 20_000), ("harmonic", 2, 70_000),
          ("fibonacci", 3, 500), ("fibonacci", 3, 20_000), ("fibonacci", 3, 50_000),
          ("random", 2, 2_000), ("random", 4, 20_000), ("random", 8, 20_000))
EQUIDIST_DEGREE = 4
ALT_SUM_TOL = 1e-10
# (d, R): large d, where the value is far above the scale delta^s / r^(s-1)
LARGE_D = ((40, 100.375), (40, 1000.3), (40, 10000.3), (41, 1e6 + 0.3), (41, 1e9 + 0.3),
           (63, 1e9 + 0.3), (21, 1e12 + 0.3))
# (d, R) at delta = 2^-900 and 2^900
EDGE_POINTS = ((3, 0.3), (3, 7.3), (4, 0.3), (4, 7.3))
EDGE_DELTAS = (2.0 ** -900, 2.0 ** 900)
# (r, delta) where R G falls below binary64's normal range, and the limit is
# r; in the last two r itself is subnormal
EDGE_SUBNORMAL_R = ((1e-10, 1e300), (1e-300, 1e10), (5e-324, 1.0), (1e-310, 1.0))
# d = 2..12 of the grid, the large d of LARGE_D, and two past d = 440, where
# the base coefficient leaves binary64
DIMENSION_DS = (*DIMS, 21, 40, 41, 63, 441, 1000)
COMB_MAX = 24  # the top of the benchmark's verify --max range
# the k of framepcm bounds --slope at its defaults --kmin 100 --kmax 1000 --points 9
SLOPE_KS = np.unique(np.round(np.logspace(2, 3, 9)).astype(int))


def _record(out: dict, key: str, call) -> None:
    """Store the fields of ``call()`` under ``key/<field>``, or the exception."""
    try:
        res = call()
    except Exception as exc:  # a raise is an output like any other
        out[key] = f"raise {type(exc).__name__}: {exc}"
        return
    if isinstance(res, tuple):  # (BesselEval, K)
        res, out[f"{key}/K"] = res[0], repr(res[1])
    if dataclasses.is_dataclass(res):
        for f in dataclasses.fields(res):
            val = getattr(res, f.name)
            out[f"{key}/{f.name}"] = repr(getattr(val, "value", val))
    else:
        out[key] = repr(res)


def _batch_equals_rows(order: float) -> bool:
    """Whether one ``alternating_bessel_sums`` batch over RS equals its
    one-row ``alternating_bessel_sum_info`` calls: per R the same
    ``BesselEval``, the row's bound as the ``achieved`` of a call that misses
    ALT_SUM_TOL, or a ``PrecisionExhausted`` with the same message."""
    from framepcm.special_fn import (PrecisionExhausted, alternating_bessel_sum_info,
                                     alternating_bessel_sums)

    rows = alternating_bessel_sums(order, RS)
    for R, row in zip(RS, rows):
        try:
            one = alternating_bessel_sum_info(order, R, ALT_SUM_TOL)[0]
        except PrecisionExhausted as exc:
            one = exc
        if isinstance(row, PrecisionExhausted) or not isinstance(one, PrecisionExhausted):
            same = repr(row) == repr(one)
        else:
            same = repr(row.abs_error_bound) == repr(one.achieved)
        if not same:
            return False
    return True


def golden() -> dict:
    from framepcm import (QuantScheme, M1_constant, M2_constant, Method, bessel_large_x,
                          equidistribution_diagnostic, fibonacci_sphere_frame,
                          harmonic_frame_2d, limiting_error, lower_bound, monte_carlo_limit,
                          quantize_and_reconstruct, random_sphere_frame, sandwich_check,
                          scaling_slope_fit, zeta_tail)
    from framepcm.special_fn import alternating_bessel_sum_info, bessel_integral_int_order

    out: dict = {}
    for d in DIMS:
        for R in RS:
            for delta in DELTAS:
                r = R * delta
                x = np.zeros(d)
                x[0] = r
                scheme = QuantScheme(delta)
                at = f"d={d}/R={R!r}/delta={delta!r}"
                _record(out, f"limit/default/{at}", lambda: limiting_error(x, scheme))
                for method in (Method.QUADRATURE, Method.BESSEL_SERIES):
                    _record(out, f"limit/{method.value}/{at}",
                            lambda: limiting_error(x, scheme, method))
                _record(out, f"limit/monte_carlo/{at}",
                        lambda: monte_carlo_limit(x, scheme, samples=MC_SAMPLES, seed=0))
                if d < 3:
                    continue
                for matched in (True, False):
                    _record(out, f"lower_bound/matched={matched}/{at}",
                            lambda: lower_bound(d, r, delta, order_matched_phase=matched))
                    _record(out, f"sandwich/matched={matched}/{at}",
                            lambda: sandwich_check(d, r, delta, order_matched_phase=matched))
    for d, R in LARGE_D:
        x = np.zeros(d)
        x[0] = R
        _record(out, f"limit/default/d={d}/R={R!r}/delta=1.0",
                lambda: limiting_error(x, QuantScheme(1.0)))
    _edge(out)
    for order in ORDERS:
        for x in XS:
            _record(out, f"bessel_large_x/order={order!r}/x={x!r}",
                    lambda: bessel_large_x(order, x))
        for R in RS:
            _record(out, f"alternating_bessel_sum/order={order!r}/R={R!r}",
                    lambda: alternating_bessel_sum_info(order, R, ALT_SUM_TOL))
        _record(out, f"alternating_bessel_sums/order={order!r}/batch_equals_rows",
                lambda: _batch_equals_rows(order))
        if order % 1 == 0:
            for x in INT_XS:
                _record(out, f"bessel_integral_int_order/n={int(order)}/x={x!r}",
                        lambda: bessel_integral_int_order(int(order), x))
    for t in range(3, 27):
        _record(out, f"zeta_tail/p={t / 2!r}", lambda: zeta_tail(t / 2))
    for d in range(3, 13):
        eps = 0.375 if d % 2 == 0 else 0.25
        _record(out, f"slope/d={d}/eps={eps!r}", lambda: scaling_slope_fit(d, 1.0, eps, SLOPE_KS))
    for eps in EPSS:
        for matched in (True, False):
            for n in range(1, 7):
                if n >= 2:
                    _record(out, f"M1/n={n}/eps={eps!r}/matched={matched}",
                            lambda: M1_constant(eps, n, matched))
                _record(out, f"M2/n={n}/eps={eps!r}/matched={matched}",
                        lambda: M2_constant(eps, n, matched))
    build = {"harmonic": lambda d, N: harmonic_frame_2d(N),
             "fibonacci": lambda d, N: fibonacci_sphere_frame(N),
             "random": lambda d, N: random_sphere_frame(d, N, seed=0)}
    for kind, d, N in FRAMES:
        frame = build[kind](d, N)
        at = f"frames/{kind}/d={d}/N={N}"
        out[f"{at}/tightness_defect"] = repr(frame.tightness_defect)
        _record(out, f"{at}/equidistribution_diagnostic/degree={EQUIDIST_DEGREE}",
                lambda: equidistribution_diagnostic(frame, EQUIDIST_DEGREE))
        for delta in DELTAS:
            _record(out, f"{at}/quantize_error/delta={delta!r}",
                    lambda: quantize_and_reconstruct(3.7 * delta * _direction(d), frame,
                                                     QuantScheme(delta))[1])
    _dimension(out)
    _exact_layer(out)
    _verify_suites(out)
    return out


def _direction(d: int) -> np.ndarray:
    """The unit vector along (1, 2, ..., d) that the frame keys quantize."""
    return np.arange(1.0, d + 1.0) / math.sqrt(d * (d + 1) * (2 * d + 1) / 6)


def _edge(out: dict) -> None:
    from framepcm import (QuantScheme, fibonacci_sphere_frame, limiting_error,
                          monte_carlo_limit, quantize_and_reconstruct)

    frame = fibonacci_sphere_frame(500)
    for delta in EDGE_DELTAS:
        scheme = QuantScheme(delta)
        for d, R in EDGE_POINTS:
            x = np.zeros(d)
            x[0] = R * delta
            at = f"d={d}/R={R!r}/delta={delta!r}"
            _record(out, f"edge/limit/default/{at}", lambda: limiting_error(x, scheme))
            _record(out, f"edge/limit/monte_carlo/{at}",
                    lambda: monte_carlo_limit(x, scheme, samples=MC_SAMPLES, seed=0))
        _record(out, f"edge/frames/fibonacci/d=3/N=500/quantize_error/delta={delta!r}",
                lambda: quantize_and_reconstruct(3.7 * delta * _direction(3), frame, scheme)[1])
    for d in (3, 4):
        for r, delta in EDGE_SUBNORMAL_R:
            x = np.zeros(d)
            x[0] = r
            _record(out, f"edge/limit/default/d={d}/r={r!r}/delta={delta!r}",
                    lambda: limiting_error(x, QuantScheme(delta)))


def _dimension(out: dict) -> None:
    from framepcm.limit_error import parity_split

    for d in DIMENSION_DS:
        _record(out, f"dimension/d={d}/c_d", lambda: parity_split(d).c_d)
        _record(out, f"dimension/d={d}/base", lambda: parity_split(d).base)


def _exact_layer(out: dict) -> None:
    from framepcm import combinatorics as comb

    top = range(COMB_MAX + 1)
    for n in top[1:]:
        for m in top:
            _record(out, f"combinatorics/L_closed/n={n}/m={m}", lambda: comb.L_closed(n, m))
            _record(out, f"combinatorics/D_closed/n={n}/m={m}", lambda: comb.D_closed(n, m))
            _record(out, f"combinatorics/weighted_sum_A/n={n}/h={m}",
                    lambda: comb.weighted_sum_A(n, m))
    for h in top[1:]:
        for l in range(h):
            for m in range(l, h + 2):
                _record(out, f"combinatorics/gosper_g/h={h}/l={l}/m={m}",
                        lambda: comb.gosper_g(h, l, m))
    # (check, its index names, the index tuples of its verify suite)
    suites = [
        (comb.check_identity_A, "nh", [(n, h) for n in top[1:] for h in top]),
        (comb.check_identity_B, "hl", [(h, l) for h in top[1:] for l in range(h)]),
        (comb.gosper_certificate, "hlm",
         [(h, l, m) for h in top[1:] for l in range(h) for m in range(l, h + 1)]),
        (comb.check_gould, "nh", [(n, h) for n in top for h in top]),
        (comb.check_coeff_identity_even, "nh", [(n, h) for n in top[1:] for h in top]),
        (comb.check_coeff_identity_odd, "nh", [(n, h) for n in top[1:] for h in top]),
    ]
    for check, names, tuples in suites:
        for args in tuples:
            at = "/".join(f"{k}={v}" for k, v in zip(names, args))
            _record(out, f"combinatorics/{check.__name__}/{at}", lambda: check(*args))


def _verify_suites(out: dict) -> None:
    from framepcm.cli import main

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for mx in range(1, COMB_MAX + 1):
            outdir = Path(tmp) / f"max={mx}"
            main(["--outdir", str(outdir), "verify", "--max", str(mx)])
            with open(outdir / "verify.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    out[f"verify/max={mx}/{row['suite']}"] = row["ok"]


def _rel_diff(a: str, b: str) -> float:
    """Relative difference of two float reprs; inf when either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if math.isnan(x) and math.isnan(y):
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale > 0 and math.isfinite(scale) else math.inf


def _prefix(key: str) -> str:
    """The leading path components of a key, before the first ``name=value``."""
    parts = key.split("/")
    return "/".join(parts[:next((i for i, p in enumerate(parts) if "=" in p), len(parts))])


def _bound_ratios(key: str, a: dict, b: dict):
    """|Δvalue| of a ``/value`` key over its certified bound in file a and in
    file b (None where that file has no bound), or None for other keys."""
    if not key.endswith("/value"):
        return None
    stem = key[: -len("value")]
    for name in ("abs_error_bound", "error_estimate"):
        bounds = [float(f[stem + name]) if stem + name in f else None for f in (a, b)]
        if bounds == [None, None]:
            continue
        try:
            delta = abs(float(a[key]) - float(b[key]))
        except (KeyError, ValueError):
            return math.inf, math.inf
        return tuple(None if bound is None else delta / bound if bound > 0
                     else 0.0 if delta == 0 else math.inf for bound in bounds)
    return None


def _larger(x, y):
    return y if x is None else x if y is None else max(x, y)


def _ratio_note(ratios) -> str:
    show = ["n/a" if r is None else f"{r:.3g}" for r in ratios]
    return f"|dvalue|/bound {show[0]} of A, {show[1]} of B"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    # prefix -> [keys only in A, keys only in B, moved keys]
    per_prefix: dict = {}
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            side = 0 if key not in b else 1 if key not in a else 2
            per_prefix.setdefault(_prefix(key), ([], [], []))[side].append(key)
    worst, worst_key = 0.0, None
    for prefix, (only_a, only_b, moved) in sorted(per_prefix.items()):
        for key in only_a:
            print(f"{key}: only in A ({a[key]})")
        for key in only_b:
            print(f"{key}: only in B ({b[key]})")
        rel, ratios = 0.0, None
        for key in moved:
            key_rel = _rel_diff(a[key], b[key])
            key_ratios = _bound_ratios(key, a, b)
            note = "" if key_ratios is None else ", " + _ratio_note(key_ratios)
            print(f"{key}: {a[key]} -> {b[key]} (relative difference {key_rel:.3g}{note})")
            if worst_key is None or key_rel > worst:
                worst, worst_key = key_rel, key
            rel = max(rel, key_rel)
            if key_ratios is not None:
                ratios = tuple(map(_larger, ratios or (None, None), key_ratios))
        note = "" if not moved else f", largest relative difference {rel:.3g}"
        note += "" if ratios is None else ", largest " + _ratio_note(ratios)
        print(f"prefix {prefix}: {len(only_a) + len(only_b) + len(moved)} keys differ: "
              f"{len(only_a)} only in A, {len(only_b)} only in B, {len(moved)} moved{note}")
    differing = sum(len(keys) for groups in per_prefix.values() for keys in groups)
    print(f"{differing} of {len(set(a) | set(b))} keys differ", end="")
    print(f"; largest relative difference of a moved key {worst:.3g} at {worst_key}"
          if worst_key else "")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="JSON file to write the golden outputs to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two golden files instead")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("give OUT.json or --compare A.json B.json")
    out = golden()
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(out)} keys to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
