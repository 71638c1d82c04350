#!/usr/bin/env python3
"""Golden outputs of framepcm on a fixed grid, and a comparison of two of them.

    PYTHONPATH=src python3 tools/golden_grid.py OUT.json
    python3 tools/golden_grid.py --compare A.json B.json

The first form imports the framepcm found on PYTHONPATH (point it at
another checkout's ``src`` to take that version's golden file) and writes
one key per value or bound, holding its ``repr``; a call that raises is
recorded as ``raise <Type>: <message>``.  The grid:

* ``limiting_error`` by quadrature and by the Bessel series, and
  ``monte_carlo_limit``, at d = 2..12, R = r/delta in RS, delta in DELTAS;
* ``lower_bound`` and ``sandwich_check`` with both kernel phases on the
  same points (d >= 3);
* ``bessel_large_x`` at XS and ``alternating_bessel_sum`` (p = order) at
  RS, for the orders 0, 1/2, ..., 12;
* ``zeta_tail``, ``M1_constant`` and ``M2_constant``.

The second form prints every key whose value differs between the two
files, with its relative difference and, for a ``/value`` key, |Δvalue|
over the key's own certified bound (``abs_error_bound`` or
``error_estimate``, the larger of the two files'); then, per key prefix
(``limit/bessel_series``, ``alternating_bessel_sum``, ...), the number of
differing keys, their largest relative difference and their largest
|Δvalue|/bound; it exits 1 if any key differs.
Takes about 30 s and a few hundred MB (the quadrature at R ~ 1e4).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

DIMS = range(2, 13)
RS = (0.3, 3.7, 10.25, 57.4, 100.375, 1000.3, 4321.49, 9999.9)
DELTAS = (1.0, 1.0 / 16.0, 0.37)
ORDERS = [0.5 * t for t in range(25)]
XS = (0.7, 3.7, 12.5, 57.4, 100.0, 1000.3, 9999.9)
EPSS = (1.0 / 6.0, 0.2, 0.25, 0.3, 1.0 / 3.0, 0.375, 0.45, 0.5)
MC_SAMPLES = 200_000  # more than one Monte Carlo batch
ALT_SUM_TOL = 1e-10


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


def golden() -> dict:
    from framepcm import (QuantScheme, M1_constant, M2_constant, Method, bessel_large_x,
                          limiting_error, lower_bound, monte_carlo_limit, sandwich_check,
                          zeta_tail)
    from framepcm.special_fn import alternating_bessel_sum_info

    out: dict = {}
    for d in DIMS:
        n, parity = d // 2, ("even", "odd")[d % 2]
        for R in RS:
            for delta in DELTAS:
                r = R * delta
                x = np.zeros(d)
                x[0] = r
                scheme = QuantScheme(delta)
                at = f"d={d}/R={R!r}/delta={delta!r}"
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
                            lambda: sandwich_check(r, delta, n, parity,
                                                   order_matched_phase=matched))
    for order in ORDERS:
        for x in XS:
            _record(out, f"bessel_large_x/order={order!r}/x={x!r}",
                    lambda: bessel_large_x(order, x))
        for R in RS:
            _record(out, f"alternating_bessel_sum/order={order!r}/R={R!r}",
                    lambda: alternating_bessel_sum_info(order, order, R, ALT_SUM_TOL))
    for t in range(3, 27):
        _record(out, f"zeta_tail/p={t / 2!r}", lambda: zeta_tail(t / 2))
    for eps in EPSS:
        for matched in (True, False):
            for n in range(1, 7):
                if n >= 2:
                    _record(out, f"M1/n={n}/eps={eps!r}/matched={matched}",
                            lambda: M1_constant(eps, n, matched))
                _record(out, f"M2/n={n}/eps={eps!r}/matched={matched}",
                        lambda: M2_constant(eps, n, matched))
    return out


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


def _bound_ratio(key: str, a: dict, b: dict) -> float | None:
    """|Δvalue| of a ``/value`` key over its own certified bound, else None."""
    if not key.endswith("/value"):
        return None
    stem = key[: -len("value")]
    for name in ("abs_error_bound", "error_estimate"):
        bounds = [float(f[stem + name]) for f in (a, b) if stem + name in f]
        if bounds:
            try:
                delta = abs(float(a[key]) - float(b[key]))
            except (KeyError, ValueError):
                return math.inf
            bound = max(bounds)
            return delta / bound if bound > 0 else (0.0 if delta == 0 else math.inf)
    return None


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    keys = sorted(set(a) | set(b))
    per_prefix: dict = {}  # prefix -> [differing keys, largest rel, largest |Δvalue|/bound]
    worst, worst_key, differing = 0.0, None, 0
    for key in keys:
        va, vb = a.get(key, "<missing>"), b.get(key, "<missing>")
        if va == vb:
            continue
        differing += 1
        rel = _rel_diff(va, vb)
        ratio = _bound_ratio(key, a, b)
        note = "" if ratio is None else f", |dvalue|/bound {ratio:.3g}"
        print(f"{key}: {va} -> {vb} (relative difference {rel:.3g}{note})")
        if worst_key is None or rel > worst:
            worst, worst_key = rel, key
        acc = per_prefix.setdefault(_prefix(key), [0, 0.0, None])
        acc[0] += 1
        acc[1] = max(acc[1], rel)
        if ratio is not None:
            acc[2] = ratio if acc[2] is None else max(acc[2], ratio)
    for prefix, (count, rel, ratio) in sorted(per_prefix.items()):
        note = "" if ratio is None else f", largest |dvalue|/bound {ratio:.3g}"
        print(f"prefix {prefix}: {count} keys differ, largest relative difference "
              f"{rel:.3g}{note}")
    print(f"{differing} of {len(keys)} keys differ", end="")
    print(f"; largest relative difference {worst:.3g} at {worst_key}" if differing else "")
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
