"""Batch experiment driver.

Subcommands
-----------
verify    exhaustive exact-identity suites with a pass/fail table
bessel    certified-evaluation grid with the asymptotic-envelope check
limit     the limiting error by quadrature / Bessel series / Monte Carlo
bounds    lower-bound reports, two-sided sandwich checks, slope sweeps
simulate  finite-frame reconstruction error vs the limit vs the WNH figure
report    aggregate previously written CSVs into a JSON summary (+ plot script)

Every run resolves to a RunConfig that is serialized as JSON next to the
outputs, so any table can be reproduced bit-for-bit by ``--config``.

Exit codes: 0 all requested checks passed, 1 a check failed,
2 configuration error, 3 precision exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import combinatorics as comb
from . import special_fn as sf
from .bounds import (
    BOUND_CSV_FIELDS,
    I_constant,
    I_constant_sine_product,
    lower_bound,
    sandwich_check,
    scaling_slope_fit,
)
from .frames import fibonacci_sphere_frame, harmonic_frame_2d, random_sphere_frame
from .limit_error import (
    LIMIT_CSV_FIELDS,
    Method,
    limiting_error,
    monte_carlo_limit,
    parity_split,
    result_csv_row,
)
from .quantization import QuantScheme, SignalSpec, quantize_and_reconstruct, wnh_mse

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_PRECISION = 3

OUTDIR_ENV = "FRAMEPCM_OUTDIR"


@dataclass
class RunConfig:
    """Serializable description of one CLI run."""

    subcommand: str
    parameters: dict = field(default_factory=dict)

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: Path) -> "RunConfig":
        raw = json.loads(Path(path).read_text())
        return cls(subcommand=raw["subcommand"], parameters=dict(raw["parameters"]))


def _outdir(args) -> Path:
    out = Path(args.outdir or os.environ.get(OUTDIR_ENV, "framepcm_out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, fields, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args, outdir: Path) -> int:
    mx = args.max
    suites = [
        ("weighted-binomial closed form", lambda: all(
            comb.check_identity_A(n, h) for n in range(1, mx + 1) for h in range(0, mx + 1))),
        ("vanishing telescoped sum", lambda: all(
            comb.check_identity_B(h, l) for h in range(1, mx + 1) for l in range(0, h))),
        ("telescoping certificate", lambda: all(
            comb.gosper_certificate(h, l, m)
            for h in range(1, mx + 1) for l in range(0, h) for m in range(l, h + 1))),
        ("Gould convolution", lambda: all(
            comb.check_gould(n, h) for n in range(0, mx + 1) for h in range(0, mx + 1))),
        ("even coefficient identity", lambda: all(
            comb.check_coeff_identity_even(n, h) for n in range(1, mx + 1) for h in range(0, mx + 1))),
        ("odd coefficient identity", lambda: all(
            comb.check_coeff_identity_odd(n, h) for n in range(1, mx + 1) for h in range(0, mx + 1))),
    ]
    rows = []
    failures = 0
    for name, run in suites:
        ok = run()
        failures += not ok
        rows.append({"suite": name, "max_index": mx, "ok": ok})
        print(f"[{'PASS' if ok else 'FAIL'}] {name} (indices <= {mx})")
    _write_csv(outdir / "verify.csv", ["suite", "max_index", "ok"], rows)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# bessel
# ---------------------------------------------------------------------------

def _certified_eval(order: float, x: float) -> sf.BesselEval:
    if x == 0.0:
        return sf.BesselEval(order, x, 1.0 if order == 0 else 0.0, 0.0)
    if round(2 * order) % 2 == 0:
        return sf.bessel_integral_int_order(int(order), x)
    return sf.bessel_half_order(int(order - 0.5), x)


def _cmd_bessel(args, outdir: Path) -> int:
    orders = args.orders or [0.5 * t for t in range(1, 13)]
    xs = args.xs or [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
    rows = []
    violations = 0
    for order in orders:
        for x in xs:
            ev = _certified_eval(order, x)
            env = sf.asymptotic_estimate(order, x)
            # rounding of main_term: its phase x - omega carries ~eps*x (the
            # model of bessel_large_x), and the product a few eps relative
            amp = math.sqrt(2.0 / (math.pi * x))
            rounding = amp * 2 * sf.EPS * (x + 4.0) + 4 * sf.EPS * abs(env.main_term)
            ok = (abs(ev.value - env.main_term)
                  <= env.residual_bound + ev.abs_error_bound + rounding)
            violations += not ok
            rows.append({
                "order": order, "x": x, "value": ev.value,
                "abs_error_bound": ev.abs_error_bound, "main_term": env.main_term,
                "residual_bound": env.residual_bound, "branch_c": env.c,
                "envelope_ok": ok,
            })
    _write_csv(outdir / "bessel.csv",
               ["order", "x", "value", "abs_error_bound", "main_term",
                "residual_bound", "branch_c", "envelope_ok"], rows)
    print(f"envelope check: {len(rows)} points, {violations} violations")
    return EXIT_OK if violations == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------

def _cmd_limit(args, outdir: Path) -> int:
    scheme = QuantScheme(args.delta)
    x = np.zeros(args.d)
    x[0] = args.r
    sig = SignalSpec.from_vector(x, scheme)
    methods = ([Method.QUADRATURE, Method.BESSEL_SERIES, Method.MONTE_CARLO]
               if args.methods == "all" else
               [Method(m.strip()) for m in args.methods.split(",")])
    rows, results = [], {}
    for method in methods:
        if method == Method.MONTE_CARLO:
            res = monte_carlo_limit(sig, scheme, samples=args.samples, seed=args.seed)
        else:
            res = limiting_error(sig, scheme, method=method, tol=args.tol)
        results[method] = res
        rows.append(result_csv_row(sig, scheme, res))
        print(f"{method.value:>14}: value={res.value:.12e}  err_est={res.error_estimate:.2e}")
    _write_csv(outdir / "limit.csv", LIMIT_CSV_FIELDS, rows)

    failures = 0
    if Method.QUADRATURE in results and Method.BESSEL_SERIES in results:
        q, b = results[Method.QUADRATURE].value, results[Method.BESSEL_SERIES].value
        scale = parity_split(args.d).scale(args.r, scheme.delta)
        ok = abs(q - b) <= args.agree_rtol * max(abs(q), scale)
        failures += not ok
        print(f"quadrature vs series agreement: {'PASS' if ok else 'FAIL'} "
              f"(|diff|={abs(q - b):.3e})")
    if Method.QUADRATURE in results and Method.MONTE_CARLO in results:
        q = results[Method.QUADRATURE].value
        mc = results[Method.MONTE_CARLO]
        ok = abs(q - mc.value) <= 3.0 * mc.error_estimate + 1e-12
        failures += not ok
        print(f"quadrature vs Monte Carlo agreement: {'PASS' if ok else 'FAIL'} "
              f"(|diff|={abs(q - mc.value):.3e}, 3 sigma={3 * mc.error_estimate:.3e})")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _cmd_bounds(args, outdir: Path) -> int:
    failures = 0
    if args.r is not None:
        report = lower_bound(args.d, args.r, args.delta,
                             order_matched_phase=not args.paper_phase)
        print(f"I readings: validated={I_constant(args.d):.6f} "
              f"sine-product={I_constant_sine_product(args.d):.6f}")
        print(f"lower bound report: {report.to_dict()}")
        _write_csv(outdir / "bound_report.csv", BOUND_CSV_FIELDS, [report.to_dict()])
        split = parity_split(args.d)
        sw = sandwich_check(args.r, args.delta, split.n, split.parity,
                            order_matched_phase=not args.paper_phase)
        if sw.integral_abs is not None:
            # the sandwich ran the default quadrature of the same integral
            value = I_constant(args.d) * sw.integral_abs
        else:
            value = limiting_error(np.concatenate(([args.r], np.zeros(args.d - 1))),
                                   QuantScheme(args.delta)).value
        print(f"limiting error (quadrature): {value:.6e}")
        if report.window_ok:
            ok = report.lower <= value <= report.upper_scaling
            failures += not ok
            print(f"lower <= value <= upper: {'PASS' if ok else 'FAIL'}")
        print(f"1-D sandwich: {sw}")
        if sw.holds is False:
            failures += 1
    if args.slope:
        ks = np.unique(np.round(np.logspace(math.log10(args.kmin), math.log10(args.kmax),
                                            args.points)).astype(int))
        rows = []
        for d in args.d_list:
            eps = args.eps if args.eps is not None else (0.375 if d % 2 == 0 else 0.25)
            slope = scaling_slope_fit(d, 1.0, eps, ks)
            expected = (d + 1) / 2.0
            ok = abs(slope - expected) <= args.slope_tol
            failures += not ok
            rows.append({"d": d, "eps": eps, "k_min": args.kmin, "k_max": args.kmax,
                         "points": len(ks), "slope": slope, "expected": expected,
                         "ok": ok})
            print(f"[{'PASS' if ok else 'FAIL'}] d={d}: slope={slope:.4f} "
                  f"expected={expected}")
        _write_csv(outdir / "slopes.csv",
                   ["d", "eps", "k_min", "k_max", "points", "slope", "expected", "ok"],
                   rows)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _make_frame(kind: str, d: int, N: int, seed: int):
    if kind == "harmonic":
        if d != 2:
            raise ValueError("harmonic frame is 2-D")
        return harmonic_frame_2d(N)
    if kind == "fibonacci":
        if d != 3:
            raise ValueError("fibonacci frame is 3-D")
        return fibonacci_sphere_frame(N)
    if kind == "random":
        return random_sphere_frame(d, N, seed)
    raise ValueError(f"unknown frame kind {kind!r}")


def _cmd_simulate(args, outdir: Path) -> int:
    kind = args.frame or ("fibonacci" if args.d == 3 else
                          "harmonic" if args.d == 2 else "random")
    frame = _make_frame(kind, args.d, args.N, args.seed)
    rng = np.random.default_rng(args.seed)
    u = rng.standard_normal(args.d)
    u /= np.linalg.norm(u)
    x = args.r * u
    scheme = QuantScheme(args.delta)
    sig = SignalSpec.from_vector(x, scheme)
    _, e_delta = quantize_and_reconstruct(sig, frame, scheme)
    lim = limiting_error(sig, scheme)
    mse = wnh_mse(args.d, args.N, scheme)
    row = {
        "d": args.d, "N": args.N, "delta": args.delta, "r": sig.r, "eps": sig.eps,
        "frame": kind, "seed": args.seed, "tightness_defect": frame.tightness_defect,
        "E_delta": e_delta, "limit_value": lim.value, "wnh_mse": mse,
        "wnh_rmse": math.sqrt(mse),
        "E_over_limit": e_delta / lim.value if lim.value else math.inf,
        "E_over_wnh_rmse": e_delta / math.sqrt(mse),
    }
    print(f"frame={kind} N={args.N} (tightness defect {frame.tightness_defect:.2e})")
    print(f"E_delta            = {e_delta:.6e}")
    print(f"limiting error     = {lim.value:.6e}   (E/limit = {row['E_over_limit']:.4f})")
    print(f"WNH MSE prediction = {mse:.6e}   (rmse {math.sqrt(mse):.6e}, "
          f"E/rmse = {row['E_over_wnh_rmse']:.1f}x)")
    _write_csv(outdir / "simulate.csv", list(row.keys()), [row])
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

_PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Auto-generated plotting companion; reads the CSVs listed below.
import csv
import math
import matplotlib.pyplot as plt

FILES = {files!r}

def load(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))

for path in FILES:
    rows = load(path)
    if not rows:
        continue
    cols = rows[0].keys()
    if {{"slope", "d"}} <= set(cols):
        ds = [float(r["d"]) for r in rows]
        slopes = [float(r["slope"]) for r in rows]
        expected = [float(r["expected"]) for r in rows]
        plt.figure()
        plt.plot(ds, slopes, "o", label="fitted")
        plt.plot(ds, expected, "k--", label="(d+1)/2")
        plt.xlabel("d"); plt.ylabel("log-log slope"); plt.legend()
        plt.title(path)
    elif {{"value", "delta"}} <= set(cols):
        deltas = [float(r["delta"]) for r in rows]
        values = [float(r["value"]) for r in rows]
        plt.figure()
        plt.loglog(deltas, values, "o-")
        plt.xlabel("delta"); plt.ylabel("limiting error")
        plt.title(path)
plt.show()
"""


def _cmd_report(args, outdir: Path) -> int:
    summary = {}
    failures = 0
    for path in args.inputs:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        entry = {"rows": len(rows), "columns": list(rows[0].keys()) if rows else []}
        numeric = {}
        for col in entry["columns"]:
            try:
                vals = [float(r[col]) for r in rows]
            except ValueError:
                continue
            numeric[col] = {"min": min(vals), "max": max(vals),
                            "mean": sum(vals) / len(vals)}
        entry["numeric"] = numeric
        for flag in ("ok", "holds", "envelope_ok"):
            if rows and flag in rows[0]:
                bad = sum(r[flag] not in ("True", "true", "1") for r in rows)
                entry[f"{flag}_failures"] = bad
                failures += bad
        summary[str(path)] = entry
    out = Path(args.out) if args.out else outdir / "summary.json"
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if args.plot_script:
        script = Path(args.plot_script)
        script.write_text(_PLOT_SCRIPT.format(files=[str(p) for p in args.inputs]))
        print(f"wrote {script}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _build_parser():
    """The parser and its subcommand parsers, built once per process:
    parsing reads them and never changes them."""
    parser = argparse.ArgumentParser(
        prog="framepcm",
        description="PCM frame-quantization error experiments",
    )
    parser.add_argument("--outdir", default=None,
                        help=f"output directory (default ${OUTDIR_ENV} or ./framepcm_out)")
    parser.add_argument("--config", default=None,
                        help="rerun a serialized RunConfig JSON (ignores other arguments)")
    sub = parser.add_subparsers(dest="subcommand")
    children = {}

    p = children["verify"] = sub.add_parser("verify", help="exact identity suites")
    p.add_argument("--max", type=int, default=30)

    p = children["bessel"] = sub.add_parser("bessel", help="certified evaluations + envelope grid")
    p.add_argument("--orders", type=float, nargs="*", default=None)
    p.add_argument("--xs", type=float, nargs="*", default=None)

    p = children["limit"] = sub.add_parser("limit", help="limiting error, multi-method")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--methods", default="all")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--samples", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--agree-rtol", type=float, default=1e-6)

    p = children["bounds"] = sub.add_parser("bounds", help="bound reports, sandwich, slope sweeps")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--paper-phase", action="store_true",
                   help="use the paper's fixed-phase kernels (can over-claim) "
                        "instead of the order-matched phase")
    p.add_argument("--slope", action="store_true")
    p.add_argument("--d-list", type=int, nargs="*", default=[3, 4, 5])
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--kmin", type=int, default=100)
    p.add_argument("--kmax", type=int, default=1000)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--slope-tol", type=float, default=0.05)

    p = children["simulate"] = sub.add_parser("simulate", help="finite frame vs limit vs WNH")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frame", choices=["harmonic", "random", "fibonacci"], default=None)

    p = children["report"] = sub.add_parser("report", help="aggregate CSVs into a JSON summary")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--plot-script", default=None)

    return parser, children


_COMMANDS = {
    "verify": _cmd_verify,
    "bessel": _cmd_bessel,
    "limit": _cmd_limit,
    "bounds": _cmd_bounds,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def _args_to_config(args) -> RunConfig:
    skip = {"subcommand", "outdir", "config"}
    params = {k: v for k, v in vars(args).items() if k not in skip}
    return RunConfig(subcommand=args.subcommand, parameters=params)


def main(argv=None) -> int:
    parser, children = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        cfg = RunConfig.load(Path(args.config))
        child = children.get(cfg.subcommand)
        if child is None:
            print(json.dumps({"error": "config",
                              "detail": f"unknown subcommand {cfg.subcommand!r}"}),
                  file=sys.stderr)
            return EXIT_CONFIG
        dests = [a.dest for a in child._actions if a.dest != "help"]
        unknown = sorted(set(cfg.parameters) - set(dests))
        if unknown:
            # e.g. a config from an older release whose flag has since been
            # renamed: rerunning without it would silently change the result
            print(json.dumps({"error": "config",
                              "detail": f"unknown {cfg.subcommand} parameters {unknown}"}),
                  file=sys.stderr)
            return EXIT_CONFIG
        rebuilt = argparse.Namespace(subcommand=cfg.subcommand, outdir=args.outdir,
                                     config=None)
        for dest in dests:
            setattr(rebuilt, dest, child.get_default(dest))
        for key, value in cfg.parameters.items():
            setattr(rebuilt, key, value)
        args = rebuilt
    if args.subcommand is None:
        parser.print_help()
        return EXIT_CONFIG
    outdir = _outdir(args)
    _args_to_config(args).save(outdir / f"run_config_{args.subcommand}.json")
    try:
        return _COMMANDS[args.subcommand](args, outdir)
    except sf.PrecisionExhausted as exc:
        print(json.dumps({"error": "precision-exhausted", "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_PRECISION
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
