"""Batch experiment driver.

Subcommands
-----------
verify    exhaustive exact-identity suites with a pass/fail table
bessel    certified-evaluation grid with the asymptotic-envelope check
limit     the limiting error by quadrature / Bessel series / Monte Carlo
bounds    lower-bound reports, two-sided sandwich checks, slope sweeps
simulate  finite-frame reconstruction error vs the limit vs the WNH figure

Every run resolves to a RunConfig that is serialized as JSON next to the
outputs, so any table can be reproduced bit-for-bit by ``--config``.
Each output is written as a new file that replaces the old one, never
rewritten in place: rewriting a file written moments before was measured
to wait on the disk (ext4), creating it anew did not.

Exit codes: 0 all requested checks passed, 1 a check failed,
2 configuration error, 3 precision exhausted.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import combinatorics as comb
from . import special_fn as sf
from .bounds import (
    BOUND_CSV_FIELDS,
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
# ends the line of a limit whose estimate is at least its |value|
_UNRESOLVED = "  (estimate >= |value|: unresolved)"

OUTDIR_ENV = "FRAMEPCM_OUTDIR"


@dataclass
class RunConfig:
    """Serializable description of one CLI run."""

    subcommand: str
    parameters: dict = field(default_factory=dict)

    def save(self, path: Path) -> None:
        with _open_new(path) as fh:
            fh.write(json.dumps({"subcommand": self.subcommand, "parameters": self.parameters},
                                indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: Path) -> "RunConfig":
        raw = json.loads(Path(path).read_text())
        if not (isinstance(raw, dict) and isinstance(raw.get("parameters"), dict)):
            raise ValueError(f"{path} holds no RunConfig object")
        return cls(subcommand=raw.get("subcommand"), parameters=dict(raw["parameters"]))


def _outdir(args) -> Path:
    out = Path(args.outdir or os.environ.get(OUTDIR_ENV, "framepcm_out"))
    if not out.is_dir():  # one stat, where mkdir of an existing directory raises and catches
        out.mkdir(parents=True, exist_ok=True)
    return out


def _open_new(path: Path):
    """Open ``path`` for writing as a new file, unlinking whatever is there.

    Rewriting an output in place waits on the disk when the same path was
    written moments before: in a loop on ext4, a 209-byte file took
    0.22-0.27 ms per write truncated in place, 0.34 ms through a renamed
    temporary file and 0.07-0.10 ms unlinked and created anew.  An old
    output that is not a plain writable file (a symlink, a hard link, a
    read-only file) is replaced too, with a note on stderr.  The file is
    opened with ``newline=""``: text is written as given.
    """
    try:
        st = path.lstat()
    except FileNotFoundError:
        pass
    else:
        kind = ("symlink" if stat.S_ISLNK(st.st_mode)
                else None if not stat.S_ISREG(st.st_mode)  # unlink raises on a directory
                else "hard-linked file" if st.st_nlink > 1
                else "read-only file" if not st.st_mode & stat.S_IWUSR
                else None)
        if kind:
            print(f"framepcm: replacing {kind} {path} with a new file", file=sys.stderr)
        path.unlink(missing_ok=True)
    return open(path, "w", newline="")


def _write_csv(path: Path, fields, rows) -> None:
    with _open_new(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args, outdir: Path) -> int:
    mx = args.max
    if mx < 1:
        raise ValueError(f"--max must be >= 1, got {mx}")  # else every suite is empty
    rows = []
    failures = 0
    for name, ok in comb.identity_suites(mx):
        failures += not ok
        rows.append({"suite": name, "max_index": mx, "ok": ok})
        print(f"[{'PASS' if ok else 'FAIL'}] {name} (indices <= {mx})")
    _write_csv(outdir / "verify.csv", ["suite", "max_index", "ok"], rows)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# bessel
# ---------------------------------------------------------------------------

def _certified_eval(order: float, x: float) -> sf.BesselEval:
    if order % 1 == 0:
        return sf.bessel_integral_int_order(int(order), x)
    return sf.bessel_half_order(int(order - 0.5), x)


def _cmd_bessel(args, outdir: Path) -> int:
    orders = args.orders or [0.5 * t for t in range(1, 13)]
    xs = args.xs or [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
    # the certified routes take integer and half-integer orders only, and the
    # envelope divides by x; nan fails every comparison, so it is rejected too
    for order in orders:
        if not (order >= 0 and 2 * order % 1 == 0):
            raise ValueError(f"order {order!r} is not one of 0, 1/2, 1, 3/2, ...")
    for x in xs:
        if not 0 < x < math.inf:
            raise ValueError(f"x {x!r} is not finite and positive")
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

def _verdict(label: str, ref, value: float, estimate: float, scale: float,
             rtol: float) -> bool:
    """Print the verdict of route ``ref`` against another route's value and
    estimate; True on FAIL.  FAIL where the difference exceeds the two
    estimates together, so that one is dishonest; PASS where the estimates
    together are at most ``rtol`` max(|ref value|, scale); UNINFORMATIVE
    otherwise, printing the relative accuracy reached."""
    diff = abs(ref.value - value)
    spread = ref.error_estimate + estimate
    size = max(abs(ref.value), scale)
    verdict = ("FAIL" if not diff <= spread else  # nan too
               "PASS" if spread <= rtol * size else "UNINFORMATIVE")
    reached = (f", relative accuracy {spread / size if size else math.inf:.1e} > {rtol:.1e}"
               if verdict == "UNINFORMATIVE" else "")
    print(f"{label} agreement: {verdict} (|diff|={diff:.3e}, estimates={spread:.3e}{reached})")
    return verdict == "FAIL"


def _cmd_limit(args, outdir: Path) -> int:
    if not 0 < args.agree_rtol < math.inf:  # nan too: else no verdict could PASS
        raise ValueError(f"--agree-rtol must be positive and finite, got {args.agree_rtol}")
    scheme = QuantScheme(args.delta)
    x = np.zeros(args.d)
    x[0] = args.r
    sig = SignalSpec.from_vector(x, scheme)
    methods = ([Method.QUADRATURE, Method.BESSEL_SERIES, Method.MONTE_CARLO]
               if args.methods == "all" else
               [Method(m.strip()) for m in args.methods.split(",")])
    rows, results, refusals = [], {}, []
    for method in methods:
        try:
            res = (monte_carlo_limit(sig, scheme, samples=args.samples, seed=args.seed)
                   if method == Method.MONTE_CARLO else
                   limiting_error(sig, scheme, method=method, tol=args.tol))
        except sf.PrecisionExhausted as exc:  # this route refuses; the others still run
            refusals.append(str(exc))
            print(f"{method.value:>14}: precision exhausted: {exc}")
            continue
        results[method] = res
        rows.append(result_csv_row(sig, scheme, res))
        print(f"{res.method.value:>14}: value={res.value:.12e}  err_est={res.error_estimate:.2e}"
              + (_UNRESOLVED if res.unresolved else ""))
    _write_csv(outdir / "limit.csv", LIMIT_CSV_FIELDS, rows)

    failures = 0
    try:
        scale = parity_split(args.d).scale(args.r, scheme.delta)
    except sf.PrecisionExhausted:  # e.g. d = 500, R = 20.3: the value alone sets the size
        scale = 0.0
    # each other route that ran against the quadrature; the Monte Carlo
    # estimate is one sigma, and its line takes 3 sigma
    quad = results.get(Method.QUADRATURE)
    for method, label, widen in ((Method.BESSEL_SERIES, "series", 1.0),
                                 (Method.MONTE_CARLO, "Monte Carlo", 3.0)):
        if quad is not None and method in results:
            other = results[method]
            failures += _verdict(f"quadrature vs {label}", quad, other.value,
                                 widen * other.error_estimate, scale, args.agree_rtol)
    if refusals:
        raise sf.PrecisionExhausted("; ".join(refusals))
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _cmd_bounds(args, outdir: Path) -> int:
    if args.slope and not 1 <= args.kmin < args.kmax:  # the sweep is log-spaced
        raise ValueError(f"need 1 <= --kmin < --kmax, got --kmin {args.kmin} --kmax {args.kmax}")
    failures = 0
    if args.r is not None:
        report = lower_bound(args.d, args.r, args.delta,
                             order_matched_phase=not args.paper_phase)
        print(f"I constant: {report.I_const:.6f}")
        row = report.to_dict()
        print(f"lower bound report: {row}")
        _write_csv(outdir / "bound_report.csv", BOUND_CSV_FIELDS, [row])
        # the one verdict, the sandwich's: an unmet hypothesis counts nothing
        sw = sandwich_check(args.d, args.r, args.delta,
                            order_matched_phase=not args.paper_phase)
        if sw.integral_abs is not None:
            # the sandwich ran the default route on the same integral
            value, route, unresolved = (report.I_const * sw.integral_abs, sw.method,
                                        sw.status == "unresolved")
        else:
            lim = limiting_error(np.concatenate(([args.r], np.zeros(args.d - 1))),
                                 QuantScheme(args.delta))
            value, route, unresolved = lim.value, lim.method, lim.unresolved
        print(f"limiting error ({route.value}): {value:.6e}" + (_UNRESOLVED if unresolved else ""))
        print(f"1-D sandwich: {sw}")
        failures += sw.holds is False
    if args.slope:
        ks = np.unique(np.round(np.logspace(math.log10(args.kmin), math.log10(args.kmax),
                                            args.points)).astype(int))
        rows, unresolved = [], []
        for d in args.d_list:
            # the default eps keeps off the zeros of the leading coefficient
            # C_d(eps), which tend to 1/4 for odd d and 3/8 for even d
            eps = args.eps if args.eps is not None else (0.46 if d % 2 == 0 else 0.31)
            try:
                slope = scaling_slope_fit(d, 1.0, eps, ks)
            except sf.PrecisionExhausted as exc:
                # no fit for this d; the other d keep theirs
                unresolved.append(str(exc))
                print(f"[UNRESOLVED] d={d}: {exc}")
                continue
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
        if unresolved:
            raise sf.PrecisionExhausted("; ".join(unresolved))
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
    try:
        mse = wnh_mse(args.d, args.N, scheme)
        rmse = math.sqrt(mse)
    except sf.PrecisionExhausted:  # delta^2 leaves binary64; d delta / sqrt(12 N) need not
        mse, rmse = None, sf._binary64(  # None: an empty cell
            lambda: args.d * args.delta / math.sqrt(12.0 * args.N),
            lambda: f"the WNH RMSE leaves binary64 (d={args.d}, N={args.N}, delta={args.delta})")
    row = {
        "d": args.d, "N": args.N, "delta": args.delta, "r": sig.r, "eps": sig.eps,
        "frame": kind, "seed": args.seed, "tightness_defect": frame.tightness_defect,
        "E_delta": e_delta, "limit_value": lim.value, "wnh_mse": mse,
        "wnh_rmse": rmse,
        "E_over_limit": e_delta / lim.value if lim.value else math.inf,
        "E_over_wnh_rmse": e_delta / rmse,
    }
    print(f"frame={kind} N={args.N} (tightness defect {frame.tightness_defect:.2e})")
    print(f"E_delta            = {e_delta:.6e}")
    print(f"limiting error     = {lim.value:.6e}   (E/limit = {row['E_over_limit']:.4f})"
          + (_UNRESOLVED if lim.unresolved else ""))
    print(f"WNH MSE prediction = {'leaves binary64' if mse is None else f'{mse:.6e}'}   "
          f"(rmse {rmse:.6e}, E/rmse = {row['E_over_wnh_rmse']:.1f}x)")
    _write_csv(outdir / "simulate.csv", list(row.keys()), [row])
    return EXIT_OK


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

    return parser, children


_COMMANDS = {
    "verify": _cmd_verify,
    "bessel": _cmd_bessel,
    "limit": _cmd_limit,
    "bounds": _cmd_bounds,
    "simulate": _cmd_simulate,
}


def _args_to_config(args) -> RunConfig:
    skip = {"subcommand", "outdir", "config"}
    params = {k: v for k, v in vars(args).items() if k not in skip}
    return RunConfig(subcommand=args.subcommand, parameters=params)


def _config_flags(cfg: RunConfig, child) -> list:
    """The flags of ``cfg``'s command line: one per parameter, so that the
    subcommand's own parser converts and checks every value.

    A store-true flag appears when its value is true, a list parameter
    takes its items as separate arguments, and a null parameter is left
    to its default, which must be null too.
    """
    actions = {a.dest: a for a in child._actions if a.option_strings}
    unknown = sorted(set(cfg.parameters) - set(actions))
    if unknown:
        # e.g. a config from an older release whose flag has since been
        # renamed: rerunning without it would silently change the result
        raise ValueError(f"unknown {cfg.subcommand} parameters {unknown}")
    argv = []
    for key, value in cfg.parameters.items():
        action = actions[key]
        flag = action.option_strings[-1]
        if value is None:
            if action.default is not None:
                raise ValueError(f"{cfg.subcommand} parameter {key!r} may not be null")
        elif isinstance(action, argparse._StoreTrueAction):
            if not isinstance(value, bool):
                raise ValueError(f"{cfg.subcommand} parameter {key!r} must be true or false")
            argv += [flag] if value else []
        elif action.nargs == "*" and isinstance(value, list):
            argv += [flag] + [str(v) for v in value]
        else:
            # "--flag=value" keeps a value such as "-1e-9" from reading as a flag
            argv.append(f"{flag}={value}")
    return argv


def _parse_config(path: Path, children) -> argparse.Namespace:
    """The arguments of the run serialized at ``path``, parsed as on the
    command line; ``ValueError`` for a config that would not parse there."""
    cfg = RunConfig.load(path)
    child = children.get(cfg.subcommand)
    if child is None:
        raise ValueError(f"unknown subcommand {cfg.subcommand!r}")
    message = io.StringIO()
    try:
        with contextlib.redirect_stderr(message):
            args = child.parse_args(_config_flags(cfg, child))
    except SystemExit:
        # argparse printed its usage and error; keep the error line
        raise ValueError(message.getvalue().strip().splitlines()[-1]) from None
    args.subcommand = cfg.subcommand
    return args


def main(argv=None) -> int:
    parser, children = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            rebuilt = _parse_config(Path(args.config), children)
            rebuilt.outdir, rebuilt.config = args.outdir, None
            args = rebuilt
        if args.subcommand is None:
            parser.print_help()
            return EXIT_CONFIG
        outdir = _outdir(args)
        _args_to_config(args).save(outdir / f"run_config_{args.subcommand}.json")
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
