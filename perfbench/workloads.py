"""Workload generators and output checks.

A workload is one *round*: a fixed list of items generated from the seed.
A run repeats the round until its time is up, so every run attempts whole
rounds and the share of failing items is the same in every run.  Inputs
are stratified (every round covers the same strata of d, R, N, ... with
seeded positions inside each stratum) so that the cost of a round moves
little from seed to seed.

An item is one call of ``framepcm.cli.main`` with generated arguments, or
one call of a public library function where no subcommand exists.  Every
output is checked against a reference computed apart from the program
(``oracle``), never against a stored copy of the program's output.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field, replace

import oracle

EPS = math.ulp(1.0)

WORKLOADS = ("series_grid", "quad_sweep", "frames_sim", "exact_certify")

# parity windows of the lower bounds, shrunk by a margin so that the
# fractional part of r/delta rounded in binary64 stays inside
_EVEN_WINDOW = (0.25 + 0.02, 0.5 - 0.02)
_ODD_WINDOW = (1.0 / 6.0 + 0.02, 1.0 / 3.0 - 0.02)


@dataclass(frozen=True)
class Item:
    """One operation of a workload.

    ``kind`` names the operation type; ``argv`` holds the CLI arguments
    (None for a library call); ``params`` holds the generated inputs that
    the reference needs.  ``known_fault`` marks the operations kept in a
    workload although they fail at this commit.  ``leads_round`` puts the
    item first in every round.
    """

    kind: str
    argv: tuple | None
    params: dict = field(default_factory=dict, compare=False)
    known_fault: bool = False
    leads_round: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.argv) if self.argv else f"{self.kind} {self.params}"

    @property
    def output_file(self) -> str | None:
        if self.argv is None:
            return None
        if self.argv[0] == "bounds":
            return "slopes.csv" if "--slope" in self.argv else "bound_report.csv"
        return f"{self.argv[0]}.csv"


def _f(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float, j: int = 0, strata: int = 1) -> float:
    """Log-uniform in stratum j of ``strata`` equal log-width strata of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    w = (b - a) / strata
    return math.exp(a + w * (j + rng.random()))


# eps where the leading coefficient of the d = 3 and d = 4 limits vanishes
# (1/sqrt(12) exactly for d = 3, measured for d = 4): the log-log slope
# leaves (d+1)/2 within ~0.002 of these and ``bounds --slope`` exits 1, so
# slope sweeps keep 0.01 away (see CHANGES.md)
_SLOPE_ZERO = {3: 12 ** -0.5, 4: 0.402}


def _window(d: int):
    return _ODD_WINDOW if d % 2 else _EVEN_WINDOW


def _signal(rng: random.Random, R_lo: float, R_hi: float, eps: float, j: int, strata: int,
            binary_delta: bool = False):
    """(r, delta) with r/delta = K + eps, K from stratum j of [R_lo, R_hi] and
    delta log-uniform on [0.01, 1], or on 2^-6 .. 1 when ``binary_delta``."""
    K = max(math.floor(_log_uniform(rng, R_lo, R_hi, j, strata)), 1)
    delta = 2.0 ** -rng.randint(0, 6) if binary_delta else _log_uniform(rng, 0.01, 1.0)
    return (K + eps) * delta, delta


def _limit_item(kind, d, r, delta, methods, **extra):
    argv = ["limit", "--d", str(d), "--r", _f(r), "--delta", _f(delta), "--methods", methods]
    for key, val in extra.items():
        argv += [f"--{key}", str(val)]
    return Item(kind, tuple(argv), {"d": d, "r": r, "delta": delta})


# ---------------------------------------------------------------------------
# generators: one round per (workload, seed)
# ---------------------------------------------------------------------------

def _series_grid(rng):
    """d = 3..12 with R = K + eps, K log-uniform in strata of [10, 1e4].

    Each d has 4 items with |eps - 1/2| in [4e-4, 0.01], one in each
    quarter of that band and each in its own R stratum, plus 16 other
    items for an odd d and 29 for an even d.  One more d = 3 item has
    |eps - 1/2| in [5e-5, 1e-4]: 41 of the 266 items (15 %) lie within
    0.01 of 1/2.  Odd d (half-integer orders) cost about 4 ms, even d
    about 7 ms and the eps ~ 1/2 items 3-30 ms, stepping with d and
    |eps - 1/2|; with these shares the median sits inside the even-d group
    and the 90th percentile inside the eps ~ 1/2 group, away from the
    steps between groups.

    The phase-sum tail sums its head directly up to a start M that steps
    from 2^16 to 4e5 (about 18 MB more) at |eps - 1/2| < 1.5e-4 for d = 3
    and < 5e-5 for d = 4, and to 2e6 (about 90 MB) below about 2e-5; below
    about 1e-6 the d = 3 sum exits 3 (see CHANGES.md).  The band's lower
    edge keeps every seeded item on the 2^16 step and the extra d = 3 item
    on the 4e5 step, so each round reaches the same peak_rss_mb.
    """
    items = []
    for d in range(3, 13):
        per_d = 16 if d % 2 else 29
        for j in range(per_d):
            eps = 0.98 * rng.random()
            eps += 0.02 if eps >= 0.49 else 0.0
            items.append(_series_item(rng, d, eps, j, per_d))
        for i, j in enumerate(rng.sample(range(4), 4)):
            offset = _NEAR_HALF[0] + (_NEAR_HALF[1] - _NEAR_HALF[0]) / 4 * (i + rng.random())
            items.append(_series_item(rng, d, 0.5 + rng.choice((-1.0, 1.0)) * offset, j, 4))
    offset = _PEAK_HALF[0] + (_PEAK_HALF[1] - _PEAK_HALF[0]) * rng.random()
    items.append(_series_item(rng, 3, 0.5 + rng.choice((-1.0, 1.0)) * offset, 0, 1))
    return items


# |eps - 1/2| bands of the seeded near-1/2 items and of the one d = 3 item
# whose phase-sum head sets peak_rss_mb (see _series_grid)
_NEAR_HALF = (4e-4, 0.01)
_PEAK_HALF = (5e-5, 1e-4)


def _series_item(rng, d, eps, j, strata):
    # delta = 2^-k keeps r/delta exact in binary64: the series route's
    # error estimate leaves out the rounding of r/delta (see CHANGES.md)
    r, delta = _signal(rng, 10.0, 1e4, eps, j, strata, binary_delta=True)
    return _limit_item("limit_series", d, r, delta, "bessel_series")


def _quad_sweep(rng):
    """24 slope sweeps (d = 3..6), 72 bound reports (d = 3..8), two large-R
    d = 3 quadratures and the slope sweep that fails at this commit."""
    items = []
    for d in range(3, 7):
        lo, hi = _window(d)
        for j in range(6):
            eps = lo + (hi - lo) * rng.random()
            while abs(eps - _SLOPE_ZERO.get(d, -1.0)) < 0.01:
                eps = lo + (hi - lo) * rng.random()
            kmin = round(_log_uniform(rng, 100, 500))
            kmax = round(_log_uniform(rng, 2000, 5000, j, 6))
            argv = ("bounds", "--slope", "--d-list", str(d), "--eps", _f(eps),
                    "--kmin", str(kmin), "--kmax", str(kmax), "--points", "9")
            items.append(Item("bounds_slope", argv, {"d": d}))
    for d in range(3, 9):
        lo, hi = _window(d)
        # d = 8 stops at R = 1500: beyond ~2500 the quadrature's error reaches
        # the bounds' margin and the report exits 1 on some seeds (CHANGES.md)
        R_hi = 1500.0 if d == 8 else 5000.0
        for j in range(12):
            eps = lo + (hi - lo) * rng.random()
            r, delta = _signal(rng, 50.0, R_hi, eps, j, 12)
            argv = ("bounds", "--d", str(d), "--r", _f(r), "--delta", _f(delta))
            items.append(Item("bounds_report", argv, {"d": d, "r": r, "delta": delta}))
    # the narrow top stratum sets peak_rss_mb (about 3.3 KB per piece, 2R pieces)
    for R_lo, R_hi in ((2e4, 4e4), (9.8e4, 1e5)):
        eps = rng.random()
        r, delta = _signal(rng, R_lo, R_hi, eps, 0, 1)
        items.append(_limit_item("limit_quadrature", 3, r, delta, "quadrature"))
    # the quadrature's large-R values are used although its own error
    # estimate exceeds them; the fit gives 2.73 against 4.5 and exits 1
    items.append(Item("bounds_slope",
                      ("bounds", "--slope", "--d-list", "8", "--kmin", "1000", "--kmax", "5000"),
                      {"d": 8}, known_fault=True))
    return items


def _simulate_item(rng, kind, d, N):
    R = _log_uniform(rng, 1.0, 30.0)
    delta = _log_uniform(rng, 0.01, 1.0)
    seed = rng.randrange(1 << 30)
    argv = ("simulate", "--d", str(d), "--N", str(N), "--delta", _f(delta),
            "--r", _f(R * delta), "--seed", str(seed), "--frame", kind)
    return Item("simulate", argv, {"frame": kind, "d": d, "N": N, "delta": delta,
                                   "r": R * delta, "seed": seed})


def _frames_sim(rng):
    """33 simulate runs, 3 Monte Carlo limits and 3 equidistribution
    diagnostics.

    ``simulate`` uses harmonic (d = 2, 6 items), Fibonacci (d = 3, 6 items)
    and random frames (d = 4..8, 4 items each), N over log strata of
    [2e4, 2.5e5], plus one random d = 8 frame at N = 5e5 that sets
    peak_rss_mb.  The diagnostics use N in [4e4, 6e4] so that their cost,
    which sets the 90th percentile with the Monte Carlo items, stays put.
    """
    items = []
    plan = [("harmonic", 2, 6), ("fibonacci", 3, 6)] + [("random", d, 4) for d in range(4, 9)]
    for kind, d, count in plan:
        for j in range(count):
            items.append(_simulate_item(rng, kind, d, round(_log_uniform(rng, 2e4, 2.5e5, j, count))))
    # first in every round, so that it starts from the same heap each time
    # (see worker.Runner.run_round): after other items in a seeded order
    # its peak read 118-131 MB from seed to seed
    items.append(replace(_simulate_item(rng, "random", 8, 500_000), leads_round=True))
    for d in (3, 4, 5):
        R = _log_uniform(rng, 1.0, 5.0)
        delta = _log_uniform(rng, 0.01, 1.0)
        items.append(_limit_item("limit_mc", d, R * delta, delta, "monte_carlo",
                                 samples=10 ** 6, seed=rng.randrange(1 << 30)))
    for d in (4, 5, 6):
        N = round(_log_uniform(rng, 4e4, 6e4))
        items.append(Item("equidist", None, {"d": d, "N": N, "seed": rng.randrange(1 << 30),
                                             "degree": 4}))
    return items


def _exact_certify(rng):
    """``verify --max M`` for every M in 12..24, 40 Bessel grids (three
    integer and three half-integer orders in 1..12, one x in each of five
    log strata of [0.5, 400]) and the Bessel item that fails at this commit.

    The identity suites cost 34-224 ms and grow steeply with M, so M takes
    every value once instead of a seeded value per stratum.
    """
    items = [Item("verify", ("verify", "--max", str(m))) for m in range(12, 25)]
    x_strata = ((0.5, 2.0), (2.0, 10.0), (10.0, 50.0), (50.0, 200.0), (200.0, 400.0))
    for _ in range(40):
        orders = rng.sample(range(1, 13), 3) + [k + 0.5 for k in rng.sample(range(1, 12), 3)]
        xs = [float(f"{_log_uniform(rng, lo, hi):.6g}") for lo, hi in x_strata]
        argv = ("bessel", "--orders", *map(str, orders), "--xs", *map(str, xs))
        items.append(Item("bessel", argv))
    # order 1/2 has a zero residual envelope, so the rounding of main_term
    # alone breaks the envelope test although the value is right
    items.append(Item("bessel", ("bessel", "--orders", "0.5", "--xs", "100"), known_fault=True))
    return items


_GENERATORS = {
    "series_grid": _series_grid,
    "quad_sweep": _quad_sweep,
    "frames_sim": _frames_sim,
    "exact_certify": _exact_certify,
}


def generate(workload: str, seed: int) -> list[Item]:
    """One round of the workload, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    items = _GENERATORS[workload](rng)
    rng.shuffle(items)
    items.sort(key=lambda item: not item.leads_round)
    return items


# fixed small items, one per kind: the untimed warm-up of each workload
_WARMUP = {
    "series_grid": [
        _limit_item("limit_series", 4, 100.375, 1.0, "bessel_series"),
    ],
    "quad_sweep": [
        Item("bounds_slope", ("bounds", "--slope", "--d-list", "3", "--eps", "0.25",
                              "--kmin", "100", "--kmax", "200", "--points", "4"), {"d": 3}),
        Item("bounds_report", ("bounds", "--d", "4", "--r", "100.375"),
             {"d": 4, "r": 100.375, "delta": 1.0}),
        _limit_item("limit_quadrature", 3, 2000.3, 1.0, "quadrature"),
    ],
    "frames_sim": [
        Item("simulate", ("simulate", "--d", "2", "--N", "20000", "--delta", "0.1",
                          "--r", "1.03", "--frame", "harmonic"),
             {"frame": "harmonic", "d": 2, "N": 20000, "delta": 0.1, "r": 1.03, "seed": 0}),
        _limit_item("limit_mc", 3, 0.203, 0.1, "monte_carlo", samples=100000),
        Item("equidist", None, {"d": 3, "N": 20000, "seed": 1, "degree": 4}),
    ],
    "exact_certify": [
        Item("verify", ("verify", "--max", "6")),
        Item("bessel", ("bessel", "--orders", "1", "1.5", "--xs", "5", "400")),
    ],
}


def warmup(workload: str) -> list[Item]:
    return list(_WARMUP[workload])


def probe() -> list[Item]:
    """The warm-up items of every workload: one small call into each layer."""
    return [item for workload in WORKLOADS for item in _WARMUP[workload]]


# ---------------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------------

def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def reference(item: Item):
    """The independent reference for one item (computed once per item)."""
    p = item.params
    if item.kind in ("limit_series", "limit_mc", "bounds_report"):
        return oracle.limit_oracle(p["d"], p["r"], p["delta"])
    if item.kind == "limit_quadrature":
        return oracle.limit_d3_closed_form(p["r"], p["delta"])
    if item.kind == "simulate":
        error, defect = oracle.simulate_reference(p["frame"], p["d"], p["N"], p["delta"],
                                                  p["r"], p["seed"])
        return {"error": error, "defect": defect,
                "limit": oracle.limit_oracle(p["d"], p["r"], p["delta"])}
    if item.kind == "equidist":
        vectors = oracle.frame_vectors("random", p["d"], p["N"], p["seed"])
        return oracle.equidistribution_reference(vectors, p["degree"])
    if item.kind == "bessel":
        argv = list(item.argv)
        orders = [float(v) for v in argv[argv.index("--orders") + 1:argv.index("--xs")]]
        xs = [float(v) for v in argv[argv.index("--xs") + 1:]]
        return {(o, x): oracle.bessel_j(o, x) for o in orders for x in xs}
    return None


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= rel * abs(b) + abs_


def check(item: Item, output, ref) -> bool:
    """True when the item's output agrees with its reference.

    ``output`` is the text of the item's CSV (CLI items) or the returned
    value (library items).
    """
    if item.argv is None:  # equidistribution diagnostic
        return _close(output, ref, 1e-9, 1e-13)
    rows = _rows(output)
    if item.kind in ("limit_series", "limit_quadrature", "limit_mc"):
        (row,) = rows
        value, err = float(row["value"]), float(row["error_estimate"])
        if item.kind == "limit_mc":
            return abs(value - ref) <= 4.0 * err
        return abs(value - ref) <= err
    if item.kind == "bounds_report":
        (row,) = rows
        return (row["window_ok"] == "True"
                and float(row["lower"]) <= ref <= float(row["upper_scaling"]))
    if item.kind == "bounds_slope":
        (row,) = rows
        return abs(float(row["slope"]) - (int(row["d"]) + 1) / 2.0) <= 0.05
    if item.kind == "simulate":
        (row,) = rows
        return (_close(float(row["E_delta"]), ref["error"], 1e-9)
                and _close(float(row["tightness_defect"]), ref["defect"], 1e-9, 1e-13)
                and _close(float(row["limit_value"]), ref["limit"], 1e-6))
    if item.kind == "verify":
        return len(rows) == 6 and all(row["ok"] == "True" for row in rows)
    if item.kind == "bessel":
        if len(rows) != len(ref):
            return False
        for row in rows:
            truth = ref[(float(row["order"]), float(row["x"]))]
            allowance = float(row["abs_error_bound"]) + 4 * EPS * abs(truth)
            if abs(float(row["value"]) - truth) > allowance:
                return False
        return True
    raise ValueError(f"no check for item kind {item.kind!r}")
