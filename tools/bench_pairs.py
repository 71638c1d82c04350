#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarized as a BENCH file.

    python3 tools/bench_pairs.py run PARENT_DIR CHANGE_DIR --workload W --seeds 1-7 --log L.jsonl
    python3 tools/bench_pairs.py summarize L.jsonl --parent-commit C --change-commit C \
        --out BENCH_W.json

``run`` takes two source checkouts, the parent's and the change's, and for
each seed runs the unmodified ``python3 perfbench/run.py --workload W --seed
S --seconds 25 --trace 0`` once in each, from the checkout's root; the side
that runs first alternates from pair to pair, so that a drift of the
machine does not favour one side.  Each run appends one line to the log:
``{"side", "seed", "workload", "result"}``, ``result`` being the last line
run.py printed.

``summarize`` reads such a log and writes one JSON file: the command, the
seeds and, per seed, the side that ran first, the machine (nproc, CPU, Python and numpy versions), both sides'
commits (a hash, or words where the change is not committed yet), per
side and metric the runs, their median and quartiles
(``statistics.quantiles``, inclusive method), the attempted and failed
item counts, and per metric the paired comparison: the median of the
per-pair changes in percent and the number of pairs in which the change
was better.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

_BETTER = {"setup_s": "lower", "items_per_s": "higher", "item_ms_p50": "lower",
           "item_ms_p90": "lower", "peak_rss_mb": "lower"}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(args) -> int:
    sides = {"parent": Path(args.parent), "change": Path(args.change)}
    for i, seed in enumerate(_seeds(args.seeds)):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
                 str(seed), "--seconds", "25", "--trace", "0"],
                cwd=sides[side], capture_output=True, text=True, check=True).stdout
            line = {"side": side, "seed": seed, "workload": args.workload,
                    "result": json.loads(out.strip().splitlines()[-1])}
            with open(args.log, "a") as fh:
                fh.write(json.dumps(line) + "\n")
    return 0


def _machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for text in Path("/proc/cpuinfo").read_text().splitlines():
            if text.startswith("model name"):
                cpu = text.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": 1}


def _stats(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def _summarize(args) -> int:
    runs = [json.loads(text) for text in Path(args.log).read_text().splitlines() if text]
    workloads = {run["workload"] for run in runs}
    if len(workloads) != 1:
        raise SystemExit(f"one workload per log, got {sorted(workloads)}")
    by_seed: dict = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]
    seeds = sorted(seed for seed, pair in by_seed.items() if len(pair) == 2)
    sides = {}
    for side in ("parent", "change"):
        results = [by_seed[seed][side] for seed in seeds]
        sides[side] = {
            "metrics": {name: {"unit": results[0]["metrics"][name]["unit"],
                               **_stats([r["metrics"][name]["value"] for r in results])}
                        for name in _BETTER},
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": [r["correct"] for r in results],
        }
    sides["parent"]["commit"] = args.parent_commit
    sides["change"]["commit"] = args.change_commit
    paired = {}
    for name, better in _BETTER.items():
        a, b = sides["parent"]["metrics"][name]["runs"], sides["change"]["metrics"][name]["runs"]
        wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(a, b))
        paired[name] = {"better": better,
                        "median_change_pct": statistics.median(100.0 * (y / x - 1.0)
                                                               for x, y in zip(a, b)),
                        "change_better_in": f"{wins}/{len(seeds)}"}
    workload = workloads.pop()
    bench = {
        "workload": workload,
        "command": f"python3 perfbench/run.py --workload {workload} --seed S --seconds 25 "
                   "--trace 0",
        "seeds": seeds,
        "first": [next(iter(by_seed[seed])) for seed in seeds],
        "machine": _machine(),
        "parent": sides["parent"],
        "change": sides["change"],
        "paired": paired,
    }
    Path(args.out).write_text(json.dumps(bench, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("parent")
    run.add_argument("change")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", required=True, help="first-last, e.g. 1-7")
    run.add_argument("--log", required=True)
    summ = sub.add_parser("summarize")
    summ.add_argument("log")
    summ.add_argument("--parent-commit", required=True)
    summ.add_argument("--change-commit", required=True)
    summ.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    return _run(args) if args.command == "run" else _summarize(args)


if __name__ == "__main__":
    sys.exit(main())
