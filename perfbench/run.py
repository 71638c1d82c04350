"""framepcm benchmark: one workload per invocation, each in its own process.

    python3 perfbench/run.py --workload series_grid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output
is one JSON object with the end-to-end metrics (``setup_s``,
``items_per_s``, ``item_ms_p50``, ``item_ms_p90``, ``peak_rss_mb``), with
``--trace 1`` the per-layer metrics from a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"

SETUP_PROBES = 4  # set-up-only processes in addition to the measured one
TIMEOUT_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    # one thread per process, BLAS included
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _start(args, extra, deadline):
    """Start a worker and wait until it reports ``ready``; returns (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(SCRATCH), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    if perf_counter() > deadline:
        proc.kill()
        proc.wait()
        raise RuntimeError("set-up exceeded the time limit")
    return proc, setup


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "framepcm" / "cli.py").is_file():
        print(f"framepcm sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = perf_counter() + TIMEOUT_S
    SCRATCH.mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, setup = _start(args, ["--setup-only"], deadline)
                _finish(proc, deadline)
                setups.append(setup)
        proc, setup = _start(args, [], deadline)
        setups.append(setup)
        out = _finish(proc, deadline)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
