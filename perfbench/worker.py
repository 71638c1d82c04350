"""One workload in one process: set up, run whole rounds for the given time, check.

Started by ``run.py``, which times the set-up from outside.  The worker
prints ``ready`` once its set-up is done (imports, input generation, one
untimed warm-up item of each kind) and, unless ``--setup-only`` is given,
one JSON line with the run's result when it ends.

Timed runs (``--trace 0``) are a closed loop with one caller: the next
item starts when the previous one has returned.  Traced runs (``--trace
1``) alternate rounds without and with the span wrappers, so that the
tracing overhead is measured in the same process, then trace the probe
items once (see ``tracing.per_layer_metrics``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads

_malloc_trim = ctypes.CDLL(None).malloc_trim  # glibc


class Runner:
    """Executes items of one workload against ``framepcm`` and keeps their outputs."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        from framepcm import cli, frames

        self.cli = cli
        self.frames = frames
        self.outdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch))
        self.round = workloads.generate(workload, seed)
        self.warmup = workloads.warmup(workload)
        self._frames = {}
        for item in self.round + self.warmup:
            if item.argv is None:
                self._frame(item.params)
        self.sink = open(os.devnull, "w")
        # per round position: {(exit code, output) seen}; outputs are
        # deterministic, so each set normally holds one entry
        self.outputs = [dict() for _ in self.round]
        self.times: list[float] = []

    def _frame(self, p):
        """The input frame of an equidistribution item, built once."""
        key = (p["d"], p["N"], p["seed"])
        if key not in self._frames:
            self._frames[key] = self.frames.random_sphere_frame(*key)
        return self._frames[key]

    def execute(self, item, tracer=None):
        """Run one item; returns (exit code, output).  Only the call is timed,
        inside the item's root span when ``tracer`` is given."""
        path = None
        if item.argv is None:
            p = item.params
            frame = self._frame(p)
            call = lambda: (0, self.frames.equidistribution_diagnostic(frame, p["degree"]))
        else:
            path = self.outdir / item.output_file
            path.unlink(missing_ok=True)
            argv = ["--outdir", str(self.outdir), *item.argv]
            call = lambda: (self.cli.main(argv), None)
        with tracer.item(item.kind) if tracer else contextlib.nullcontext():
            t0 = perf_counter()
            try:
                code, out = call()
            except Exception as exc:  # an item that crashes is a failed item
                code, out = f"{type(exc).__name__}: {exc}", None
            self.times.append(perf_counter() - t0)
        if path is not None and path.exists():
            out = path.read_text()
        return code, out

    def run_round(self, tracer=None) -> int:
        # each round starts from a heap that holds no free memory left by
        # the round before, so that peak_rss_mb does not depend on how the
        # allocator kept it; once per round, the cost is lost in the noise
        _malloc_trim(0)
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            for pos, item in enumerate(self.round):
                code, out = self.execute(item, tracer)
                seen = self.outputs[pos]
                seen[(code, out)] = seen.get((code, out), 0) + 1
        return len(self.round)

    def run_untimed(self, items, tracer=None) -> None:
        """Warm-up and probe items: neither timed nor checked."""
        saved, self.times = self.times, []
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            for item in items:
                self.execute(item, tracer)
        self.times = saved

    def verdict(self):
        """(attempted, failed, correct) over every execution of the round."""
        attempted = failed = 0
        correct = True
        for item, seen in zip(self.round, self.outputs):
            ref = None
            for (code, out), times in seen.items():
                attempted += times
                if code != 0 or out is None:
                    failed += times
                    if not item.known_fault:
                        print(f"unexpected failure ({code}): {item.label}", file=sys.stderr)
                    continue
                if ref is None:
                    ref = workloads.reference(item)
                if not workloads.check(item, out, ref):
                    failed += times
                    correct = False
                    print(f"wrong output: {item.label}", file=sys.stderr)
        return attempted, failed, correct

    def close(self):
        self.sink.close()
        shutil.rmtree(self.outdir, ignore_errors=True)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(runner: Runner, seconds: float) -> dict:
    start = perf_counter()
    items = 0
    while True:
        items += runner.run_round()
        wall = perf_counter() - start
        if wall >= seconds:
            break
    peak = _rss_mb()
    times = runner.times
    return {
        "items_per_s": {"value": items / wall, "unit": "1/s"},
        "item_ms_p50": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "item_ms_p90": {"value": statistics.quantiles(times, n=10)[8] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def traced_run(runner: Runner, seconds: float, trace_path: Path) -> dict:
    import tracing
    from framepcm import special_fn

    tracer = tracing.Tracer(special_fn.gauss_legendre)
    walls = {False: 0.0, True: 0.0}
    counts = {False: 0, True: 0}
    start = perf_counter()
    traced = False
    while True:
        if traced:
            tracer.install()
        t0 = perf_counter()
        try:
            counts[traced] += runner.run_round(tracer if traced else None)
        finally:
            walls[traced] += perf_counter() - t0
            tracer.uninstall()
        traced = not traced
        if perf_counter() - start >= seconds and not traced:
            break
    workload_items = len(tracer.items)
    runner.run_untimed(workloads.probe())  # fills the caches the probe items use
    tracer.install()
    try:
        runner.run_untimed(workloads.probe(), tracer)
    finally:
        tracer.uninstall()
    tracer.write_jsonl(trace_path)
    metrics = tracing.per_layer_metrics(tracer.items[:workload_items],
                                        tracer.items[workload_items:])
    plain, with_spans = counts[False] / walls[False], counts[True] / walls[True]
    metrics["trace.overhead_pct"] = {"value": 100.0 * (1.0 - with_spans / plain), "unit": "%"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed, args.scratch)
    try:
        runner.run_untimed(runner.warmup)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            trace_path = args.scratch / f"trace-{args.workload}-{args.seed}.jsonl"
            metrics = traced_run(runner, args.seconds, trace_path)
        else:
            metrics = timed_run(runner, args.seconds)
        attempted, failed, correct = runner.verdict()
    finally:
        runner.close()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
