import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(p50, items_per_s):
    metrics = {"setup_s": (0.2, "s"), "items_per_s": (items_per_s, "1/s"),
               "item_ms_p50": (p50, "ms"), "item_ms_p90": (2 * p50, "ms"),
               "peak_rss_mb": (38.0, "MB")}
    return {"correct": True, "attempted": 100, "failed": 0,
            "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}}


def test_summarize_pairs_each_seed_and_counts_the_pairs_the_change_wins(tmp_path):
    # five pairs, in alternating order, and one parent run without its pair
    runs = [("parent", 1, 0.50), ("change", 1, 0.40), ("change", 2, 0.42), ("parent", 2, 0.48),
            ("parent", 3, 0.46), ("change", 3, 0.47), ("change", 4, 0.41), ("parent", 4, 0.52),
            ("parent", 5, 0.49), ("change", 5, 0.44), ("parent", 6, 0.10)]
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps({"side": side, "seed": seed, "workload": "series_grid",
                                       "result": _result(p50, 1.0 / p50)}) + "\n"
                           for side, seed, p50 in runs))
    out = tmp_path / "BENCH.json"
    assert _bench_pairs().main(["summarize", str(log), "--parent-commit", "abc",
                                "--change-commit", "def", "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["seeds"] == [1, 2, 3, 4, 5]
    assert bench["first"] == ["parent", "change", "parent", "change", "parent"]
    p50 = bench["parent"]["metrics"]["item_ms_p50"]
    assert (p50["median"], p50["q1"], p50["q3"]) == (0.49, 0.48, 0.50)
    assert bench["change"]["metrics"]["item_ms_p50"]["runs"] == [0.40, 0.42, 0.47, 0.41, 0.44]
    assert bench["paired"]["item_ms_p50"]["change_better_in"] == "4/5"
    assert bench["paired"]["items_per_s"]["change_better_in"] == "4/5"
    assert bench["paired"]["peak_rss_mb"]["change_better_in"] == "0/5"
    assert (bench["parent"]["commit"], bench["change"]["commit"]) == ("abc", "def")
    assert bench["change"]["failed"] == [0] * 5
