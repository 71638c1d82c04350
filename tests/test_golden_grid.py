import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_grid.py"


def _golden_grid():
    spec = importlib.util.spec_from_file_location("golden_grid", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports_per_prefix_and_against_own_bound(tmp_path, capsys):
    base = {
        "alternating_bessel_sum/order=2.0/R=10.25/value": "1.0",
        "alternating_bessel_sum/order=2.0/R=10.25/abs_error_bound": "1e-10",
        "alternating_bessel_sum/order=2.0/R=10.25/K": "64",
        "limit/bessel_series/d=4/R=10.25/delta=1.0/value": "2.0",
        "limit/bessel_series/d=4/R=10.25/delta=1.0/error_estimate": "4e-12",
        "zeta_tail/p=2.0": "0.6",
    }
    moved = dict(base)
    moved["alternating_bessel_sum/order=2.0/R=10.25/value"] = repr(1.0 + 2e-12)
    moved["limit/bessel_series/d=4/R=10.25/delta=1.0/value"] = repr(2.0 + 1e-12)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(moved))
    tool = _golden_grid()

    assert tool.compare(str(a), str(a)) == 0
    capsys.readouterr()
    assert tool.compare(str(a), str(b)) == 1
    out = capsys.readouterr().out
    assert "|dvalue|/bound 0.02" in out  # 2e-12 over 1e-10
    assert "prefix alternating_bessel_sum: 1 keys differ" in out
    assert "prefix limit/bessel_series: 1 keys differ" in out
    assert "largest |dvalue|/bound 0.25" in out  # 1e-12 over 4e-12
    assert "zeta_tail" not in out


def test_compare_divides_by_each_files_own_bound(tmp_path, capsys):
    # a move of 1.9e-12 that B's tighter bound does not cover, although A's does
    key = "alternating_bessel_sum/order=7.5/R=100.5"
    a = {f"{key}/value": "1e-3", f"{key}/abs_error_bound": repr(1.9e-12 / 0.63)}
    b = {f"{key}/value": repr(1e-3 + 1.9e-12), f"{key}/abs_error_bound": "1e-12"}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert _golden_grid().compare(str(pa), str(pb)) == 1
    out = capsys.readouterr().out
    assert "|dvalue|/bound 0.63 of A, 1.9 of B" in out
    assert "largest |dvalue|/bound 0.63 of A, 1.9 of B" in out


def test_compare_tells_removed_and_added_keys_from_moved_ones(tmp_path, capsys):
    # a closed form that returned a (rational, scale) pair and now returns
    # the rational alone: two keys only in A, one only in B, none moved
    at = "combinatorics/L_closed/n=2/m=0"
    a = {f"{at}/rational": "Fraction(1, 4)", f"{at}/scale": "2", "zeta_tail/p=2.0": "0.6"}
    b = {at: "Fraction(1, 4)", "zeta_tail/p=2.0": repr(0.6 + 1e-16)}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert _golden_grid().compare(str(pa), str(pb)) == 1
    out = capsys.readouterr().out
    assert f"{at}/rational: only in A (Fraction(1, 4))" in out
    assert f"{at}: only in B (Fraction(1, 4))" in out
    assert "<missing>" not in out and "inf" not in out
    assert "prefix combinatorics/L_closed: 3 keys differ: 2 only in A, 1 only in B, 0 moved\n" in out
    assert "prefix zeta_tail: 1 keys differ: 0 only in A, 0 only in B, 1 moved" in out
    assert "4 of 4 keys differ; largest relative difference of a moved key 1.85e-16" in out
