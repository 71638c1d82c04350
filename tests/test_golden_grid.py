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
