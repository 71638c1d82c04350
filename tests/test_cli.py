import csv
import json
from pathlib import Path

import pytest

from framepcm.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, EXIT_PRECISION, main


def run(tmp_path, *argv):
    return main(["--outdir", str(tmp_path)] + list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_verify(tmp_path):
    assert run(tmp_path, "verify", "--max", "8") == EXIT_OK
    rows = read_csv(tmp_path / "verify.csv")
    assert len(rows) == 6 and all(r["ok"] == "True" for r in rows)


def test_bessel_grid(tmp_path):
    assert run(tmp_path, "bessel", "--orders", "1", "2.5", "--xs", "1", "10", "30") == EXIT_OK
    rows = read_csv(tmp_path / "bessel.csv")
    assert len(rows) == 6
    assert all(r["envelope_ok"] == "True" for r in rows)


def test_limit_all_methods(tmp_path):
    code = run(tmp_path, "limit", "--d", "3", "--r", "10.25", "--delta", "1",
               "--methods", "all", "--samples", "50000", "--seed", "1")
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "limit.csv")
    assert {r["method"] for r in rows} == {"quadrature", "bessel_series", "monte_carlo"}
    assert list(rows[0].keys()) == ["r", "delta", "eps", "d", "method", "value", "error_estimate"]


def test_limit_rerun_from_config_reproduces(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["--outdir", str(out1), "limit", "--d", "3", "--r", "7.25",
                 "--delta", "1", "--methods", "monte_carlo",
                 "--samples", "20000", "--seed", "3"]) == EXIT_OK
    cfg = out1 / "run_config_limit.json"
    assert cfg.exists()
    assert main(["--outdir", str(out2), "--config", str(cfg)]) == EXIT_OK
    assert (out1 / "limit.csv").read_text() == (out2 / "limit.csv").read_text()


def test_commands_in_one_process_share_no_state(tmp_path):
    # the parser is built once per process; flags of one call must not
    # leak into the next, nor into a --config rerun
    first = ["limit", "--d", "3", "--r", "10.25", "--delta", "1",
             "--methods", "quadrature,bessel_series"]
    assert main(["--outdir", str(tmp_path / "a")] + first) == EXIT_OK
    assert main(["--outdir", str(tmp_path / "b"), "bounds", "--d", "4",
                 "--r", "1000.375"]) == EXIT_OK
    assert main(["--outdir", str(tmp_path / "c"), "limit", "--d", "5", "--r", "20.3",
                 "--delta", "0.5", "--methods", "bessel_series", "--tol", "1e-12",
                 "--agree-rtol", "1e-3"]) == EXIT_OK
    cfg = tmp_path / "a" / "run_config_limit.json"
    assert main(["--outdir", str(tmp_path / "d"), "--config", str(cfg)]) == EXIT_OK
    assert (tmp_path / "a" / "limit.csv").read_bytes() == (tmp_path / "d" / "limit.csv").read_bytes()
    assert cfg.read_bytes() == (tmp_path / "d" / "run_config_limit.json").read_bytes()
    bad = tmp_path / "bad.json"
    params = dict(json.loads(cfg.read_text())["parameters"], no_such_flag=1)
    bad.write_text(json.dumps({"subcommand": "limit", "parameters": params}))
    assert main(["--outdir", str(tmp_path / "e"), "--config", str(bad)]) == EXIT_CONFIG


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d, r", [("4", "1000000000.375"), ("40", "100.375")])
def test_limit_series_at_huge_hankel_arguments_exits_cleanly(tmp_path, d, r):
    # an exception escaping main would fail the test with its traceback
    code = run(tmp_path, "limit", "--d", d, "--r", r, "--delta", "1",
               "--methods", "bessel_series")
    assert code in (EXIT_OK, EXIT_PRECISION)


def test_bounds_point_and_slope(tmp_path):
    assert run(tmp_path, "bounds", "--d", "5", "--r", "100.25", "--delta", "1") == EXIT_OK
    code = run(tmp_path, "bounds", "--slope", "--d-list", "3", "--eps", "0.25",
               "--kmin", "60", "--kmax", "300", "--points", "5")
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "slopes.csv")
    assert rows[0]["ok"] == "True"


def test_bounds_defect_cell_fails(tmp_path):
    code = run(tmp_path, "bounds", "--d", "4", "--r", "100.375", "--delta", "1",
               "--paper-phase")
    assert code == EXIT_CHECK_FAILED


def test_bounds_defect_cell_passes_by_default(tmp_path):
    assert run(tmp_path, "bounds", "--d", "4", "--r", "100.375", "--delta", "1") == EXIT_OK


def test_bounds_report_runs_one_quadrature(tmp_path, monkeypatch, capsys):
    from framepcm import QuantScheme, limit_error, limiting_error

    expected = limiting_error([1000.375, 0.0, 0.0, 0.0], QuantScheme(1.0)).value
    calls = []
    quad = limit_error._quad_integral

    def counting(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(limit_error, "_quad_integral", counting)
    capsys.readouterr()
    assert run(tmp_path, "bounds", "--d", "4", "--r", "1000.375") == EXIT_OK
    assert len(calls) == 1
    # the limit printed from the sandwich's integral is the limit itself
    assert f"limiting error (quadrature): {expected:.6e}" in capsys.readouterr().out


def test_bounds_report_outside_window_still_prints_limit(tmp_path, capsys):
    # eps = 0.1 is outside the even window: no sandwich, the limit is computed
    assert run(tmp_path, "bounds", "--d", "4", "--r", "100.1") == EXIT_OK
    out = capsys.readouterr().out
    assert "limiting error (quadrature): " in out and "hypothesis unmet" in out


def test_bessel_half_order_envelope_allows_main_term_rounding(tmp_path):
    # order 1/2 has an exact leading term (zero residual envelope); the
    # check must still leave room for the rounding of main_term
    assert run(tmp_path, "bessel", "--orders", "0.5",
               "--xs", "100", "82.47", "135.06", "266.32") == EXIT_OK


def test_config_with_unknown_parameter_is_rejected(tmp_path):
    # the pre-rename bounds flag: silently dropping it would change the kernel
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"subcommand": "bounds",
                               "parameters": {"d": 4, "r": 100.375, "delta": 1.0,
                                              "order_matched_phase": False}}))
    assert main(["--outdir", str(tmp_path), "--config", str(cfg)]) == EXIT_CONFIG


def test_simulate(tmp_path):
    assert run(tmp_path, "simulate", "--d", "2", "--N", "4000", "--delta", "0.5",
               "--r", "3.26", "--seed", "2", "--frame", "harmonic") == EXIT_OK
    rows = read_csv(tmp_path / "simulate.csv")
    assert rows[0]["frame"] == "harmonic"
    assert float(rows[0]["E_delta"]) > 0


def test_report_and_plot_script(tmp_path):
    run(tmp_path, "verify", "--max", "5")
    out = tmp_path / "summary.json"
    script = tmp_path / "plot.py"
    assert run(tmp_path, "report", "--inputs", str(tmp_path / "verify.csv"),
               "--out", str(out), "--plot-script", str(script)) == EXIT_OK
    summary = json.loads(out.read_text())
    entry = summary[str(tmp_path / "verify.csv")]
    assert entry["rows"] == 6 and entry["ok_failures"] == 0
    assert "matplotlib" in script.read_text()


def test_exit_codes(tmp_path):
    assert run(tmp_path, "limit", "--d", "1", "--r", "5", "--delta", "1") == EXIT_CONFIG
    assert run(tmp_path, "limit", "--d", "3", "--r", "5.5", "--delta", "1",
               "--methods", "bessel_series", "--tol", "1e-30") == EXIT_PRECISION
    with pytest.raises(SystemExit) as info:
        main(["limit", "--bogus", "3"])  # unknown flag -> argparse config error
    assert info.value.code == 2


def test_no_subcommand_is_config_error(tmp_path):
    assert run(tmp_path) == EXIT_CONFIG
