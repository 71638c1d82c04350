import contextlib
import csv
import dataclasses
import json
import math
import os
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


VERIFY_SUITES = ("weighted-binomial closed form", "vanishing telescoped sum",
                 "telescoping certificate", "Gould convolution", "even coefficient identity",
                 "odd coefficient identity")


@pytest.mark.parametrize("mx", [*range(1, 9), 24, 30])
def test_verify_writes_the_same_bytes(tmp_path, capsys, mx):
    # the table and the lines that verify printed when it ran each suite as
    # one call of its public check per index tuple
    assert run(tmp_path, "verify", "--max", str(mx)) == EXIT_OK
    assert capsys.readouterr().out == "".join(
        f"[PASS] {name} (indices <= {mx})\n" for name in VERIFY_SUITES)
    assert (tmp_path / "verify.csv").read_bytes() == ("suite,max_index,ok\r\n" + "".join(
        f"{name},{mx},True\r\n" for name in VERIFY_SUITES)).encode()


def test_verify_calls_no_public_check(tmp_path, monkeypatch):
    from framepcm import combinatorics as comb

    calls = []
    for name in ("weighted_sum_A", "check_identity_A", "check_identity_B", "gosper_g",
                 "gosper_certificate", "check_gould", "check_coeff_identity_even",
                 "check_coeff_identity_odd"):
        monkeypatch.setattr(comb, name, lambda *a, name=name: calls.append(name))
    assert run(tmp_path, "verify", "--max", "5") == EXIT_OK
    assert calls == []


def test_bessel_grid(tmp_path):
    assert run(tmp_path, "bessel", "--orders", "1", "2.5", "--xs", "1", "10", "30") == EXIT_OK
    rows = read_csv(tmp_path / "bessel.csv")
    assert len(rows) == 6
    assert all(r["envelope_ok"] == "True" for r in rows)


@pytest.mark.parametrize("argv", [("verify", "--max", "0"), ("verify", "--max", "-3"),
                                  ("bessel", "--orders", "2.7", "--xs", "2"),
                                  ("bessel", "--orders", "0.3", "--xs", "2"),
                                  ("bessel", "--orders", "-1", "--xs", "2"),
                                  ("bessel", "--orders", "inf", "--xs", "2"),
                                  ("bessel", "--orders", "1", "--xs", "nan"),
                                  ("bessel", "--orders", "1", "--xs", "inf"),
                                  ("bessel", "--orders", "1", "--xs", "-1")])
def test_inputs_that_would_check_nothing_or_something_else_are_config_errors(
        tmp_path, capsys, argv):
    # verify over empty ranges passed vacuously; a non-half-integer order was
    # rounded to the nearest half-integer one under its own label; x = nan
    # ran the quadrature out of budget and x = inf for minutes
    assert run(tmp_path, *argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "config" and "Traceback" not in err
    assert not (tmp_path / f"{argv[0]}.csv").exists()


def test_limit_all_methods(tmp_path):
    code = run(tmp_path, "limit", "--d", "3", "--r", "10.25", "--delta", "1",
               "--methods", "all", "--samples", "50000", "--seed", "1")
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "limit.csv")
    assert {r["method"] for r in rows} == {"quadrature", "bessel_series", "monte_carlo"}
    assert list(rows[0].keys()) == ["r", "delta", "eps", "d", "method", "value", "error_estimate"]


def test_monte_carlo_verdict_is_uninformative_when_3_sigma_spans_the_value(tmp_path, capsys):
    # 3 sigma of 1e4 samples is ~300x the limit at R = 1000.375: agreement
    # within it says nothing, and is no failure either
    code = run(tmp_path, "limit", "--d", "3", "--r", "1000.375", "--delta", "1",
               "--methods", "quadrature,monte_carlo", "--samples", "10000")
    assert code == EXIT_OK
    assert "quadrature vs Monte Carlo agreement: UNINFORMATIVE" in capsys.readouterr().out


def test_series_verdict_is_uninformative_when_the_estimates_span_the_value(tmp_path, capsys):
    # at d = 8, R = 3000.375 the quadrature's estimate (1.1e-11) is ~2600x
    # the limit, so its 3.7e-15 miss of the series value shows nothing
    code = run(tmp_path, "limit", "--d", "8", "--r", "3000.375", "--delta", "1",
               "--methods", "quadrature,bessel_series")
    assert code == EXIT_OK
    assert "quadrature vs series agreement: UNINFORMATIVE" in capsys.readouterr().out


def test_series_verdict_fails_on_a_miss_beyond_both_estimates(tmp_path, capsys, monkeypatch):
    from framepcm import cli

    real = cli.limiting_error

    def off_by_1e_3(sig, scheme, method, tol):
        res = real(sig, scheme, method=method, tol=tol)
        if res.method.value == "bessel_series":
            res = dataclasses.replace(res, value=res.value * (1 + 1e-3))
        return res

    monkeypatch.setattr(cli, "limiting_error", off_by_1e_3)
    argv = ["limit", "--d", "4", "--r", "100.375", "--delta", "1",
            "--methods", "quadrature,bessel_series"]
    assert run(tmp_path, *argv) == EXIT_CHECK_FAILED
    assert "quadrature vs series agreement: FAIL" in capsys.readouterr().out
    monkeypatch.undo()
    assert run(tmp_path, *argv) == EXIT_OK
    assert "quadrature vs series agreement: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("d, r", [("20", "12.3"), ("3", "4000000.7")])
def test_series_verdict_is_uninformative_where_the_estimates_cover_the_difference(
        tmp_path, capsys, d, r):
    # the routes differ by 3.4e-15 at d = 20, R = 12.3 and by 2.3e-10 at
    # d = 3, R = 4e6 + 0.7, inside the quadrature's estimates of 7.3e-14 and
    # 2.0e-9: a referee that resolves only 3.8e-4 and 8.1e-3 of the value
    # shows no disagreement, and no agreement within 1e-6 either
    argv = ["limit", "--d", d, "--r", r, "--delta", "1", "--methods", "quadrature,bessel_series"]
    assert run(tmp_path, *argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "quadrature vs series agreement: UNINFORMATIVE" in out
    assert "relative accuracy" in out and "> 1.0e-06)" in out


def test_monte_carlo_verdict_where_the_scale_leaves_binary64(tmp_path, capsys):
    # at d = 500, R = 20.3 the scale delta^s / r^(s-1) underflows: the verdict
    # measures the estimates against the value alone
    assert run(tmp_path, "limit", "--d", "500", "--r", "20.3", "--delta", "1",
               "--methods", "quadrature,monte_carlo", "--samples", "2000") == EXIT_OK
    assert "quadrature vs Monte Carlo agreement: UNINFORMATIVE" in capsys.readouterr().out


def test_series_where_a_factor_of_the_scale_overflows(tmp_path, capsys):
    # R = 10 and the scale delta^2/r is 1e198, but delta^2 overflows: this
    # exited 3 with "the order-1.5 series prefactor leaves binary64"
    argv = ["limit", "--d", "3", "--r", "1e200", "--delta", "1e199"]
    assert run(tmp_path, *argv, "--methods", "bessel_series") == EXIT_OK
    assert run(tmp_path, *argv, "--methods", "quadrature,bessel_series") == EXIT_OK
    assert "quadrature vs series agreement: PASS" in capsys.readouterr().out


def test_auto_names_the_series_cause_where_its_fall_back_fails_too(tmp_path, capsys):
    # the order-28 prefactor underflows at R = 1.95e11, where the quadrature
    # needs 3.9e11 nodes: this named the node cap alone
    assert run(tmp_path, "limit", "--d", "56", "--r", "195416737208.00534", "--delta", "1",
               "--methods", "auto") == EXIT_PRECISION
    detail = json.loads(capsys.readouterr().err)["detail"]
    assert (detail.index("the order-28 series prefactor leaves binary64")
            < detail.index("piecewise quadrature needs more than 16777216 nodes"))


def _p3_points(count):
    """Seeded (d, r, delta) of the verdict sweep: d 2..64, R = r/delta
    log-uniform in [1, 3e5], delta 1, 0.37 or log-uniform in [1e-3, 1e3]."""
    import random

    rng = random.Random(31)
    points = []
    for i in range(count):
        d = rng.randint(2, 64)
        R = 10 ** rng.uniform(0.0, math.log10(3e5))
        delta = (1.0, 0.37, 10 ** rng.uniform(-3.0, 3.0))[i % 3]
        points.append((d, R * delta, delta))
    return points


def test_quadrature_and_series_never_fail_the_verdict_on_a_seeded_sweep():
    # FAIL means |q - b| > est_q + est_b, one estimate dishonest; points where
    # either route raises PrecisionExhausted have no verdict
    from framepcm.cli import _verdict
    from framepcm.limit_error import Method, limiting_error
    from framepcm.quantization import QuantScheme
    from framepcm.special_fn import PrecisionExhausted

    compared = 0
    for d, r, delta in _p3_points(500):
        x = [r] + [0.0] * (d - 1)
        try:
            quad, series = (limiting_error(x, QuantScheme(delta), method)
                            for method in (Method.QUADRATURE, Method.BESSEL_SERIES))
        except PrecisionExhausted:
            continue
        assert not _verdict("sweep", quad, series.value, series.error_estimate, 0.0, 1e-6), (
            d, r, delta, quad, series)
        compared += 1
    assert compared >= 400


def test_series_verdict_fails_where_a_broken_estimate_misses_the_difference(
        tmp_path, capsys, monkeypatch):
    from framepcm import cli

    real = cli.limiting_error

    def overconfident(sig, scheme, method, tol):
        res = real(sig, scheme, method=method, tol=tol)
        return dataclasses.replace(res, error_estimate=1e-6 * res.error_estimate)

    monkeypatch.setattr(cli, "limiting_error", overconfident)
    argv = ["limit", "--d", "20", "--r", "12.3", "--delta", "1",
            "--methods", "quadrature,bessel_series"]
    assert run(tmp_path, *argv) == EXIT_CHECK_FAILED
    assert "quadrature vs series agreement: FAIL" in capsys.readouterr().out


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


_LIMIT_CONFIG = """{
  "parameters": {
    "agree_rtol": 1e-06,
    "d": 3,
    "delta": 1.0,
    "methods": "quadrature",
    "r": 10.3,
    "samples": 1000000,
    "seed": 0,
    "tol": null
  },
  "subcommand": "limit"
}
"""
_BOUNDS_CONFIG = """{
  "parameters": {
    "d": 4,
    "d_list": [
      3,
      4,
      5
    ],
    "delta": 1.0,
    "eps": null,
    "kmax": 1000,
    "kmin": 100,
    "paper_phase": false,
    "points": 9,
    "r": 100.25,
    "slope": false,
    "slope_tol": 0.05
  },
  "subcommand": "bounds"
}
"""
_BOUND_REPORT = ("d,r,delta,eps,lower,upper_scaling,M,I_const,C_const,window_ok\r\n"
                 "4,100.25,1.0,0.25,1.7842500488021116e-05,0.00021551642086006304,"
                 "0.13882635338559157,2.5464790894703255,0.01790945166580371,True\r\n")


def test_run_config_and_bound_report_bytes(tmp_path):
    # the files as written when RunConfig went through dataclasses.asdict
    # and the report's dict was built once for the screen, once for the CSV
    assert run(tmp_path, "limit", "--d", "3", "--r", "10.3", "--delta", "1",
               "--methods", "quadrature") == EXIT_OK
    assert (tmp_path / "run_config_limit.json").read_bytes() == _LIMIT_CONFIG.encode()
    assert run(tmp_path, "bounds", "--d", "4", "--r", "100.25", "--delta", "1") == EXIT_OK
    assert (tmp_path / "run_config_bounds.json").read_bytes() == _BOUNDS_CONFIG.encode()
    assert (tmp_path / "bound_report.csv").read_bytes() == _BOUND_REPORT.encode()


def test_bounds_defect_cell_fails(tmp_path):
    code = run(tmp_path, "bounds", "--d", "4", "--r", "100.375", "--delta", "1",
               "--paper-phase")
    assert code == EXIT_CHECK_FAILED


def test_bounds_defect_cell_passes_by_default(tmp_path):
    assert run(tmp_path, "bounds", "--d", "4", "--r", "100.375", "--delta", "1") == EXIT_OK


@pytest.mark.parametrize("d, r", [("7", "2.2"), ("12", "49.35")])
def test_bounds_report_below_the_threshold_claims_no_lower_bound(tmp_path, capsys, d, r):
    # eps is in the window but R < 50: the sandwich's hypothesis is unmet,
    # so the report claims nothing and nothing is checked
    assert run(tmp_path, "bounds", "--d", d, "--r", r, "--delta", "1") == EXIT_OK
    assert "below threshold" in capsys.readouterr().out
    (row,) = read_csv(tmp_path / "bound_report.csv")
    assert float(row["lower"]) == 0.0 and row["window_ok"] == "True"


def test_bounds_report_runs_one_integral(tmp_path, monkeypatch, capsys):
    from framepcm import Method, QuantScheme, limit_error, limiting_error

    expected = limiting_error([1000.375, 0.0, 0.0, 0.0], QuantScheme(1.0))
    assert expected.method == Method.BESSEL_SERIES  # AUTO at R >= 100
    calls = []

    def counting(name):
        route = getattr(limit_error, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return route(*args, **kwargs)
        return wrapped

    for name in ("_quad_integral", "_series_integrals"):
        monkeypatch.setattr(limit_error, name, counting(name))
    capsys.readouterr()
    assert run(tmp_path, "bounds", "--d", "4", "--r", "1000.375") == EXIT_OK
    assert calls == ["_series_integrals"]
    # the limit printed from the sandwich's integral is the limit itself,
    # labelled with the route that computed it
    assert f"limiting error (bessel_series): {expected.value:.6e}" in capsys.readouterr().out


def test_bounds_report_outside_window_still_prints_limit(tmp_path, capsys):
    # eps = 0.1 is outside the even window: no sandwich, the limit is computed
    from framepcm import Method, QuantScheme, limiting_error

    lim = limiting_error([100.1, 0.0, 0.0, 0.0], QuantScheme(1.0))
    assert lim.method == Method.BESSEL_SERIES
    assert run(tmp_path, "bounds", "--d", "4", "--r", "100.1") == EXIT_OK
    out = capsys.readouterr().out
    assert f"limiting error (bessel_series): {lim.value:.6e}" in out and "hypothesis unmet" in out


def test_bounds_slope_d8_to_large_R_passes(tmp_path):
    # each point is the AUTO route's certified series; the quadrature,
    # whose estimate exceeds its value at these R, fits 2.73
    code = run(tmp_path, "bounds", "--slope", "--d-list", "8", "--kmin", "1000",
               "--kmax", "5000")
    assert code == EXIT_OK
    assert float(read_csv(tmp_path / "slopes.csv")[0]["slope"]) == pytest.approx(4.5, abs=0.05)


def test_limit_accepts_auto_and_names_the_route(tmp_path):
    assert run(tmp_path, "limit", "--d", "3", "--r", "1000.375", "--delta", "1",
               "--methods", "auto") == EXIT_OK
    assert read_csv(tmp_path / "limit.csv")[0]["method"] == "bessel_series"


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


def _materialized_simulate(kind, d, N, delta, r, seed):
    # (E_delta, tightness defect) of simulate from the whole N x d frame
    import numpy as np

    from framepcm import fibonacci_sphere_frame, harmonic_frame_2d, random_sphere_frame

    v = {"harmonic": lambda: harmonic_frame_2d(N), "fibonacci": lambda: fibonacci_sphere_frame(N),
         "random": lambda: random_sphere_frame(d, N, seed)}[kind]().vectors
    u = np.random.default_rng(seed).standard_normal(d)
    x = r * (u / np.linalg.norm(u))
    q = delta * np.floor(v @ x / delta + 0.5)
    error = float(np.linalg.norm(x - (d / N) * (q @ v)))
    return error, float(np.linalg.norm((d / N) * (v.T @ v) - np.eye(d)))


@pytest.mark.parametrize("kind, d, N", [("harmonic", 2, 70_001), ("fibonacci", 3, 50_001),
                                        ("random", 8, 40_001)])
def test_simulate_of_a_streamed_frame_matches_the_materialized_frame(tmp_path, kind, d, N):
    assert run(tmp_path, "simulate", "--d", str(d), "--N", str(N), "--delta", "0.25",
               "--r", "3.26", "--seed", "3", "--frame", kind) == EXIT_OK
    [row] = read_csv(tmp_path / "simulate.csv")
    error, defect = _materialized_simulate(kind, d, N, 0.25, 3.26, 3)
    # E_delta is ||x - rec||, rec a sum of N terms of size up to ||x||: the
    # two summation orders differ by a few EPS of ||x|| (2.2e-12 of E_delta
    # for Fibonacci, both ~1e-12 off a math.fsum of the products)
    assert abs(float(row["E_delta"]) - error) <= 1e-12 * error + 1e-14 * 3.26
    assert abs(float(row["tightness_defect"]) - defect) <= 1e-12 * defect + 1e-13


@pytest.mark.parametrize("kind, d", [("random", 8), ("harmonic", 2), ("fibonacci", 3)])
def test_simulate_holds_one_block_of_the_frame(tmp_path, kind, d):
    # the frame of N = 2^20 is 8-64 MB; simulate holds a block of it at a
    # time, 2^17 coordinates (1 MB), and the few block-sized arrays that
    # generate and quantize it
    import tracemalloc

    from framepcm.frames import _BLOCK_ELEMENTS

    tracemalloc.start()
    try:
        assert run(tmp_path, "simulate", "--d", str(d), "--N", str(2 ** 20), "--delta", "0.5",
                   "--r", "5.3", "--frame", kind) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * _BLOCK_ELEMENTS


def test_exit_codes(tmp_path):
    assert run(tmp_path, "limit", "--d", "1", "--r", "5", "--delta", "1") == EXIT_CONFIG
    assert run(tmp_path, "limit", "--d", "3", "--r", "5.5", "--delta", "1",
               "--methods", "bessel_series", "--tol", "1e-30") == EXIT_PRECISION
    with pytest.raises(SystemExit) as info:
        main(["limit", "--bogus", "3"])  # unknown flag -> argparse config error
    assert info.value.code == 2


@pytest.mark.parametrize("extra", [("--r", "inf"), ("--r", "nan"), ("--r", "5", "--tol", "0"),
                                   ("--r", "10.3", "--methods", "bessel_series", "--tol", "nan")])
def test_non_finite_inputs_and_zero_tol_are_config_errors(tmp_path, capsys, extra):
    # rejected at the input, before any quadrature runs
    assert run(tmp_path, "limit", "--d", "3", "--delta", "1", *extra) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "config" and "Traceback" not in err


@pytest.mark.parametrize("extra", [("--r", "inf"), ("--r", "1e300", "--delta", "1e-10")])
def test_bounds_with_non_finite_r_over_delta_is_a_config_error(tmp_path, capsys, extra):
    # both were a raw OverflowError from math.floor(inf)
    assert run(tmp_path, "bounds", "--d", "3", *extra) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "config" and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (("limit", "--d", "3", "--r", "10.3", "--delta", "1", "--agree-rtol", "nan"), "--agree-rtol"),
    (("limit", "--d", "3", "--r", "10.3", "--delta", "1", "--agree-rtol", "0"), "--agree-rtol"),
    (("limit", "--d", "3", "--r", "10.3", "--delta", "1", "--agree-rtol", "-1"), "--agree-rtol"),
    (("bounds", "--slope", "--kmin", "0"), "--kmin"),
    (("bounds", "--slope", "--kmin", "10", "--kmax", "1"), "--kmax"),
])
def test_flags_that_would_check_nothing_are_config_errors(tmp_path, capsys, argv, flag):
    # an agree-rtol of nan, 0 or below left no PASS possible and exited 0; a
    # kmin of 0 failed with "math domain error", kmin > kmax fitted a slope
    assert run(tmp_path, *argv) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and flag in err["detail"]


@pytest.mark.parametrize("argv, code", [
    # the envelope says nothing where x ** -1.5 overflows, which raised a raw
    # OverflowError
    (("bessel", "--orders", "0", "--xs", "1e-300"), EXIT_OK),
    # the quadrature's default target scales with delta: this exited 3, and
    # the same geometry at --r 10.3 --delta 1 exits 0
    (("limit", "--d", "3", "--r", "1030000000", "--delta", "100000000",
      "--methods", "quadrature"), EXIT_OK),
    # R = 10, where the squares of the entries overflow: this exited 2
    (("limit", "--d", "3", "--r", "1e200", "--delta", "1e199", "--methods", "quadrature"),
     EXIT_OK),
    # delta ** 2 of the WNH figure overflows, which raised a raw OverflowError,
    # then exited 3: the RMSE d delta / sqrt(12 N) is representable
    (("simulate", "--d", "3", "--N", "10", "--delta", "1e160", "--r", "1e150"), EXIT_OK),
])
def test_extreme_inputs_exit_without_a_traceback(tmp_path, capsys, argv, code):
    assert run(tmp_path, *argv) == code
    assert "Traceback" not in capsys.readouterr().err


def test_no_subcommand_is_config_error(tmp_path):
    assert run(tmp_path) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# --config reruns through the subcommand's own parser
# ---------------------------------------------------------------------------

# one passing run of each subcommand
ONE_RUN_EACH = [
    ("verify", "--max", "4"),
    ("bessel", "--orders", "1", "2.5", "--xs", "1", "10"),   # nargs lists
    ("limit", "--d", "3", "--r", "10.25", "--delta", "0.37",
     "--methods", "quadrature,bessel_series"),              # --tol stays None
    ("bounds", "--d", "5", "--r", "100.25", "--slope", "--d-list", "3",
     "--eps", "0.25", "--kmin", "60", "--kmax", "300", "--points", "5"),  # store-true
    ("simulate", "--d", "2", "--N", "2000", "--delta", "0.5", "--r", "3.26"),  # --frame None
]


@pytest.mark.parametrize("argv", ONE_RUN_EACH)
def test_every_subcommand_reruns_from_its_config(tmp_path, argv):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["--outdir", str(first), *argv]) == EXIT_OK
    cfg = first / f"run_config_{argv[0]}.json"
    assert main(["--outdir", str(second), "--config", str(cfg)]) == EXIT_OK
    outputs = sorted(p.name for p in first.iterdir())
    assert outputs == sorted(p.name for p in second.iterdir())
    for name in outputs:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_config_values_are_converted_like_flags(tmp_path):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"subcommand": "verify", "parameters": {"max": "5"}}))
    assert main(["--outdir", str(tmp_path / "a"), "--config", str(cfg)]) == EXIT_OK
    assert main(["--outdir", str(tmp_path / "b"), "verify", "--max", "5"]) == EXIT_OK
    for name in ("verify.csv", "run_config_verify.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("subcommand, parameters", [
    ("verify", {"max": "x"}),
    ("verify", {"max": [3, 4]}),
    ("bounds", {"slope": "yes"}),
    ("bounds", {"d": None}),            # the default is 4, not null
    ("limit", {"r": 5.0, "delta": 1.0}),  # --d is required
    ("nosuch", {}),
])
def test_config_values_that_would_not_parse_are_config_errors(tmp_path, capsys,
                                                             subcommand, parameters):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"subcommand": subcommand, "parameters": parameters}))
    assert main(["--outdir", str(tmp_path), "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "config" and "Traceback" not in err


SIMULATE = ("simulate", "--delta", "0.5", "--r", "3.26")


@pytest.mark.parametrize("argv, message", [
    ((*SIMULATE, "--frame", "harmonic", "--d", "3", "--N", "200"), "harmonic frame is 2-D"),
    ((*SIMULATE, "--frame", "fibonacci", "--d", "4", "--N", "200"), "fibonacci frame is 3-D"),
    ((*SIMULATE, "--frame", "random", "--d", "5", "--N", "3"), "need N >= d"),
    (("--config", "LIST"), "holds no RunConfig object"),
])
def test_config_errors_exit_with_their_message(tmp_path, capsys, argv, message):
    cfg = tmp_path / "list.json"
    cfg.write_text(json.dumps([{"subcommand": "verify", "parameters": {"max": 4}}]))
    argv = [str(cfg) if arg == "LIST" else arg for arg in argv]
    assert run(tmp_path, *argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    detail = json.loads(err.strip().splitlines()[-1])
    assert detail["error"] == "config" and message in detail["detail"]


def test_odd_d_quadrature_below_its_rounding_floor_exits_precision_exhausted(tmp_path, capsys):
    # the odd-d rule is exact on each piece, so only the rounding allowance
    # of its pieces can miss the target: 1e-20 lies below it at d = 3
    code = run(tmp_path, "limit", "--d", "3", "--r", "10.3", "--delta", "1",
               "--methods", "quadrature", "--tol", "1e-20")
    assert code == EXIT_PRECISION
    err = _last_json_line(capsys)
    assert err["error"] == "precision-exhausted"
    assert "piecewise quadrature did not reach 1.000e-20" in err["detail"]


# ---------------------------------------------------------------------------
# the write path: every output a new file, never the old one rewritten
# ---------------------------------------------------------------------------

def _files(outdir):
    return {p.name: p.read_bytes() for p in outdir.iterdir()}


@pytest.mark.parametrize("argv", ONE_RUN_EACH)
def test_rerun_into_the_same_outdir_writes_new_files(tmp_path, capsys, argv):
    same, fresh = tmp_path / "same", tmp_path / "fresh"
    assert main(["--outdir", str(same), *argv]) == EXIT_OK
    first = _files(same)
    # open handles keep the first run's inodes alive, so a new file cannot
    # reuse one, and show that the first run's contents were left alone
    with contextlib.ExitStack() as stack:
        kept = {name: stack.enter_context(open(same / name, "rb")) for name in first}
        capsys.readouterr()
        assert main(["--outdir", str(same), *argv]) == EXIT_OK
        assert capsys.readouterr().err == ""  # plain outputs are replaced silently
        assert main(["--outdir", str(fresh), *argv]) == EXIT_OK
        assert _files(same) == _files(fresh) == first
        for name, fh in kept.items():
            assert fh.read() == first[name], name
            assert (same / name).stat().st_ino != os.fstat(fh.fileno()).st_ino, name
    assert sorted(p.name for p in same.iterdir()) == sorted(first)


def test_config_rerun_may_rewrite_its_own_source(tmp_path):
    argv = ["limit", "--d", "3", "--r", "10.25", "--delta", "1", "--methods", "quadrature"]
    assert run(tmp_path, *argv) == EXIT_OK
    before = _files(tmp_path)
    cfg = tmp_path / "run_config_limit.json"
    assert run(tmp_path, "--config", str(cfg)) == EXIT_OK
    assert _files(tmp_path) == before


def test_read_only_linked_and_symlinked_outputs_are_replaced_with_a_note(tmp_path, capsys):
    argv = ["limit", "--d", "3", "--r", "10.25", "--delta", "1", "--methods", "quadrature"]
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert main(["--outdir", str(fresh), *argv]) == EXIT_OK
    out.mkdir()
    (out / "limit.csv").write_text("stale\n")
    (out / "limit.csv").chmod(0o444)
    target = tmp_path / "elsewhere.json"
    target.write_text("not an output\n")
    (out / "run_config_limit.json").symlink_to(target)
    capsys.readouterr()
    assert main(["--outdir", str(out), *argv]) == EXIT_OK
    for name in ("limit.csv", "run_config_limit.json"):
        path = out / name
        assert not path.is_symlink() and path.is_file(), name
        assert path.read_bytes() == (fresh / name).read_bytes(), name
    assert target.read_text() == "not an output\n"
    assert capsys.readouterr().err.splitlines() == [
        f"framepcm: replacing symlink {out / 'run_config_limit.json'} with a new file",
        f"framepcm: replacing read-only file {out / 'limit.csv'} with a new file",
    ]
    # a hard link elsewhere keeps the old contents; the output is cut off from it
    os.link(out / "limit.csv", tmp_path / "kept.csv")
    assert main(["--outdir", str(out), *argv]) == EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        f"framepcm: replacing hard-linked file {out / 'limit.csv'} with a new file",
    ]
    assert (tmp_path / "kept.csv").read_bytes() == (fresh / "limit.csv").read_bytes()
    assert (out / "limit.csv").stat().st_nlink == 1


def test_an_outdir_that_cannot_be_written_is_a_config_error(tmp_path, capsys):
    # a file where the outdir should be, and a directory where an output
    # should be; both raised a traceback from outside main's handlers
    (tmp_path / "file").write_text("")
    assert main(["--outdir", str(tmp_path / "file"), "verify", "--max", "2"]) == EXIT_CONFIG
    (tmp_path / "out" / "run_config_verify.json").mkdir(parents=True)
    assert main(["--outdir", str(tmp_path / "out"), "verify", "--max", "2"]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(line)["error"] for line in lines] == ["config", "config"]


def test_limit_flags_an_estimate_that_exceeds_its_value(tmp_path, capsys):
    # d = 8, R = 3000.375: the quadrature's estimate is ~2600x the limit,
    # the series' far below it
    assert run(tmp_path, "limit", "--d", "8", "--r", "3000.375", "--delta", "1",
               "--methods", "quadrature,bessel_series") == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    marker = "(estimate >= |value|: unresolved)"
    assert lines[0].lstrip().startswith("quadrature:") and lines[0].endswith(marker)
    assert lines[1].lstrip().startswith("bessel_series:") and marker not in lines[1]
    csv_text = (tmp_path / "limit.csv").read_text()
    assert "unresolved" not in csv_text and len(read_csv(tmp_path / "limit.csv")) == 2
    # d = 165, R = 5000.3: AUTO falls back to a quadrature that cannot resolve it
    assert run(tmp_path, "limit", "--d", "165", "--r", "5000.3", "--delta", "1",
               "--methods", "auto") == EXIT_OK
    line, = capsys.readouterr().out.splitlines()
    assert line.lstrip().startswith("quadrature:") and line.endswith(marker)


def test_limit_at_d_500_exits_with_precision_exhausted(tmp_path, capsys):
    # the order-250 series prefactor leaves binary64; this was an OverflowError
    assert run(tmp_path, "limit", "--d", "500", "--r", "20.3", "--delta", "1") == EXIT_PRECISION
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "precision-exhausted" and "Traceback" not in err


def test_bounds_slope_default_eps_keeps_off_the_zeros_of_the_leading_coefficient(tmp_path):
    # at eps 1/4 (odd d) and 3/8 (even d) the default sweep missed (d + 1)/2
    # at d = 7, 8, 11 and 12, near the zeros of C_d(eps); 0.31 and 0.46 pass
    d_list = ["3", "4", "5", "6", "7", "8", "11", "12"]
    assert run(tmp_path, "bounds", "--slope", "--d-list", *d_list) == EXIT_OK
    rows = read_csv(tmp_path / "slopes.csv")
    assert [row["d"] for row in rows] == d_list
    assert [row["eps"] for row in rows] == ["0.31", "0.46"] * 4
    assert all(row["ok"] == "True" for row in rows)


def _last_json_line(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def test_bounds_slope_with_unresolved_points_exits_precision_exhausted(tmp_path, capsys):
    # d = 165 from k = 100: each point is a quadrature fall-back whose
    # estimate exceeds its value; this printed "[FAIL] d=40: slope=0.4828"
    # where d = 40 fell back too
    code = run(tmp_path, "bounds", "--slope", "--d-list", "165", "--kmin", "100",
               "--kmax", "2000")
    assert code == EXIT_PRECISION
    err = _last_json_line(capsys)
    assert err["error"] == "precision-exhausted" and "k=100" in err["detail"]


def test_bounds_slope_keeps_the_resolved_d_of_a_mixed_list(tmp_path, capsys):
    # d = 165 is unresolved over this sweep, d = 3 and 5 are not: their fits
    # are printed and written, d = 165's is not, and the run exits 3
    code = run(tmp_path, "bounds", "--slope", "--d-list", "3", "165", "5", "--kmin", "100",
               "--kmax", "2000")
    assert code == EXIT_PRECISION
    captured = capsys.readouterr()
    assert "[PASS] d=3:" in captured.out and "[PASS] d=5:" in captured.out
    assert "[UNRESOLVED] d=165: slope point k=100" in captured.out
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "precision-exhausted" and "d=165" in err["detail"]
    rows = read_csv(tmp_path / "slopes.csv")
    assert [row["d"] for row in rows] == ["3", "5"]
    assert all(row["ok"] == "True" for row in rows)


def test_bounds_slope_at_d_40_resolves_under_the_relative_default_target(tmp_path, capsys):
    # every point was a quadrature fall-back that printed [UNRESOLVED] while
    # the series' default target was 1e-10 of the scale alone
    code = run(tmp_path, "bounds", "--slope", "--d-list", "40", "--eps", "0.3", "--kmin",
               "1000", "--kmax", "5000")
    assert code == EXIT_OK
    assert "[PASS] d=40: slope=20.4" in capsys.readouterr().out


def test_bounds_report_at_d_500_exits_without_a_traceback(tmp_path, capsys):
    # the order-250 bound coefficient leaves binary64; this was a raw
    # OverflowError from int-to-float conversion
    code = run(tmp_path, "bounds", "--d", "500", "--r", "20.3")
    assert code == EXIT_PRECISION
    err = _last_json_line(capsys)
    assert err == {"error": "precision-exhausted",
                   "detail": "the even bound coefficient at n=250 leaves binary64"}


@pytest.mark.parametrize("argv, codes", [
    (("limit", "--methods", "quadrature", "--d", "3", "--r", "1e9", "--delta", "1"),
     (EXIT_PRECISION,)),
    (("limit", "--d", "41", "--r", "1000000000.3", "--delta", "1"), (EXIT_OK, EXIT_PRECISION)),
    (("bounds", "--d", "41", "--r", "1000000000.3", "--delta", "1"), (EXIT_OK, EXIT_PRECISION)),
])
def test_quadrature_at_r_1e9_exits_without_a_traceback(tmp_path, capsys, argv, codes):
    # the quadrature refuses past its node cap before it evaluates a piece;
    # at d = 41 these printed a numpy MemoryError traceback (14.9 GiB of
    # breakpoints)
    import tracemalloc

    tracemalloc.start()
    try:
        code = run(tmp_path, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in codes and peak <= 100e6
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == EXIT_PRECISION:
        assert json.loads(err.strip().splitlines()[-1]) == {
            "error": "precision-exhausted",
            "detail": "piecewise quadrature needs more than 16777216 nodes "
                      f"(r={float(argv[argv.index('--r') + 1])}, delta=1.0)"}


@pytest.mark.parametrize("argv", [
    ("bessel", "--orders", "200.5", "--xs", "1"),
    ("limit", "--d", "400", "--r", "1", "--delta", "1", "--methods", "bessel_series"),
    ("limit", "--d", "361", "--r", "20.3", "--delta", "1", "--methods", "bessel_series"),
])
def test_large_orders_exit_without_a_traceback(tmp_path, capsys, argv):
    # Gamma(order + 1) of the series terms left binary64 (a raw OverflowError)
    # and the order-180.5 polylogarithm table raised a broadcast ValueError
    code = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_PRECISION) and "Traceback" not in err
    if code == EXIT_PRECISION:
        assert json.loads(err.strip().splitlines()[-1])["error"] == "precision-exhausted"


def test_quadrature_at_d_1000_below_the_first_jump_exits_0(tmp_path, capsys):
    # at R < 1/2 the limit is r exactly; the Gauss-Legendre order ladder ran
    # out here and this exited 3
    assert run(tmp_path, "limit", "--d", "1000", "--r", "0.3", "--delta", "1",
               "--methods", "quadrature") == EXIT_OK
    [row] = read_csv(tmp_path / "limit.csv")
    assert abs(float(row["value"]) - 0.3) <= float(row["error_estimate"])


def test_a_signal_whose_squares_underflow_has_its_norm(tmp_path, capsys):
    # the squares of 1e-160 underflow: the norm read 9.999944e-161, and so did
    # the limit and E_delta
    assert run(tmp_path, "limit", "--d", "3", "--r", "1e-160", "--delta", "1",
               "--methods", "quadrature") == EXIT_OK
    assert "value=1.000000000000e-160" in capsys.readouterr().out
    assert run(tmp_path, "simulate", "--d", "3", "--N", "1000", "--delta", "1",
               "--r", "1e-160") == EXIT_OK
    out = capsys.readouterr().out
    assert "E_delta            = 1.000000e-160" in out
    assert "limiting error     = 1.000000e-160" in out


@pytest.mark.parametrize("delta, r, rmse", [("1e-161", "1e-160", "2.738613e-163"),
                                            ("1e160", "1e150", "2.738613e+158")])
def test_simulate_takes_the_wnh_rmse_where_the_mse_leaves_binary64(tmp_path, capsys, delta, r,
                                                                    rmse):
    # delta^2 leaves binary64 here, and simulate exited 3 with "the WNH MSE
    # leaves binary64"; E_delta, the limit and 3 delta / sqrt(12000) do not
    assert run(tmp_path, "simulate", "--d", "3", "--N", "1000", "--delta", delta,
               "--r", r) == EXIT_OK
    assert f"WNH MSE prediction = leaves binary64   (rmse {rmse}," in capsys.readouterr().out
    [row] = read_csv(tmp_path / "simulate.csv")
    assert row["wnh_mse"] == ""
    assert float(row["wnh_rmse"]) == 3 * float(delta) / math.sqrt(12000.0)
    assert float(row["E_over_wnh_rmse"]) == float(row["E_delta"]) / float(row["wnh_rmse"])


def test_simulate_keeps_its_wnh_figures_where_the_mse_is_a_normal_double(tmp_path):
    assert run(tmp_path, "simulate", "--d", "3", "--N", "1000", "--delta", "0.5",
               "--r", "3.26") == EXIT_OK
    [row] = read_csv(tmp_path / "simulate.csv")
    mse = 9 * 0.5 ** 2 / 12000.0
    assert (float(row["wnh_mse"]), float(row["wnh_rmse"])) == (mse, math.sqrt(mse))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r, delta", [("1e200", "1e199"), ("1e-160", "1e-161")])
def test_monte_carlo_at_the_ends_of_binary64(tmp_path, capsys, r, delta):
    # the Monte Carlo route runs at a power-of-two scale: it read inf +- nan
    # with overflow warnings at 1e200 and 0 +- 0 at 1e-160, and both FAILed
    assert run(tmp_path, "limit", "--d", "3", "--r", r, "--delta", delta,
               "--methods", "quadrature,monte_carlo", "--samples", "20000") == EXIT_OK
    out = capsys.readouterr().out
    assert "quadrature vs Monte Carlo agreement" in out and "FAIL" not in out


@pytest.mark.parametrize("method", ["bessel_series", "auto"])
def test_a_tol_below_the_series_prefactor_exhausts_precision(tmp_path, capsys, method):
    # tol / |prefactor| underflows to 0 here: this exited 2 with "tol must be
    # positive, one per R" from the alternating sum
    assert run(tmp_path, "limit", "--d", "3", "--r", "6e9", "--delta", "1e10",
               "--methods", method, "--tol", "1e-320") == EXIT_PRECISION
    assert json.loads(capsys.readouterr().err)["error"] == "precision-exhausted"


def test_bounds_and_simulate_flag_an_unresolved_limit(tmp_path, capsys):
    # d = 165, R = 5000.3: AUTO's quadrature fall-back reads 1.14e-13 +-
    # 1.1e-10 for a limit of 1.17e-221.  The sandwich FAILed on it (exit 1),
    # and simulate printed E/limit = 6.7e15 with no flag
    marker = "(estimate >= |value|: unresolved)"
    assert run(tmp_path, "bounds", "--d", "165", "--r", "5000.3") == EXIT_OK
    out = capsys.readouterr().out
    assert "holds=None, status='unresolved'" in out
    assert f"limiting error (quadrature): 1.139948e-13  {marker}" in out
    assert run(tmp_path, "simulate", "--d", "165", "--N", "2000", "--delta", "1",
               "--r", "5000.3", "--frame", "random") == EXIT_OK
    [line] = [ln for ln in capsys.readouterr().out.splitlines() if "limiting error" in ln]
    assert line.endswith(marker)


def test_limit_all_runs_the_other_routes_past_one_refusal(tmp_path, capsys):
    # the quadrature refuses R = 3e7 at its node cap, the series resolves it;
    # this printed the refusal alone
    code = run(tmp_path, "limit", "--d", "4", "--r", "3e7", "--delta", "1", "--samples", "1000")
    assert code == EXIT_PRECISION
    out, err = capsys.readouterr()
    refusal = "piecewise quadrature needs more than 16777216 nodes (r=30000000.0, delta=1.0)"
    lines = out.splitlines()
    assert lines[0] == f"    quadrature: precision exhausted: {refusal}"
    assert lines[1].startswith(" bessel_series: value=4.8142951446") and len(lines) == 3
    assert json.loads(err) == {"error": "precision-exhausted", "detail": refusal}
    rows = read_csv(tmp_path / "limit.csv")
    assert [row["method"] for row in rows] == ["bessel_series", "monte_carlo"]
    # the series refuses d = 165 at R = 5000.3: the Monte Carlo line and its
    # verdict against the quadrature still print
    code = run(tmp_path, "limit", "--d", "165", "--r", "5000.3", "--delta", "1",
               "--samples", "1000")
    assert code == EXIT_PRECISION
    out = capsys.readouterr().out
    assert " bessel_series: precision exhausted: alternating Bessel sum (order=82.5" in out
    assert "quadrature vs Monte Carlo agreement:" in out and "vs series" not in out
    assert [row["method"] for row in read_csv(tmp_path / "limit.csv")] == ["quadrature",
                                                                          "monte_carlo"]
    # two refusals: the detail joins them
    code = run(tmp_path, "limit", "--d", "500", "--r", "1e9", "--delta", "1",
               "--methods", "quadrature,bessel_series")
    assert code == EXIT_PRECISION
    assert json.loads(capsys.readouterr().err)["detail"] == (
        "piecewise quadrature needs more than 16777216 nodes (r=1000000000.0, delta=1.0); "
        "the order-250 series prefactor leaves binary64 (r=1000000000.0, delta=1.0)")
    assert read_csv(tmp_path / "limit.csv") == []


def test_limit_at_r_0_prints_its_verdicts(tmp_path, capsys):
    # the verdicts' scale delta^s / r^(s-1) divided by r = 0: a ZeroDivisionError traceback
    code = run(tmp_path, "limit", "--d", "3", "--r", "0", "--delta", "1", "--samples", "1000")
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "quadrature vs series agreement: PASS" in out
    assert "quadrature vs Monte Carlo agreement: PASS" in out
