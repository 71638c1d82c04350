"""The names ``perfbench/tracing.py`` wraps still exist with the shape it reads.

The tracer replaces module attributes by name, so a refactor that renames
or reshapes one of them would otherwise surface only in a traced benchmark
run.  The file is loaded, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _tracing().TARGETS
    assert targets
    for module_name, attr, _, _ in targets:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_quad_integral_returns_the_piece_count_the_tracer_reads():
    # the tracer's limit_error.quad span counts pieces from res[2]
    [counts] = [counts for module, attr, _, counts in _tracing().TARGETS
                if (module, attr) == ("framepcm.limit_error", "_quad_integral")]
    from framepcm.limit_error import _quad_integral

    for sin_pow in (1, 2):
        res = _quad_integral(10.3, 1.0, sin_pow, None)
        assert type(res[2]) is int and res[2] == 21
        assert counts((10.3, 1.0, sin_pow, None), {}, res) == {"pieces": 21}


def _one_call_per_target(outdir):
    """{(module, attribute): a small call that reaches it}: through
    ``cli.main`` where a subcommand looks the name up, else through the
    module attribute itself, with the arguments in the positions the
    program's own callers use."""
    import framepcm.bounds
    import framepcm.combinatorics as comb
    import framepcm.frames as frames
    import framepcm.limit_error as limit_error
    import framepcm.special_fn as special_fn
    from framepcm import Method, QuantScheme
    from framepcm.cli import main

    def cli(*argv):
        def call():
            assert main(["--outdir", str(outdir), *argv]) == 0, argv
        return call

    series = cli("limit", "--d", "3", "--r", "10.3", "--delta", "1", "--methods", "bessel_series")
    quadrature = cli("limit", "--d", "3", "--r", "10.3", "--delta", "1", "--methods", "quadrature")
    simulate = {kind: cli("simulate", "--d", d, "--N", "40", "--delta", "0.5", "--r", "2.3",
                          "--frame", kind)
                for kind, d in (("harmonic", "2"), ("fibonacci", "3"), ("random", "4"))}
    calls = {
        ("framepcm.cli", "limiting_error"): series,
        ("framepcm.bounds", "limiting_error"): lambda: framepcm.bounds.limiting_error(
            [10.3, 0.0, 0.0], QuantScheme(1.0), Method.BESSEL_SERIES),
        ("framepcm.limit_error", "_quad_integral"): quadrature,
        # the tracer reads the direct part's size from res[1], which is 0:
        # the alternating sum has no direct part
        ("framepcm.limit_error", "alternating_bessel_sum_info"):
            lambda: limit_error.alternating_bessel_sum_info(2.0, 10.25, 1e-10),
        # no route calls it any more, so each call is made through the copy
        ("framepcm.limit_error", "gauss_legendre"): lambda: limit_error.gauss_legendre(8),
        ("framepcm.special_fn", "gauss_legendre"): lambda: special_fn.gauss_legendre(8),
        ("framepcm.cli", "monte_carlo_limit"): cli("limit", "--d", "3", "--r", "10.3", "--delta",
                                                   "1", "--methods", "monte_carlo",
                                                   "--samples", "1000"),
        ("framepcm.cli", "scaling_slope_fit"): cli("bounds", "--slope", "--d-list", "3", "--eps",
                                                   "0.25", "--kmin", "60", "--kmax", "300",
                                                   "--points", "5"),
        ("framepcm.cli", "sandwich_check"): cli("bounds", "--d", "4", "--r", "100.25"),
        ("framepcm.cli", "harmonic_frame_2d"): simulate["harmonic"],
        ("framepcm.cli", "fibonacci_sphere_frame"): simulate["fibonacci"],
        ("framepcm.cli", "random_sphere_frame"): simulate["random"],
        # as the benchmark's equidistribution items call it
        ("framepcm.frames", "equidistribution_diagnostic"):
            lambda: frames.equidistribution_diagnostic(frames.random_sphere_frame(3, 50, 0), 2),
        ("framepcm.cli", "quantize_and_reconstruct"): simulate["random"],
        ("framepcm.special_fn", "bessel_integral_int_order"):
            cli("bessel", "--orders", "1", "--xs", "3.0"),
        ("framepcm.special_fn", "bessel_half_order"):
            cli("bessel", "--orders", "0.5", "--xs", "3.0"),
    }
    for name in ("check_identity_A", "check_identity_B", "check_gould",
                 "check_coeff_identity_even", "check_coeff_identity_odd"):
        calls["framepcm.combinatorics", name] = lambda name=name: getattr(comb, name)(3, 1)
    calls["framepcm.combinatorics", "gosper_certificate"] = \
        lambda: comb.gosper_certificate(3, 1, 2)
    return calls


def test_every_target_records_a_span_with_its_counts(tmp_path, capsys):
    # the counts functions read arguments and results by position
    # (scaling_slope_fit's a[3], quantize_and_reconstruct's a[1],
    # equidistribution_diagnostic's args[1], alternating_bessel_sum_info's
    # res[1]); a reshaped signature breaks them only inside a traced run
    from framepcm import special_fn

    tracing = _tracing()
    calls = _one_call_per_target(tmp_path)
    assert set(calls) == {(module, attr) for module, attr, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer(special_fn.gauss_legendre)
    tracer.install()
    try:
        for module, attr, _, _ in tracing.TARGETS:
            with tracer.item(attr):
                calls[module, attr]()
    finally:
        tracer.uninstall()
    assert len(tracer.items) == len(tracing.TARGETS)
    for (module, attr, name, counts), (_, nodes) in zip(tracing.TARGETS, tracer.items):
        # both traced limiting_error calls take the series route
        span = "limit_error.series" if callable(name) else name
        recorded = [node for path, node in nodes.items() if path[-1] == span]
        assert recorded, (module, attr, span)
        if attr == "alternating_bessel_sum_info":
            assert all(node.counts == {"direct_terms": 0} for node in recorded), (
                [n.counts for n in recorded])
        elif counts is not None:
            assert all(node.counts and all(v > 0 for v in node.counts.values())
                       for node in recorded), (module, attr, [n.counts for n in recorded])
