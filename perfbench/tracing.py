"""In-memory spans around the calls each framepcm module makes into the layer below.

``Tracer.install`` replaces module attributes (``framepcm.cli.limiting_error``,
``framepcm.limit_error.alternating_bessel_sum_info``, ...) by wrappers and
``Tracer.uninstall`` puts the originals back; no file of the program
changes.  Each wrapper records a span: its name, start, end, the item it
belongs to and its parent span, plus counts taken from the arguments and
the return value.  Sibling calls of the same name under one parent (the
thousands of identity checks of one ``verify``) are merged into one span
record that carries the number of calls and their summed duration, which
keeps the trace small; a span's self time is its duration minus the time
its child spans cover.  Records are kept in memory and written out as
JSONL once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from math import comb
from time import perf_counter

_LADDER = (64, 256, 1024, 4096, 16384)  # direct-part sizes tried by the alternating sum


def _ladder_terms(K: int) -> int:
    return sum(k for k in _LADDER if k <= K)


def _method_name(args, kwargs) -> str:
    """limit_error.series for the Bessel-series route, else limit_error.limiting_error."""
    method = kwargs.get("method", args[2] if len(args) > 2 else "quadrature")
    series = getattr(method, "value", str(method)) == "bessel_series"
    return "limit_error.series" if series else "limit_error.limiting_error"


def _frame_count(args, kwargs, result):
    return {"vectors": result.count}


def _equidist_counts(args, kwargs, result):
    d, degree = args[0].dim, args[1]
    # monomials: exponent tuples with 1 <= |beta| <= degree, out of the
    # (degree+1)^d tuples the diagnostic scans
    return {"monomials": comb(d + degree, degree) - 1, "tuples": (degree + 1) ** d}


_COMBINATORICS_CHECKS = ("check_identity_A", "check_identity_B", "gosper_certificate",
                         "check_gould", "check_coeff_identity_even", "check_coeff_identity_odd")

# (module, attribute, span name or name function, counts function)
TARGETS = [
    ("framepcm.cli", "limiting_error", _method_name, None),
    ("framepcm.bounds", "limiting_error", _method_name, None),
    ("framepcm.limit_error", "_quad_integral", "limit_error.quad",
     lambda a, k, res: {"pieces": res[2]}),
    ("framepcm.limit_error", "alternating_bessel_sum_info", "special_fn.alt_sum",
     lambda a, k, res: {"direct_terms": _ladder_terms(res[1])}),
    ("framepcm.limit_error", "gauss_legendre", "special_fn.gauss_legendre", None),
    ("framepcm.special_fn", "gauss_legendre", "special_fn.gauss_legendre", None),
    ("framepcm.cli", "monte_carlo_limit", "limit_error.mc",
     lambda a, k, res: {"samples": res.sample_count}),
    ("framepcm.cli", "scaling_slope_fit", "bounds.slope_fit",
     lambda a, k, res: {"points": len(a[3])}),
    ("framepcm.cli", "sandwich_check", "bounds.sandwich", None),
    ("framepcm.cli", "harmonic_frame_2d", "frames.build", _frame_count),
    ("framepcm.cli", "fibonacci_sphere_frame", "frames.build", _frame_count),
    ("framepcm.cli", "random_sphere_frame", "frames.build", _frame_count),
    ("framepcm.frames", "equidistribution_diagnostic", "frames.equidist", _equidist_counts),
    ("framepcm.cli", "quantize_and_reconstruct", "quantization.reconstruct",
     lambda a, k, res: {"coeffs": a[1].count}),
    ("framepcm.special_fn", "bessel_integral_int_order", "special_fn.bessel", None),
    ("framepcm.special_fn", "bessel_half_order", "special_fn.bessel", None),
] + [("framepcm.combinatorics", name, "combinatorics.check", None)
     for name in _COMBINATORICS_CHECKS]


class _Node:
    """Merged record of the calls that share one path under one item."""

    __slots__ = ("calls", "busy", "self_time", "start", "end", "counts")

    def __init__(self, start: float):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.start = start
        self.end = start
        self.counts: dict = {}


class Tracer:
    def __init__(self, gauss_legendre_cache):
        self.items: list[tuple[str, dict]] = []  # (item kind, {path: _Node})
        self._stack: list[list] = []  # open spans: [path, time covered by children]
        self._nodes: dict | None = None
        self._saved: list = []
        self._gl = gauss_legendre_cache
        self._t0 = perf_counter()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, counts):
        stack = self._stack
        t_base = self._t0

        def wrapper(*args, **kwargs):
            if not stack:  # outside an item: warm-up or checking
                return fn(*args, **kwargs)
            parent = stack[-1]
            path = parent[0] + (name(args, kwargs) if callable(name) else name,)
            frame = [path, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                node = self._nodes.get(path)
                if node is None:
                    node = self._nodes[path] = _Node(t0 - t_base)
                node.calls += 1
                node.busy += dur
                node.self_time += dur - frame[1]
                node.end = t1 - t_base
            if counts is not None:
                for key, val in counts(args, kwargs, result).items():
                    node.counts[key] = node.counts.get(key, 0) + val
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, counts in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counts))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextmanager
    def item(self, kind: str):
        """Root span of one item; its duration is the item's timed call."""
        self._nodes = {}
        root = [("item",), 0.0]
        self._stack.append(root)
        misses = self._gl.cache_info().misses
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            node = _Node(t0 - self._t0)
            node.calls, node.busy = 1, t1 - t0
            node.self_time, node.end = node.busy - root[1], t1 - self._t0
            node.counts["gauss_legendre_misses"] = self._gl.cache_info().misses - misses
            self._nodes[("item",)] = node
            self.items.append((kind, self._nodes))
            self._nodes = None

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (kind, nodes) in enumerate(self.items):
                for span_path, node in nodes.items():
                    fh.write(json.dumps({
                        "item": idx, "kind": kind, "name": span_path[-1],
                        "parent": "/".join(span_path[:-1]) or None,
                        "path": "/".join(span_path), "calls": node.calls,
                        "start_ms": node.start * 1e3, "end_ms": node.end * 1e3,
                        "busy_ms": node.busy * 1e3, "self_ms": node.self_time * 1e3,
                        "counts": node.counts,
                    }) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

class _Totals:
    """Calls, busy and self seconds and counts summed per span name over items."""

    def __init__(self, items):
        self.items = len(items)
        self.cli_items = 0
        self.cli_self = 0.0
        self.report_items = 0
        self.report_quads = 0
        self.by_name: dict[str, list] = {}
        for kind, nodes in items:
            if kind != "equidist":  # the library-call items bypass the CLI
                self.cli_items += 1
                self.cli_self += nodes[("item",)].self_time
            for path, node in nodes.items():
                acc = self.by_name.setdefault(path[-1], [0, 0.0, 0.0, {}])
                acc[0] += node.calls
                acc[1] += node.busy
                acc[2] += node.self_time
                for key, val in node.counts.items():
                    acc[3][key] = acc[3].get(key, 0) + val
                if kind == "bounds_report" and path[-1] == "limit_error.quad":
                    self.report_quads += node.calls
            if kind == "bounds_report":
                self.report_items += 1

    def calls(self, name):
        return self.by_name.get(name, [0])[0]

    def busy(self, name):
        return self.by_name.get(name, [0, 0.0])[1]

    def self_time(self, name):
        return self.by_name.get(name, [0, 0.0, 0.0])[2]

    def count(self, name, key):
        return self.by_name.get(name, [0, 0.0, 0.0, {}])[3].get(key, 0)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else None


# name -> (unit, kind, function of _Totals).  "count" metrics are taken from
# the workload's own items; "rate" metrics fall back to the probe items
# when the workload leaves the layer idle.
PER_LAYER = {
    "cli.self_ms_per_item": ("ms", "rate", lambda t: _ratio(t.cli_self, t.cli_items, 1e3)),
    "special_fn.alt_sum.calls": ("count/item", "count",
                                 lambda t: _ratio(t.calls("special_fn.alt_sum"), t.items)),
    "special_fn.alt_sum.ms_per_call": ("ms", "rate", lambda t: _ratio(
        t.busy("special_fn.alt_sum"), t.calls("special_fn.alt_sum"), 1e3)),
    "special_fn.alt_sum.direct_terms": ("count/call", "rate", lambda t: _ratio(
        t.count("special_fn.alt_sum", "direct_terms"), t.calls("special_fn.alt_sum"))),
    "special_fn.bessel.evals": ("count/item", "count",
                                lambda t: _ratio(t.calls("special_fn.bessel"), t.items)),
    "special_fn.bessel.us_per_eval": ("us", "rate", lambda t: _ratio(
        t.busy("special_fn.bessel"), t.calls("special_fn.bessel"), 1e6)),
    "special_fn.gauss_legendre.calls": ("count/item", "count", lambda t: _ratio(
        t.calls("special_fn.gauss_legendre"), t.items)),
    "special_fn.gauss_legendre.misses": ("count/item", "count", lambda t: _ratio(
        t.count("item", "gauss_legendre_misses"), t.items)),
    "limit_error.quad.calls": ("count/item", "count",
                               lambda t: _ratio(t.calls("limit_error.quad"), t.items)),
    "limit_error.quad.pieces": ("count/item", "count", lambda t: _ratio(
        t.count("limit_error.quad", "pieces"), t.items)),
    "limit_error.quad.us_per_piece": ("us", "rate", lambda t: _ratio(
        t.busy("limit_error.quad"), t.count("limit_error.quad", "pieces"), 1e6)),
    "limit_error.series.self_ms_per_call": ("ms", "rate", lambda t: _ratio(
        t.self_time("limit_error.series"), t.calls("limit_error.series"), 1e3)),
    "limit_error.mc.samples": ("count/item", "count",
                               lambda t: _ratio(t.count("limit_error.mc", "samples"), t.items)),
    "limit_error.mc.msamples_per_s": ("Msamples/s", "rate", lambda t: _ratio(
        t.count("limit_error.mc", "samples"), t.busy("limit_error.mc"), 1e-6)),
    "bounds.slope_fit.ms_per_point": ("ms", "rate", lambda t: _ratio(
        t.busy("bounds.slope_fit"), t.count("bounds.slope_fit", "points"), 1e3)),
    "bounds.sandwich.ms_per_call": ("ms", "rate", lambda t: _ratio(
        t.busy("bounds.sandwich"), t.calls("bounds.sandwich"), 1e3)),
    "bounds.report.quad_integrals": ("count/item", "rate",
                                     lambda t: _ratio(t.report_quads, t.report_items)),
    "frames.build.vectors": ("count/item", "count",
                             lambda t: _ratio(t.count("frames.build", "vectors"), t.items)),
    "frames.build.ms_per_mvector": ("ms", "rate", lambda t: _ratio(
        t.busy("frames.build"), t.count("frames.build", "vectors"), 1e9)),
    "frames.equidist.monomials": ("count/call", "rate", lambda t: _ratio(
        t.count("frames.equidist", "monomials"), t.calls("frames.equidist"))),
    "frames.equidist.tuples": ("count/call", "rate", lambda t: _ratio(
        t.count("frames.equidist", "tuples"), t.calls("frames.equidist"))),
    "frames.equidist.ms_per_monomial": ("ms", "rate", lambda t: _ratio(
        t.busy("frames.equidist"), t.count("frames.equidist", "monomials"), 1e3)),
    "quantization.reconstruct.coeffs": ("count/item", "count", lambda t: _ratio(
        t.count("quantization.reconstruct", "coeffs"), t.items)),
    "quantization.reconstruct.ns_per_coeff": ("ns", "rate", lambda t: _ratio(
        t.busy("quantization.reconstruct"), t.count("quantization.reconstruct", "coeffs"), 1e9)),
    "combinatorics.checks": ("count/item", "count",
                             lambda t: _ratio(t.calls("combinatorics.check"), t.items)),
    "combinatorics.us_per_check": ("us", "rate", lambda t: _ratio(
        t.busy("combinatorics.check"), t.calls("combinatorics.check"), 1e6)),
}


def per_layer_metrics(workload_items, probe_items) -> dict:
    """Every per-layer metric, from the workload's traced items.

    A rate of a layer the workload leaves idle is taken from the probe
    items instead, so that each traced run reports every metric.
    """
    work, probe = _Totals(workload_items), _Totals(probe_items)
    out = {}
    for name, (unit, kind, fn) in PER_LAYER.items():
        value = fn(work)
        if value is None:
            value = 0.0 if kind == "count" else fn(probe)
        out[name] = {"value": value if value is not None else 0.0, "unit": unit}
    return out
