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
