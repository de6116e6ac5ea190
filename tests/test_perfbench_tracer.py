"""perfbench's traced mode (`run.py --trace 1`) wraps marcz functions that it
looks up by name; a name it lists that the library no longer has stops every
traced run with AttributeError."""

import importlib.util
from collections import Counter
from pathlib import Path

import marcz
import marcz.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name():
    tracing = _load_tracing()
    for names in marcz._LAZY_EXPORTS.values():
        getattr(marcz, names[0])  # runs the lazily registered module
    statistic = marcz.statistic
    ewma = statistic.ewma
    x = marcz.sample(marcz.InnovationSpec("gaussian"), 2601, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert statistic.ewma is not ewma
        tracer.session(0, statistic.verdict_table, x)
        tracer.session(1, statistic.marcinkiewicz_trace, x, 2, 0.7)
    finally:
        tracer.uninstall()
    assert statistic.ewma is ewma
    calls = Counter((op_id, name) for name, _, _, _, op_id in tracer.spans)
    # the grid: one running mean of x, one per row, one verdict per cell
    assert calls[(0, "statistic.ewma")] == 1 + len(marcz.DEFAULT_S_LIST)
    assert calls[(0, "statistic.verdict_rule")] == (
        len(marcz.DEFAULT_S_LIST) * len(marcz.DEFAULT_EXPONENTS))
    assert calls[(1, "statistic.trace")] == 1
    assert calls[(1, "statistic.ewma")] == 2
