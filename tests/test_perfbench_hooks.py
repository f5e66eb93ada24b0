"""The names the benchmark's tracer and runner patch must exist where they look.

`perfbench/spans.py` wraps each (module, attribute) in its TARGETS list and
labels the span with the defining module and the function's `__name__`;
`perfbench/runner.py` wraps `cli.run` and calls `cli.main`. A refactor that
renames or moves one of these would break `--trace 1` only at benchmark time,
so the list is read here and every entry resolved. The per-layer unit costs of
`perfbench/layers.py` take the fastest span of one label within one probe, so
a probe whose call stopped reaching its labelled function would crash the
traced run; the probes are run here under the tracer too.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import queuemax
import queuemax.cli as cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("module,attr", spans.TARGETS, ids=lambda name: name)
def test_trace_target_resolves(module, attr):
    fn = getattr(getattr(queuemax, module), attr)
    assert callable(fn) and fn.__name__ == attr
    home = spans._home(fn)
    assert getattr(getattr(queuemax, home), attr) is fn
    if attr.startswith("_"):  # private kernels are traced in the module that defines them
        assert home == module


def test_every_unit_cost_probe_records_its_span(monkeypatch):
    monkeypatch.syspath_prepend(str(SPANS.parent))
    # perfbench's own `oracles` shadows the tests' one while layers loads; setitem
    # then delitem makes monkeypatch put back each name as it was, or drop it
    for name in ("oracles", "runner", "workloads", "layers"):
        monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.delitem(sys.modules, name)
    layers = importlib.import_module("layers")
    tracer = spans.Tracer()
    tracer.install(queuemax)
    try:
        layers.run_probes(tracer)
    finally:
        tracer.uninstall()
    for metric, (probe, label, _) in layers.UNIT_COSTS.items():
        assert tracer.durations(label, probe), f"{metric}: probe {probe!r} made no {label} span"


def test_main_calls_module_level_run(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run", lambda argv: seen.append(argv) or 0)
    assert cli.main(["analyze", "geo"]) == 0
    assert seen == [["analyze", "geo"]]
