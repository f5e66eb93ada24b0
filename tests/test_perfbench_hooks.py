"""The names the benchmark's tracer and runner patch must exist where they look.

`perfbench/spans.py` wraps each (module, attribute) in its TARGETS list and
labels the span with the defining module and the function's `__name__`;
`perfbench/runner.py` wraps `cli.run` and calls `cli.main`. A refactor that
renames or moves one of these would break `--trace 1` only at benchmark time,
so the list is read here and every entry resolved.
"""
import importlib.util
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


def test_main_calls_module_level_run(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run", lambda argv: seen.append(argv) or 0)
    assert cli.main(["analyze", "geo"]) == 0
    assert seen == [["analyze", "geo"]]
