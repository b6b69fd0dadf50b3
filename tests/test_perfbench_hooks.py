"""The benchmark's tracer wraps msvc attributes by name, among them the
names ``solve`` calls through (``branching.lift``, ``branching.kernelize``);
renaming or deleting one breaks every traced benchmark run."""

import importlib
import sys
from pathlib import Path

import msvc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_attribute_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    monkeypatch.delitem(sys.modules, "tracing")
    assert tracing.WRAPPED
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(getattr(msvc, module), attr, None)), (module, attr)
