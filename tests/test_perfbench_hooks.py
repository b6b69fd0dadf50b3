"""The benchmark's tracer wraps msvc attributes by name, among them the
names ``solve`` calls through (``branching.lift``, ``branching.kernelize``),
and reads the search counters off each result; renaming or deleting one
breaks every traced benchmark run."""

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

import msvc
from msvc import GeneratorSpec, Instance, branch_solve, generate, solve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    module = importlib.import_module("tracing")
    monkeypatch.delitem(sys.modules, "tracing")
    return module


def test_every_wrapped_attribute_resolves(tracing):
    assert tracing.WRAPPED
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(getattr(msvc, module), attr, None)), (module, attr)


def test_branch_counters_read_the_result(tracing):
    g = generate(GeneratorSpec("claw_chain", (3,)))
    inst = Instance(g, w=4 * g.m, k=4)
    for result in (branch_solve(inst), solve(inst)):
        counters = Counter()
        tracing.COUNTERS["branching.branch_solve"](counters, (inst,), result)
        assert counters["branching.mappings"] == result.dp_states > 0
        assert counters["branching.branches"] == 0
