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
from msvc import GeneratorSpec, Instance, branch_solve, build_graph, generate, solve

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


def test_traced_solve_records_every_layer(tracing):
    """One traced solve of a rule-2 yes instance (a star with its center at
    the last id, at k = 1) goes through each layer the traced benchmark
    reads: kernelize, the cover search, branch_solve, lift, and the three
    evaluations, one in branch_solve and two in lift."""
    g = build_graph(6, [(i, 5) for i in range(5)])
    inst = Instance(g, w=5, k=1)
    tracer = tracing.Tracer(msvc)
    result = tracer.op(lambda: msvc.branching.solve(inst))
    assert result.decision and result.w_offset > 0
    calls = tracer.calls()
    names = ("branching.solve", "kernel.kernelize", "covers.enumerate", "branching.branch_solve",
             "kernel.lift", "graph.evaluate")
    assert [calls[name] for name in names] == [1, 1, 1, 1, 1, 3]
    assert tracer.counters["kernel.rule2_steps"] == 1
    assert tracer.counters["branching.mappings"] == result.dp_states > 0
    assert msvc.branching.solve is solve  # the tracer put every attribute back
