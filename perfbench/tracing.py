"""Spans and counters recorded from outside the program.

The benchmark wraps the module attributes that the solve chain and the
oracles call through (for example ``msvc.branching.kernelize``, which
``solve`` looks up in its own module at call time).  Each wrapped call
records a span: its name, start, end and the span that caused it.  Spans of
one op share the op's id.  A span's self time is its duration minus the
durations of its direct children; calls are nested and single-threaded, so
children never overlap.

Counters are read from the objects the wrapped calls return: ``SolveStats``
from ``branch_solve``, the ``Kernel`` trace or ``TrivialNo`` from
``kernelize``, and the cover list from ``enumerate_minimal_covers``.

Nothing under ``src/`` is changed; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, span name).  The span name's first component is the
# layer (module) the time is charged to.
WRAPPED = (
    ("instance_io", "parse_instance", "instance_io.parse"),
    ("instance_io", "write_ordering", "instance_io.write"),
    ("instance_io", "build_graph", "graph.build_graph"),
    ("branching", "solve", "branching.solve"),
    ("branching", "kernelize", "kernel.kernelize"),
    ("branching", "enumerate_minimal_covers", "covers.enumerate"),
    ("branching", "lift", "kernel.lift"),
    ("branching", "evaluate", "graph.evaluate"),
    ("branching", "branch_solve", "branching.branch_solve"),
    ("kernel", "build_graph", "graph.build_graph"),
    ("kernel", "evaluate", "graph.evaluate"),
    ("oracles", "subset_dp_optimal", "oracles.subset_dp"),
    ("oracles", "build_dp_table", "oracles.dp_prefix"),
    ("oracles", "brute_force_profile", "oracles.brute"),
    ("analysis", "min_max_cost_over_optima", "analysis.min_max"),
    ("analysis", "vc_number", "analysis.vc_number"),
    ("generators", "generate", "generators.generate"),
)

LAYERS = ("instance_io", "graph", "kernel", "covers", "branching", "oracles", "analysis")


@dataclass
class Span:
    span_id: int
    parent_id: int
    op_id: int
    name: str
    start: float
    end: float = 0.0


def _count_kernel(counters, args, result) -> None:
    trace = getattr(result, "trace", None)
    if trace is None:  # TrivialNo
        counters["kernel.trivial_no"] += 1
        return
    for step in trace.steps:
        if hasattr(step, "removed_edges"):
            counters["kernel.rule2_steps"] += 1
            counters["kernel.rule2_edges_removed"] += len(step.removed_edges)
        else:
            counters["kernel.rule4_deleted"] += len(step.deleted_vertices)
            counters["kernel.rule4_synthetics"] += step.p
    g = result.instance.graph
    counters["kernel.n_out"] += g.n
    counters["kernel.m_out"] += g.m
    counters["kernel.n_in"] += args[0].graph.n


def _count_branch(counters, args, result) -> None:
    counters["branching.mappings"] += result.stats.mappings_tried
    counters["branching.branches"] += result.stats.branches


def _count_covers(counters, args, result) -> None:
    counters["covers.count"] += len(result)


def _count_parse(counters, args, result) -> None:
    counters["instance_io.bytes_parsed"] += len(args[0])


def _count_dp_prefix(counters, args, result) -> None:
    g, k = args[0], args[1]
    counters["oracles.dp_states"] += sum(math.comb(g.n, i) for i in range(min(k, g.n) + 1))


def _count_brute(counters, args, result) -> None:
    counters["oracles.brute_perms"] += math.factorial(args[0].n)


COUNTERS = {
    "kernel.kernelize": _count_kernel,
    "branching.branch_solve": _count_branch,
    "covers.enumerate": _count_covers,
    "instance_io.parse": _count_parse,
    "oracles.dp_prefix": _count_dp_prefix,
    "oracles.brute": _count_brute,
}


class Tracer:
    """Records spans around wrapped calls while installed."""

    def __init__(self, package):
        self._package = package
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[Span] = []
        self._op_id = 0

    def install(self) -> None:
        for mod_name, attr, name in WRAPPED:
            module = getattr(self._package, mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else -1
        span = Span(len(self.spans), parent, self._op_id, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def op(self, fn):
        """Run one op traced: wrap the attributes, record a root span around
        fn, unwrap; returns fn's result."""
        self._op_id += 1
        self.install()
        try:
            span = self._open("op")
            try:
                return fn()
            finally:
                self._close(span)
        finally:
            self.uninstall()

    def _wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent_id >= 0:
                child[s.parent_id] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child[s.span_id]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return out
