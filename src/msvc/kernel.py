"""Linear-time kernelization to at most k^2 + 2k vertices.

The pipeline runs four reductions in a fixed order:

1. If more than k vertices have degree above k, the instance is infeasible.
2. While the top degree exceeds k * (|high| + 1), find the first spot t in
   the sorted degree sequence where consecutive degrees differ by more than
   k; every one of the top-t vertices must precede the rest in any solution,
   so the same number of its edges into the tail can be deleted and the
   budget reduced by the charges those edges were guaranteed to pay.
3. Counting bound: only k - |high| prefix slots remain for vertices that
   are neither high-degree nor isolated once the high-degree vertices are
   removed, and each such slot accounts for at most k + 1 of them.
4. Vertices whose neighbors are all high-degree never sit in the paid
   prefix; only the per-high-vertex edge counts into that set matter, so the
   whole set is replaced by at most max-count synthetic vertices.

Every mutation is recorded in a trace that supports lifting a kernel optimum
back to an ordering of the original graph with an exactly accounted cost.

The pipeline runs on the graph's edge arrays.  Rule 1 counts the vertices
of degree > k.  Rule 2 reads only the high-degree prefix of the degree
order; per head vertex it finds the incident edges with one pass over the
edge arrays, picks the tail edges with one stable sort by current degree,
clears them in an alive-edge mask and lowers a degree array.  Rules 3 and 4
are masks and bincounts, and compaction is an index remap.  Only the trace
records hold Python tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .graph import (
    CostReport,
    Graph,
    Instance,
    InvariantError,
    Ordering,
    build_graph,
    evaluate,
    order_by_degree,
)


class LiftError(RuntimeError):
    """Lifted ordering failed cost re-verification on the original graph."""


@dataclass(frozen=True)
class Rule2Record:
    """One degree-gap reduction: cut index t, gap delta, deleted edges and
    the amount the budget dropped."""

    t: int
    delta: int
    removed_edges: tuple[tuple[int, int], ...]
    w_delta: int


@dataclass(frozen=True)
class Rule4Record:
    """Replacement of the high-neighborhood-only vertex set I by p synthetics."""

    p: int
    deleted_vertices: tuple[int, ...]
    added_synthetics: tuple[int, ...]
    moved_edge_counts: dict[int, int]


KernelStep = Union[Rule2Record, Rule4Record]


@dataclass
class KernelTrace:
    """Replayable record of rule applications.

    vertex_map maps kernel vertex id -> original vertex id (None for
    synthetic vertices).  kernel_instance is attached when the pipeline
    finishes so that lifted orderings can be re-costed.
    """

    original_n: int
    steps: list[KernelStep] = field(default_factory=list)
    vertex_map: tuple[Optional[int], ...] = ()
    kernel_instance: Optional[Instance] = None

    @property
    def w_offset(self) -> int:
        return sum(s.w_delta for s in self.steps if isinstance(s, Rule2Record))


@dataclass(frozen=True)
class TrivialNo:
    rule: str


@dataclass(frozen=True)
class Kernel:
    instance: Instance
    trace: KernelTrace


KernelOutcome = Union[TrivialNo, Kernel]


class _WorkGraph:
    """Array work state of the pipeline.

    The input graph's edge arrays stay as they are; rule 2 clears entries of
    an alive-edge mask, built when rule 2 first fires, and lowers a copy of
    the degree array.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.deg = g.deg.copy()
        self.alive: Optional[np.ndarray] = None

    def alive_edges(self) -> tuple[np.ndarray, np.ndarray]:
        g = self.g
        if self.alive is None:
            return g.eu, g.ev
        return g.eu[self.alive], g.ev[self.alive]

    def incident(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(edge ids, other endpoints) of the alive edges at u, by ascending
        other endpoint: one pass over ``ev`` for the edges (x, u), and the
        edges (u, x) are a contiguous run of the sorted ``eu``."""
        g = self.g
        if self.alive is None:
            self.alive = np.ones(g.m, dtype=bool)
        first, last = np.searchsorted(g.eu, (u, u + 1))
        ids = np.concatenate((np.flatnonzero(g.ev == u), np.arange(first, last)))
        ids = ids[self.alive[ids]]
        return ids, g.eu[ids] + g.ev[ids] - u


def _top_order(deg: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """(order, k0): the vertices of degree > k (there are k0 of them) by
    non-increasing degree, ties by ascending id, followed by the first
    vertex of largest degree <= k if there is one.  This is the prefix of
    the full degree order that the gap search and rule 2 read: a gap of
    more than k always sits just below a vertex of degree > k."""
    high = deg > k
    top = np.flatnonzero(high)
    k0 = top.size
    top = top[np.argsort(-deg[top], kind="stable")]
    if k0 < deg.size:
        top = np.append(top, np.where(high, -1, deg).argmax())
    return top, k0


def _find_gap(sorted_degs: np.ndarray, k: int) -> Optional[int]:
    hits = np.flatnonzero(sorted_degs[:-1] - sorted_degs[1:] > k)
    return int(hits[0]) + 1 if hits.size else None


def rule1_check(inst: Instance) -> bool:
    """True (trivial no-instance) iff more than k vertices have degree > k."""
    return int(np.count_nonzero(inst.graph.deg > inst.k)) > inst.k


def find_big_gap(inst: Instance) -> Optional[int]:
    """Smallest cut index t where the sorted degree sequence drops by more
    than k, or None.  Any hit satisfies t <= |{v : d(v) > k}|."""
    deg = inst.graph.deg
    order, _ = _top_order(deg, inst.k)
    return _find_gap(deg[order], inst.k)


def _apply_rule2(
    work: _WorkGraph, order: np.ndarray, t: int, k: int, error: type[Exception] = InvariantError
) -> Rule2Record:
    """Delete delta-k tail edges from each of the top-t vertices.

    ``order`` starts with the full degree order's first t + 1 vertices.
    Edges are picked toward tail vertices of smallest current degree (ties
    by ascending id), which keeps the head block on top and restores the gap
    at t to exactly k.  ``error`` is raised, before anything changes, when
    the gap at t is at most k or a head vertex has too few tail edges.
    """
    deg = work.deg
    order = np.asarray(order)
    head = order[:t].tolist()
    delta = int(deg[order[t - 1]] - deg[order[t]])
    need = delta - k
    if need <= 0:
        raise error(f"gap at t={t} is {delta}, needs to exceed k={k}")
    in_head = np.zeros(deg.size, dtype=bool)
    in_head[head] = True
    tails = []
    for u in head:
        ids, xs = work.incident(u)
        tail = ~in_head[xs]
        if np.count_nonzero(tail) < need:
            raise error(f"head vertex {u} has fewer than {need} edges into the tail at t={t}")
        tails.append((u, ids[tail], xs[tail]))
    removed: list[tuple[int, int]] = []
    for u, ids, xs in tails:
        # xs ascend, so a stable sort by degree orders by (degree, id)
        pick = np.argsort(deg[xs], kind="stable")[:need]
        ids, xs = ids[pick], xs[pick]
        work.alive[ids] = False
        deg[xs] -= 1
        deg[u] -= need
        removed += zip(np.minimum(xs, u).tolist(), np.maximum(xs, u).tolist())
    w_delta = (t * t + t) * need // 2
    return Rule2Record(t=t, delta=delta, removed_edges=tuple(removed), w_delta=w_delta)


def rule2_apply(inst: Instance, t: int) -> tuple[Instance, Rule2Record]:
    """Standalone application of the degree-gap reduction at cut index t.

    Raises ValueError when t is no big gap, a head vertex has too few edges
    into the tail, or the budget would drop below 0."""
    g, k = inst.graph, inst.k
    if not 0 < t < g.n:
        raise ValueError(f"cut index t={t} is outside 1..{g.n - 1}")
    work = _WorkGraph(g)
    record = _apply_rule2(work, np.asarray(order_by_degree(g.deg)), t, k, error=ValueError)
    new_w = inst.w - record.w_delta
    if new_w < 0:
        raise ValueError("budget underflow; instance is a trivial no")
    graph, _ = _compact(work, None, None)
    return Instance(graph=graph, w=new_w, k=k), record


def _isolated_substitution_sets(work: _WorkGraph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks (high, iso): high = degree > k; iso = not high and every alive
    neighbor high (degree-0 vertices included)."""
    high = work.deg > k
    eu, ev = work.alive_edges()
    has_low_neighbor = np.zeros(high.size, dtype=bool)
    has_low_neighbor[eu[~high[ev]]] = True
    has_low_neighbor[ev[~high[eu]]] = True
    return high, ~(high | has_low_neighbor)


def _rule3_fires(k: int, high: np.ndarray, iso: np.ndarray) -> bool:
    """Counting bound: the vertices outside high and outside I number more
    than (k - |high|) * (k + 1)."""
    n_high = int(np.count_nonzero(high))
    rest = high.size - n_high - int(np.count_nonzero(iso))
    return rest > (k - n_high) * (k + 1)


def rule3_check(inst: Instance) -> bool:
    """Counting bound: fires (trivial no) iff the vertices outside
    high-degree and outside I number more than (k - |high|) * (k + 1)."""
    return _rule3_fires(inst.k, *_isolated_substitution_sets(_WorkGraph(inst.graph), inst.k))


def rule4_apply(inst: Instance) -> tuple[Instance, Optional[Rule4Record]]:
    """Standalone application of the I-substitution rule.

    Returns the reduced instance and the record, or (inst, None) when the
    rule does not apply (I empty, or some high vertex is adjacent to all of
    I so no replacement shrinks it).
    """
    work = _WorkGraph(inst.graph)
    high, iso = _isolated_substitution_sets(work, inst.k)
    record = _build_rule4(work, high, iso)
    if record is None:
        return inst, None
    graph, _ = _compact(work, iso, record)
    return Instance(graph=graph, w=inst.w, k=inst.k), record


def _build_rule4(work: _WorkGraph, high: np.ndarray, iso: np.ndarray) -> Optional[Rule4Record]:
    """The record of replacing I by p synthetic vertices, the i-th adjacent
    to every high vertex with more than i edges into I; None when I is
    empty or p would not be smaller than |I|."""
    n_iso = int(np.count_nonzero(iso))
    if not n_iso:
        return None
    eu, ev = work.alive_edges()
    # every alive edge at a vertex of I leads to a high vertex
    into_iso = np.bincount(np.concatenate((eu[iso[ev]], ev[iso[eu]])), minlength=high.size)
    high_ids = np.flatnonzero(high)
    counts = into_iso[high_ids]
    p = int(counts.max(initial=0))
    if p >= n_iso:
        return None
    n = high.size
    return Rule4Record(
        p=p,
        deleted_vertices=tuple(np.flatnonzero(iso).tolist()),
        added_synthetics=tuple(range(n, n + p)),
        moved_edge_counts=dict(zip(high_ids.tolist(), counts.tolist())),
    )


def _compact(work: _WorkGraph, iso: Optional[np.ndarray], rule4: Optional[Rule4Record]):
    """Drop the deleted vertices (I, when rule 4 applied), renumber the
    survivors densely (originals first in ascending id, then synthetics) and
    return (graph, vertex_map)."""
    g = work.g
    if rule4 is None and work.alive is None:
        return g, tuple(range(g.n))
    eu, ev = work.alive_edges()
    keep = np.ones(g.n, dtype=bool)
    p = 0
    if rule4 is not None:
        keep[iso] = False
        p = rule4.p
    survivors = np.flatnonzero(keep)
    new_id = np.cumsum(keep) - 1
    inner = keep[eu] & keep[ev]
    us, vs = new_id[eu[inner]], new_id[ev[inner]]
    if p:
        hubs = np.fromiter(rule4.moved_edge_counts, dtype=np.int64)
        counts = np.fromiter(rule4.moved_edge_counts.values(), dtype=np.int64)
        # high vertex v links to synthetics 0..counts[v]-1
        slot = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        us = np.concatenate((us, new_id[np.repeat(hubs, counts)]))
        vs = np.concatenate((vs, survivors.size + slot))
    graph = build_graph(survivors.size + p, np.column_stack((us, vs)))
    return graph, tuple(survivors.tolist()) + (None,) * p


def kernelize(inst: Instance) -> KernelOutcome:
    """Run the full reduction pipeline.

    Outcome is either TrivialNo or an equivalent instance (identical yes/no
    answer once the budget is shifted by the recorded offset) with at most
    k^2 + 2k vertices and the same k.
    """
    g, w, k = inst.graph, inst.w, inst.k
    if k < 0:
        return TrivialNo(rule="negative-k")
    if rule1_check(inst):
        return TrivialNo(rule="rule1")
    work = _WorkGraph(g)
    trace = KernelTrace(original_n=g.n)
    order, k0 = _top_order(work.deg, k)
    while order.size and work.deg[order[0]] > k * (k0 + 1):
        t = _find_gap(work.deg[order], k)
        if t is None:
            raise InvariantError("top degree above k*(k0+1) forces a big gap")
        record = _apply_rule2(work, order, t, k)
        trace.steps.append(record)
        w -= record.w_delta
        if w < 0:
            return TrivialNo(rule="budget-underflow")
        # the head block keeps its order on top and the gap below it closes
        # to exactly k
        outside = np.ones(g.n, dtype=bool)
        outside[order[:t]] = False
        if work.deg[order[t - 1]] - work.deg.max(where=outside, initial=0) != k:
            raise InvariantError(f"rule 2 left a gap other than k at t={t}")
        order, k0 = _top_order(work.deg, k)
    high, iso = _isolated_substitution_sets(work, k)
    if _rule3_fires(k, high, iso):
        return TrivialNo(rule="rule3")
    rule4 = _build_rule4(work, high, iso)
    if rule4 is not None:
        trace.steps.append(rule4)
    graph, vertex_map = _compact(work, iso, rule4)
    kernel_inst = Instance(graph=graph, w=w, k=min(k, graph.n))
    trace.vertex_map = vertex_map
    trace.kernel_instance = kernel_inst
    return Kernel(instance=kernel_inst, trace=trace)


def lift(trace: KernelTrace, kernel_ord: Ordering, original: Instance) -> Ordering:
    """Map an optimal kernel ordering back to the original graph.

    Synthetic vertices are dropped, surviving originals keep their relative
    order, and every remaining original vertex is appended in ascending id.
    The result is re-costed on the original graph and must equal the kernel
    cost plus the recorded budget offset; a mismatch means the kernel
    ordering was not optimal or the trace is corrupt.
    """
    if trace.kernel_instance is None:
        raise LiftError("trace has no kernel instance attached")
    kernel_total = evaluate(trace.kernel_instance.graph, kernel_ord).total
    return lift_costed(trace, kernel_ord, original, kernel_total)[0]


def lift_costed(
    trace: KernelTrace, kernel_ord: Ordering, original: Instance, kernel_total: int
) -> tuple[Ordering, CostReport]:
    """``lift`` for a kernel ordering whose cost on the kernel graph the
    caller has already verified to be ``kernel_total``.  Returns the lifted
    ordering with its cost report on the original graph, so that neither
    ordering is costed twice."""
    vertex_map = np.array([-1 if v is None else v for v in trace.vertex_map], dtype=np.int64)
    kept = vertex_map[np.asarray(kernel_ord.sequence, dtype=np.int64)]
    kept = kept[kept >= 0]
    rest = np.ones(trace.original_n, dtype=bool)
    rest[kept] = False
    lifted = Ordering.from_sequence(np.concatenate((kept, np.flatnonzero(rest))))
    report = evaluate(original.graph, lifted)
    if report.total != kernel_total + trace.w_offset:
        raise LiftError(
            f"lift mismatch: original cost {report.total} != kernel {kernel_total} "
            f"+ offset {trace.w_offset}"
        )
    return lifted, report
