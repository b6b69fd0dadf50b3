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

The pipeline runs on the graph's edge arrays.  Rule 1 and the rule-2 loop
test read one count of the vertices of degree > k and the maximum degree,
so the degree order is built only when rule 2 can fire; it reads only the
order's high-degree prefix.  Per head vertex it finds the incident edges in
one pass over the edge arrays, picks the tail edges with one stable sort by
current degree, clears them in an alive-edge mask and lowers a copy of the
degree array.  Rules 3 and 4 are masks and bincounts, compaction is an
index remap (re-sorted only with synthetics), and ``lift`` maps the kernel
ordering's tight prefix through the vertex-map tuple.  The trace records
hold the removed edges and the deleted vertices as read-only int64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .graph import (
    Graph,
    Instance,
    InvariantError,
    Ordering,
    _readonly,
    build_graph,
    evaluate,
)


class LiftError(RuntimeError):
    """Lifted ordering failed cost re-verification on the original graph."""


class _Record:
    """Equality by value, field by field, array fields elementwise."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True, eq=False)
class Rule2Record(_Record):
    """One degree-gap reduction: cut index t, gap delta, the deleted edges
    as a read-only (r, 2) int64 array of (lo, hi) rows in the order rule 2
    picked them, and the amount the budget dropped."""

    t: int
    delta: int
    removed_edges: np.ndarray
    w_delta: int


@dataclass(frozen=True, eq=False)
class Rule4Record(_Record):
    """Replacement of the high-neighborhood-only vertex set I (a read-only
    ascending int64 array) by p synthetics."""

    p: int
    deleted_vertices: np.ndarray
    moved_edge_counts: dict[int, int]


KernelStep = Union[Rule2Record, Rule4Record]


@dataclass(frozen=True)
class KernelTrace:
    """Replayable record of rule applications, in the order they fired.

    vertex_map maps kernel vertex id -> original vertex id (None for
    synthetic vertices).  The kernel instance itself is ``Kernel.instance``;
    ``lift`` takes the whole ``Kernel``.
    """

    steps: tuple[KernelStep, ...]
    vertex_map: tuple[Optional[int], ...]

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


class _WorkGraph:
    """Array work state of the pipeline: the input graph's edge arrays and
    degrees, and the alive-edge mask and degree copy rule 2 changes."""

    def __init__(self, g: Graph):
        self.g = g
        self.deg = g.deg
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
    if work.alive is None:  # the first step: every edge alive, degrees of their own
        work.alive, work.deg = np.ones(work.g.m, dtype=bool), work.deg.copy()
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
    removed: list[np.ndarray] = []
    for u, ids, xs in tails:
        # xs ascend, so a stable sort by degree orders by (degree, id)
        pick = np.argsort(deg[xs], kind="stable")[:need]
        ids, xs = ids[pick], xs[pick]
        work.alive[ids] = False
        deg[xs] -= 1
        deg[u] -= need
        removed.append(np.column_stack((np.minimum(xs, u), np.maximum(xs, u))))
    w_delta = (t * t + t) * need // 2
    edges = _readonly(np.concatenate(removed))
    return Rule2Record(t=t, delta=delta, removed_edges=edges, w_delta=w_delta)


def rule2_apply(inst: Instance, t: int) -> tuple[Instance, Rule2Record]:
    """Standalone application of the degree-gap reduction at cut index t.

    Raises ValueError when t is no big gap, a head vertex has too few edges
    into the tail, or the budget would drop below 0."""
    g, k = inst.graph, inst.k
    if not 0 < t < g.n:
        raise ValueError(f"cut index t={t} is outside 1..{g.n - 1}")
    work = _WorkGraph(g)
    record = _apply_rule2(work, np.argsort(-g.deg, kind="stable"), t, k, error=ValueError)
    new_w = inst.w - record.w_delta
    if new_w < 0:
        raise ValueError("budget underflow; instance is a trivial no")
    graph, _ = _compact(work, None)
    return Instance(graph=graph, w=new_w, k=k), record


def _isolated_substitution_set(work: _WorkGraph, high: np.ndarray) -> np.ndarray:
    """The mask of I, given the mask of degree > k: the vertices not high
    whose alive neighbors are all high (degree-0 vertices included)."""
    eu, ev = work.alive_edges()
    has_low_neighbor = np.zeros(high.size, dtype=bool)
    has_low_neighbor[eu[~high[ev]]] = True
    has_low_neighbor[ev[~high[eu]]] = True
    return ~(high | has_low_neighbor)


def _rule3_fires(k: int, high: np.ndarray, iso: np.ndarray) -> bool:
    """Counting bound: the vertices outside high and outside I number more
    than (k - |high|) * (k + 1)."""
    n_high = int(np.count_nonzero(high))
    rest = high.size - n_high - int(np.count_nonzero(iso))
    return rest > (k - n_high) * (k + 1)


def rule3_check(inst: Instance) -> bool:
    """Counting bound: fires (trivial no) iff the vertices outside
    high-degree and outside I number more than (k - |high|) * (k + 1)."""
    high = inst.graph.deg > inst.k
    return _rule3_fires(inst.k, high, _isolated_substitution_set(_WorkGraph(inst.graph), high))


def rule4_apply(inst: Instance) -> tuple[Instance, Optional[Rule4Record]]:
    """Standalone application of the I-substitution rule.

    Returns the reduced instance and the record, or (inst, None) when the
    rule does not apply (I empty, or some high vertex is adjacent to all of
    I so no replacement shrinks it).
    """
    work, high = _WorkGraph(inst.graph), inst.graph.deg > inst.k
    record = _build_rule4(work, high, _isolated_substitution_set(work, high))
    if record is None:
        return inst, None
    graph, _ = _compact(work, record)
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
    return Rule4Record(
        p=p,
        deleted_vertices=_readonly(np.flatnonzero(iso)),
        moved_edge_counts=dict(zip(high_ids.tolist(), counts.tolist())),
    )


def _compact(work: _WorkGraph, rule4: Optional[Rule4Record]):
    """Drop the deleted vertices (I, when rule 4 applied), renumber the
    survivors densely (originals first in ascending id, then synthetics) and
    return (graph, vertex_map)."""
    g = work.g
    if rule4 is None and work.alive is None:
        return g, tuple(range(g.n))
    eu, ev = work.alive_edges()
    keep, p = np.ones(g.n, dtype=bool), 0
    if rule4 is not None:
        keep[rule4.deleted_vertices] = False
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
    else:  # the renumbering ascends, so the edges stay sorted and distinct
        graph = Graph(n=survivors.size, eu=_readonly(us), ev=_readonly(vs))
    return graph, tuple(survivors.tolist()) + (None,) * p


def kernelize(inst: Instance) -> Union[TrivialNo, Kernel]:
    """Run the full reduction pipeline.

    Outcome is either TrivialNo or an equivalent instance (identical yes/no
    answer once the budget is shifted by the recorded offset) with at most
    k^2 + 2k vertices and the same k.
    """
    g, w, k = inst.graph, inst.w, inst.k
    high = g.deg > k
    k0 = int(np.count_nonzero(high))
    if k0 > k:  # rule 1
        return TrivialNo(rule="rule1")
    work = _WorkGraph(g)
    steps: list[KernelStep] = []
    if g.deg.max(initial=0) > k * (k0 + 1):  # rule 2 fires: read the top of the degree order
        order, k0 = _top_order(g.deg, k)
        while work.deg[order[0]] > k * (k0 + 1):
            t = _find_gap(work.deg[order], k)
            if t is None:
                raise InvariantError("top degree above k*(k0+1) forces a big gap")
            record = _apply_rule2(work, order, t, k)
            steps.append(record)
            w -= record.w_delta
            if w < 0:
                return TrivialNo(rule="budget-underflow")
            # the head block keeps its order on top, the gap below it is k
            outside = np.ones(g.n, dtype=bool)
            outside[order[:t]] = False
            if work.deg[order[t - 1]] - work.deg.max(where=outside, initial=0) != k:
                raise InvariantError(f"rule 2 left a gap other than k at t={t}")
            order, k0 = _top_order(work.deg, k)
        high = work.deg > k
    # k0 counts high; without a high vertex, I is the degree-0 vertices
    iso = _isolated_substitution_set(work, high) if k0 else work.deg == 0
    if _rule3_fires(k, high, iso):
        return TrivialNo(rule="rule3")
    rule4 = _build_rule4(work, high, iso)
    if rule4 is not None:
        steps.append(rule4)
    graph, vertex_map = _compact(work, rule4)
    trace = KernelTrace(steps=tuple(steps), vertex_map=vertex_map)
    return Kernel(instance=Instance(graph=graph, w=w, k=k), trace=trace)


def lift(kernel: Kernel, kernel_ord: Ordering, original: Instance) -> Ordering:
    """Map an optimal ordering of the kernel back to the original graph.

    Only the kernel ordering's tight prefix, its first max-charge vertices,
    is mapped, through the ``vertex_map`` tuple: synthetic vertices are
    dropped, surviving originals keep their relative order, and
    ``Ordering.from_prefix`` appends every other original vertex in
    ascending id, as the solver completes a witness.  The result is
    re-costed once on the original graph, unless it is the kernel ordering
    on the kernel's own graph.  Its total must equal the kernel ordering's
    cost plus the recorded budget offset, and its max charge must not
    exceed the original k; otherwise the kernel ordering was not optimal or
    the trace is corrupt, and LiftError is raised.
    """
    trace = kernel.trace
    kernel_report = evaluate(kernel.instance.graph, kernel_ord)
    prefix = map(trace.vertex_map.__getitem__, kernel_ord.array[: kernel_report.max_cost].tolist())
    lifted = Ordering.from_prefix([v for v in prefix if v is not None], original.graph.n)
    same = original.graph is kernel.instance.graph and lifted == kernel_ord  # no rule fired
    report = kernel_report if same else evaluate(original.graph, lifted)
    if report.total != kernel_report.total + trace.w_offset:
        raise LiftError(
            f"lift mismatch: original cost {report.total} != kernel {kernel_report.total} "
            f"+ offset {trace.w_offset}"
        )
    if report.max_cost > original.k:
        raise LiftError(f"lifted max charge {report.max_cost} exceeds k = {original.k}")
    return lifted
