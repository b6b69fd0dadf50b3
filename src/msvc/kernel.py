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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .graph import (
    Graph,
    Instance,
    InvariantError,
    Ordering,
    build_graph,
    evaluate,
    order_by_degree,
    sorted_by_degree,
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
    """Mutable adjacency/degree view used only inside the pipeline."""

    def __init__(self, g: Graph):
        self.n = g.n
        self.adj = [set(nbrs) for nbrs in g.adj]
        self.deg = [len(nbrs) for nbrs in g.adj]
        self.m = g.m

    def remove_edge(self, u: int, v: int) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self.deg[u] -= 1
        self.deg[v] -= 1
        self.m -= 1


def rule1_check(inst: Instance) -> bool:
    """True (trivial no-instance) iff more than k vertices have degree > k,
    i.e. the (k+1)-th vertex in degree order still has degree above k."""
    g, k = inst.graph, inst.k
    if g.n <= k:
        return False
    order = sorted_by_degree(g)
    return g.degree(order[k]) > k


def find_big_gap(inst: Instance) -> Optional[int]:
    """Smallest cut index t where the sorted degree sequence drops by more
    than k, or None.  Any hit satisfies t <= |{v : d(v) > k}|."""
    g, k = inst.graph, inst.k
    order = sorted_by_degree(g)
    degs = [g.degree(v) for v in order]
    return _find_gap_in(degs, k)


def _find_gap_in(degs: list[int], k: int) -> Optional[int]:
    for t in range(1, len(degs)):
        if degs[t - 1] - degs[t] > k:
            return t
    return None


def _apply_rule2(work: _WorkGraph, order: list[int], t: int, k: int) -> Rule2Record:
    """Delete delta-k tail edges from each of the top-t vertices.

    Edges are picked toward tail vertices of smallest current degree (ties by
    ascending id), which keeps the head block on top and restores the gap at
    t to exactly k.
    """
    head = order[:t]
    head_set = set(head)
    delta = work.deg[order[t - 1]] - work.deg[order[t]]
    need = delta - k
    if need <= 0:
        raise InvariantError("rule 2 called without a big gap")
    removed: list[tuple[int, int]] = []
    for u in head:
        tail_neighbors = [x for x in work.adj[u] if x not in head_set]
        if len(tail_neighbors) < need:
            raise InvariantError("head vertex lacks tail edges; degree accounting is broken")
        tail_neighbors.sort(key=lambda x: (work.deg[x], x))
        for x in tail_neighbors[:need]:
            work.remove_edge(u, x)
            removed.append((u, x) if u < x else (x, u))
    w_delta = (t * t + t) * need // 2
    return Rule2Record(t=t, delta=delta, removed_edges=tuple(removed), w_delta=w_delta)


def rule2_apply(inst: Instance, t: int) -> tuple[Instance, Rule2Record]:
    """Standalone application of the degree-gap reduction at cut index t."""
    g, k = inst.graph, inst.k
    work = _WorkGraph(g)
    order = order_by_degree(work.deg)
    delta = work.deg[order[t - 1]] - work.deg[order[t]]
    if delta <= k:
        raise ValueError(f"gap at t={t} is {delta}, needs to exceed k={k}")
    record = _apply_rule2(work, order, t, k)
    new_w = inst.w - record.w_delta
    if new_w < 0:
        raise ValueError("budget underflow; instance is a trivial no")
    edges = [(u, v) for u in range(g.n) for v in work.adj[u] if u < v]
    return Instance(graph=build_graph(g.n, edges), w=new_w, k=k), record


def _isolated_substitution_sets(work: _WorkGraph, k: int):
    """high = vertices of degree > k; iso = vertices isolated once high is
    removed (degree-0 vertices of the graph included)."""
    high = [v for v in range(work.n) if work.deg[v] > k]
    high_set = set(high)
    iso = [
        v
        for v in range(work.n)
        if v not in high_set and all(x in high_set for x in work.adj[v])
    ]
    return high, high_set, iso


def rule3_check(inst: Instance) -> bool:
    """Counting bound: fires (trivial no) iff the vertices outside
    high-degree and outside I number more than (k - |high|) * (k + 1)."""
    work = _WorkGraph(inst.graph)
    k = inst.k
    high, _, iso = _isolated_substitution_sets(work, k)
    rest = work.n - len(high) - len(iso)
    return rest > (k - len(high)) * (k + 1)


def rule4_apply(inst: Instance) -> tuple[Instance, Optional[Rule4Record]]:
    """Standalone application of the I-substitution rule.

    Returns the reduced instance and the record, or (inst, None) when the
    rule does not apply (I empty, or some high vertex is adjacent to all of
    I so no replacement shrinks it).
    """
    g, k = inst.graph, inst.k
    work = _WorkGraph(g)
    high, _, iso = _isolated_substitution_sets(work, k)
    record = _build_rule4(work, high, iso)
    if record is None:
        return inst, None
    new_graph, _ = _compact(work, g.n, record)
    return Instance(graph=new_graph, w=inst.w, k=k), record


def _build_rule4(work: _WorkGraph, high: list[int], iso: list[int]) -> Optional[Rule4Record]:
    if not iso:
        return None
    iso_set = set(iso)
    counts = {v: sum(1 for x in work.adj[v] if x in iso_set) for v in high}
    p = max(counts.values(), default=0)
    if p >= len(iso):
        return None
    synthetic = list(range(work.n, work.n + p))
    # grow the working graph with the synthetic vertices
    work.adj.extend(set() for _ in range(p))
    work.deg.extend(0 for _ in range(p))
    work.n += p
    for v in high:
        for i in range(counts[v]):
            x = synthetic[i]
            work.adj[v].add(x)
            work.adj[x].add(v)
            work.deg[x] += 1
            work.deg[v] += 1  # net zero: the edges into I are removed below
        work.m += counts[v]
    for y in iso:
        for x in list(work.adj[y]):
            work.remove_edge(y, x)
    return Rule4Record(
        p=p,
        deleted_vertices=tuple(sorted(iso)),
        added_synthetics=tuple(synthetic),
        moved_edge_counts={v: counts[v] for v in high},
    )


def _compact(work: _WorkGraph, original_n: int, rule4: Optional[Rule4Record]):
    """Drop deleted vertices, renumber survivors densely (originals first in
    ascending id, then synthetics) and return (graph, vertex_map)."""
    deleted = set(rule4.deleted_vertices) if rule4 else set()
    survivors = [v for v in range(original_n) if v not in deleted]
    synthetics = list(rule4.added_synthetics) if rule4 else []
    old_ids = survivors + synthetics
    new_id = {old: new for new, old in enumerate(old_ids)}
    edges = []
    for old in old_ids:
        for x in work.adj[old]:
            if old < x:
                edges.append((new_id[old], new_id[x]))
    graph = build_graph(len(old_ids), edges)
    vertex_map = tuple(old if old < original_n else None for old in old_ids)
    return graph, vertex_map


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
    order = order_by_degree(work.deg)
    while True:
        if work.n == 0 or work.deg[order[0]] == 0:
            break
        k0 = sum(1 for v in range(work.n) if work.deg[v] > k)
        if work.deg[order[0]] <= k * (k0 + 1):
            break
        t = _find_gap_in([work.deg[v] for v in order], k)
        if t is None:
            raise InvariantError("top degree above k*(k0+1) forces a big gap")
        record = _apply_rule2(work, order, t, k)
        trace.steps.append(record)
        w -= record.w_delta
        if w < 0:
            return TrivialNo(rule="budget-underflow")
        # the head block keeps its order and the gap at t closes to exactly
        # k; the re-sorted order carries into the next step
        order = order_by_degree(work.deg)
        if work.deg[order[t - 1]] - work.deg[order[t]] != k:
            raise InvariantError(f"rule 2 left a gap other than k at t={t}")
    high, _, iso = _isolated_substitution_sets(work, k)
    rest = work.n - len(high) - len(iso)
    if rest > (k - len(high)) * (k + 1):
        return TrivialNo(rule="rule3")
    rule4 = _build_rule4(work, high, iso)
    if rule4 is not None:
        trace.steps.append(rule4)
    graph, vertex_map = _compact(work, g.n, rule4)
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
    seq = []
    seen = set()
    for kv in kernel_ord.sequence:
        orig = trace.vertex_map[kv]
        if orig is not None:
            seq.append(orig)
            seen.add(orig)
    seq.extend(v for v in range(trace.original_n) if v not in seen)
    lifted = Ordering.from_sequence(seq)
    kernel_total = evaluate(trace.kernel_instance.graph, kernel_ord).total
    lifted_total = evaluate(original.graph, lifted).total
    if lifted_total != kernel_total + trace.w_offset:
        raise LiftError(
            f"lift mismatch: original cost {lifted_total} != kernel {kernel_total} "
            f"+ offset {trace.w_offset}"
        )
    return lifted
