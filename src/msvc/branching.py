"""Branching solver: guess a minimal cover and its placement, then fill the
remaining prefix positions from a small scored candidate set.

For every minimal cover S (|S| <= k) and every injective mapping of S into
positions 1..k, the unoccupied prefix positions are filled in increasing
order.  At a gap p, a vertex outside S only helps by undercutting the charges
of its edges to later-placed cover vertices, so each candidate is scored by
the total charge reduction it would realize at p, and only the k - |S|
best-scoring vertices need to be branched on.  The minimum cost over all
branches decides the instance and yields a witness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations
from typing import Optional

from .graph import Graph, Instance, InvariantError, Ordering, evaluate
from .covers import MinimalCover, enumerate_minimal_covers
from .kernel import Kernel, TrivialNo, kernelize, lift


@dataclass
class PartialPlacement:
    """Injective assignment of vertices to prefix positions 1..k."""

    slots: dict[int, int] = field(default_factory=dict)  # position -> vertex
    placed: set[int] = field(default_factory=set)

    def place(self, position: int, vertex: int) -> None:
        if position in self.slots:
            raise ValueError(f"position {position} already occupied")
        if vertex in self.placed:
            raise ValueError(f"vertex {vertex} already placed")
        self.slots[position] = vertex
        self.placed.add(vertex)


@dataclass(frozen=True)
class SolveStats:
    covers_enumerated: int
    mappings_tried: int
    branches: int
    elapsed: float


@dataclass(frozen=True)
class SolveResult:
    decision: bool
    best_cost: Optional[int]
    best_ordering: Optional[Ordering]
    stats: SolveStats
    kernel_summary: Optional[dict] = None


def score(g: Graph, placement: PartialPlacement, p: int, u: int) -> int:
    """Sum of (j - p) over occupied positions j > p holding a neighbor of u."""
    pos_of = {v: j for j, v in placement.slots.items()}
    total = 0
    for x in g.adj[u]:
        j = pos_of.get(x, 0)
        if j > p:
            total += j - p
    return total


def candidate_set(g: Graph, placement: PartialPlacement, p: int, budget: int) -> list[int]:
    """The ``budget`` unplaced vertices of highest score at p (ties by
    ascending id); fewer if fewer vertices remain."""
    unplaced = [u for u in range(g.n) if u not in placement.placed]
    ranked = sorted(unplaced, key=lambda u: (-score(g, placement, p, u), u))
    return ranked[: max(budget, 0)]


def _mapping_positions(k_eff: int, size: int, cache: dict) -> list[tuple[int, ...]]:
    key = (k_eff, size)
    if key not in cache:
        cache[key] = list(permutations(range(1, k_eff + 1), size))
    return cache[key]


def _explore_cover(g: Graph, k_eff: int, cover: MinimalCover, perm_cache: dict):
    """Best (cost, sequence) over all mappings and fills of one cover."""
    n = g.n
    cover_list = sorted(cover.vertices)
    s = len(cover_list)
    budget = k_eff - s
    non_cover = [u for u in range(n) if u not in cover.vertices]
    best_cost: Optional[int] = None
    best_seq: Optional[tuple[int, ...]] = None
    mappings = 0
    branches = 0

    # edges with both ends in the cover pay min of the two positions; every
    # other edge pays the cover endpoint's position unless a fill undercuts it
    inner_edges = [(u, v) for u, v in g.edges if u in cover.vertices and v in cover.vertices]
    out_weight = {u: sum(1 for x in g.adj[u] if x not in cover.vertices) for u in cover_list}

    for pos_tuple in _mapping_positions(k_eff, s, perm_cache):
        mappings += 1
        pos = dict(zip(cover_list, pos_tuple))
        base = sum(min(pos[u], pos[v]) for u, v in inner_edges)
        base += sum(pos[u] * out_weight[u] for u in cover_list)
        occupied = set(pos_tuple)
        gaps = [p for p in range(1, k_eff + 1) if p not in occupied]
        # a vertex filled at gap p only undercuts edges to cover vertices
        # placed after p, so its score is fixed once the mapping is chosen
        gap_scores: list[list[tuple[int, int]]] = []
        for p in gaps:
            scored = []
            for u in non_cover:
                sc = 0
                for x in g.adj[u]:
                    j = pos.get(x, 0)
                    if j > p:
                        sc += j - p
                scored.append((-sc, u))
            scored.sort()
            gap_scores.append(scored)

        # depth-first walk over fills: at gap i take the `budget` best
        # not-yet-placed candidates
        used: set[int] = set()
        fill_seq: list[tuple[int, int]] = []  # (gap position, vertex)

        def walk(i: int, gain: int) -> None:
            nonlocal best_cost, best_seq, branches
            if i == len(gaps) or len(used) == len(non_cover):
                branches += 1
                cost = base - gain
                if best_cost is None or cost < best_cost:
                    seq = _materialize(n, k_eff, pos, fill_seq)
                    best_cost, best_seq = cost, seq
                elif cost == best_cost:
                    seq = _materialize(n, k_eff, pos, fill_seq)
                    if seq < best_seq:
                        best_seq = seq
                return
            # position k itself never carries a charge once the cover is
            # placed, so it takes just the top candidate instead of branching
            cap = 1 if gaps[i] == k_eff else budget
            taken = 0
            for neg_sc, u in gap_scores[i]:
                if taken == cap:
                    break
                if u in used:
                    continue
                taken += 1
                used.add(u)
                fill_seq.append((gaps[i], u))
                walk(i + 1, gain - neg_sc)
                fill_seq.pop()
                used.discard(u)

        walk(0, 0)
    return best_cost, best_seq, mappings, branches


def _materialize(
    n: int, k_eff: int, pos: dict[int, int], fill_seq: list[tuple[int, int]]
) -> tuple[int, ...]:
    """Total ordering: mapped cover + fills at their positions, every
    remaining vertex appended in ascending id."""
    slot = [-1] * (k_eff + 1)
    placed = set()
    for v, p in pos.items():
        slot[p] = v
        placed.add(v)
    for p, v in fill_seq:
        slot[p] = v
        placed.add(v)
    rest = [v for v in range(n) if v not in placed]
    seq: list[int] = []
    for p in range(1, k_eff + 1):
        if slot[p] != -1:
            seq.append(slot[p])
        elif rest:
            seq.append(rest.pop(0))
    seq.extend(rest)
    return tuple(seq)


def branch_solve(inst: Instance) -> SolveResult:
    """Decide the instance and report the cheapest ordering with max charge
    <= k; remaining vertices are appended after position k in ascending id."""
    start = time.perf_counter()
    g, w, k = inst.graph, inst.w, inst.k
    k_eff = min(k, g.n)
    covers = enumerate_minimal_covers(g, k_eff)
    perm_cache: dict = {}
    best_cost: Optional[int] = None
    best_seq: Optional[tuple[int, ...]] = None
    mappings = 0
    branches = 0

    for cover in covers:
        cost, seq, maps, brs = _explore_cover(g, k_eff, cover, perm_cache)
        mappings += maps
        branches += brs
        if cost is None:
            continue
        if best_cost is None or (cost, seq) < (best_cost, best_seq):
            best_cost, best_seq = cost, seq

    best_ordering = None
    if best_cost is not None:
        best_ordering = Ordering.from_sequence(best_seq)
        report = evaluate(g, best_ordering)
        if report.total != best_cost or report.max_cost > k_eff:
            raise InvariantError("branching witness failed re-verification")
    stats = SolveStats(
        covers_enumerated=len(covers),
        mappings_tried=mappings,
        branches=branches,
        elapsed=time.perf_counter() - start,
    )
    decision = best_cost is not None and best_cost <= w
    return SolveResult(
        decision=decision,
        best_cost=best_cost,
        best_ordering=best_ordering,
        stats=stats,
    )


def solve(inst: Instance, use_kernel: bool = True) -> SolveResult:
    """Kernelize, run the branching solver on the kernel, lift the witness
    back to the original graph and re-verify it."""
    start = time.perf_counter()
    if not use_kernel:
        return branch_solve(inst)
    outcome = kernelize(inst)
    if isinstance(outcome, TrivialNo):
        stats = SolveStats(0, 0, 0, time.perf_counter() - start)
        return SolveResult(
            decision=False,
            best_cost=None,
            best_ordering=None,
            stats=stats,
            kernel_summary={"trivial_no": outcome.rule},
        )
    if not isinstance(outcome, Kernel):
        raise InvariantError(f"kernelize returned {type(outcome).__name__}")
    kernel_inst = outcome.instance
    offset = outcome.trace.w_offset
    sub = branch_solve(kernel_inst)
    summary = {
        "n": kernel_inst.graph.n,
        "m": kernel_inst.graph.m,
        "w": kernel_inst.w,
        "w_offset": offset,
    }
    if sub.best_cost is None:
        stats = SolveStats(
            sub.stats.covers_enumerated,
            sub.stats.mappings_tried,
            sub.stats.branches,
            time.perf_counter() - start,
        )
        return SolveResult(False, None, None, stats, kernel_summary=summary)
    lifted = lift(outcome.trace, sub.best_ordering, inst)
    total = sub.best_cost + offset
    report = evaluate(inst.graph, lifted)
    if report.total != total or report.max_cost > inst.k:
        raise InvariantError("lifted ordering failed re-verification")
    stats = SolveStats(
        sub.stats.covers_enumerated,
        sub.stats.mappings_tried,
        sub.stats.branches,
        time.perf_counter() - start,
    )
    return SolveResult(
        decision=total <= inst.w,
        best_cost=total,
        best_ordering=lifted,
        stats=stats,
        kernel_summary=summary,
    )
