"""Branching solver: guess a minimal cover and its placement, then fill the
remaining prefix positions from a small scored candidate set.

For every minimal cover S (|S| <= k) and every injective mapping of S into
positions 1..k, the unoccupied prefix positions (gaps) are filled in
increasing order.  At a gap p, a vertex outside S only helps by undercutting
the charges of its edges to later-placed cover vertices, so each candidate is
scored by the total charge reduction it would realize at p, and only the
k - |S| best-scoring vertices need to be branched on.  The minimum cost over
all branches decides the instance and yields a witness.

Most branches are never walked.  Before the search, the greedy ordering that
repeatedly takes the vertex covering the most uncovered edges is costed; if
its max charge is at most k, its cost is the incumbent.  A mapping's cost is
its base cost (every edge charged at its cover endpoint) less the scores of
its fills, so base cost minus the best single-vertex score at each gap bounds
every fill of that mapping from below.  The mappings of a cover are bounded
in numpy, a block of rows at a time, and each block is walked in ascending
bound order up to the first mapping whose bound is strictly greater than the
smaller of the incumbent and the best cost found so far.  Inside the fill
walk, a partial fill is cut by the same rule, with the best scores of the
gaps still open in place of the fills to come.  Ties are never cut: every
branch that reaches the optimum is walked, so the witness is the smallest
(cost, sequence) of the whole branch space, exactly as without the bounds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np

from .graph import Graph, Instance, InvariantError, Ordering, evaluate
from .covers import MinimalCover, enumerate_minimal_covers
from .kernel import Kernel, TrivialNo, kernelize, lift

# Largest number of mappings bounded in one numpy block.  Blocks fix the
# positions of the first few cover vertices, so a cover's P(k, |S|) mappings
# are never held at once.
BLOCK_ROWS = 720


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


@dataclass(frozen=True, slots=True)
class SolveStats:
    """Search counters of one solve.

    ``mappings_tried`` counts every mapping of a cover into the prefix that
    was bounded, ``mappings_cut`` those of them never walked because their
    bound exceeded the best known cost, and ``branches`` the fills walked to
    the end.  ``incumbent`` is the greedy ordering's cost that seeded the
    bound (on the scale of ``best_cost``, kernel offset included), or None
    when that ordering's max charge exceeds k.
    """

    covers_enumerated: int
    mappings_tried: int
    branches: int
    elapsed: float
    mappings_cut: int = 0
    incumbent: Optional[int] = None


@dataclass(frozen=True, slots=True)
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


def greedy_incumbent(g: Graph, k: int) -> Optional[int]:
    """Cost of the ordering that repeatedly places the vertex with the most
    uncovered edges (ties by ascending id), or None when its max charge
    exceeds k."""
    remaining = list(g.degrees)
    placed = [False] * g.n
    total = steps = 0
    while True:
        v = max(range(g.n), key=lambda u: (remaining[u], -u), default=None)
        if v is None or remaining[v] == 0:
            break
        steps += 1
        total += steps * remaining[v]
        placed[v] = True
        remaining[v] = 0
        for x in g.adj[v]:
            if not placed[x]:
                remaining[x] -= 1
    return total if steps <= k else None


def _arrangements(m: int, r: int) -> np.ndarray:
    """Every ordered choice of r distinct values from range(m), one int16 row
    each, in lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.int16)
    for _ in range(r):
        free = np.ones((len(rows), m), dtype=bool)
        free[np.arange(len(rows))[:, None], rows] = False
        # nonzero walks row-major, so the extended rows stay in order
        row_ix, value = np.nonzero(free)
        rows = np.concatenate([rows[row_ix], value[:, None].astype(np.int16)], axis=1)
    return rows


def _mapping_blocks(k: int, s: int) -> Iterator[np.ndarray]:
    """Every injective map of s cover vertices into positions 1..k, as int16
    rows of positions (int8 would wrap past 127) in lexicographic order.
    Each block fixes the positions of the first few cover vertices, as few
    as keep it within BLOCK_ROWS rows."""
    head = 0
    while head < s and math.perm(k - head, s - head) > BLOCK_ROWS:
        head += 1
    tail = _arrangements(k - head, s - head)
    positions = np.arange(1, k + 1, dtype=np.int16)
    for fixed in _arrangements(k, head):
        block = np.empty((len(tail), s), dtype=np.int16)
        block[:, :head] = fixed + 1
        block[:, head:] = np.delete(positions, fixed)[tail]
        yield block


class _CoverTerms:
    """The parts of a mapping's cost and bound that depend on the cover
    alone."""

    def __init__(self, g: Graph, cover: MinimalCover):
        self.cover_list = sorted(cover.vertices)
        self.non_cover = [u for u in range(g.n) if u not in cover.vertices]
        index = {v: i for i, v in enumerate(self.cover_list)}
        # a cover is a vertex cover: every neighbor of a non-cover vertex
        # is in it
        self.cover_neighbors = [[index[x] for x in g.adj[u]] for u in self.non_cover]
        # edges with both ends in the cover pay min of the two positions;
        # every other edge pays the cover endpoint's position unless a fill
        # undercuts it
        self.inner = np.array(
            [(index[u], index[v]) for u, v in g.edges if u in index and v in index],
            dtype=np.intp,
        ).reshape(-1, 2)
        self.out_weight = np.array(
            [sum(1 for x in g.adj[u] if x not in index) for u in self.cover_list],
            dtype=np.int32,
        )
        # non-cover vertices with the same cover neighbors score alike, so
        # the per-gap best needs one row per distinct neighborhood
        classes = {tuple(nbrs) for nbrs in self.cover_neighbors}
        self.links = np.zeros((len(classes), len(self.cover_list)), dtype=np.int32)
        for row, nbrs in enumerate(classes):
            self.links[row, list(nbrs)] = 1

    def bounds(self, block: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Base cost and lower bound of every mapping in a block of rows of
        positions."""
        pos = block.T.astype(np.int32)  # pos[x, r]: position of cover vertex x
        inner = self.inner
        base = self.out_weight @ pos + np.minimum(pos[inner[:, 0]], pos[inner[:, 1]]).sum(axis=0)
        # ahead[p - 1, x, r]: the charge a fill at position p saves on an
        # edge to cover vertex x, in mapping r
        ahead = pos - np.arange(1, k + 1, dtype=np.int32)[:, None, None]
        np.maximum(ahead, 0, out=ahead)
        best_fill = (self.links @ ahead).max(axis=1, initial=0)
        best_fill[pos - 1, np.arange(pos.shape[1])] = 0  # occupied: no gap
        return base, base - best_fill.sum(axis=0)


class _Search:
    """Shared state of one branch_solve: the cheapest cost and prefix found
    so far, the incumbent, and the counters."""

    def __init__(self, g: Graph, k_eff: int, incumbent: Optional[int]):
        self.g = g
        self.k_eff = k_eff
        self.incumbent = incumbent
        self.limit = math.inf if incumbent is None else incumbent
        self.best_cost: Optional[int] = None
        # vertices at positions 1..k of the best ordering; the rest follow
        # in ascending id, so equal prefixes mean equal orderings
        self.best_prefix: Optional[list[int]] = None
        self.mappings = 0
        self.cut = 0
        self.branches = 0

    def _offer(self, cost: int, prefix: list[int]) -> None:
        if self.best_cost is None or cost < self.best_cost:
            self.best_cost, self.best_prefix = cost, prefix.copy()
            self.limit = min(self.limit, cost)
        elif cost == self.best_cost and prefix < self.best_prefix:
            self.best_prefix = prefix.copy()

    def explore(self, cover: MinimalCover) -> None:
        """Walk every mapping and fill of one cover that can still reach the
        best known cost."""
        terms = _CoverTerms(self.g, cover)
        for block in _mapping_blocks(self.k_eff, len(terms.cover_list)):
            rows = len(block)
            self.mappings += rows
            base, bound = terms.bounds(block, self.k_eff)
            order = np.argsort(bound, kind="stable")
            for walked, (r, low) in enumerate(zip(order.tolist(), bound[order].tolist())):
                if low > self.limit:
                    self.cut += rows - walked
                    break
                self.walk_mapping(terms, block[r].tolist(), int(base[r]))

    def walk_mapping(self, terms: _CoverTerms, positions: list[int], base: int) -> None:
        """Depth-first walk over the fills of one mapping: at each gap take
        the best not-yet-placed candidates while they can still reach the
        best known cost."""
        k_eff = self.k_eff
        prefix = [-1] * k_eff
        for v, p in zip(terms.cover_list, positions):
            prefix[p - 1] = v
        gaps = [p for p in range(1, k_eff + 1) if prefix[p - 1] == -1]
        budget = len(gaps)
        # a vertex filled at gap p only undercuts edges to cover vertices
        # placed after p, so its score is fixed once the mapping is chosen
        reach = [[positions[x] for x in nbrs] for nbrs in terms.cover_neighbors]
        gap_scores = [
            sorted((-sum(j - p for j in js if j > p), u) for u, js in zip(terms.non_cover, reach))
            for p in gaps
        ]
        # can_save[i]: the most the fills of gaps i.. can save together
        can_save = [0] * (len(gaps) + 1)
        for i in range(len(gaps) - 1, -1, -1):
            can_save[i] = can_save[i + 1] - (gap_scores[i][0][0] if gap_scores[i] else 0)
        used: set[int] = set()

        # every leaf fills all gaps: the walk runs out of candidates only
        # when every vertex is placed, and then k = n leaves no gap open
        def walk(i: int, gain: int) -> None:
            if i == len(gaps):
                self.branches += 1
                self._offer(base - gain, prefix)
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
                # candidates come best first: once one cannot reach the
                # best known cost, none of the rest can
                if base - gain + neg_sc - can_save[i + 1] > self.limit:
                    break
                taken += 1
                used.add(u)
                prefix[gaps[i] - 1] = u
                walk(i + 1, gain - neg_sc)
                used.discard(u)

        walk(0, 0)


def branch_solve(inst: Instance) -> SolveResult:
    """Decide the instance and report the cheapest ordering with max charge
    <= k; remaining vertices are appended after position k in ascending id."""
    start = time.perf_counter()
    g, w, k = inst.graph, inst.w, inst.k
    k_eff = min(k, g.n)
    covers = enumerate_minimal_covers(g, k_eff)
    search = _Search(g, k_eff, greedy_incumbent(g, k_eff))
    for cover in covers:
        search.explore(cover)

    best_cost, best_ordering = search.best_cost, None
    if best_cost is not None:
        placed = set(search.best_prefix)
        rest = [v for v in range(g.n) if v not in placed]
        best_ordering = Ordering.from_sequence(search.best_prefix + rest)
        report = evaluate(g, best_ordering)
        if report.total != best_cost or report.max_cost > k_eff:
            raise InvariantError("branching witness failed re-verification")
    elif search.incumbent is not None:
        raise InvariantError("branching found no ordering although the greedy one is feasible")
    stats = SolveStats(
        covers_enumerated=len(covers),
        mappings_tried=search.mappings,
        branches=search.branches,
        elapsed=time.perf_counter() - start,
        mappings_cut=search.cut,
        incumbent=search.incumbent,
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
    incumbent = sub.stats.incumbent
    if incumbent is not None:
        incumbent += offset
    if sub.best_cost is None:
        stats = replace(sub.stats, elapsed=time.perf_counter() - start, incumbent=incumbent)
        return SolveResult(False, None, None, stats, kernel_summary=summary)
    lifted = lift(outcome.trace, sub.best_ordering, inst)
    total = sub.best_cost + offset
    report = evaluate(inst.graph, lifted)
    if report.total != total or report.max_cost > inst.k:
        raise InvariantError("lifted ordering failed re-verification")
    return SolveResult(
        decision=total <= inst.w,
        best_cost=total,
        best_ordering=lifted,
        stats=replace(sub.stats, elapsed=time.perf_counter() - start, incumbent=incumbent),
        kernel_summary=summary,
    )
