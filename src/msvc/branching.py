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
its fills.  The fills save at most the best score of each gap summed, and,
since each vertex fills one gap, at most the |gaps| largest per-vertex
best-over-gaps scores summed; base cost less the smaller sum bounds every
fill of the mapping from below.  Both sums run over classes of non-cover
vertices with the same cover neighbors, counted with multiplicity.  The
mappings of a cover are bounded in numpy, a block of rows at a time, and
each block is walked in ascending bound order.  Inside the fill walk, a
partial fill's bound puts the best score of each gap still open in place of
the fills to come.  Two cuts keep a mapping or a partial fill from being
walked:

- the bound cut: its bound is strictly greater than the smaller of the
  incumbent and the best cost found so far;
- the tie-break cut: its bound is at least the best cost found so far, and
  its determined prefix (positions 1..p, all fixed) reads lexicographically
  greater than positions 1..p of the best ordering found, so it could at
  best tie that cost with a larger sequence.

A fill candidate cut by the tie-break still counts toward its gap's cap, so
the branch space is unchanged, and the witness is the smallest (cost,
sequence) of the whole branch space, exactly as without the cuts.  The
candidate order at each gap of the rows a block will walk comes from one
stable argsort of the block's scores, ties by ascending id.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .graph import Graph, Instance, InvariantError, Ordering, evaluate
from .covers import MinimalCover, enumerate_minimal_covers
# lift stays importable as msvc.branching.lift, the name the benchmark's
# tracer wraps
from .kernel import Kernel, TrivialNo, kernelize, lift, lift_costed  # noqa: F401

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
    was bounded, ``mappings_cut`` those of them never walked, cut by the
    bound (it exceeded the best known cost) or by the tie-break (it could at
    best tie the best ordering found and sorts after it), and ``branches``
    the fills walked to the end.  ``incumbent`` is the greedy ordering's
    cost that seeded the bound (on the scale of ``best_cost``, kernel offset
    included), or None when that ordering's max charge exceeds k.
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


def _arrangements(m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered choice of r distinct values from range(m), one int16 row
    each, in lexicographic order, and per row the m - r values it leaves
    out, ascending.  Both arrays are read-only."""
    rows = np.zeros((1, 0), dtype=np.int16)
    for _ in range(r):
        free = np.ones((len(rows), m), dtype=bool)
        free[np.arange(len(rows))[:, None], rows] = False
        # nonzero walks row-major, so the extended rows stay in order
        row_ix, value = np.nonzero(free)
        rows = np.concatenate([rows[row_ix], value[:, None].astype(np.int16)], axis=1)
    free = np.ones((len(rows), m), dtype=bool)
    free[np.arange(len(rows))[:, None], rows] = False
    rest = np.nonzero(free)[1].astype(np.int16).reshape(len(rows), m - r)
    rows.setflags(write=False)
    rest.setflags(write=False)
    return rows, rest


# choices of at most BLOCK_ROWS rows recur from cover to cover
_small_arrangements = lru_cache(maxsize=64)(_arrangements)


def _mapping_blocks(k: int, s: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every injective map of s cover vertices into positions 1..k, as int16
    rows of positions (int8 would wrap past 127) in lexicographic order,
    with each row's open positions (its gaps), ascending.  Blocks hold at
    most BLOCK_ROWS rows: each fixes the positions of the first few cover
    vertices, as few as keep one such choice within BLOCK_ROWS rows, and
    takes as many consecutive choices as fit."""
    head = 0
    while head < s and math.perm(k - head, s - head) > BLOCK_ROWS:
        head += 1
    tail, tail_rest = _small_arrangements(k - head, s - head)
    small = math.perm(k, head) <= BLOCK_ROWS
    heads, head_rest = (_small_arrangements if small else _arrangements)(k, head)
    step = max(1, BLOCK_ROWS // len(tail))
    for i in range(0, len(heads), step):
        fixed, free = heads[i:i + step] + 1, head_rest[i:i + step] + 1
        block = np.empty((len(fixed), len(tail), s), dtype=np.int16)
        block[:, :, :head] = fixed[:, None, :]
        block[:, :, head:] = free[:, tail]
        rows = len(fixed) * len(tail)
        yield block.reshape(rows, s), free[:, tail_rest].reshape(rows, k - s)


class _CoverTerms:
    """The parts of a mapping's cost and bound that depend on the cover
    alone."""

    def __init__(self, g: Graph, cover: MinimalCover):
        self.cover_list = sorted(cover.vertices)
        self.non_cover = np.array(
            [u for u in range(g.n) if u not in cover.vertices], dtype=np.intp
        )
        index = {v: i for i, v in enumerate(self.cover_list)}
        # edges with both ends in the cover pay min of the two positions;
        # every other edge pays the cover endpoint's position unless a fill
        # undercuts it
        inner = np.array(
            [(index[u], index[v]) for u, v in g.edges if u in index and v in index],
            dtype=np.intp,
        ).reshape(-1, 2)
        self.inner_u, self.inner_v = inner[:, 0], inner[:, 1]
        self.out_weight = np.array(
            [sum(1 for x in g.adj[u] if x not in index) for u in self.cover_list],
            dtype=np.int32,
        )
        # a cover is a vertex cover: every neighbor of a non-cover vertex is
        # in it, and non-cover vertices with the same cover neighbors score
        # alike, so scores are kept per class of such twins
        classes: dict[tuple[int, ...], int] = {}
        self.members = np.array(
            [classes.setdefault(tuple(index[x] for x in g.adj[u]), len(classes))
             for u in self.non_cover.tolist()],
            dtype=np.intp,
        )
        self.multiplicity = np.bincount(self.members, minlength=len(classes))
        self.links = np.zeros((len(classes), len(self.cover_list)), dtype=np.int32)
        for nbrs, row in classes.items():
            self.links[row, list(nbrs)] = 1

    def bounds(self, block: np.ndarray, gaps: np.ndarray, k: int, limit: float = math.inf
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Base cost, lower bound and class scores of every mapping in a
        block of rows of positions, whose open positions are ``gaps``.

        ``scores[i, c, r]`` is what a vertex of class c saves when filled at
        the i-th gap of mapping r.  The fills of a mapping save at most the
        best score of each gap summed, and at most the |gaps| largest
        best-over-gaps scores of distinct vertices summed; the bound is the
        base cost less the smaller sum.  Rows whose bound from the first sum
        is already above ``limit`` keep it.
        """
        s = block.shape[1]
        pos = block.T.astype(np.int32, order="C")  # pos[x, r]: position of cover vertex x
        base = self.out_weight @ pos + np.minimum(pos[self.inner_u], pos[self.inner_v]).sum(axis=0)
        # ahead[i, x, r]: the charge a fill at gap i saves on an edge to
        # cover vertex x, in mapping r
        ahead = pos - gaps.T[:, None, :].astype(np.int32)
        np.maximum(ahead, 0, out=ahead)
        scores = self.links @ ahead
        bound = base - scores.max(axis=1, initial=0).sum(axis=0, dtype=np.int64)
        live = np.flatnonzero(bound <= limit)
        if k == s or not live.size:
            return base, bound, scores
        # scores fall as the position grows, so every class scores best at
        # the first gap
        best = scores[0][:, live].T  # best[i, c]
        order = np.argsort(-best, axis=1)
        count = self.multiplicity[order]
        taken = np.minimum(np.maximum(k - s - (np.cumsum(count, axis=1) - count), 0), count)
        by_vertex = (best[np.arange(len(live))[:, None], order] * taken).sum(axis=1)
        bound[live] = np.maximum(bound[live], base[live] - by_vertex)
        return base, bound, scores

    def fill_order(self, scores: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For the given rows of a block, the non-cover vertices at each gap
        best score first (ties by ascending id) and their scores, both
        indexed [row, gap, rank]."""
        gains = scores[:, self.members][:, :, rows].transpose(2, 0, 1)
        rank = np.argsort(-gains, axis=2, kind="stable")
        return self.non_cover[rank], np.take_along_axis(gains, rank, axis=2)

    def sorts_after(self, block: np.ndarray, best_prefix: list[int]) -> np.ndarray:
        """Mask of the rows whose determined prefix (the cover vertices at
        positions 1.. up to the first gap) reads greater than the same
        positions of ``best_prefix``."""
        rows = np.arange(len(block))[:, None]
        # gaps hold -1, so a row differs from best_prefix at its first gap
        # at the latest and reads smaller there; the extra position keeps
        # k = 0 well defined
        prefix = np.full((len(block), len(best_prefix) + 1), -1, dtype=np.intp)
        prefix[rows, block - 1] = self.cover_list
        best = np.array(best_prefix + [-1], dtype=np.intp)
        first_diff = (prefix != best).argmax(axis=1)
        return prefix[rows[:, 0], first_diff] > best[first_diff]


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
        self.improved = 0  # times best_cost or best_prefix changed
        self.mappings = 0
        self.cut = 0
        self.branches = 0

    def _offer(self, cost: int, prefix: list[int]) -> None:
        if self.best_cost is None or cost < self.best_cost:
            self.best_cost, self.best_prefix = cost, prefix.copy()
            self.limit = min(self.limit, cost)
            self.improved += 1
        elif cost == self.best_cost and prefix < self.best_prefix:
            self.best_prefix = prefix.copy()
            self.improved += 1

    def _can_win(self, terms: _CoverTerms, block: np.ndarray, bound: np.ndarray,
                 rows: np.ndarray) -> np.ndarray:
        """The rows, in their order, whose bound does not exceed the best
        known cost and that are not ties sorting after the best found."""
        low = bound[rows]
        keep = low <= self.limit
        if self.best_cost is not None:
            tie = keep & (low >= self.best_cost)
            if tie.any():
                keep[tie] = ~terms.sorts_after(block[rows[tie]], self.best_prefix)
        return rows[keep]

    def explore(self, cover: MinimalCover) -> None:
        """Walk every mapping and fill of one cover that can still win."""
        terms = _CoverTerms(self.g, cover)
        for block, gaps in _mapping_blocks(self.k_eff, len(terms.cover_list)):
            self.mappings += len(block)
            base, bound, scores = terms.bounds(block, gaps, self.k_eff, self.limit)
            rows = self._can_win(terms, block, bound, np.argsort(bound, kind="stable"))
            if rows.size:
                # one batch for every row that may be walked; a walk only
                # ever narrows the rows left
                slot = np.empty(len(block), dtype=np.intp)
                slot[rows] = np.arange(len(rows))
                cands, gains = terms.fill_order(scores, rows)
            walked = 0
            while rows.size:
                r, rows = rows[0], rows[1:]
                j = slot[r]
                improved = self.improved
                self.walk_mapping(terms, block[r].tolist(), int(base[r]),
                                  gaps[r].tolist(), cands[j].tolist(), gains[j].tolist())
                walked += 1
                if self.improved != improved:
                    rows = self._can_win(terms, block, bound, rows)
            self.cut += len(block) - walked

    def walk_mapping(self, terms: _CoverTerms, positions: list[int], base: int,
                     gaps: list[int], cands: list[list[int]], gains: list[list[int]]) -> None:
        """Depth-first walk over the fills of one mapping: at each gap take
        the best not-yet-placed candidates while they can still win.

        ``cands[i]`` lists the non-cover vertices in candidate order at
        ``gaps[i]`` and ``gains[i]`` their scores, as ``bounds`` and
        ``fill_order`` give them.
        """
        k_eff = self.k_eff
        prefix = [-1] * k_eff
        for v, p in zip(terms.cover_list, positions):
            prefix[p - 1] = v
        budget = len(gaps)
        # once gap i is filled, positions 1..ends[i] are all fixed
        ends = [p - 1 for p in gaps[1:]] + [k_eff]
        # can_save[i]: the most the fills of gaps i.. can save together
        can_save = [0] * (budget + 1)
        for i in range(budget - 1, -1, -1):
            can_save[i] = can_save[i + 1] + gains[i][0]
        used: set[int] = set()

        # every leaf fills all gaps: the walk runs out of candidates only
        # when every vertex is placed, and then k = n leaves no gap open
        def walk(i: int, gain: int) -> None:
            if i == budget:
                self.branches += 1
                self._offer(base - gain, prefix)
                return
            # position k itself never carries a charge once the cover is
            # placed, so it takes just the top candidate instead of branching
            cap = 1 if gaps[i] == k_eff else budget
            at, end = gaps[i] - 1, ends[i]
            taken = 0
            for u, sc in zip(cands[i], gains[i]):
                if taken == cap:
                    break
                if u in used:
                    continue
                low = base - gain - sc - can_save[i + 1]
                # candidates come best first: once one cannot reach the
                # best known cost, none of the rest can
                if low > self.limit:
                    break
                taken += 1
                prefix[at] = u
                # a tie whose fixed prefix sorts after the best found cannot
                # win; it still counts toward the cap, so the branch space
                # stays the same
                if (self.best_cost is not None and low >= self.best_cost
                        and prefix[:end] > self.best_prefix[:end]):
                    continue
                used.add(u)
                walk(i + 1, gain + sc)
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
    # branch_solve has verified the kernel ordering's cost
    lifted, report = lift_costed(outcome.trace, sub.best_ordering, inst, sub.best_cost)
    total = sub.best_cost + offset
    if report.total != total or report.max_cost > inst.k:
        raise InvariantError("lifted ordering failed re-verification")
    return SolveResult(
        decision=total <= inst.w,
        best_cost=total,
        best_ordering=lifted,
        stats=replace(sub.stats, elapsed=time.perf_counter() - start, incumbent=incumbent),
        kernel_summary=summary,
    )
