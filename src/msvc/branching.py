"""Branching solver: guess a minimal cover, then place it and the vertices
outside it into the prefix at the least total charge.

Every ordering with max charge <= k has a vertex cover among its first k
vertices, and so a minimal cover S with |S| <= k.  The solver takes, over the
minimal covers, the cheapest ordering that places S within positions 1..k.
An edge charged c is left uncovered by c prefixes, so an ordering's total
charge is the sum over its prefixes of their uncovered edges (its chain
cost).  Every vertex outside S has all its neighbors in S, and those with the
same neighbors N_c in S form a twin class c of mu_c interchangeable vertices.
Up to its cost, a prefix is the cover vertices T it holds and the number f_c
of each class, and its uncovered edges are

    unc(T, f) = e(S - T) + sum over c of (mu_c - f_c) * |N_c - T|.

Degree-0 vertices join no class: placed before the prefix covers every edge,
one would only repeat a prefix's charge.

Two engines search the placements of one cover, and each cover goes to the
one with the smaller count:

- the twin-class DP, over 2^|S| * #{f : f_c <= mu_c, sum f <= k - |S|}
  states: togo(T, f) = unc(T, f) + the least togo one vertex later, and 0
  once the prefix covers every edge, so togo at the empty prefix is the
  cover's optimum; it is memoised from the empty prefix, so only the
  states reached are evaluated;
- the mapping search, over the P(k, |S|) injective maps of S into positions
  1..k, each with its open positions (gaps) filled from scored candidates.

The DP takes almost every cover.  The mapping search keeps covers with many
classes and a large budget k - |S|: with |S| = 5, k = 10 and one outside
vertex per nonempty subset of S (31 classes), the DP would have 6.6 million
states against 30,240 mappings.  The DP covers run first, and their optimum
and witness seed the mapping search.

The DP witness is the lexicographically smallest optimal sequence: a forward
walk takes the smallest vertex after which some cover still live reaches the
optimum, a class giving its smallest unplaced member, and stops once the
prefix covers every edge; the rest follow in ascending id.

Mapping search.  At a gap p, a vertex outside S only helps by undercutting
the charges of its edges to later-placed cover vertices, so each candidate is
scored by the total charge reduction it would realize at p, and only the
k - |S| best-scoring vertices need to be branched on.  Before the search,
the greedy ordering that repeatedly takes the vertex covering the most
uncovered edges is costed; if its max charge is at most k, its cost is the
incumbent, and the DP optimum lowers it.  A mapping's cost is its base cost
(every edge charged at its cover endpoint) less the scores of its fills.  The
fills save at most the best score of each gap summed, and, since each vertex
fills one gap, at most the |gaps| largest per-vertex best-over-gaps scores
summed; base cost less the smaller sum bounds every fill of the mapping from
below.  Both sums run over the twin classes, counted with multiplicity.  The
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
sequence) of the DP's witness and the whole branch space, exactly as without
the cuts.  The candidate order at each gap of the rows a block will walk
comes from one stable argsort of the block's scores, ties by ascending id.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, permutations
from typing import Iterator, Optional

import numpy as np

from .graph import Graph, Instance, InvariantError, Ordering, evaluate
from .covers import enumerate_minimal_covers
from .kernel import Kernel, TrivialNo, kernelize, lift

# Largest number of mappings bounded in one numpy block.  Blocks fix the
# positions of the first few cover vertices, so a cover's P(k, |S|) mappings
# are never held at once.
BLOCK_ROWS = 720


@dataclass(frozen=True, slots=True)
class SolveStats:
    """Search counters of one solve.

    ``dp_covers`` counts the covers searched by the twin-class DP and
    ``dp_states`` the DP states they evaluated.  Over the other covers,
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
    dp_covers: int = 0
    dp_states: int = 0


@dataclass(frozen=True, slots=True)
class SolveResult:
    """Outcome of one solve.  ``solve`` also records the kernel's n, m, w
    and w_offset, or the rule that proved a trivial no; ``branch_solve``
    leaves them None.  They are plain fields, as a caller may keep many
    results."""

    decision: bool
    best_cost: Optional[int]
    best_ordering: Optional[Ordering]
    stats: SolveStats
    kernel_n: Optional[int] = None
    kernel_m: Optional[int] = None
    kernel_w: Optional[int] = None
    w_offset: Optional[int] = None
    trivial_no: Optional[str] = None

    @property
    def kernel_summary(self) -> Optional[dict]:
        """{"trivial_no": rule}, the kernel's {"n", "m", "w", "w_offset"},
        or None without a kernel; built on each access."""
        if self.trivial_no is not None:
            return {"trivial_no": self.trivial_no}
        if self.kernel_n is None:
            return None
        return {"n": self.kernel_n, "m": self.kernel_m, "w": self.kernel_w, "w_offset": self.w_offset}


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


def _fill_count(mult: list[int], budget: int) -> int:
    """How many vectors f have f_c <= mult[c] for every c and sum f <= budget."""
    ways = [1] + [0] * budget  # ways[t]: the vectors over the classes so far summing to t
    for mu in mult:
        run, grown = 0, []
        for t in range(budget + 1):
            run += ways[t] - (ways[t - mu - 1] if t > mu else 0)
            grown.append(run)
        ways = grown
    return sum(ways)


class _CoverDP:
    """The twin-class cost-to-go DP of one minimal cover.

    A state is (t, code, placed, unc): the cover vertices placed, as a mask
    over the cover's indices; f packed into one int, class c counting in
    units of its ``radix``; sum f; and the prefix's uncovered edges.
    ``states`` is the size of the state space; ``memo`` holds togo of every
    state evaluated that still has an uncovered edge.
    """

    def __init__(self, g: Graph, cover: tuple[int, ...], k: int):
        self.cover = cover
        self.budget = k - len(cover)
        index = {v: i for i, v in enumerate(cover)}
        # inner[i]: the cover neighbors of cover vertex i, as a mask
        self.inner = [sum(1 << index[x] for x in g.adj[v] if x in index) for v in cover]
        twins: dict[int, list[int]] = {}
        for u in range(g.n):
            if u not in index and g.adj[u]:
                twins.setdefault(sum(1 << index[x] for x in g.adj[u]), []).append(u)
        # (N_c as a mask, mu_c, radix_c, members ascending) per class
        self.classes = []
        radix = 1
        for link, members in twins.items():
            self.classes.append((link, len(members), radix, members))
            radix *= len(members) + 1
        self.states = (1 << len(cover)) * _fill_count([len(m) for m in twins.values()], self.budget)
        self.memo: dict[int, int] = {}
        # per code: the edges from each cover vertex to the class vertices
        # that f leaves unplaced
        self._outside = {0: [sum(mu for link, mu, _, _ in self.classes if link >> i & 1)
                             for i in range(len(cover))]}
        self.root = (0, 0, 0, g.m)

    def moves(self, t: int, code: int, placed: int, unc: int) -> list[tuple[int, int, int, int, int]]:
        """(i, t, code, placed, unc) after every vertex that may come next:
        cover vertex i, or for i >= |S| a vertex of class i - |S|.  A class
        vertex none of whose neighbors is left is not offered: it would only
        repeat unc."""
        rest = ~t
        outside = self._outside[code]
        out = []
        for i, inner in enumerate(self.inner):
            if rest >> i & 1:
                out.append((i, t | 1 << i, code, placed, unc - (inner & rest).bit_count() - outside[i]))
        if placed < self.budget:
            for c, (link, mu, radix, _) in enumerate(self.classes):
                saved = (link & rest).bit_count()
                if saved and code // radix % (mu + 1) < mu:
                    after = code + radix
                    if after not in self._outside:
                        self._outside[after] = [w - (link >> i & 1) for i, w in enumerate(outside)]
                    out.append((len(self.inner) + c, t, after, placed + 1, unc - saved))
        return out

    def togo(self, t: int, code: int, placed: int, unc: int) -> int:
        """The least chain cost of the prefixes from this state on."""
        if not unc:
            return 0
        key = code << len(self.inner) | t
        value = self.memo.get(key)
        if value is None:
            for _, t2, code2, placed2, unc2 in self.moves(t, code, placed, unc):
                later = self.togo(t2, code2, placed2, unc2)
                if value is None or later < value:
                    value = later
            value = self.memo[key] = unc + value
        return value

    def step(self, state: tuple, used: set[int], target: int):
        """(v, state after v) for the smallest vertex v after which togo is
        ``target``, or None; a class offers its smallest member not in
        ``used``."""
        best = None
        for i, *after in self.moves(*state):
            if i < len(self.cover):
                v = self.cover[i]
            else:
                v = next(u for u in self.classes[i - len(self.cover)][3] if u not in used)
            if (best is None or v < best[0]) and self.togo(*after) == target:
                best = v, tuple(after)
        return best


def _dp_best(g: Graph, dps: list[_CoverDP], k: int) -> Optional[tuple[int, list[int]]]:
    """(cost, positions 1..k of the witness) of the DP covers' optimum, or
    None without a DP cover.  The witness walk follows every cover whose
    optimum is the least; each step keeps those that reach it by the
    smallest vertex."""
    costs = [dp.togo(*dp.root) for dp in dps]
    if not costs:
        return None
    opt = min(costs)
    live = {dp: dp.root for dp, cost in zip(dps, costs) if cost == opt}
    prefix, used = [], set()
    left, unc = opt, g.m  # opt less the charge of the prefixes before this one
    while unc:
        left -= unc
        steps = [(step, dp) for dp, state in live.items() if (step := dp.step(state, used, left))]
        if not steps:
            raise InvariantError("no tight vertex during the twin-class DP witness walk")
        v = min(step[0] for step, _ in steps)
        live = {dp: step[1] for step, dp in steps if step[0] == v}
        prefix.append(v)
        used.add(v)
        unc = next(iter(live.values()))[3]
    return opt, (prefix + [u for u in range(g.n) if u not in used])[:k]


def _arrangements(m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered choice of r distinct values from range(m), one int16 row
    each, in lexicographic order, and per row the m - r values it leaves
    out, ascending.  Both arrays are read-only."""
    count = math.perm(m, r)
    flat = chain.from_iterable(permutations(range(m), r))
    rows = np.fromiter(flat, dtype=np.int16, count=count * r).reshape(count, r)
    free = np.ones((count, m), dtype=bool)
    free[np.arange(count)[:, None], rows] = False
    rest = np.nonzero(free)[1].astype(np.int16).reshape(count, m - r)
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

    def __init__(self, g: Graph, cover: tuple[int, ...]):
        self.cover_list = list(cover)
        index = {v: i for i, v in enumerate(cover)}
        self.non_cover = np.array([u for u in range(g.n) if u not in index], dtype=np.intp)
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
    so far, the incumbent, and the counters.  ``best``, when given, is a
    (cost, prefix) found before the search, such as the DP covers' optimum."""

    def __init__(self, g: Graph, k: int, incumbent: Optional[int],
                 best: Optional[tuple[int, list[int]]] = None):
        self.g = g
        self.k = k
        self.incumbent = incumbent
        # best_prefix: vertices at positions 1..k of the best ordering; the
        # rest follow in ascending id, so equal prefixes mean equal orderings
        self.best_cost, self.best_prefix = best or (None, None)
        self.limit = min(math.inf if incumbent is None else incumbent,
                         math.inf if best is None else best[0])
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

    def explore(self, cover: tuple[int, ...]) -> None:
        """Walk every mapping and fill of one cover that can still win."""
        terms = _CoverTerms(self.g, cover)
        for block, gaps in _mapping_blocks(self.k, len(terms.cover_list)):
            self.mappings += len(block)
            base, bound, scores = terms.bounds(block, gaps, self.k, self.limit)
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
        k = self.k
        prefix = [-1] * k
        for v, p in zip(terms.cover_list, positions):
            prefix[p - 1] = v
        budget = len(gaps)
        # once gap i is filled, positions 1..ends[i] are all fixed
        ends = [p - 1 for p in gaps[1:]] + [k]
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
            cap = 1 if gaps[i] == k else budget
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
    covers = enumerate_minimal_covers(g, k)
    dps, mapped = [], []
    for cover in covers:
        dp = _CoverDP(g, cover, k)
        if dp.states <= math.perm(k, len(cover)):
            dps.append(dp)
        else:
            mapped.append(cover)
    search = _Search(g, k, greedy_incumbent(g, k), _dp_best(g, dps, k))
    for cover in mapped:
        search.explore(cover)

    best_cost, best_ordering = search.best_cost, None
    if best_cost is not None:
        best_ordering = Ordering.from_prefix(search.best_prefix, g.n)
        report = evaluate(g, best_ordering)
        if report.total != best_cost or report.max_cost > k:
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
        dp_covers=len(dps),
        dp_states=sum(len(dp.memo) for dp in dps),
    )
    decision = best_cost is not None and best_cost <= w
    return SolveResult(
        decision=decision,
        best_cost=best_cost,
        best_ordering=best_ordering,
        stats=stats,
    )


def solve(inst: Instance) -> SolveResult:
    """Kernelize, run the branching solver on the kernel and lift the
    witness back to the original graph, where ``lift`` re-verifies it."""
    start = time.perf_counter()
    outcome = kernelize(inst)
    if isinstance(outcome, TrivialNo):
        stats = SolveStats(0, 0, 0, time.perf_counter() - start)
        return SolveResult(
            decision=False,
            best_cost=None,
            best_ordering=None,
            stats=stats,
            trivial_no=outcome.rule,
        )
    if not isinstance(outcome, Kernel):
        raise InvariantError(f"kernelize returned {type(outcome).__name__}")
    kernel_inst = outcome.instance
    offset = outcome.trace.w_offset
    sub = branch_solve(kernel_inst)
    incumbent = sub.stats.incumbent
    if incumbent is not None:
        incumbent += offset
    total = lifted = None
    if sub.best_cost is not None:
        lifted = lift(outcome, sub.best_ordering, inst)
        total = sub.best_cost + offset
    return SolveResult(
        decision=total is not None and total <= inst.w,
        best_cost=total,
        best_ordering=lifted,
        stats=replace(sub.stats, elapsed=time.perf_counter() - start, incumbent=incumbent),
        kernel_n=kernel_inst.graph.n,
        kernel_m=kernel_inst.graph.m,
        kernel_w=kernel_inst.w,
        w_offset=offset,
    )
