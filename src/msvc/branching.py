"""Branching solver: guess a minimal cover, then place it and the vertices
outside it into the prefix at the least total charge.

Every ordering with max charge <= k has a vertex cover among its first k
vertices, and so a minimal cover S with |S| <= k.  The solver takes, over the
minimal covers, the cheapest ordering that places S within positions 1..k.
An edge charged c is left uncovered by c prefixes, so an ordering's total
charge is the sum over its prefixes of their uncovered edges (its chain
cost).

One prefix DP serves every cover.  A state is (X, R): the vertices X placed
so far and the cover vertices R = S - X still to place, with one root
(empty, S) per minimal cover.  From (X, R) on, the ordering places R and at
most k - |X| - |R| vertices outside X + R, each with all its neighbors in
S, which lies in X + R; so the least chain cost of the prefixes from X on,

    togo(X, R) = unc(X) + the least togo one vertex later,

and 0 once X covers every edge, depends on (X, R) only, and one memo holds
the states of all covers.  Vertices with the same neighbors (false twins)
are interchangeable, so a move places a vertex of R or the smallest member
outside X + R of a twin class; degree-0 vertices join no class, as one
placed before the prefix covers every edge only repeats a prefix's charge.
Moves are made in the DP pass only, which looks a next state up in the memo
(or sees it has no uncovered edge) before it recurses, so only the states
reached from the roots are evaluated.

Savings floor.  Along an optimal path from any state the edges each vertex
newly covers (its saving) never grow: if a vertex saved more than the one
just before it, swapping the two would lower the chain cost and place no
more vertices outside the cover.  With spare such placements left, a vertex
of R with top edges to vertices outside X + R is still to be placed when
top > spare, and saves at least top - spare then; so a class vertex that
saves less is on no optimal path and is not offered.  Every togo, and so
every cover's optimum and the witness, is the same as without the floor.

The witness is the lexicographically smallest optimal sequence, read off
the memo, whose entries pack togo with the smallest vertex of an optimal
move.  A walk starts from every root at the optimum; its live states share
X, and each step places the least vertex they recorded, keeps the states
that recorded it and stops once X covers every edge; the rest follow in
ascending id.  The greedy ordering that repeatedly takes the vertex
covering the most uncovered edges cross-checks the search: when its max
charge is at most k, the DP must find an ordering too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

from .graph import Graph, Instance, InvariantError, Ordering, evaluate
from .covers import enumerate_minimal_covers
from .kernel import Kernel, TrivialNo, kernelize, lift


@dataclass(frozen=True, slots=True)
class SolveStats:
    """Search counters of one solve: the minimal covers enumerated, the
    distinct (X, R) states of the prefix DP evaluated across all of them
    (a state reached from several covers counts once), and ``incumbent``, the
    greedy ordering's cost (on the scale of ``best_cost``, kernel offset
    included), or None when that ordering's max charge exceeds k.
    """

    covers_enumerated: int
    elapsed: float
    incumbent: Optional[int] = None
    dp_states: int = 0

    @property
    def mappings_tried(self) -> int:
        """``dp_states``, under the name the benchmark harness reads."""
        return self.dp_states

    @property
    def branches(self) -> int:
        """Always 0; kept only because the benchmark harness reads it."""
        return 0


@dataclass(frozen=True, slots=True)
class SolveResult:
    """Outcome of one solve.  ``solve`` also records the kernel's n, m, w
    and w_offset, or the rule that proved a trivial no; ``branch_solve``
    leaves them None.  Every field is a plain value, and ``best_ordering``
    (from the witness's ``sequence``), ``stats`` and ``kernel_summary`` are
    built on each access, as a caller may keep many results."""

    decision: bool
    best_cost: Optional[int]
    sequence: Optional[tuple[int, ...]]
    covers_enumerated: int
    elapsed: float
    incumbent: Optional[int] = None
    dp_states: int = 0
    kernel_n: Optional[int] = None
    kernel_m: Optional[int] = None
    kernel_w: Optional[int] = None
    w_offset: Optional[int] = None
    trivial_no: Optional[str] = None

    @property
    def best_ordering(self) -> Optional[Ordering]:
        return None if self.sequence is None else Ordering(self.sequence)

    @property
    def stats(self) -> SolveStats:
        return SolveStats(self.covers_enumerated, self.elapsed, self.incumbent, self.dp_states)

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


class _PrefixDP:
    """The prefix DP of one solve.  A state's key holds X and R as the
    base-3 digits 1 and 2 of their vertices, below 2**30 (a 28-byte int) up
    to n = 18.  ``layers[d]`` maps the key of each state evaluated with
    |X| = d that still has an uncovered edge to its record, togo << ``shift``
    | the smallest vertex of an optimal move.  Equal records are stored
    once, and the memo is split by |X| so that no dict grows through a large
    resize."""

    def __init__(self, g: Graph, k: int):
        self.m, self.k = g.m, k
        self.shift = g.n.bit_length()
        self.adj = [sum(1 << x for x in g.adj[v]) for v in range(g.n)]
        self.digit = [3**v for v in range(g.n)]
        twins: dict[int, int] = {}  # N(u) -> its members, both as masks
        for u, link in enumerate(self.adj):
            if link:
                twins[link] = twins.get(link, 0) | 1 << u
        self.layers: list[dict[int, int]] = [{} for _ in range(min(k, g.n) + 1)]
        classes = tuple(twins.items())
        # the last one maps each distinct record to the one object stored
        self._consts = (1 << g.n) - 1, self.shift, self.adj, self.digit, classes, self.layers, {}

    def record(self, key: int, x: int, r: int, spare: int, unc: int, depth: int) -> int:
        """Evaluate the state (X, R) = (x, r) of ``key``, with |X| = depth,
        ``spare`` placements outside the cover left and unc > 0 uncovered
        edges, into ``layers``.  A move packs the next state's togo with its
        vertex, so the least of them is the optimum at its smallest vertex."""
        full, shift, adj, digit, classes, layers, records = self._consts
        below = layers[depth + 1]
        free, out = full ^ x ^ r, ~x
        best = None
        top = 0
        rest = r
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            link = adj[v]
            if spare > 0 and (link & free).bit_count() > top:
                top = (link & free).bit_count()
            left = unc - (link & out).bit_count()
            move = v
            if left:
                after = key - digit[v]
                rec = below.get(after)
                if rec is None:
                    rec = self.record(after, x | low, r ^ low, spare, left, depth + 1)
                move |= rec >> shift << shift
            if best is None or move < best:
                best = move
        if spare > 0:
            floor = top - spare if top > spare + 1 else 1  # max(top - spare, 1), inlined
            for link, members in classes:
                avail = members & free
                if avail and (saved := (link & r).bit_count()) >= floor:
                    low = avail & -avail
                    move = low.bit_length() - 1
                    left = unc - saved
                    if left:
                        after = key + digit[move]
                        rec = below.get(after)
                        if rec is None:
                            rec = self.record(after, x | low, r, spare - 1, left, depth + 1)
                        move |= rec >> shift << shift
                    if move < best:
                        best = move
        rec = (unc << shift) + best
        rec = layers[depth][key] = records.setdefault(rec, rec)
        return rec

    def togo(self, cover: tuple[int, ...]) -> int:
        """togo at the root (empty, cover) of a minimal cover."""
        if not self.m:
            return 0
        key, mask = 2 * sum(self.digit[v] for v in cover), sum(1 << v for v in cover)
        return self.record(key, 0, mask, self.k - len(cover), self.m, 0) >> self.shift

    def walk(self, roots: list[tuple[int, ...]]) -> list[int]:
        """The tight prefix of the lexicographically smallest optimal
        sequence, walked from the roots of the covers ``roots``, which all
        attain the optimum."""
        digit, first = self.digit, (1 << self.shift) - 1
        live = {2 * sum(digit[v] for v in cover) for cover in roots}
        prefix, x, unc = [], 0, self.m
        while unc:
            recs = [self.layers[len(prefix)].get(key) for key in live]
            if None in recs:
                raise InvariantError("a live state has no DP record during the witness walk")
            v = min(rec & first for rec in recs)
            # v leaves R (digit 2 -> 1) or joins X from outside (0 -> 1)
            live = {key - digit[v] if key // digit[v] % 3 else key + digit[v]
                    for key, rec in zip(live, recs) if rec & first == v}
            unc -= (self.adj[v] & ~x).bit_count()
            x |= 1 << v
            prefix.append(v)
        return prefix


def branch_solve(inst: Instance) -> SolveResult:
    """Decide the instance and report the cheapest ordering with max charge
    <= k; vertices after the witness's tight prefix follow in ascending id."""
    start = time.perf_counter()
    g, w, k = inst.graph, inst.w, inst.k
    covers = enumerate_minimal_covers(g, k)
    incumbent = greedy_incumbent(g, k)
    dp = _PrefixDP(g, k)
    costs = [dp.togo(cover) for cover in covers]
    best_cost = best_ordering = None
    if costs:
        best_cost = min(costs)
        prefix = dp.walk([cover for cover, cost in zip(covers, costs) if cost == best_cost])
        best_ordering = Ordering.from_prefix(prefix, g.n)
        report = evaluate(g, best_ordering)
        if report.total != best_cost or report.max_cost > k:
            raise InvariantError("branching witness failed re-verification")
    elif incumbent is not None:
        raise InvariantError("branching found no ordering although the greedy one is feasible")
    return SolveResult(
        decision=best_cost is not None and best_cost <= w,
        best_cost=best_cost,
        sequence=None if best_ordering is None else best_ordering.sequence,
        covers_enumerated=len(covers),
        elapsed=time.perf_counter() - start,
        incumbent=incumbent,
        dp_states=sum(map(len, dp.layers)),
    )


def solve(inst: Instance) -> SolveResult:
    """Kernelize, run the branching solver on the kernel and lift the
    witness back to the original graph, where ``lift`` re-verifies it."""
    start = time.perf_counter()
    outcome = kernelize(inst)
    if isinstance(outcome, TrivialNo):
        return SolveResult(decision=False, best_cost=None, sequence=None, covers_enumerated=0,
                           elapsed=time.perf_counter() - start, trivial_no=outcome.rule)
    if not isinstance(outcome, Kernel):
        raise InvariantError(f"kernelize returned {type(outcome).__name__}")
    kernel_inst = outcome.instance
    offset = outcome.trace.w_offset
    sub = branch_solve(kernel_inst)
    total = lifted = None
    if sub.best_cost is not None:
        lifted = lift(outcome, sub.best_ordering, inst).sequence
        total = sub.best_cost + offset
    return replace(
        sub,
        decision=total is not None and total <= inst.w,
        best_cost=total,
        sequence=lifted,
        elapsed=time.perf_counter() - start,
        incumbent=None if sub.incumbent is None else sub.incumbent + offset,
        kernel_n=kernel_inst.graph.n,
        kernel_m=kernel_inst.graph.m,
        kernel_w=kernel_inst.w,
        w_offset=offset,
    )
