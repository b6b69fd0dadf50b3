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
the states of all covers, each keyed by the one int X | R << n of the two
vertex masks.  Vertices with the same neighbors (false twins) are
interchangeable, so a move places a vertex of R or the smallest member
outside X + R of a twin class; degree-0 vertices join no class, and a
vertex of R is not placed once all its edges are covered, as either would
only repeat a prefix's charge.  Moves are made in the DP pass only, which
looks a next state up in the memo (or sees it has no uncovered edge)
before it recurses, so only the states reached from the roots are
evaluated.

Savings floor.  Along an optimal path from any state the edges each vertex
newly covers (its saving) never grow: if a vertex saved more than the one
just before it, swapping the two would lower the chain cost and place no
more vertices outside the cover.  With spare such placements left, a vertex
of R with top edges to vertices outside X + R is still to be placed when
top > spare, and saves at least top - spare then; so a class vertex that
saves less is on no optimal path and is not offered.  Every togo, and so
every cover's optimum and the witness, is the same as without the floor.

Incumbent cap.  The greedy ordering, which repeatedly places the vertex
covering the most uncovered edges, bounds the optimum when its max charge
is at most k: its cost is the incumbent.  Each root is evaluated under a
cap, the incumbent or the least togo of the roots before it, and a state
under cap c passes c - unc(X) on to its next states.  No vertex covers more
than D edges (the max degree), so u > 0 uncovered edges cost at least
u + (u - D) + (u - 2D) + ... over the positive terms, and a move whose
next state has more than its cap by that bound is cut.  Moves are tried in
order of the edges they cover, most first: a state is then mostly first
reached along a cheap prefix, where its cap is large, and once one move is
cut every later one is.  A state whose moves all exceed its cap stores a
lower bound above the cap (a negative record), evaluated again only when a
larger cap reaches it.  A record within its cap is exact, and every state
on an optimal path from an optimal root is within its cap, so the optimal
covers, their cost and the witness are the same as without the cap.

The witness is the lexicographically smallest optimal sequence, read off
the memo, whose exact entries pack togo with the smallest vertex of an
optimal move.  A walk starts from every root at the optimum; its live
states share X, and each step places the least vertex they recorded, keeps
the states that recorded it and stops once X covers every edge; the rest
follow in ascending id.  The greedy ordering also cross-checks the search:
when its max charge is at most k, the DP must find an ordering too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .graph import Graph, Instance, InvariantError, Ordering, evaluate
from .covers import enumerate_minimal_covers
from .kernel import Kernel, TrivialNo, kernelize, lift


@dataclass(frozen=True, slots=True)
class SolveResult:
    """Outcome of one solve.  ``best_cost`` is the least total charge with
    max charge <= k (None when no ordering has one, or a kernel rule proved
    a no), ``w`` the budget it is compared with and ``ids`` the witness's
    packed ids (see ``Ordering``; None without a witness).  The search
    counters are ``covers_enumerated``, the minimal covers enumerated,
    ``dp_states``, the distinct (X, R) states of the prefix DP evaluated
    across all of them (a state reached from several covers counts once),
    and ``incumbent``, the greedy ordering's cost (on the scale of
    ``best_cost``, kernel offset included), or None when that ordering's
    max charge exceeds k.  ``solve`` also records the kernel's n and m and
    the budget offset of its rules, or ``trivial_no``, the name of the rule
    that proved a trivial no; ``branch_solve`` leaves them None."""

    best_cost: Optional[int]
    w: int
    covers_enumerated: int
    incumbent: Optional[int]
    dp_states: int
    kernel_n: Optional[int] = None
    kernel_m: Optional[int] = None
    w_offset: Optional[int] = None
    ids: Optional[bytes] = None
    trivial_no: Optional[str] = None

    @property
    def decision(self) -> bool:
        return self.best_cost is not None and self.best_cost <= self.w

    @property
    def best_ordering(self) -> Optional[Ordering]:
        return None if self.ids is None else Ordering(self.ids)

    @property
    def kernel_summary(self) -> Optional[dict]:
        """{"trivial_no": rule}, the kernel's {"n", "m", "w", "w_offset"},
        or None without a kernel; built on each access."""
        if self.trivial_no is not None:
            return {"trivial_no": self.trivial_no}
        if self.kernel_n is None:
            return None
        return {"n": self.kernel_n, "m": self.kernel_m, "w": self.w - self.w_offset,
                "w_offset": self.w_offset}

    # Aliases the benchmark harness reads (perfbench/tracing.py); each stays
    # until the harness renames its counters (ROADMAP item 1).
    stats = property(lambda self: self)  # harness alias: the result itself
    mappings_tried = property(lambda self: self.dp_states)  # harness alias: dp_states
    branches = property(lambda self: 0)  # harness alias: the prefix DP makes no branches


def greedy_incumbent(g: Graph, k: int) -> Optional[int]:
    """Cost of the ordering that repeatedly places the vertex with the most
    uncovered edges (ties by ascending id), or None when its max charge
    exceeds k, known as soon as a (k+1)-th vertex still covers an edge."""
    remaining = list(g.degrees)
    placed = [False] * g.n
    total = steps = 0
    while True:
        v = max(range(g.n), key=lambda u: (remaining[u], -u), default=None)
        if v is None or remaining[v] == 0:
            return total
        steps += 1
        if steps > k:
            return None
        total += steps * remaining[v]
        placed[v] = True
        remaining[v] = 0
        for x in g.adj[v]:
            if not placed[x]:
                remaining[x] -= 1


class _PrefixDP:
    """The prefix DP of one solve.  A state's key is the int x | r << n of
    the vertex masks of X and R; |X| + |R| is its bit count.  ``memo`` maps
    the key of each state evaluated that still has an uncovered edge to its
    record: togo << ``shift`` | the smallest vertex of an optimal move if the
    state was within its cap, else -(a lower bound on togo << ``shift``)."""

    def __init__(self, g: Graph, k: int):
        self.n, self.m, self.k = g.n, g.m, k
        self.shift = g.n.bit_length()
        self.adj = [sum(1 << x for x in g.adj[v]) for v in range(g.n)]
        twins: dict[int, int] = {}  # N(u) -> its members, both as masks
        for u, link in enumerate(self.adj):
            if link:
                twins[link] = twins.get(link, 0) | 1 << u
        self.memo: dict[int, int] = {}
        classes = tuple(twins.items())
        # bound[u]: u + (u - D) + (u - 2D) + ..., the least togo of a state
        # with u uncovered edges
        top = int(g.deg.max(initial=1))
        bound = [0] * (g.m + 1)
        for u in range(1, g.m + 1):
            bound[u] = u + bound[max(u - top, 0)]
        self._consts = (1 << g.n) - 1, g.n, k, self.shift, self.adj, classes, self.memo, bound

    def record(self, key: int, unc: int, cap: int) -> int:
        """Evaluate the state of ``key``, which has unc > 0 uncovered edges,
        into ``memo`` under ``cap``, and return its record.  A move packs
        the next state's togo, or a lower bound on it, with its vertex, so
        the least of them is the optimum at its smallest vertex.  A next
        state is evaluated (again, if its record is a lower bound within
        cap - unc) only when its bound is within cap - unc; so every move
        within cap - unc is exact, and if none is, the state's togo is above
        cap."""
        full, n, k, shift, adj, classes, memo, bound = self._consts
        x, r, spare = key & full, key >> n, k - key.bit_count()
        room = cap - unc
        first = (1 << shift) - 1
        free, out = full ^ x ^ r, ~x
        moves = []  # edges left uncovered << shift | vertex, of every move saving an edge
        top = 0
        rest = r
        while rest:
            low = rest & -rest
            rest ^= low
            link = adj[v := low.bit_length() - 1]
            if spare > 0 and (reach := (link & free).bit_count()) > top:
                top = reach
            if saved := (link & out).bit_count():
                moves.append((unc - saved) << shift | v)
        if spare > 0:
            floor = top - spare if top > spare + 1 else 1  # max(top - spare, 1), inlined
            for link, members in classes:
                avail = members & free
                if avail and (saved := (link & r).bit_count()) >= floor:
                    moves.append((unc - saved) << shift | (avail & -avail).bit_length() - 1)
        # the moves that cover the most edges first, so that a state is
        # first reached along a cheap prefix, with room to spare
        moves.sort()
        best = None
        for move in moves:
            left = move >> shift
            v = move & first
            if not left:
                best = v  # the first move, so the least
                break
            least = bound[left]
            if least > room:
                # this move and every later one is cut, the later ones with
                # no smaller packed bound
                move = least << shift | v
                if best is None or move < best:
                    best = move
                break
            low = 1 << v
            after = (key | low) & ~(low << n)  # v joins X, and leaves R if it was there
            rec = memo.get(after)
            if rec is None or rec < 0 and -rec >> shift <= room:
                rec = self.record(after, left, room)
            move = v | (rec >> shift << shift if rec >= 0 else -rec)
            if best is None or move < best:
                best = move
        if best >> shift <= room:
            rec = (unc << shift) + best
        else:
            rec = -((unc << shift) + (best >> shift << shift))
        memo[key] = rec
        return rec

    def togo(self, cover: tuple[int, ...], cap: Optional[int] = None) -> int:
        """togo at the root (empty, cover) of a minimal cover if it is at
        most ``cap``, else a lower bound above cap; exact without a cap."""
        if not self.m:
            return 0
        if cap is None:
            cap = self.m * self.k  # no ordering of the DP charges an edge more than k
        rec = self.record(sum(1 << v for v in cover) << self.n, self.m, cap)
        return (rec if rec >= 0 else -rec) >> self.shift

    def costs(self, covers: list[tuple[int, ...]], incumbent: Optional[int]) -> list[int]:
        """togo at the root of each cover, capped by the incumbent (the cost
        of a feasible ordering, or None) and the least togo before it: so
        every cover whose togo is the least of all gets it exactly, and
        every other cover a value above it."""
        cap, costs = incumbent, []
        for cover in covers:
            cost = self.togo(cover, cap)
            cap = cost if cap is None else min(cap, cost)
            costs.append(cost)
        return costs

    def walk(self, roots: list[tuple[int, ...]]) -> list[int]:
        """The tight prefix of the lexicographically smallest optimal
        sequence, walked from the roots of the covers ``roots``, which all
        attain the optimum, through exact records only."""
        n, first = self.n, (1 << self.shift) - 1
        live = {sum(1 << v for v in cover) << n for cover in roots}
        prefix, x, unc = [], 0, self.m
        while unc:
            recs = [self.memo.get(key, -1) for key in live]
            if min(recs) < 0:
                raise InvariantError("a live state has no exact DP record during the witness walk")
            v = min(rec & first for rec in recs)
            low = 1 << v
            live = {(key | low) & ~(low << n) for key, rec in zip(live, recs) if rec & first == v}
            unc -= (self.adj[v] & ~x).bit_count()
            x |= low
            prefix.append(v)
        return prefix


def branch_solve(inst: Instance) -> SolveResult:
    """Decide the instance and report the cheapest ordering with max charge
    <= k; vertices after the witness's tight prefix follow in ascending id."""
    g, k = inst.graph, inst.k
    covers = enumerate_minimal_covers(g, k)
    incumbent = greedy_incumbent(g, k)
    dp = _PrefixDP(g, k)
    costs = dp.costs(covers, incumbent)
    best_cost = ids = None
    if costs:
        best_cost = min(costs)
        prefix = dp.walk([cover for cover, cost in zip(covers, costs) if cost == best_cost])
        best_ordering = Ordering.from_prefix(prefix, g.n)
        report = evaluate(g, best_ordering)
        if report.total != best_cost or report.max_cost > k:
            raise InvariantError("branching witness failed re-verification")
        ids = best_ordering.ids
    elif incumbent is not None:
        raise InvariantError("branching found no ordering although the greedy one is feasible")
    return SolveResult(best_cost, inst.w, len(covers), incumbent, len(dp.memo), ids=ids)


def solve(inst: Instance) -> SolveResult:
    """Kernelize, run the branching solver on the kernel and lift the
    witness back to the original graph, where ``lift`` re-verifies it."""
    outcome = kernelize(inst)
    if isinstance(outcome, TrivialNo):
        return SolveResult(None, inst.w, 0, None, 0, trivial_no=outcome.rule)
    if not isinstance(outcome, Kernel):
        raise InvariantError(f"kernelize returned {type(outcome).__name__}")
    kernel_inst = outcome.instance
    offset = outcome.trace.w_offset
    sub = branch_solve(kernel_inst)
    total = lifted = None
    if sub.best_cost is not None:
        lifted = lift(outcome, sub.best_ordering, inst).ids
        total = sub.best_cost + offset
    return replace(
        sub, best_cost=total, w=inst.w, ids=lifted,
        incumbent=None if sub.incumbent is None else sub.incumbent + offset,
        kernel_n=kernel_inst.graph.n, kernel_m=kernel_inst.graph.m, w_offset=offset,
    )
