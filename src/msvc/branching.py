"""Branching solver: guess a minimal cover, then place it and the vertices
outside it into the prefix at the least total charge.

Every ordering with max charge <= k has a vertex cover among its first k
vertices, and so a minimal cover S with |S| <= k.  The solver takes, over the
minimal covers, the cheapest ordering that places S within positions 1..k.
An edge charged c is left uncovered by c prefixes, so an ordering's total
charge is the sum over its prefixes of their uncovered edges (its chain
cost).

One prefix DP serves every cover.  A state is (X, R): the vertices X placed
so far and the cover vertices R = S - X still to place, keyed by the one
int X | R << n, with one root (empty, S) per minimal cover.  A move places
a vertex of R that covers an edge or, while |X| + |R| < k, the smallest
member outside X + R of a twin class (vertices with the same neighbors,
all in S, are interchangeable; degree-0 vertices join no class).  A
state's moves depend on the state only, and each adds one vertex to X, so
the DP runs forward one layer per |X|, each complete before it is expanded
and each state expanded once.  A layer keeps a state's least charge so far
(the summed uncovered edges of the prefixes before it), the smallest
prefix at that charge and its uncovered edges.

Cap.  It starts at the least cost of the greedy ordering, which repeatedly
places the vertex covering the most uncovered edges, when its max charge
is at most k, and of each cover's greedy ordering, which places only the
cover's vertices; each complete ordering the layers find lowers it.  Along
an optimal path from any state the edges each vertex newly covers (its
saving) never grow: if a vertex saved more than the one just before it,
swapping the two would lower the chain cost and place no more vertices
outside the cover.  So a move that saves s edges and leaves u > 0 is
dropped when the charge so far plus its saving bound u + (u - s) + ...
over the terms >= 0, (q + 1)u - s q(q + 1)/2 with q = u // s, exceeds the
cap.  Each cap is the cost of a real ordering and the bound is at most the
charge still to come, so the strict cut drops no optimal path, tied ones
included.  Every move saves s >= 1, and moves are tried fewest edges left
first, so s falls as u rises and the bound never falls: the first dropped
move ends a state's loop.

Witness.  A move that leaves no edge uncovered gives a candidate, its
charge and the prefix with the move, and ends its state's loop, as every
other move costs more; the least candidate is the witness's tight prefix,
the other vertices following in ascending id.  It is the lexicographically
smallest optimal sequence W: W's prefix to each state it passes has the
least charge there (else a cheaper prefix with W's later moves would beat
W) and is the smallest prefix at that charge (else swapping it in would
give a smaller sequence at the same cost).  So a layer compares whole
(charge, prefix) pairs: keeping the first prefix to arrive at the least
charge is not enough, as gnp(8, .6) seed 134 at k = 6 shows (pinned in the
tests).  A complete state is never expanded, so no candidate is a prefix
of another, and comparing prefixes orders the full sequences.  The greedy
ordering also cross-checks the search: when its max charge is at most k,
the DP must find one too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

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
    ``dp_states``, the (X, R) states the prefix DP's layers held, each
    expanded once (a state reached from several covers counts once),
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


def greedy_incumbent(g: Graph, k: int, pool: Optional[Sequence[int]] = None) -> Optional[int]:
    """Cost of the ordering that repeatedly places the vertex of ``pool``
    (default all vertices) with the most uncovered edges (ties by ascending
    id), or None when its max charge exceeds k, known as soon as a (k+1)-th
    vertex still covers an edge.  On a cover it places the cover alone."""
    if k < 0:
        return None
    pool = range(g.n) if pool is None else pool
    remaining = list(g.degrees)
    total = steps = 0
    while True:
        v = max(pool, key=lambda u: (remaining[u], -u), default=None)
        if v is None or remaining[v] == 0:
            return total
        steps += 1
        if steps > k:
            return None
        total += steps * remaining[v]
        remaining[v] = 0
        for x in g.adj[v]:
            if remaining[x]:  # unplaced: its edge to v is still uncovered
                remaining[x] -= 1


def _prefix_dp(g: Graph, k: int, covers: list[tuple[int, ...]], incumbent: Optional[int]):
    """(cost, tight prefix, states) of the lexicographically smallest
    optimal sequence from the roots of ``covers``, under a cap that starts
    at ``incumbent`` (a feasible ordering's cost, or None), or None without
    a cover.  A layer maps each state's key x | r << n to its charge so far,
    the smallest prefix at that charge, as its parent's prefix and a 1-tuple
    tail (empty at a root) so that ties build no prefix, and unc."""
    if not covers:
        return None
    n, m = g.n, g.m
    if not m:
        return 0, [], 0
    full = (1 << n) - 1
    shift = n.bit_length()
    first = (1 << shift) - 1
    adj = [sum(1 << x for x in g.adj[v]) for v in range(n)]
    twins: dict[int, int] = {}  # N(u) -> its members, both as masks
    for u, link in enumerate(adj):
        if link:
            twins[link] = twins.get(link, 0) | 1 << u
    classes = tuple(twins.items())
    cap = min(greedy_incumbent(g, k, cover) for cover in covers)  # |S| <= k: feasible
    cap = cap if incumbent is None else min(cap, incumbent)
    layer = {sum(1 << v for v in cover) << n: (0, (), (), m) for cover in covers}
    best, states = None, 0
    while layer:
        states += len(layer)
        after = {}
        for key, (charge, parent, tail, unc) in layer.items():
            prefix = parent + tail
            x, r, spare = key & full, key >> n, k - key.bit_count()
            free, out = full ^ x ^ r, ~x
            moves = []  # edges left uncovered << shift | vertex, of every move saving an edge
            rest = r
            while rest:
                low = rest & -rest
                rest ^= low
                if saved := (adj[v := low.bit_length() - 1] & out).bit_count():
                    moves.append((unc - saved) << shift | v)
            if spare > 0:
                for link, members in classes:
                    avail = members & free
                    if avail and (saved := (link & r).bit_count()):
                        moves.append((unc - saved) << shift | (avail & -avail).bit_length() - 1)
            moves.sort()  # fewest edges left first: the saving bound never falls
            charge += unc
            for move in moves:
                left, v = move >> shift, move & first
                if not left:
                    if best is None or (charge, prefix + (v,)) < best:
                        best = charge, prefix + (v,)
                        cap = min(cap, charge)
                    break
                q = left // (unc - left)  # the saving bound, u = left, s = unc - left
                if charge + (q + 1) * left - (unc - left) * q * (q + 1) // 2 > cap:
                    break  # and every later move is cut too
                low = 1 << v
                nxt = (key | low) & ~(low << n)  # v joins X, and leaves R if it was there
                state = charge, prefix, (v,), left
                old = after.get(nxt)
                if old is None or state < old:
                    after[nxt] = state
        layer = after
    return best[0], list(best[1]), states


def branch_solve(inst: Instance) -> SolveResult:
    """Decide the instance and report the cheapest ordering with max charge
    <= k; vertices after the witness's tight prefix follow in ascending id."""
    g, k = inst.graph, inst.k
    covers = enumerate_minimal_covers(g, k)
    incumbent = greedy_incumbent(g, k)
    found = _prefix_dp(g, k, covers, incumbent)
    best_cost, ids, states = None, None, 0
    if found:
        best_cost, prefix, states = found
        best_ordering = Ordering.from_prefix(prefix, g.n)
        report = evaluate(g, best_ordering)
        if report.total != best_cost or report.max_cost > k:
            raise InvariantError("branching witness failed re-verification")
        ids = best_ordering.ids
    elif incumbent is not None:
        raise InvariantError("branching found no ordering although the greedy one is feasible")
    return SolveResult(best_cost, inst.w, len(covers), incumbent, states, ids=ids)


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
