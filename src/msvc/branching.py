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
the smallest member of a twin class (vertices with the same neighbors;
degree-0 vertices join no class) among the vertices outside X while
|X| + |R| < k, and among R alone once |X| + |R| = k, if it covers an edge.
Twins are interchangeable, so the lexicographically smallest optimal
sequence places each class in ascending id, and once |X| + |R| = k its
next vertex is in R.  The class loop stays short: every vertex outside a
cover S of at most k vertices has all its neighbors in S, so there are at
most k + 2^k classes.  A state's moves depend on the state only, and each
adds one vertex to X, so the DP runs forward one layer per |X|, each
complete before it is expanded and each state expanded once.  A layer
keeps a state's least charge so far (the summed uncovered edges of the
prefixes before it), the smallest prefix at that charge and its uncovered
edges.

Cap.  The search starts from the least (cost, tight prefix) of the greedy
ordering (the vertex with the most uncovered edges first, when its max
charge is at most k) and of each cover's, which places only the cover, its
counts read off the members' twin-class masks.  The cap is its cost, and
each complete ordering the layers find lowers both.  Along an optimal path
from any state the edges each vertex newly covers (its saving) never grow:
if a vertex saved more than the one just before it, swapping the two would
lower the chain cost and place no more vertices outside the cover.  So a
move that saves s edges and leaves u > 0 is dropped when the charge so far
plus its saving bound u + (u - s) + ... over the terms >= 0,
(q + 1)u - s q(q + 1)/2 with q = u // s, exceeds the cap.  Each cap is the
cost of a real ordering and the bound is at most the charge still to come,
so the strict cut drops no optimal path, tied ones included.  Every move
saves s >= 1, and moves are tried fewest edges left first, so s falls as u
rises and the bound grows strictly (each of its terms does): the first
dropped move ends a state's loop.  A move whose bound equals the cap is
dropped too when its prefix sorts after the best known one: its orderings
cost at least the cap and differ from that prefix at a position where they
hold the larger vertex (they cannot extend a complete prefix, as each move
saves an edge), so each sorts after the best known sequence.  A later move
ties the cap only with the same u and a larger vertex, which sorts later
still, so this drop ends the loop too.

Witness.  A move that leaves no edge uncovered gives a candidate, its
charge and the prefix with the move, and ends its state's loop, as every
other move costs more; the least candidate or seed is the witness's tight
prefix, the other vertices following in ascending id.  It is the
lexicographically smallest optimal sequence W: W's prefix to each state it
passes has the least charge there (else a cheaper prefix with W's later
moves would beat W) and is the smallest prefix at that charge (else
swapping it in would give a smaller sequence at the same cost).  So a layer
compares whole (charge, prefix) pairs: keeping the first prefix to arrive
at the least charge is not enough, as gnp(8, .6) seed 134 at k = 6 shows
(pinned in the tests).  A complete state is never expanded, so no candidate
is a prefix of another, and comparing prefixes orders the full sequences.
The tie cut never drops a move on W's path: the best known sequence is a
real ordering and only falls, so were such a move cut, that sequence would
be optimal and sort before W.  The greedy ordering also cross-checks the
search: when its max charge is at most k, the cover search must find a
cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import Graph, Instance, InvariantError, Ordering, evaluate
from .covers import bit_mask, enumerate_minimal_covers
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
    # until the harness renames its counters (ROADMAP item 2).
    stats = property(lambda self: self)  # harness alias: the result itself
    mappings_tried = property(lambda self: self.dp_states)  # harness alias: dp_states
    branches = property(lambda self: 0)  # harness alias: the prefix DP makes no branches


def greedy_incumbent(g: Graph, k: int, pool: Optional[Sequence[int]] = None):
    """(cost, tight prefix) of the ordering that repeatedly places the vertex
    of ``pool`` (default all vertices, on a degree list; a pool must ascend
    and is ranked by ``_pool_greedy``) with the most uncovered edges, or None
    when its max charge exceeds k, known as soon as a (k+1)-th vertex still
    covers an edge.  On a cover it places the cover alone."""
    if k < 0:
        return None
    if pool is not None:
        return _pool_greedy({u: bit_mask(g.adj[u]) for u in pool}, k, pool)
    remaining, total, prefix = list(g.degrees), 0, []
    while True:
        v = max(range(g.n), key=remaining.__getitem__, default=None)
        if v is None or remaining[v] == 0:
            return total, tuple(prefix)
        if len(prefix) == k:
            return None
        prefix.append(v)
        total += len(prefix) * remaining[v]
        remaining[v] = 0
        for x in g.adj[v]:
            if remaining[x]:  # unplaced: its edge to v is still uncovered
                remaining[x] -= 1


def _pool_greedy(nbr, k: int, pool: Sequence[int]):
    """``greedy_incumbent`` on an ascending pool, ``nbr[u]`` each member's neighbor mask."""
    rest, placed, total, prefix = list(pool), 0, 0, []
    while True:
        out, most = ~placed, 0
        for u in rest:  # ties go to the first, the smallest id
            if (left := (nbr[u] & out).bit_count()) > most:  # u's uncovered edges
                most, v = left, u
        if not most or len(prefix) == k:  # no edge left, or a (k+1)-th vertex
            return None if most else (total, tuple(prefix))
        rest.remove(v)
        prefix.append(v)
        total, placed = total + len(prefix) * most, placed | 1 << v


def _prefix_dp(g: Graph, k: int, covers: list[tuple[int, ...]], seed: Optional[tuple]):
    """(cost, tight prefix, states) of the lexicographically smallest
    optimal sequence from the roots of ``covers``, starting from the least
    of ``seed`` (a feasible ordering's (cost, tight prefix), or None) and
    the covers' greedy orderings, read off the twin classes' neighbor
    masks, or None without a cover.  Classes are keyed by g.adj[u], their
    two masks built once.  A layer maps each key x | r << n to its charge
    so far, the smallest prefix at that charge (its parent's prefix and a
    1-tuple tail, empty at a root, so that ties build no prefix) and unc."""
    if not covers:
        return None
    n, m = g.n, g.m
    if not m:
        return 0, [], 0
    full = (1 << n) - 1
    shift = n.bit_length()
    first = (1 << shift) - 1
    twins: dict[tuple, list[int]] = {}  # g.adj[u] -> its members, ascending
    for u, ids in enumerate(g.adj):
        twins.setdefault(ids, []).append(u)
    masks = {ids: bit_mask(ids) for ids in twins}  # one neighbor mask per class
    classes = [(masks[ids], bit_mask(members)) for ids, members in twins.items() if ids]
    nbr = list(map(masks.__getitem__, g.adj))  # each vertex's, for the cover seeds
    best = min(_pool_greedy(nbr, k, cover) for cover in covers)  # |S| <= k: feasible
    best = best if seed is None else min(best, seed)
    cap = best[0]
    layer = {bit_mask(cover) << n: (0, (), (), m) for cover in covers}
    states = 0
    while layer:
        states += len(layer)
        after = {}
        for key, (charge, parent, tail, unc) in layer.items():
            prefix = parent + tail
            out = ~key  # link & out: the neighbors outside X
            pool = out & full if key.bit_count() < k else key >> n  # outside X, or R once full
            moves = []  # edges left uncovered << shift | vertex, of every move saving an edge
            for link, members in classes:
                if (avail := members & pool) and (saved := (link & out).bit_count()):
                    moves.append((unc - saved) << shift | (avail & -avail).bit_length() - 1)
            moves.sort()  # fewest edges left first: the saving bound never falls
            charge += unc
            for move in moves:
                left, v = move >> shift, move & first
                if not left:
                    if (charge, prefix + (v,)) < best:
                        best = charge, prefix + (v,)
                        cap = charge
                    break
                q = left // (unc - left)  # the saving bound, u = left, s = unc - left
                bound = charge + (q + 1) * left - (unc - left) * q * (q + 1) // 2
                if bound > cap or bound == cap and prefix + (v,) > best[1]:
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
    seed = greedy_incumbent(g, k)
    incumbent = None if seed is None else seed[0]
    found = _prefix_dp(g, k, covers, seed)
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
    kg, offset = outcome.instance.graph, outcome.trace.w_offset
    sub = branch_solve(outcome.instance)
    total = lifted = None
    if sub.best_cost is not None:
        lifted = lift(outcome, sub.best_ordering, inst).ids
        total = sub.best_cost + offset
    incumbent = None if sub.incumbent is None else sub.incumbent + offset
    return SolveResult(total, inst.w, sub.covers_enumerated, incumbent, sub.dp_states,
                       kg.n, kg.m, offset, lifted)
