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

from dataclasses import dataclass
from typing import NamedTuple, Optional

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


class SolveFigures(NamedTuple):
    """The fields of a ``SolveResult``, unpacked.  ``tail`` is the witness's
    packed ids (see ``Ordering``), or, without a witness, the name of the
    kernel rule that proved a trivial no (empty if none did)."""

    best_cost: Optional[int]
    w: int
    covers_enumerated: int
    incumbent: Optional[int]
    dp_states: int
    kernel_n: Optional[int]
    kernel_m: Optional[int]
    w_offset: Optional[int]
    tail: bytes


@dataclass(frozen=True, slots=True)
class SolveResult:
    """Outcome of one solve: the least total charge with max charge <= k
    (None when no ordering has one, or a kernel rule proved a no), its
    witness, the budget ``w`` it is compared with and the search counters.
    ``solve`` also records the kernel's n and m and the budget offset of
    its rules, or the rule that proved a trivial no; ``branch_solve`` leaves
    them None.

    A caller may keep many results, so one result is one bytes ``record``:
    the figures of ``SolveFigures`` in its order, each a base-128 varint of
    value + 1 (0 for None), then the tail; with a small witness the result
    takes 112 B, a 48-B object and a 64-B record.  Build one with ``pack``;
    ``unpack`` decodes every figure, and the properties below decode on
    each access."""

    record: bytes

    @staticmethod
    def pack(best_cost: Optional[int], ids: Optional[bytes], w: int, covers_enumerated: int,
             incumbent: Optional[int] = None, dp_states: int = 0, kernel_n: Optional[int] = None,
             kernel_m: Optional[int] = None, w_offset: Optional[int] = None,
             trivial_no: Optional[str] = None) -> "SolveResult":
        out = bytearray()
        for v in (best_cost, w, covers_enumerated, incumbent, dp_states, kernel_n, kernel_m, w_offset):
            v = 0 if v is None else v + 1
            while v > 0x7F:
                out.append(v & 0x7F | 0x80)
                v >>= 7
            out.append(v)
        out += ids if ids is not None else (trivial_no or "").encode()
        return SolveResult(bytes(out))

    def unpack(self) -> SolveFigures:
        record, figures, at = self.record, [], 0
        while len(figures) < len(SolveFigures._fields) - 1:
            v = shift = 0
            while True:
                byte = record[at]
                at += 1
                v |= (byte & 0x7F) << shift
                shift += 7
                if byte < 0x80:
                    break
            figures.append(v - 1 if v else None)
        return SolveFigures(*figures, record[at:])

    def __repr__(self) -> str:
        return f"SolveResult({self.unpack()!r})"

    best_cost = property(lambda self: self.unpack().best_cost)
    kernel_n = property(lambda self: self.unpack().kernel_n)
    kernel_m = property(lambda self: self.unpack().kernel_m)

    @property
    def ids(self) -> Optional[bytes]:
        f = self.unpack()
        return None if f.best_cost is None else f.tail

    @property
    def trivial_no(self) -> Optional[str]:
        f = self.unpack()
        return f.tail.decode() if f.best_cost is None and f.tail else None

    @property
    def decision(self) -> bool:
        f = self.unpack()
        return f.best_cost is not None and f.best_cost <= f.w

    @property
    def best_ordering(self) -> Optional[Ordering]:
        ids = self.ids
        return None if ids is None else Ordering(ids)

    @property
    def stats(self) -> SolveStats:
        f = self.unpack()
        return SolveStats(f.covers_enumerated, f.incumbent, f.dp_states)

    @property
    def kernel_summary(self) -> Optional[dict]:
        """{"trivial_no": rule}, the kernel's {"n", "m", "w", "w_offset"},
        or None without a kernel; built on each access."""
        if (rule := self.trivial_no) is not None:
            return {"trivial_no": rule}
        f = self.unpack()
        if f.kernel_n is None:
            return None
        return {"n": f.kernel_n, "m": f.kernel_m, "w": f.w - f.w_offset, "w_offset": f.w_offset}


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
    """The prefix DP of one solve.  A state's key holds X and R as the
    base-3 digits 1 and 2 of their vertices, below 2**30 (a 28-byte int) up
    to n = 18.  ``layers[d]`` maps the key of each state evaluated with
    |X| = d that still has an uncovered edge to its record: togo << ``shift``
    | the smallest vertex of an optimal move if the state was within its
    cap, else -(a lower bound on togo << ``shift``).  Equal records are
    stored once, and the memo is split by |X| so that no dict grows through
    a large resize."""

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
        # bound[u]: u + (u - D) + (u - 2D) + ..., the least togo of a state
        # with u uncovered edges
        top = int(g.deg.max(initial=1))
        bound = [0] * (g.m + 1)
        for u in range(1, g.m + 1):
            bound[u] = u + bound[max(u - top, 0)]
        # the dict maps each distinct record to the one object stored
        self._consts = (1 << g.n) - 1, self.shift, self.adj, self.digit, classes, self.layers, {}, bound

    def record(self, key: int, x: int, r: int, spare: int, unc: int, depth: int, cap: int) -> int:
        """Evaluate the state (X, R) = (x, r) of ``key``, with |X| = depth,
        ``spare`` placements outside the cover left and unc > 0 uncovered
        edges, into ``layers`` under ``cap``, and return its record.  A move
        packs the next state's togo, or a lower bound on it, with its
        vertex, so the least of them is the optimum at its smallest vertex.
        A next state is evaluated (again, if its record is a lower bound
        within cap - unc) only when its bound is within cap - unc; so every
        move within cap - unc is exact, and if none is, the state's togo is
        above cap."""
        full, shift, adj, digit, classes, layers, records, bound = self._consts
        below = layers[depth + 1]
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
            inside = low & r  # v leaves R (digit 2 -> 1), else joins X from outside (0 -> 1)
            after = key - digit[v] if inside else key + digit[v]
            rec = below.get(after)
            if rec is None or rec < 0 and -rec >> shift <= room:
                rec = self.record(after, x | low, r ^ inside, spare if inside else spare - 1, left,
                                  depth + 1, room)
            move = v | (rec >> shift << shift if rec >= 0 else -rec)
            if best is None or move < best:
                best = move
        if best >> shift <= room:
            rec = (unc << shift) + best
        else:
            rec = -((unc << shift) + (best >> shift << shift))
        rec = layers[depth][key] = records.setdefault(rec, rec)
        return rec

    def togo(self, cover: tuple[int, ...], cap: Optional[int] = None) -> int:
        """togo at the root (empty, cover) of a minimal cover if it is at
        most ``cap``, else a lower bound above cap; exact without a cap."""
        if not self.m:
            return 0
        if cap is None:
            cap = self.m * self.k  # no ordering of the DP charges an edge more than k
        key, mask = 2 * sum(self.digit[v] for v in cover), sum(1 << v for v in cover)
        rec = self.record(key, 0, mask, self.k - len(cover), self.m, 0, cap)
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
        digit, first = self.digit, (1 << self.shift) - 1
        live = {2 * sum(digit[v] for v in cover) for cover in roots}
        prefix, x, unc = [], 0, self.m
        while unc:
            recs = [self.layers[len(prefix)].get(key, -1) for key in live]
            if min(recs) < 0:
                raise InvariantError("a live state has no exact DP record during the witness walk")
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
    return SolveResult.pack(best_cost, ids, inst.w, len(covers), incumbent, sum(map(len, dp.layers)))


def solve(inst: Instance) -> SolveResult:
    """Kernelize, run the branching solver on the kernel and lift the
    witness back to the original graph, where ``lift`` re-verifies it."""
    outcome = kernelize(inst)
    if isinstance(outcome, TrivialNo):
        return SolveResult.pack(None, None, inst.w, 0, trivial_no=outcome.rule)
    if not isinstance(outcome, Kernel):
        raise InvariantError(f"kernelize returned {type(outcome).__name__}")
    kernel_inst = outcome.instance
    offset = outcome.trace.w_offset
    sub = branch_solve(kernel_inst).unpack()
    total = lifted = None
    if sub.best_cost is not None:
        lifted = lift(outcome, Ordering(sub.tail), inst).ids
        total = sub.best_cost + offset
    return SolveResult.pack(
        total, lifted, inst.w, sub.covers_enumerated,
        incumbent=None if sub.incumbent is None else sub.incumbent + offset,
        dp_states=sub.dp_states,
        kernel_n=kernel_inst.graph.n,
        kernel_m=kernel_inst.graph.m,
        w_offset=offset,
    )
