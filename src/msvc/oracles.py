"""Ground-truth solvers: full permutation enumeration (lexicographic int8
numpy blocks, no Python object per ordering) and a subset dynamic program
over placement prefixes, plus a fast path for regular graphs.

Both oracles return the minimum total charge over all orderings whose maximum
single charge is at most k, together with the lexicographically smallest
witness sequence, or None when no vertex cover of size <= k exists.

The subset DP sums the uncovered edges of each prefix (see ``DpTable``) over
the vertex sets of at most k vertices only, built one size at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .graph import Graph, InvariantError, Ordering

BRUTE_FORCE_GUARD = 10
SUBSET_DP_GUARD = 24

_TAIL = 8  # orderings of the last min(n, _TAIL) slots come from one cached table

# value held by every DpTable mask with more than k vertices
DP_UNFILLED = int(np.iinfo(np.int32).max)


class OracleGuardError(ValueError):
    """Graph too large for the requested oracle."""


@dataclass(frozen=True)
class DpTable:
    """Prefix-placement table over all 2^n vertex subsets, indexed by bitmask.

    ``value`` (int32): for a mask S of s <= k vertices, value[S] = least[S]
    + unc(S), where unc(T) counts the edges with no end in T and least[S] is
    the least chain charge unc(P_0) + ... + unc(P_{s-1}) over the orderings
    whose first s vertices P_s are S.  An edge charged c is left uncovered by
    c prefixes, so on a vertex cover value[S] is the least total charge;
    elsewhere each edge with no end in S counts s + 1.  value[0] == m; masks
    of more than k vertices hold ``DP_UNFILLED``.  ``covers`` (int64): the
    vertex covers of at most k vertices at the least value among them, by
    size, then ascending.
    """

    value: np.ndarray
    covers: np.ndarray


@lru_cache(maxsize=None)
def _perm_table(r: int) -> np.ndarray:
    """The permutations of range(r), lexicographic, as a read-only (r, r!) int8 table."""
    table = np.hstack(list(_perm_blocks(r, r - 1))) if r else np.empty((0, 1), np.int8)
    table.flags.writeable = False
    return table


def _perm_blocks(n: int, r: int):
    """Every permutation of range(n), in lexicographic order, as int8 column
    blocks: one (n, r!) block per ordered choice of the first n - r values."""
    table = _perm_table(r)
    for head in permutations(range(n), n - r):
        block = np.empty((n, table.shape[1]), dtype=np.int8)
        block[: n - r] = np.array(head, dtype=np.int8)[:, None]
        block[n - r :] = table
        for j, h in enumerate(sorted(head)):  # shift past each head value
            block[n - r :] += table >= h - j
        yield block


def _charges(g: Graph, pos: np.ndarray):
    """(totals, maxes) per column of a position block, positions counting from 0:
    the total charges less g.m (int16) and the largest charges less 1 (int8)."""
    c = np.empty(pos.shape[1], dtype=np.int8)
    totals = np.zeros(pos.shape[1], dtype=np.int16)
    maxes = np.full(pos.shape[1], -1, dtype=np.int8)  # max charge 0 without edges
    for u, v in zip(g.eu.tolist(), g.ev.tolist()):
        np.minimum(pos[u], pos[v], out=c)
        totals += c
        np.maximum(maxes, c, out=maxes)
    return totals, maxes


def brute_force_optimal(g: Graph, k: int):
    """Minimum total charge over all n! orderings with max charge <= k.

    Returns (cost, Ordering) with the lexicographically smallest optimal
    sequence, or None if no ordering satisfies the max-charge bound.  Each
    permutation is read as positions, as in ``brute_force_profile``; only
    the cheapest feasible columns of a block are compared as sequences.
    """
    n = g.n
    if n > BRUTE_FORCE_GUARD:
        raise OracleGuardError(f"brute force limited to n <= {BRUTE_FORCE_GUARD}, got {n}")
    unset = np.iinfo(np.int16).max
    low, best = unset, None  # the least feasible total less m so far, and its witness
    for pos in _perm_blocks(n, min(n, _TAIL)):
        totals, maxes = _charges(g, pos)
        totals[maxes >= min(max(k, 0), n)] = unset
        if (cost := totals.min()) < unset and cost <= low:
            cols = np.flatnonzero(totals == cost)
            for p in range(n):  # keep the columns with the least vertex at position p
                cols = cols[next(hit for hit in (pos[v, cols] == p for v in range(n)) if hit.any())]
            seq = np.argsort(pos[:, cols[0]]).tolist()
            if cost < low or seq < best:
                low, best = cost, seq
    return None if best is None else (int(low) + g.m, Ordering.from_sequence(best))


def brute_force_profile(g: Graph) -> list:
    """best[c] = minimum total over orderings with max charge <= c, else None.

    One enumeration pass answers every c at once.  Each permutation is read as
    positions: the inverses of all orderings give the same (total, max) pairs.
    """
    n = g.n
    if n > BRUTE_FORCE_GUARD:
        raise OracleGuardError(f"brute force limited to n <= {BRUTE_FORCE_GUARD}, got {n}")
    unset = np.iinfo(np.int16).max
    best = np.full(n + 1, unset, dtype=np.int16)
    for pos in _perm_blocks(n, min(n, _TAIL)):
        totals, maxes = _charges(g, pos)
        np.minimum.at(best, maxes + 1, totals)
    # min total over max charge <= c is the prefix minimum
    return [None if c == unset else c + g.m for c in np.minimum.accumulate(best).tolist()]


def _adj_masks(g: Graph) -> np.ndarray:
    masks = np.zeros(g.n, dtype=np.int64)
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _next_layer(layer: np.ndarray, unc: np.ndarray, adj: np.ndarray):
    """The masks of one vertex more than the ascending ``layer``, ascending,
    and their uncovered-edge counts: each once, as T + v for T below 1 << v."""
    bits = np.left_shift(1, np.arange(adj.size, dtype=np.int64))
    cuts = np.searchsorted(layer, bits)  # layer[:cuts[v]] lies below 1 << v
    rows = np.arange(cuts.sum()) - np.repeat(np.cumsum(cuts) - cuts, cuts)
    below = layer[rows]
    return below | np.repeat(bits, cuts), unc[rows] - np.bitwise_count(np.repeat(adj, cuts) & ~below)


def _drop_each(masks: np.ndarray, s: int):
    """Yields, for masks of s vertices, the masks less their lowest vertex,
    then less their second lowest, and so on, all into one reused buffer."""
    rest, prev = masks.copy(), np.empty_like(masks)
    for _ in range(s):
        np.negative(rest, out=prev)
        prev &= rest  # the lowest vertex left in rest
        rest ^= prev
        prev ^= masks
        yield prev


def _least(value: np.ndarray, masks: np.ndarray, s: int) -> np.ndarray:
    """least[S] = min over v in S of value[S - v], for masks S of s >= 1 vertices."""
    drops = _drop_each(masks, s)
    least = value[next(drops)]
    for prev in drops:
        np.minimum(least, value[prev], out=least)
    return least


def build_dp_table(g: Graph, k: int) -> DpTable:
    """Fill the prefix-placement table for all subsets of size <= min(k, n)."""
    n = g.n
    if n > SUBSET_DP_GUARD:
        raise OracleGuardError(f"subset DP limited to n <= {SUBSET_DP_GUARD}, got {n}")
    adj = _adj_masks(g)
    value = np.full(1 << n, DP_UNFILLED, dtype=np.int32)
    value[0] = g.m
    layer, unc = np.zeros(1, dtype=np.int64), np.full(1, g.m, dtype=np.int32)
    opt, covers = DP_UNFILLED, [layer[:0]]  # the least value of a cover so far, and its covers
    for s in range(min(k, n) + 1):
        if s:
            layer, unc = _next_layer(layer, unc, adj)
            value[layer] = _least(value, layer, s) + unc
        found = layer[unc == 0]
        if (low := int(value[found].min(initial=DP_UNFILLED))) < opt:
            opt, covers = low, []
        covers.append(found[value[found] == opt])
    return DpTable(value, np.concatenate(covers))


def optimal_covers(table: DpTable):
    """(opt, masks): the least value over the table's covers and every cover
    attaining it, by size, then ascending; None when the table has no cover."""
    if table.covers.size == 0:
        return None
    return int(table.value[table.covers[0]]), table.covers


def subset_dp_optimal(g: Graph, k: int):
    """Subset DP optimum with max charge <= k; None when infeasible.

    The witness is the lexicographically smallest optimal sequence.  A
    backward pass collects, per size, the tight masks (prefixes of some
    optimal ordering) and their least chain charge.  A forward walk then
    takes the smallest vertex that keeps the prefix tight, up to a cover.
    """
    table = build_dp_table(g, k)
    if (found := optimal_covers(table)) is None:
        return None
    opt, best = found
    value = table.value
    # the walk stops at the first cover: it ends at a best cover B only if B - v
    # is at value opt for a v with a neighbour outside B (B - v is no cover)
    ends = np.zeros(best.size, dtype=bool)
    for v, nbrs in enumerate(_adj_masks(g)):
        ends |= ((nbrs & ~best) != 0) & (value[best & ~(1 << v)] == opt)
    best = best[ends]
    sizes = np.bitwise_count(best)
    tight, masks = [], np.zeros(0, dtype=np.int64)
    for s in range(int(sizes.max(initial=0)), 0, -1):
        masks = np.sort(np.concatenate((masks, best[sizes == s])))
        masks = masks[np.append(masks[:1] >= 0, masks[1:] != masks[:-1])]  # each once
        least = _least(value, masks, s)
        tight.append((masks, least))
        masks = np.concatenate([prev[value[prev] == least] for prev in _drop_each(masks, s)])

    seq: list[int] = []
    mask = charge = 0  # the prefix placed so far and its least chain charge
    for masks, least in reversed(tight):
        if value[mask] == charge:  # no uncovered edge left
            break
        ok = np.flatnonzero(((masks & mask) == mask) & (least == value[mask]))
        if ok.size == 0:
            raise InvariantError("no tight extension during DP reconstruction")
        seq.append((int(masks[ok[0]]) ^ mask).bit_length() - 1)
        mask, charge = int(masks[ok[0]]), int(least[ok[0]])
    return opt, Ordering.from_prefix(seq, g.n)


def regular_solve(g: Graph, k: int):
    """Optimum for d-regular graphs.

    Degree 0 and 1 are solved directly; degree >= 3 with n > 2k is infeasible
    without any search (a cover needs at least n/2 vertices); everything else
    is delegated to the subset DP.
    """
    n = g.n
    degs = set(g.degrees)
    if len(degs) > 1:
        raise ValueError("regular_solve requires a regular graph")
    d = degs.pop() if degs else 0
    k_eff = min(k, n)
    if d == 0:
        return 0, Ordering.identity(n)
    if d == 1:
        m = g.m
        if k_eff < m:
            return None
        # a matching: the lower endpoints of its edges, ascending, cover it
        return m * (m + 1) // 2, Ordering.from_prefix(g.eu, n)
    if d >= 3 and n > 2 * k_eff:
        return None
    return subset_dp_optimal(g, k)
