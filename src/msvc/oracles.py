"""Ground-truth solvers: full permutation enumeration (lexicographic int8
numpy blocks, no Python object per ordering) and a subset dynamic program
over placement prefixes, plus a fast path for regular graphs.

Both oracles return the minimum total charge over all orderings whose maximum
single charge is at most k, together with the lexicographically smallest
witness sequence, or None when no vertex cover of size <= k exists.
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

    ``value`` is a numpy int32 array: value[mask] is the minimal total charge
    of any ordering that places exactly the vertices of ``mask`` first, and
    value[0] == 0.  Only the layers of popcount 0..k are filled; every mask
    with more than k vertices holds the sentinel ``DP_UNFILLED``.
    ``popcount[mask]`` (uint8) is the number of vertices in ``mask``.
    """

    value: np.ndarray
    popcount: np.ndarray


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
    sequence, or None if no ordering satisfies the max-charge bound.
    """
    n = g.n
    if n > BRUTE_FORCE_GUARD:
        raise OracleGuardError(f"brute force limited to n <= {BRUTE_FORCE_GUARD}, got {n}")
    best = None
    # blocks are lexicographic: the first cheapest feasible column is the witness
    for seqs in _perm_blocks(n, min(n, _TAIL)):
        pos = np.empty_like(seqs)
        np.put_along_axis(pos, seqs, np.arange(n, dtype=np.int8)[:, None], axis=0)
        totals, maxes = _charges(g, pos)
        feasible = np.flatnonzero(maxes < min(max(k, 0), n))
        if feasible.size:
            idx = feasible[totals[feasible].argmin()]
            cost = int(totals[idx]) + g.m
            if best is None or cost < best[0]:
                best = cost, Ordering.from_sequence(seqs[:, idx])
    return best


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
        for c in range(-1, n):
            best[c + 1] = totals.min(initial=best[c + 1], where=maxes == c)
    # min total over max charge <= c is the prefix minimum
    return [None if c == unset else c + g.m for c in np.minimum.accumulate(best).tolist()]


def _adj_masks(g: Graph) -> np.ndarray:
    masks = np.zeros(g.n, dtype=np.int64)
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _popcounts(n: int) -> np.ndarray:
    pc = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        pc[1 << i : 2 << i] = pc[: 1 << i] + 1
    return pc


def _transitions(value: np.ndarray, adj: np.ndarray, layer: np.ndarray, s: int):
    """The recurrence value[S] = min over v in S of value[S - v] + |S| * |N(v) - S|
    on the masks S of one layer (all of popcount s): yields, per vertex v, the
    masks holding v, those masks without v, and the candidate charges."""
    for v, nbrs in enumerate(adj):
        bit = 1 << v
        sub = layer[(layer & bit) != 0]
        prev = sub ^ bit
        yield sub, prev, value[prev] + s * np.bitwise_count(nbrs & ~sub).astype(np.int32)


def build_dp_table(g: Graph, k: int) -> DpTable:
    """Fill the prefix-placement table for all subsets of size <= min(k, n)."""
    n = g.n
    if n > SUBSET_DP_GUARD:
        raise OracleGuardError(f"subset DP limited to n <= {SUBSET_DP_GUARD}, got {n}")
    adj = _adj_masks(g)
    table = DpTable(value=np.full(1 << n, DP_UNFILLED, dtype=np.int32), popcount=_popcounts(n))
    value = table.value
    value[0] = 0
    for s in range(1, min(k, n) + 1):
        layer = np.flatnonzero(table.popcount == s)
        for sub, _, cand in _transitions(value, adj, layer, s):
            value[sub] = np.minimum(value[sub], cand)
    return table


def optimal_covers(g: Graph, table: DpTable, k: int):
    """(opt, masks): the least table value over vertex covers of at most
    min(k, n) vertices, and every such cover attaining it; None when the
    graph has no cover that small."""
    masks = np.flatnonzero(table.popcount <= min(k, g.n))
    outside = ~masks
    is_cover = np.ones(masks.size, dtype=bool)
    for v, nbrs in enumerate(_adj_masks(g)):
        # a vertex left outside the cover needs every neighbor inside it
        is_cover &= ((masks & (1 << v)) != 0) | ((nbrs & outside) == 0)
    covers = masks[is_cover]
    if covers.size == 0:
        return None
    values = table.value[covers]
    opt = int(values.min())
    return opt, covers[values == opt]


def subset_dp_optimal(g: Graph, k: int):
    """Subset DP optimum with max charge <= k; None when infeasible.

    The witness is the lexicographically smallest optimal sequence.  A
    backward pass marks the tight masks: prefixes of some optimal ordering,
    placed at their least charge.  A forward walk then takes, at each step,
    the smallest vertex whose placement keeps the prefix tight.
    """
    n = g.n
    k_eff = min(k, n)
    table = build_dp_table(g, k)
    found = optimal_covers(g, table, k_eff)
    if found is None:
        return None
    opt, best = found
    adj = _adj_masks(g)
    value = table.value
    tight = np.zeros(value.size, dtype=bool)
    tight[best] = True
    for s in range(k_eff, 0, -1):
        layer = np.flatnonzero(tight & (table.popcount == s))
        for sub, prev, cand in _transitions(value, adj, layer, s):
            tight[prev[cand == value[sub]]] = True

    adj_int = [int(a) for a in adj]
    seq: list[int] = []
    mask = 0
    # a tight prefix covers every edge exactly when its charge reaches opt,
    # since each uncovered edge still costs at least 1
    while (charge := int(value[mask])) < opt:
        size = len(seq) + 1
        for v in range(n):
            nxt = mask | (1 << v)
            if nxt == mask or not tight[nxt]:
                continue
            if charge + size * (adj_int[v] & ~nxt).bit_count() == value[nxt]:
                seq.append(v)
                mask = nxt
                break
        else:
            raise InvariantError("no tight extension during DP reconstruction")
    return opt, Ordering.from_prefix(seq, n)


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
