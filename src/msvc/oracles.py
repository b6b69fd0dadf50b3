"""Ground-truth solvers: full permutation enumeration (head blocks over a
cached uint8 table of tail orders, see ``_blocks``) and a subset dynamic
program over placement prefixes, plus a fast path for regular graphs.

Both oracles return the minimum total charge over all orderings whose maximum
single charge is at most k, together with the lexicographically smallest
witness sequence, or None when no vertex cover of size <= k exists.

The subset DP sums the uncovered edges of each prefix (see ``DpTable``) over
the vertex sets of at most k vertices only, built one size at a time from
graph-independent layers of masks, the small ones cached (see ``_layer``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, permutations
from math import comb, factorial, inf

import numpy as np

from .graph import Graph, InvariantError, Ordering, _readonly

BRUTE_FORCE_GUARD = 10
SUBSET_DP_GUARD = 24
_CACHED_DROPS = 1 << 13  # the subset DP caches its layers up to this many drops, see _layer

_TAIL = 8  # orderings of the last min(n, _TAIL) slots come from one cached table
_FULL = np.uint8(255)  # above any tail sum: masks a column out of a uint8 minimum

DP_UNFILLED = int(np.iinfo(np.int16).max)  # held by every DpTable mask of more than k vertices


class OracleGuardError(ValueError):
    """Graph too large for the requested oracle."""


@dataclass(frozen=True)
class DpTable:
    """Prefix-placement table over all 2^n vertex subsets, indexed by bitmask.

    ``value`` (int16): for a mask S of s <= k vertices, value[S] = least[S]
    + unc(S), where unc(T) counts the edges with no end in T and least[S] is
    the least chain charge unc(P_0) + ... + unc(P_{s-1}) over the orderings
    whose first s vertices P_s are S.  An edge charged c is left uncovered by
    c prefixes, so on a vertex cover value[S] is the least total charge;
    elsewhere each edge with no end in S counts s + 1.  value[0] == m; masks
    of more than k vertices hold ``DP_UNFILLED``, the int16 maximum, above any
    filled value: m * (n + 1) <= 276 * 25 under the n = 24 guard.  ``covers``
    (int64): the vertex covers of at most k vertices at the least value among
    them, by size, then ascending.  A layer's masks, parents and drops are
    cached when s * comb(n, s) <= _CACHED_DROPS there and below: 0.96 MB to n = 18.
    The witness pass marks tight masks in a 2^n bool array beside the table,
    half its bytes (16 MB at n = 24), written only at the pages it marks.
    """

    value: np.ndarray
    covers: np.ndarray


@lru_cache(maxsize=None)
def _tail_table() -> np.ndarray:
    """Read-only (_TAIL, _TAIL!) uint8 table: column j holds the slot of each
    of 0.._TAIL-1 in the j-th permutation of range(_TAIL), lexicographic."""
    seqs = np.array(list(permutations(range(_TAIL))), dtype=np.uint8)
    table = np.ascontiguousarray(np.argsort(seqs, axis=1).T, dtype=np.uint8)
    table.flags.writeable = False
    return table


def _blocks(g: Graph):
    """Every ordering of g's vertices, lexicographic, one block per head (the
    first h = max(n - _TAIL, 0) vertices); the tail, the rest ascending, takes
    its orders from the columns of ``slots``, a slice of ``_tail_table``.

    Yields (head, tail, slots, base, top, lift, tot, mx).  A head edge charges
    its first head slot, from 1; these sum to ``base`` and peak at ``top``.  A
    tail edge (a, b) charges lift + min(slots[a], slots[b]): ``base`` adds the
    lift, n - _TAIL + 1, and per column ``tot`` sums the minima (at most
    comb(_TAIL, 2) * (_TAIL - 2), exact in uint8) and ``mx`` is the largest.
    """
    if g.n > BRUTE_FORCE_GUARD:
        raise OracleGuardError(f"brute force limited to n <= {BRUTE_FORCE_GUARD}, got {g.n}")
    n, h = g.n, max(g.n - _TAIL, 0)
    slots = _tail_table()[_TAIL - n + h :, : factorial(n - h)]
    c = np.empty(slots.shape[1], dtype=np.uint8)
    for head in permutations(range(n), h):
        tail = sorted(set(range(n)).difference(head))
        at = {v: i for i, v in enumerate(head + tuple(tail))}
        firsts = [min(at[u], at[v]) for u, v in g.edges]
        heads = [i + 1 for i in firsts if i < h]
        pairs = [(at[u] - h, at[v] - h) for (u, v), i in zip(g.edges, firsts) if i >= h]
        # an edgeless tail lifts nothing, and its first column stands for all
        lift, width = (n - _TAIL + 1, c.size) if pairs else (0, 1)
        tot, mx = np.zeros(width, dtype=np.uint8), np.zeros(width, dtype=np.uint8)
        for a, b in pairs:
            np.minimum(slots[a], slots[b], out=c)
            tot += c
            np.maximum(mx, c, out=mx)
        yield head, tail, slots, sum(heads) + lift * len(pairs), max(heads, default=0), lift, tot, mx


def brute_force_optimal(g: Graph, k: int):
    """Minimum total charge over all n! orderings with max charge <= k.

    Returns (cost, Ordering) with the lexicographically smallest optimal
    sequence, or None if no ordering satisfies the max-charge bound.  Blocks
    and their columns both run in lexicographic order, so the first column
    of least cost in the first block to reach it is the witness.
    """
    low, best = inf, None
    for head, tail, slots, base, top, lift, tot, mx in _blocks(g):
        if top > k or (room := min(k, g.n) - lift) < int(mx.min()):
            continue  # room, the largest tail minimum within k, is 0..n here
        cut = tot | (mx > room) * _FULL
        if (cost := base + int(cut.min())) < low:
            low, best = cost, list(head) + [tail[i] for i in np.argsort(slots[:, cut.argmin()])]
    return None if best is None else (low, Ordering.from_sequence(best))


def brute_force_profile(g: Graph) -> list:
    """best[c] = minimum total over orderings with max charge <= c, else None.

    One enumeration pass answers every c at once: per block, the least total
    of each class of columns with the same largest tail minimum.
    """
    best = [inf] * (g.n + 1)
    for _, _, _, base, top, lift, tot, mx in _blocks(g):
        for j in range(int(mx.min()), int(mx.max()) + 1):
            if (low := int((tot | (mx != j) * _FULL).min())) < 255:
                c = max(top, lift + j)
                best[c] = min(best[c], base + low)
    # min total over max charge <= c is the prefix minimum
    return [None if b == inf else b for b in accumulate(best, min)]


def _adj_masks(g: Graph) -> np.ndarray:
    masks = np.zeros(g.n, dtype=np.int64)
    np.bitwise_or.at(masks, np.concatenate((g.eu, g.ev)), 1 << np.concatenate((g.ev, g.eu)))
    return masks


def _next_layer(layer: np.ndarray, n: int):
    """(masks, rows, cuts): the ascending masks of one vertex more than the
    ascending ``layer``, each once as layer[row] + v, cuts[v] rows below 1 << v."""
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    cuts = np.searchsorted(layer, bits)
    rows = np.arange(cuts.sum()) - np.repeat(np.cumsum(cuts) - cuts, cuts)
    return layer[rows] | np.repeat(bits, cuts), rows, cuts


@lru_cache(maxsize=None)
def _layer(n: int, s: int):
    """Read-only ``_next_layer`` output (masks, rows, cuts) for s of n vertices
    and the (s, L) masks less one vertex; None past _CACHED_DROPS here or below."""
    if not s:
        return np.zeros(1, dtype=np.int64), None, None, np.zeros((0, 1), dtype=np.int64)
    if s * comb(n, s) > _CACHED_DROPS or (below := _layer(n, s - 1)) is None:
        return None
    masks, rows, cuts = _next_layer(below[0], n)
    # T + v less one of its vertices: T less one, plus v, or T itself
    drops = np.vstack((below[3][:, rows] | (masks ^ below[0][rows]), below[0][rows]))
    return tuple(_readonly(a) for a in (masks, rows, cuts, drops))


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
    value = np.full(1 << n, DP_UNFILLED, dtype=np.int16)
    value[0] = g.m
    layer, unc = np.zeros(1, dtype=np.int64), np.full(1, g.m, dtype=np.int16)
    opt, covers = DP_UNFILLED, [layer[:0]]  # the least value of a cover so far, and its covers
    for s in range(min(k, n) + 1):
        if s:
            layer, rows, cuts, drops = _layer(n, s) or (*_next_layer(layer, n), None)
            unc = unc[rows] - np.bitwise_count(np.repeat(adj, cuts) & ~layer)
            value[layer] = (_least(value, layer, s) if drops is None else value[drops].min(0)) + unc
        if (found := layer[unc == 0]).size:  # no cover below tau: nothing to keep
            at = value[found]
            if (low := int(at.min())) < opt:
                opt, covers = low, []
            covers.append(found[at == opt])
    return DpTable(value, np.concatenate(covers))


def optimal_covers(table: DpTable):
    """(opt, masks): the least value over the table's covers and every cover
    attaining it, by size, then ascending; None when the table has no cover."""
    if table.covers.size == 0:
        return None
    return int(table.value[table.covers[0]]), table.covers


def subset_dp_optimal(g: Graph, k: int):
    """Subset DP optimum with max charge <= k; None when infeasible.

    The witness is the lexicographically smallest optimal sequence.  One
    test over all (cover, vertex) pairs keeps the best covers the walk can
    end at.  A backward pass flags, per size, the tight masks (prefixes of
    some optimal ordering) in one bool per mask (see ``DpTable``) and keeps
    their least chain charge.  A forward walk then takes the smallest vertex
    that keeps the prefix tight, up to a cover.
    """
    table = build_dp_table(g, k)
    if (found := optimal_covers(table)) is None:
        return None
    opt, best = found
    value, adj, bits = table.value, _adj_masks(g), np.left_shift(1, np.arange(g.n, dtype=np.int64))
    # the walk stops at the first cover: it ends at a best cover B only if B - v
    # is at value opt for a v with a neighbour outside B (B - v is no cover)
    step = (1 << 17) // max(g.n, 1)  # rows per block: each (rows, n) temporary about 1 MB
    ends = [(((adj & ~b[:, None]) != 0) & (value[b[:, None] & ~bits] == opt)).any(1)
            for b in (best[i : i + step] for i in range(0, best.size, step))]
    best = best[np.concatenate(ends)]
    sizes = np.bitwise_count(best)
    tight, masks, flag = [], best[:0], np.zeros(1 << g.n, dtype=bool)
    flag[best] = True
    for s in range(int(sizes.max(initial=0)), 0, -1):
        if (cached := _layer(g.n, s)) is None:
            masks = np.unique(np.concatenate((masks, best[sizes == s])))
            tight.append((masks, least := _least(value, masks, s)))
            masks = np.concatenate([prev[value[prev] == least] for prev in _drop_each(masks, s)])
            flag[masks] = True
            continue
        hit = flag[cached[0]]
        below = value[drops := cached[3][:, hit]]
        tight.append((cached[0][hit], least := below.min(0)))  # each once, ascending
        flag[drops[below == least]] = True

    seq: list[int] = []
    mask = charge = 0  # the prefix placed so far and its least chain charge
    for masks, least in reversed(tight):
        if (at := int(value[mask])) == charge:  # no uncovered edge left
            break
        for t, c in zip(masks.tolist(), least.tolist()):  # a few masks: Python ints beat numpy calls
            if t & mask == mask and c == at:
                break
        else:
            raise InvariantError("no tight extension during DP reconstruction")
        seq.append((t ^ mask).bit_length() - 1)
        mask, charge = t, c
    return opt, Ordering.from_prefix(seq, g.n)


def regular_solve(g: Graph, k: int):
    """Optimum for d-regular graphs.

    Degree 0 is solved directly.  For degree d >= 1 a cover needs at least
    m / d = n / 2 vertices, so n > 2k is infeasible without any search; a
    matching (d = 1) is then solved directly, and everything else is
    delegated to the subset DP.
    """
    n = g.n
    degs = set(g.degrees)
    if len(degs) > 1:
        raise ValueError("regular_solve requires a regular graph")
    d = degs.pop() if degs else 0
    if d == 0:
        return None if k < 0 else (0, Ordering.identity(n))
    if n > 2 * min(k, n):
        return None
    if d == 1:
        # a matching: the lower endpoints of its edges, ascending, cover it
        return g.m * (g.m + 1) // 2, Ordering.from_prefix(g.eu, n)
    return subset_dp_optimal(g, k)
