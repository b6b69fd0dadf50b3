"""Enumeration of all minimal vertex covers of size at most k.

Edge branching on an explicit stack of (cover mask, uncovered edges, scan
start) ints: at u, the smallest vertex with an uncovered edge, take u or
exclude u and take N(u) - cover; cut once the cover exceeds k or the
uncovered edges outnumber k - |cover| times the maximum degree.  An excluded
vertex keeps its neighbors in the cover, so the branches share no cover.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .graph import Graph, is_vertex_cover


def is_minimal_cover(g: Graph, s) -> bool:
    """True iff s covers every edge and each member has a neighbor outside s."""
    members = set(s)
    return is_vertex_cover(g, members) and not any(members.issuperset(g.adj[v]) for v in members)


def enumerate_minimal_covers(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All minimal vertex covers of size <= k as ascending tuples, sorted."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return sorted(map(_members, _minimal_covers(g, k)))


def bit_mask(ids: Sequence[int]) -> int:
    """The mask of ascending ids, in time linear in its size and their count."""
    if len(ids) > 64:
        flags = np.zeros(ids[-1] + 1, bool)
        flags[np.fromiter(ids, np.intp, len(ids))] = True
        return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")
    mask = 0
    for x in ids:
        mask |= 1 << x
    return mask


def _members(mask: int) -> tuple[int, ...]:
    """The vertices of a mask, ascending."""
    members = []
    while mask:
        members.append((low := mask & -mask).bit_length() - 1)
        mask ^= low
    return tuple(members)


def _minimal_covers(g: Graph, k: int) -> Iterator[int]:
    """The minimal covers of size <= k as masks, lazily, "take u" first."""
    masks, max_deg = {}, max(g.degrees, default=0)

    def nbr(v: int) -> int:  # built on first use, one per neighbor tuple: twins share it
        return masks.get(ids := g.adj[v]) or masks.setdefault(ids, bit_mask(ids))

    stack = [(0, g.m, 0)] if g.m <= k * max_deg else []
    while stack:
        cover, count, u = stack.pop()
        out = ~cover
        if not count:
            rest = cover  # kept if each member has a private edge
            while rest and nbr((low := rest & -rest).bit_length() - 1) & out:
                rest ^= low
            if not rest:
                yield cover
            continue
        while cover >> u & 1 or not nbr(u) & out:
            u += 1
        need = nbr(u) & out  # u's uncovered edges lead here
        room = k - cover.bit_count() - (size := need.bit_count())
        if room >= 0:  # exclude u: need joins the cover
            grown, left, rest = cover, count, need
            while rest:
                left -= (nbr((low := rest & -rest).bit_length() - 1) & ~grown).bit_count()
                grown, rest = grown | low, rest ^ low
            if left <= room * max_deg:
                stack.append((grown, left, u + 1))
        if count - size <= (room + size - 1) * max_deg:  # take u, popped first
            stack.append((cover | 1 << u, count - size, u + 1))
