"""Enumeration of all minimal vertex covers of size at most k.

Recursive edge branching: at the lexicographically smallest uncovered edge uv,
either take u, or permanently exclude u and take all of N(u).  A branch is cut
once its cover exceeds k, needs an excluded vertex, or leaves more uncovered
edges than its k - |cover| vertices to come cover at the maximum degree each.
Non-minimal leaves are dropped, leaving at most 2^k distinct covers.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

from .graph import Graph, is_vertex_cover


def is_minimal_cover(g: Graph, s) -> bool:
    """True iff s covers every edge and each member has a neighbor outside s."""
    members = set(s)
    return is_vertex_cover(g, members) and not any(members.issuperset(g.adj[v]) for v in members)


def enumerate_minimal_covers(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All minimal vertex covers of size <= k as ascending tuples, sorted."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return sorted(tuple(_members(c)) for c in set(_minimal_covers(g, k)))


def _members(mask: int) -> Iterator[int]:
    """The vertices of a mask, ascending."""
    while mask:
        yield (low := mask & -mask).bit_length() - 1
        mask ^= low


def _minimal_covers(g: Graph, k: int) -> Iterator[int]:
    """The minimal vertex covers of size <= k as vertex masks, lazily in search
    order, some more than once.  A branch gets its cover and excluded vertices
    as masks and its uncovered edges in lexicographic order, and undoes nothing."""
    max_deg = max(g.degrees, default=0)

    def explore(cover: int, excluded: int, uncovered: list[tuple[int, int]]) -> Iterator[int]:
        # at most max_deg edges per vertex to come, and none past k vertices
        if len(uncovered) > (k - cover.bit_count()) * max_deg:
            return
        if not uncovered:
            members = set(_members(cover))
            if not any(members.issuperset(g.adj[v]) for v in members):  # a private edge each
                yield cover
            return
        u = uncovered[0][0]
        rest = bisect_left(uncovered, (u + 1,))  # u's edges come first: no smaller vertex has one
        if not excluded >> u & 1:
            yield from explore(cover | 1 << u, excluded, uncovered[rest:])
        need = {b for _, b in uncovered[:rest]}  # N(u) less the cover
        if cover.bit_count() + len(need) <= k and not any(excluded >> x & 1 for x in need):
            left = [(a, b) for a, b in uncovered[rest:] if a not in need and b not in need]
            yield from explore(cover | sum(1 << x for x in need), excluded | 1 << u, left)

    return explore(0, 0, list(g.edges))
