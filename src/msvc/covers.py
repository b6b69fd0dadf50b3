"""Enumeration of all minimal vertex covers of size at most k.

Recursive edge branching: at the lexicographically smallest uncovered edge uv,
either take u, or permanently exclude u and take all of N(u).  Branches are
pruned once the partial cover exceeds k, would need an excluded vertex, or
leaves more uncovered edges than its remaining k - |cover| vertices can
cover at the maximum degree each; leaves are filtered for minimality and
deduplicated.  The scheme yields at most 2^k distinct covers, each an
ascending tuple of vertex ids.
"""

from __future__ import annotations

from typing import Iterator

from .graph import Graph, is_vertex_cover


def is_minimal_cover(g: Graph, s) -> bool:
    """True iff s covers every edge and no proper subset does."""
    members = set(s)
    return is_vertex_cover(g, members) and _all_have_private_edges(g, members)


def _all_have_private_edges(g: Graph, cover: set[int]) -> bool:
    """A vertex cover is minimal exactly when every member has a neighbor
    outside the set (a private edge that only it covers)."""
    return all(any(x not in cover for x in g.adj[v]) for v in cover)


def enumerate_minimal_covers(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All minimal vertex covers of size <= k, each an ascending vertex
    tuple, in sorted order."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return sorted(set(_minimal_covers(g, k)))


def _minimal_covers(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """The minimal vertex covers of size <= k as sorted tuples, lazily in
    search order, some more than once.  Each branch carries its uncovered
    edges in lexicographic order."""
    max_deg = int(g.deg.max(initial=0))

    def explore(cover: set[int], excluded: set[int], uncovered: list[tuple[int, int]]
                ) -> Iterator[tuple[int, ...]]:
        # each vertex still to come covers at most max_deg uncovered edges;
        # a cover larger than k leaves a negative allowance
        if len(uncovered) > (k - len(cover)) * max_deg:
            return
        if not uncovered:
            if _all_have_private_edges(g, cover):
                yield tuple(sorted(cover))
            return
        u = uncovered[0][0]
        if u not in excluded:
            cover.add(u)
            yield from explore(cover, excluded, [e for e in uncovered if u not in e])
            cover.discard(u)
        need = [x for x in g.adj[u] if x not in cover]
        if any(x in excluded for x in need):
            return
        if len(cover) + len(need) > k:
            return
        cover.update(need)
        excluded.add(u)
        yield from explore(
            cover, excluded, [(a, b) for a, b in uncovered if a not in cover and b not in cover]
        )
        excluded.discard(u)
        cover.difference_update(need)

    return explore(set(), set(), list(g.edges))
