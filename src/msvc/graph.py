"""Core graph types and cost semantics for the ordered vertex cover objective.

A solution is an ordering of the vertices (positions 1..n).  Every edge is
charged the smaller of its two endpoint positions; the objective is the sum
of these charges, subject to a bound k on the largest single charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Invalid graph construction input (self-loop, duplicate, bad endpoint)."""


class OrderingError(ValueError):
    """A vertex ordering that is not a bijection onto 1..n."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``edges`` holds normalized pairs (u < v) in sorted order; ``adj`` holds a
    sorted neighbor tuple per vertex.  Instances are immutable and safe to
    share across threads.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        # adjacency tuples are sorted; linear scan is fine at query scale
        return v in self.adj[u]


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list, rejecting self-loops, duplicates and
    out-of-range endpoints."""
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    normalized = []
    for u, v in edge_list:
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        normalized.append((u, v) if u < v else (v, u))
    normalized.sort()
    for i in range(1, len(normalized)):
        if normalized[i] == normalized[i - 1]:
            raise GraphError(f"duplicate edge {normalized[i]}")
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in normalized:
        neighbors[u].append(v)
        neighbors[v].append(u)
    # iteration over lex-sorted edges appends each adjacency list in
    # ascending order, so no per-vertex sort is needed
    return Graph(n=n, edges=tuple(normalized), adj=tuple(tuple(a) for a in neighbors))


@dataclass(frozen=True)
class Ordering:
    """Bijection between vertices and positions 1..n.

    ``position[v]`` is the position of vertex v; ``sequence[i]`` is the vertex
    at position i+1 (the exact inverse).
    """

    position: tuple[int, ...]
    sequence: tuple[int, ...]

    @staticmethod
    def from_sequence(seq: Sequence[int]) -> "Ordering":
        n = len(seq)
        position = [0] * n
        seen = [False] * n
        for i, v in enumerate(seq):
            if not (0 <= v < n) or seen[v]:
                raise OrderingError(f"sequence {list(seq)} is not a permutation of 0..{n - 1}")
            seen[v] = True
            position[v] = i + 1
        return Ordering(position=tuple(position), sequence=tuple(seq))

    @staticmethod
    def from_positions(position: Sequence[int]) -> "Ordering":
        n = len(position)
        sequence = [-1] * n
        for v, p in enumerate(position):
            if not (1 <= p <= n) or sequence[p - 1] != -1:
                raise OrderingError(f"positions {list(position)} are not a bijection onto 1..{n}")
            sequence[p - 1] = v
        return Ordering(position=tuple(position), sequence=tuple(sequence))

    @staticmethod
    def identity(n: int) -> "Ordering":
        seq = tuple(range(n))
        return Ordering(position=tuple(range(1, n + 1)), sequence=seq)

    @property
    def n(self) -> int:
        return len(self.position)

    def pos(self, v: int) -> int:
        return self.position[v]

    def at(self, position: int) -> int:
        return self.sequence[position - 1]


@dataclass(frozen=True)
class CostReport:
    """Charge profile of an ordering.

    ``r[i - 1]`` counts the edges charged exactly i (edges first covered by
    the vertex at position i).  ``total`` is the sum of all charges and
    ``max_cost`` the largest one (0 on edgeless graphs).
    """

    r: tuple[int, ...]
    total: int
    max_cost: int

    def r_at(self, i: int) -> int:
        """Number of edges charged exactly i (1-indexed position)."""
        return self.r[i - 1]


@dataclass(frozen=True)
class Instance:
    """Decision instance: graph plus total-cost budget w and max-charge bound k.

    k is normalized to at most n (positions beyond n do not exist).
    """

    graph: Graph
    w: int
    k: int

    def __post_init__(self) -> None:
        if self.w < 0:
            raise ValueError(f"budget w must be nonnegative, got {self.w}")
        if self.k < 0:
            raise ValueError(f"parameter k must be nonnegative, got {self.k}")
        if self.k > self.graph.n:
            object.__setattr__(self, "k", self.graph.n)


def sorted_by_degree(g: Graph) -> list[int]:
    """Vertices by non-increasing degree, ties broken by ascending id."""
    return order_by_degree([len(a) for a in g.adj])


def order_by_degree(degs: Sequence[int]) -> list[int]:
    """Indices of a degree sequence by non-increasing degree, ties broken by
    ascending index."""
    n = len(degs)
    if n >= 4096:
        import numpy as np

        # lexsort: last key dominates, so sort by (-degree, id)
        return np.lexsort((np.arange(n), -np.asarray(degs, dtype=np.int64))).tolist()
    return sorted(range(n), key=lambda v: (-degs[v], v))


def evaluate(g: Graph, ordering: Ordering) -> CostReport:
    """Charge every edge min(position(u), position(v)) and report the profile."""
    if ordering.n != g.n:
        raise OrderingError(f"ordering covers {ordering.n} vertices, graph has {g.n}")
    position = ordering.position
    r = [0] * g.n
    total = 0
    max_cost = 0
    for u, v in g.edges:
        c = position[u]
        pv = position[v]
        if pv < c:
            c = pv
        r[c - 1] += 1
        total += c
        if c > max_cost:
            max_cost = c
    return CostReport(r=tuple(r), total=total, max_cost=max_cost)


def is_feasible(inst: Instance, ordering: Ordering) -> bool:
    """True iff the ordering respects both the max-charge bound and the budget."""
    report = evaluate(inst.graph, ordering)
    return report.max_cost <= inst.k and report.total <= inst.w


def is_vertex_cover(g: Graph, s: Iterable[int]) -> bool:
    members = set(s)
    return all(u in members or v in members for u, v in g.edges)
