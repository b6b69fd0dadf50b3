"""Core graph types and cost semantics for the ordered vertex cover objective.

A solution is an ordering of the vertices (positions 1..n).  Every edge is
charged the smaller of its two endpoint positions; the objective is the sum
of these charges, subject to a bound k on the largest single charge.

A ``Graph`` is two read-only int64 arrays ``eu < ev`` in lexicographic
order.  The degree array and the tuple views ``edges``, ``adj`` and
``degrees`` are computed on first use and cached, so a graph that is only
parsed, kernelized and written never builds a Python object per edge.
``Ordering`` keeps its position and sequence tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

# build_graph sorts vertex pairs by the key lo * n + hi, which must fit in
# int64
MAX_VERTICES = 3_037_000_499


class GraphError(ValueError):
    """Invalid graph construction input (self-loop, duplicate, bad endpoint)."""


class OrderingError(ValueError):
    """A vertex ordering that is not a bijection onto 1..n."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edge i is ``(eu[i], ev[i])`` with ``eu[i] < ev[i]``, in lexicographic
    order.  ``edges`` (the same pairs as a tuple) and ``adj`` (a sorted
    neighbor tuple per vertex) are views built on first use.  Instances are
    immutable, compare by value and are safe to share across threads.
    """

    n: int
    eu: np.ndarray
    ev: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.eu, other.eu)
            and np.array_equal(self.ev, other.ev)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.eu.tobytes(), self.ev.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    @property
    def m(self) -> int:
        return self.eu.size

    @cached_property
    def deg(self) -> np.ndarray:
        """Degree of every vertex (read-only int64 array)."""
        return _readonly(np.bincount(np.concatenate((self.eu, self.ev)), minlength=self.n))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.eu.tolist(), self.ev.tolist()))

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        # both directions of every edge, sorted by (vertex, neighbor)
        key = np.concatenate((self.eu * n + self.ev, self.ev * n + self.eu))
        key.sort()
        flat = (key % max(n, 1)).tolist()
        ends = np.cumsum(self.deg).tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip([0] + ends, ends))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.deg.tolist())

    def degree(self, v: int) -> int:
        return int(self.deg[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return v in self.adj[u]


def _first_bad_edge(n: int, pairs: Iterable[tuple[int, int]]) -> GraphError:
    """The error for the first out-of-range or self-loop edge of pairs."""
    for u, v in pairs:
        if not (0 <= u < n) or not (0 <= v < n):
            return GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            return GraphError(f"self-loop at vertex {u}")
    raise InvariantError("no offending edge among the pairs")


def build_graph(n: int, edge_list: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Build a Graph from vertex pairs or an (m, 2) integer array, rejecting
    out-of-range endpoints, self-loops and duplicates.

    The error names the first out-of-range or self-loop edge in input order,
    else the smallest duplicated pair."""
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds {MAX_VERTICES}")
    if not isinstance(edge_list, (np.ndarray, list, tuple)):
        edge_list = list(edge_list)
    try:
        pairs = np.asarray(edge_list, dtype=np.int64)
    except OverflowError:
        # some endpoint does not fit in int64, so it is out of range
        raise _first_bad_edge(n, edge_list) from None
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphError(f"edges must be vertex pairs, got an array of shape {pairs.shape}")
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    if lo.min(initial=0) < 0 or hi.max(initial=-1) >= n or (lo == hi).any():
        bad = (lo < 0) | (hi >= n) | (lo == hi)
        raise _first_bad_edge(n, pairs[bad.argmax(), None].tolist())
    key = lo * n + hi
    key.sort()
    dup = key[1:] == key[:-1]
    if dup.any():
        first = int(key[dup.argmax()])
        raise GraphError(f"duplicate edge {divmod(first, n)}")
    eu, ev = np.divmod(key, max(n, 1))
    return Graph(n=n, eu=_readonly(eu), ev=_readonly(ev))


@dataclass(frozen=True, slots=True)
class Ordering:
    """Bijection between vertices and positions 1..n.

    ``sequence[i]`` is the vertex at position i+1.  ``position[v]``, the
    position of vertex v, is its exact inverse; it is built on each access,
    so an ordering that is only kept or written holds one n-tuple.
    """

    sequence: tuple[int, ...]

    @staticmethod
    def from_sequence(seq: Sequence[int] | np.ndarray) -> "Ordering":
        n = len(seq)
        arr = np.asarray(seq) if n else np.zeros(0, dtype=np.int64)
        position = np.zeros(n, dtype=np.int64)
        if arr.shape == (n,) and arr.dtype.kind in "iu" and n and arr.min() >= 0 and arr.max() < n:
            position[arr] = np.arange(1, n + 1)
        # an id out of range leaves every position 0, a repeated one leaves one
        if n and position.min() == 0:
            raise OrderingError(f"sequence {list(seq)} is not a permutation of 0..{n - 1}")
        return Ordering(sequence=tuple(arr.tolist()))

    @staticmethod
    def from_positions(position: Sequence[int]) -> "Ordering":
        n = len(position)
        sequence = [-1] * n
        for v, p in enumerate(position):
            if not (1 <= p <= n) or sequence[p - 1] != -1:
                raise OrderingError(f"positions {list(position)} are not a bijection onto 1..{n}")
            sequence[p - 1] = v
        return Ordering(sequence=tuple(sequence))

    @staticmethod
    def identity(n: int) -> "Ordering":
        return Ordering(sequence=tuple(range(n)))

    @property
    def position(self) -> tuple[int, ...]:
        position = [0] * len(self.sequence)
        for i, v in enumerate(self.sequence, 1):
            position[v] = i
        return tuple(position)

    @property
    def n(self) -> int:
        return len(self.sequence)

    def pos(self, v: int) -> int:
        return self.sequence.index(v) + 1

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
    return order_by_degree(g.deg)


def order_by_degree(degs: Sequence[int] | np.ndarray) -> list[int]:
    """Indices of a degree sequence by non-increasing degree, ties broken by
    ascending index."""
    return np.argsort(-np.asarray(degs, dtype=np.int64), kind="stable").tolist()


def evaluate(g: Graph, ordering: Ordering) -> CostReport:
    """Charge every edge min(position(u), position(v)) and report the profile."""
    if ordering.n != g.n:
        raise OrderingError(f"ordering covers {ordering.n} vertices, graph has {g.n}")
    position = np.empty(g.n, dtype=np.int64)
    position[np.asarray(ordering.sequence, dtype=np.int64)] = np.arange(1, g.n + 1)
    charge = np.minimum(position[g.eu], position[g.ev])
    r = np.bincount(charge - 1, minlength=g.n)
    total, max_cost = int(charge.sum()), int(charge.max(initial=0))
    return CostReport(r=tuple(r.tolist()), total=total, max_cost=max_cost)


def is_feasible(inst: Instance, ordering: Ordering) -> bool:
    """True iff the ordering respects both the max-charge bound and the budget."""
    report = evaluate(inst.graph, ordering)
    return report.max_cost <= inst.k and report.total <= inst.w


def is_vertex_cover(g: Graph, s: Iterable[int]) -> bool:
    members = set(s)
    return all(u in members or v in members for u, v in g.edges)
