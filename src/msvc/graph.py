"""Core graph types and cost semantics for the ordered vertex cover objective.

A solution is an ordering of the vertices (positions 1..n).  Every edge is
charged the smaller of its two endpoint positions; the objective is the sum
of these charges, subject to a bound k on the largest single charge.

A ``Graph`` is two read-only int64 arrays ``eu < ev`` in lexicographic
order.  The degree array and the tuple views ``edges``, ``adj`` and
``degrees`` are computed on first use and cached, so a graph that is only
parsed, kernelized and written never builds a Python object per edge.
``Ordering`` keeps its ids as packed bytes (one byte each up to n = 256,
four beyond) and builds the ``sequence`` and ``position`` tuples on each
access, so a witness that is only kept, costed, lifted or written never
becomes a Python object per vertex.
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
    lo *= n  # lo and hi are build_graph's own: the key takes hi's buffer, lo is freed
    key = np.add(lo, hi, out=hi)
    del lo
    key.sort()
    dup = key[1:] == key[:-1]
    if dup.any():
        first = int(key[dup.argmax()])
        raise GraphError(f"duplicate edge {divmod(first, n)}")
    np.divmod(key, max(n, 1), out=(eu := np.empty_like(key), key))  # ev is the key's own buffer
    return Graph(n=n, eu=_readonly(eu), ev=_readonly(key))


def _permutation_error(arr: np.ndarray, n: int, low: int = 0) -> OrderingError:
    """The error for a sequence of ids from low..low+n-1 that holds one out
    of range or repeats one, naming the first such id and not the whole
    sequence."""
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        return OrderingError(f"sequence is not {n} integer vertex ids")
    outside = (arr < low) | (arr >= low + n)
    first = np.zeros(arr.size, dtype=bool)
    first[np.unique(arr, return_index=True)[1]] = True
    i = int((outside | ~first).argmax())
    why = f"is outside {low}..{low + n - 1}" if outside[i] else "repeats an earlier id"
    return OrderingError(f"vertex id {arr[i]} at position {i + 1} {why}")


# An ordering packs its ids one byte each up to this many vertices, four
# bytes each (uint32) beyond, so its byte length tells the width: at most
# 256 for one byte, at least 4 * 257 = 1,028 for four.
_BYTE_IDS = 256


def _id_dtype(n: int) -> np.dtype:
    return np.dtype(np.uint8 if n <= _BYTE_IDS else "<u4")


@dataclass(frozen=True, slots=True)
class Ordering:
    """Bijection between vertices and positions 1..n.

    ``ids`` holds the vertex at each position as packed read-only bytes,
    uint8 when n <= 256 and uint32 otherwise, and ``array`` views them
    without a copy.  ``sequence`` (the tuple of ids, ``sequence[i]`` the
    vertex at position i+1) and ``position`` (its exact inverse) are built
    on each access, so an ordering that is only kept, costed or written
    holds one bytes object.  Equal orderings have equal bytes, so ``==``
    and ``hash`` work on them.  A witness fixes a prefix, and
    ``from_prefix`` is its one completion rule.
    """

    ids: bytes

    @staticmethod
    def from_sequence(seq: Sequence[int] | np.ndarray) -> "Ordering":
        return Ordering.from_prefix(seq, len(seq))

    @staticmethod
    def from_prefix(prefix: Sequence[int] | np.ndarray, n: int) -> "Ordering":
        """The prefix, then every other vertex of 0..n-1 in ascending id.  A
        prefix id out of range or repeated raises OrderingError."""
        head = np.asarray(prefix) if len(prefix) else np.zeros(0, dtype=np.int64)
        rest = np.ones(n, dtype=bool)
        if head.ndim == 1 and head.dtype.kind in "iu" and ((head >= 0) & (head < n)).all():
            rest[head] = False
        # an id out of range leaves every vertex in the rest, a repeated one
        # leaves one too many
        if np.count_nonzero(rest) != n - len(head):
            raise _permutation_error(head, n)
        ids = np.empty(n, dtype=_id_dtype(n))
        ids[: len(head)] = head
        ids[len(head):] = np.flatnonzero(rest)
        return Ordering(ids=ids.tobytes())

    @staticmethod
    def identity(n: int) -> "Ordering":
        return Ordering(ids=np.arange(n, dtype=_id_dtype(n)).tobytes())

    @property
    def n(self) -> int:
        size = len(self.ids)
        return size if size <= _BYTE_IDS else size // 4

    @property
    def array(self) -> np.ndarray:
        """The ids in position order, a read-only view of ``ids``."""
        return np.frombuffer(self.ids, dtype=_id_dtype(self.n))

    @property
    def sequence(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @property
    def position(self) -> tuple[int, ...]:
        position = np.empty(self.n, dtype=np.int64)
        position[self.array] = np.arange(1, self.n + 1)
        return tuple(position.tolist())


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


@dataclass(frozen=True)
class Instance:
    """Decision instance: graph plus total-cost budget w and max-charge bound k.

    k is normalized to at most n (positions beyond n do not exist).
    """

    graph: Graph
    w: int
    k: int

    def __post_init__(self) -> None:
        # k first: the CLI derives a default w from k
        if self.k < 0:
            raise ValueError(f"parameter k must be nonnegative, got {self.k}")
        if self.w < 0:
            raise ValueError(f"budget w must be nonnegative, got {self.w}")
        if self.k > self.graph.n:
            object.__setattr__(self, "k", self.graph.n)


def evaluate(g: Graph, ordering: Ordering) -> CostReport:
    """Charge every edge min(position(u), position(v)) and report the profile."""
    if ordering.n != g.n:
        raise OrderingError(f"ordering covers {ordering.n} vertices, graph has {g.n}")
    position = np.empty(g.n, dtype=np.int64)
    position[ordering.array] = np.arange(1, g.n + 1)
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
