"""Seeded instance generators.

Randomness comes from an in-package PCG32 (XSH-RR output on a 64-bit LCG
state), so the same spec and seed produce the same graph on every platform
and library version.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .graph import Graph, build_graph

_PCG_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1

# whole-shuffle retries of the random_regular pairing before giving up
REGULAR_ATTEMPTS = 2000


class Pcg32:
    """Minimal permuted congruential generator, 32-bit output."""

    def __init__(self, seed: int):
        self.state = 0
        self.inc = 1
        self._step()
        self.state = (self.state + (seed & _MASK64)) & _MASK64
        self._step()

    def _step(self) -> None:
        self.state = (self.state * _PCG_MULT + self.inc) & _MASK64

    def next32(self) -> int:
        old = self.state
        self._step()
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 32) - ((1 << 32) % bound)
        while True:
            draw = self.next32()
            if draw < limit:
                return draw % bound

    def chance(self, p: float) -> bool:
        return self.next32() < p * 4294967296.0

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


FAMILIES = (
    "path",
    "cycle",
    "star",
    "double_star",
    "claw_chain",
    "gnp",
    "random_regular",
    "disjoint_edges",
)


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    params: tuple
    seed: int = 0


def generate(spec: GeneratorSpec) -> Graph:
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}; choose from {FAMILIES}")
    builder = globals()[f"_gen_{spec.family}"]
    required = [
        p for p in inspect.signature(builder).parameters.values() if p.default is p.empty
    ]
    if len(spec.params) != len(required):
        names = ", ".join(p.name for p in required)
        raise ValueError(
            f"{spec.family} takes {len(required)} parameters ({names}), got {len(spec.params)}"
        )
    for p, value in zip(required, spec.params):
        # annotations are strings under postponed evaluation
        if p.annotation == "int" and not isinstance(value, int):
            raise ValueError(f"{spec.family} parameter {p.name} must be an integer, got {value!r}")
    return builder(*spec.params, seed=spec.seed)


def _gen_path(n: int, seed: int = 0) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def _gen_cycle(n: int, seed: int = 0) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _gen_star(leaves: int, seed: int = 0) -> Graph:
    if leaves < 0:
        raise ValueError("star needs a nonnegative leaf count")
    hub = np.zeros(leaves, dtype=np.int64)
    return build_graph(leaves + 1, np.column_stack((hub, np.arange(1, leaves + 1))))


def _gen_double_star(p: int, q: int, seed: int = 0) -> Graph:
    """Adjacent centers 0 and 1 with p and q private leaves."""
    if p < 0 or q < 0:
        raise ValueError("double_star needs nonnegative leaf counts")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(p)]
    edges += [(1, 2 + p + i) for i in range(q)]
    return build_graph(2 + p + q, edges)


def _gen_claw_chain(claws: int, seed: int = 0) -> Graph:
    """``claws`` three-leaf stars sharing one identified leaf (vertex 0).

    Vertex 0 is the shared leaf; claw i contributes its center 3i+1 and two
    private leaves 3i+2, 3i+3.  claw_chain(6) is the 19-vertex instance with
    six degree-3 centers, one degree-6 shared vertex and twelve pendants.
    """
    if claws < 1:
        raise ValueError("claw_chain needs at least one claw")
    edges = []
    for i in range(claws):
        center = 3 * i + 1
        edges += [(0, center), (center, 3 * i + 2), (center, 3 * i + 3)]
    return build_graph(3 * claws + 1, edges)


def _gen_gnp(n: int, p: float, seed: int = 0) -> Graph:
    if n < 0:
        raise ValueError("gnp needs n >= 0")
    if not (0.0 <= p <= 1.0):
        raise ValueError("gnp needs probability p in [0, 1]")
    rng = Pcg32(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.chance(p)]
    return build_graph(n, edges)


def _gen_random_regular(n: int, d: int, seed: int = 0) -> Graph:
    """Configuration-model pairing with whole-shuffle retries on collisions."""
    if d < 0 or n < 0:
        raise ValueError("random_regular needs nonnegative n and d")
    if (n * d) % 2 != 0:
        raise ValueError("random_regular needs n*d even")
    if d >= n and n > 0:
        raise ValueError("random_regular needs d < n")
    if d == 0:
        return build_graph(n, [])
    rng = Pcg32(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(REGULAR_ATTEMPTS):
        trial = stubs[:]
        rng.shuffle(trial)
        seen = set()
        ok = True
        edges = []
        for i in range(0, len(trial), 2):
            u, v = trial[i], trial[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in seen:
                ok = False
                break
            seen.add(key)
            edges.append(key)
        if ok:
            return build_graph(n, edges)
    raise ValueError(f"no simple {d}-regular pairing found after {REGULAR_ATTEMPTS} attempts")


def _gen_disjoint_edges(count: int, seed: int = 0) -> Graph:
    if count < 0:
        raise ValueError("disjoint_edges needs a nonnegative count")
    return build_graph(2 * count, [(2 * i, 2 * i + 1) for i in range(count)])
