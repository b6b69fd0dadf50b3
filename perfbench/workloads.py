"""The benchmark's workloads: seeded inputs, the op each input is run
through, and the correctness gate that checks every op's output.

Every workload is built from ``--seed`` alone (the same seed gives the same
inputs) and calls only the public functions of ``msvc``, looked up through
their modules at call time so that a traced run can wrap them.

A case is one op on one input.  Cases sharing a ``group`` are checked
together: the oracle workload cross-checks the oracles on one graph, the
others check each case on its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass
class Case:
    group: int
    kind: str
    edges: int
    run: Callable[[], object]


@dataclass
class Workload:
    cases: list[Case]
    # check(group, {kind: [output, ...]}) -> None when correct, else a reason
    check: Callable[[int, dict], Optional[str]]


def recost(n: int, us: np.ndarray, vs: np.ndarray, seq) -> tuple[int, int] | str:
    """(total, max charge) of a 0-indexed vertex sequence, computed without
    msvc; a string describing the defect when seq is not a permutation."""
    seq = np.asarray(seq, dtype=np.int64)
    if seq.shape != (n,) or (n and (seq.min() < 0 or seq.max() >= n)):
        return f"witness is not a sequence of {n} vertex ids"
    if n and np.bincount(seq, minlength=n).max() != 1:
        return "witness repeats a vertex"
    pos = np.empty(n, dtype=np.int64)
    pos[seq] = np.arange(1, n + 1)
    if us.size == 0:
        return 0, 0
    charge = np.minimum(pos[us], pos[vs])
    return int(charge.sum()), int(charge.max())


def edge_arrays(g) -> tuple[np.ndarray, np.ndarray]:
    e = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    return e[:, 0].copy(), e[:, 1].copy()


# ---------------------------------------------------------------- solve-gnp

# (n, k, edge probability, graphs).  Op latency within one cell varies by a
# factor of 2-10, and the cells of p = 0.25 vary most.  The median of a pass
# is steady only inside a dense band of ops with little spread, so the
# 30-50 ms cells of p = 0.45 and 0.65 at n=7, k=6 and n=8, k=6 get the most
# graphs, with as many faster ops below them as slower ops above.  Random
# n=8, k=8 graphs take 0.01-3.8 s each, so a few of them would swing the
# pass time by more than 10% from seed to seed; that cell enters only as the
# fixed worst case of the n=8 acceptance corpus below.
GNP_CELLS = (
    [(7, 5, p, 8) for p in (0.25, 0.45, 0.65)]
    + [(7, 6, 0.25, 8), (8, 6, 0.25, 8)]
    + [(n, 6, p, 35) for n in (7, 8) for p in (0.45, 0.65)]
    + [(n, n - 1, p, 6) for n in (7, 8) for p in (0.25, 0.45, 0.65)]
)
GNP_CELLS_TINY = ((5, 3, 0.45, 1), (5, 4, 0.25, 1), (6, 5, 0.65, 1))
# (label, family, params, generator seed, k, w, golden optimum)
GNP_FIXED = (
    ("claw_chain6", "claw_chain", (6,), 0, 7, 60, 60),
    ("double_star40", "double_star", (40, 40), 0, 8, 121, 121),
    ("gnp8_worst", "gnp", (8, 0.65), 8018, 8, 48, 48),
)


def solve_gnp(msvc, seed: int, tiny: bool) -> Workload:
    """Op = ``solve(Instance)`` on small gnp graphs and three fixed members."""
    generators, branching = msvc.generators, msvc.branching
    rng = random.Random(seed)
    specs = []  # (label, graph, k, w, golden)
    for n, k, p, count in GNP_CELLS_TINY if tiny else GNP_CELLS:
        for _ in range(count):
            g = generators.generate(msvc.GeneratorSpec("gnp", (n, p), rng.getrandbits(32)))
            # budgets around the optimum give both yes and no answers
            w = rng.randint(g.m, max(g.m, g.m * k // 2))
            specs.append((f"gnp{n}_k{k}_p{p}", g, k, w, None))
    for label, family, params, gseed, k, w, golden in GNP_FIXED[: 1 if tiny else None]:
        g = generators.generate(msvc.GeneratorSpec(family, params, gseed))
        specs.append((label, g, k, w, golden))
    rng.shuffle(specs)

    cases = []
    for i, (label, g, k, w, golden) in enumerate(specs):
        inst = msvc.Instance(graph=g, w=w, k=k)
        cases.append(Case(i, label, g.m, lambda inst=inst: branching.solve(inst)))

    def check(group: int, outputs: dict) -> Optional[str]:
        label, g, k, w, golden = specs[group]
        if golden is not None:
            opt = golden
        else:
            ref = msvc.oracles.subset_dp_optimal(g, k)
            opt = None if ref is None else ref[0]
        us, vs = edge_arrays(g)
        for res in outputs[label]:
            if res.decision != (opt is not None and opt <= w):
                return f"{label}: decision {res.decision}, optimum {opt}, w={w}"
            if res.best_cost is None:
                # no witness: infeasible, or a kernel rule proved cost > w
                if opt is not None and "trivial_no" not in (res.kernel_summary or {}):
                    return f"{label}: no witness but optimum {opt}"
                continue
            if res.best_cost != opt:
                return f"{label}: best_cost {res.best_cost} != optimum {opt}"
            got = recost(g.n, us, vs, res.best_ordering.sequence)
            if isinstance(got, str) or got[0] != opt or got[1] > k:
                return f"{label}: witness re-costs to {got}, expected {opt} with max <= {k}"
        return None

    return Workload(cases, check)


# -------------------------------------------------------------- kernel-hubs

# (k, private leaves per hub, shared leaves, core stars, expected answer).
# Hub degrees lie more than k apart, so the rule-2 loop runs once per gap;
# shared and private leaves form rule 4's set I; the core stars, with hubs
# and centers within k, leave a small yes-kernel.  The last instance has
# k + 1 hubs of degree above k and is a no by rule 1.  The op times (about
# 2, 6 and 4 s) are far apart, so the median op is always the rule-1 one.
HUB_SPECS = (
    (7, (110_000, 60_000, 25_000), 5_000, 3, "yes"),
    (7, (380_000, 200_000), 20_000, 3, "yes"),
    (6, (140_000,) * 7, 20_000, 0, "rule1"),
)
HUB_SPECS_TINY = (
    (4, (900, 400), 50, 2, "yes"),
    (3, (300,) * 4, 30, 0, "rule1"),
)
STAR_LEAVES = 3
HUB_CORE_LINKS = 2


def _hub_graph(rng: np.random.Generator, private, shared: int, stars: int):
    """(n, us, vs) of a hub graph with vertex ids shuffled."""
    h = len(private)
    private = [int(c * rng.uniform(0.99, 1.01)) for c in private]
    core = stars * (1 + STAR_LEAVES)
    n = h + core + sum(private) + shared
    us, vs = [], []
    nxt = h + core
    for i, c in enumerate(private):
        us.append(np.full(c, i))
        vs.append(np.arange(nxt, nxt + c))
        nxt += c
    first = rng.integers(0, h, size=shared)
    second = (first + rng.integers(1, h, size=shared)) % h
    leaves = np.arange(nxt, nxt + shared)
    us += [first, second]
    vs += [leaves, leaves]
    for s in range(stars):
        center = h + s * (1 + STAR_LEAVES)
        us.append(np.full(STAR_LEAVES, center))
        vs.append(np.arange(center + 1, center + 1 + STAR_LEAVES))
    if core:
        for i in range(h):
            us.append(np.full(HUB_CORE_LINKS, i))
            vs.append(h + rng.choice(core, size=HUB_CORE_LINKS, replace=False))
    perm = rng.permutation(n)
    a = perm[np.concatenate(us)]
    b = perm[np.concatenate(vs)]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))
    return n, lo[order], hi[order]


def _instance_text(n: int, us, vs, k: int, w: int) -> str:
    body = "".join(f"e {u} {v}\n" for u, v in zip((us + 1).tolist(), (vs + 1).tolist()))
    return f"p msvc {n} {us.size} {k} {w}\n" + body


def kernel_hubs(msvc, seed: int, tiny: bool) -> Workload:
    """Op = ``parse_instance(text)`` -> ``solve`` -> ``write_ordering``."""
    io, branching = msvc.instance_io, msvc.branching
    rng = np.random.default_rng(seed)
    inputs = []  # (expect, n, us, vs, k, w, text)
    for k, private, shared, stars, expect in HUB_SPECS_TINY if tiny else HUB_SPECS:
        n, us, vs = _hub_graph(rng, private, shared, stars)
        w = us.size * k  # every edge charged at most k
        inputs.append((expect, n, us, vs, k, w, _instance_text(n, us, vs, k, w)))

    def op(text: str):
        res = branching.solve(io.parse_instance(text))
        out = None if res.best_ordering is None else io.write_ordering(res.best_ordering)
        return res.decision, res.best_cost, res.kernel_summary, out

    cases = [
        Case(i, expect, us.size, lambda text=text: op(text))
        for i, (expect, n, us, vs, k, w, text) in enumerate(inputs)
    ]

    def check(group: int, outputs: dict) -> Optional[str]:
        expect, n, us, vs, k, w, _ = inputs[group]
        for decision, cost, summary, text in outputs[expect]:
            if expect == "rule1":
                high = int((np.bincount(np.concatenate((us, vs)), minlength=n) > k).sum())
                if decision or text is not None or summary != {"trivial_no": "rule1"} or high <= k:
                    return f"rule-1 input ({high} vertices of degree > k={k}) gave {decision}, {summary}"
                continue
            if text is None:
                return f"yes input answered {decision} without a witness ({summary})"
            got = recost(n, us, vs, np.array(text.split(), dtype=np.int64) - 1)
            if isinstance(got, str) or got[0] != cost or got[1] > k:
                return f"witness re-costs to {got}, reported cost {cost}, k={k}"
            if decision != (cost <= w):
                return f"decision {decision} but cost {cost} vs w={w}"
        return None

    return Workload(cases, check)


# ------------------------------------------------------------- oracle-exact

# (n, edge probability, graphs).  Brute force takes n! permutations, so it
# runs at n <= 10.  Subset DP at k = tau runs at n <= 16: at n = 18 its time
# swings 1.4-2.7 s with tau, which would move the pass time by more than 10%
# from seed to seed, while k = n at n = 18 always fills all 2^18 subsets.
ORACLE_GRAPHS = ((9, 0.4, 12), (10, 0.35, 1), (14, 0.35, 4), (16, 0.3, 2), (18, 0.25, 2))
ORACLE_GRAPHS_TINY = ((6, 0.5, 1), (8, 0.4, 1))
BRUTE_MAX_N = 10
DP_TAU_MAX_N = 16


def cover_number(n: int, us: np.ndarray, vs: np.ndarray) -> int:
    """Minimum vertex cover size by scanning all 2^n subsets (n <= 20)."""
    masks = np.arange(1 << n, dtype=np.uint32)
    covers = np.ones(masks.size, dtype=bool)
    for u, v in zip(us.tolist(), vs.tolist()):
        covers &= (masks & np.uint32((1 << u) | (1 << v))) != 0
    return int(np.bitwise_count(masks[covers]).min())


def oracle_exact(msvc, seed: int, tiny: bool) -> Workload:
    """Op = one oracle or analysis call on a seeded gnp graph."""
    oracles, analysis = msvc.oracles, msvc.analysis
    rng = random.Random(seed)
    graphs = []  # (graph, us, vs, tau)
    cases = []
    for n, p, count in ORACLE_GRAPHS_TINY if tiny else ORACLE_GRAPHS:
        for _ in range(count):
            g = msvc.generators.generate(msvc.GeneratorSpec("gnp", (n, p), rng.getrandbits(32)))
            us, vs = edge_arrays(g)
            tau = cover_number(n, us, vs)
            calls = [
                ("dp_n", lambda g=g: oracles.subset_dp_optimal(g, g.n)),
                ("min_max", lambda g=g: analysis.min_max_cost_over_optima(g)),
                ("vc_number", lambda g=g: analysis.vc_number(g)),
            ]
            if n <= DP_TAU_MAX_N:
                calls.append(("dp_tau", lambda g=g, t=tau: oracles.subset_dp_optimal(g, t)))
            if n <= BRUTE_MAX_N:
                calls.append(("brute", lambda g=g: oracles.brute_force_profile(g)))
            cases += [Case(len(graphs), kind, g.m, fn) for kind, fn in calls]
            graphs.append((g, us, vs, tau))
    rng.shuffle(cases)

    def check(group: int, outputs: dict) -> Optional[str]:
        g, us, vs, tau = graphs[group]
        for kind, outs in outputs.items():
            if any(o != outs[0] for o in outs[1:]):
                return f"{kind} gave different answers on one graph"
        opt, ordering = outputs["dp_n"][0]
        opt_mm, min_max = outputs["min_max"][0]
        if outputs["vc_number"][0] != tau:
            return f"vc_number {outputs['vc_number'][0]} != {tau}"
        if opt_mm != opt or min_max < tau:
            return f"min_max ({opt_mm}, {min_max}) vs dp(k=n) {opt}, tau {tau}"
        witnesses = [(g.n, opt, ordering)]
        if "dp_tau" in outputs:
            cost_tau, ord_tau = outputs["dp_tau"][0]
            if cost_tau < opt:
                return f"dp(k=tau) {cost_tau} below dp(k=n) {opt}"
            witnesses.append((tau, cost_tau, ord_tau))
        for k, cost, witness in witnesses:
            got = recost(g.n, us, vs, witness.sequence)
            if isinstance(got, str) or got[0] != cost or got[1] > k:
                return f"dp(k={k}) witness re-costs to {got}, reported {cost}"
        if "brute" in outputs:
            prof = outputs["brute"][0]
            if prof[g.n] != opt or prof[tau] != cost_tau or (tau and prof[tau - 1] is not None):
                return f"brute profile {prof} disagrees with dp {opt}/{cost_tau}, tau {tau}"
            if min_max != min(c for c in range(g.n + 1) if prof[c] == opt):
                return f"min_max {min_max} disagrees with the brute profile {prof}"
        return None

    return Workload(cases, check)


WORKLOADS = {
    "solve-gnp": solve_gnp,
    "kernel-hubs": kernel_hubs,
    "oracle-exact": oracle_exact,
}
