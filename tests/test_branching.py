import hashlib
import math
import time
from dataclasses import dataclass, field
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvc import (
    GeneratorSpec,
    Instance,
    Ordering,
    build_graph,
    brute_force_optimal,
    enumerate_minimal_covers,
    evaluate,
    generate,
    kernelize,
    subset_dp_optimal,
)
from msvc.branching import (
    BLOCK_ROWS,
    _CoverTerms,
    _fill_count,
    _mapping_blocks,
    _Search,
    branch_solve,
    greedy_incumbent,
    solve,
)

from conftest import claw_chain6, double_star, p3, star, triangle


# Reference helpers: a placement and the per-vertex fill score and candidate
# order, written plainly, that the batched scores of the solver must match.

@dataclass
class PartialPlacement:
    """Injective assignment of vertices to prefix positions 1..k."""

    slots: dict[int, int] = field(default_factory=dict)  # position -> vertex
    placed: set[int] = field(default_factory=set)

    def place(self, position: int, vertex: int) -> None:
        if position in self.slots:
            raise ValueError(f"position {position} already occupied")
        if vertex in self.placed:
            raise ValueError(f"vertex {vertex} already placed")
        self.slots[position] = vertex
        self.placed.add(vertex)


def score(g, placement: PartialPlacement, p: int, u: int) -> int:
    """Sum of (j - p) over occupied positions j > p holding a neighbor of u."""
    pos_of = {v: j for j, v in placement.slots.items()}
    total = 0
    for x in g.adj[u]:
        j = pos_of.get(x, 0)
        if j > p:
            total += j - p
    return total


def candidate_set(g, placement: PartialPlacement, p: int, budget: int) -> list[int]:
    """The ``budget`` unplaced vertices of highest score at p (ties by
    ascending id); fewer if fewer vertices remain."""
    unplaced = [u for u in range(g.n) if u not in placement.placed]
    ranked = sorted(unplaced, key=lambda u: (-score(g, placement, p, u), u))
    return ranked[: max(budget, 0)]


def place_centers(cc):
    """Claw-chain centers mapped to positions 2..7 (vertex 0 is the shared leaf)."""
    placement = PartialPlacement()
    for i, center in enumerate([1, 4, 7, 10, 13, 16]):
        placement.place(2 + i, center)
    return placement


# ------------------------------------------------------------------ score

def test_score_shared_leaf():
    cc = claw_chain6()
    assert score(cc, place_centers(cc), 1, 0) == 21  # 1+2+3+4+5+6


def test_score_private_leaves_stay_below_shared():
    cc = claw_chain6()
    placement = place_centers(cc)
    assert score(cc, placement, 1, 2) == 1  # leaf of the center at position 2
    assert score(cc, placement, 1, 17) == 6  # leaf of the center at position 7
    leaf_scores = [score(cc, placement, 1, u) for u in range(cc.n) if cc.degree(u) == 1]
    assert max(leaf_scores) == 6  # strictly below the shared leaf's 21


def test_score_zero_and_single():
    g = build_graph(4, [(0, 1)])
    placement = PartialPlacement()
    placement.place(3, 1)
    assert score(g, placement, 1, 0) == 2  # neighbor at p+2
    assert score(g, placement, 1, 2) == 0  # no placed neighbor after p


def test_placement_rejects_conflicts():
    placement = PartialPlacement()
    placement.place(1, 5)
    with pytest.raises(ValueError):
        placement.place(1, 6)
    with pytest.raises(ValueError):
        placement.place(2, 5)


# ------------------------------------------------------------ candidate_set

def test_candidates_claw_chain():
    cc = claw_chain6()
    assert candidate_set(cc, place_centers(cc), 1, 1) == [0]


def test_candidates_budget_zero():
    cc = claw_chain6()
    assert candidate_set(cc, place_centers(cc), 1, 0) == []


def test_candidates_tie_by_id():
    g = build_graph(5, [])
    placement = PartialPlacement()
    assert candidate_set(g, placement, 1, 3) == [0, 1, 2]


# ------------------------------------------------------------ branch_solve

def test_p3_yes():
    r = branch_solve(Instance(p3(), w=2, k=1))
    assert r.decision and r.best_cost == 2
    assert r.best_ordering.sequence == (1, 0, 2)


def test_p3_no():
    r = branch_solve(Instance(p3(), w=1, k=1))
    assert not r.decision and r.best_cost == 2


def test_claw_chain_golden():
    cc = claw_chain6()
    r = branch_solve(Instance(cc, w=60, k=7))
    assert r.decision and r.best_cost == 60
    r6 = branch_solve(Instance(cc, w=62, k=6))
    assert not r6.decision and r6.best_cost == 63


def test_infeasible_has_no_witness():
    r = branch_solve(Instance(triangle(), w=100, k=1))
    assert not r.decision and r.best_cost is None and r.best_ordering is None


def test_edgeless():
    g = build_graph(4, [])
    r = branch_solve(Instance(g, w=0, k=2))
    assert r.decision and r.best_cost == 0
    assert r.best_ordering.sequence == (0, 1, 2, 3)


# ------------------------------------------------------------------ solve

def test_solve_k15():
    inst = Instance(star(5), w=5, k=1)
    r = solve(inst)
    assert r.decision and r.best_cost == 5
    rep = evaluate(inst.graph, r.best_ordering)
    assert rep.total == 5 and rep.max_cost <= 1
    assert r.kernel_summary["n"] == 3


def test_solve_triangle_rule1():
    r = solve(Instance(triangle(), w=100, k=1))
    assert not r.decision and r.kernel_summary == {"trivial_no": "rule1"}


def test_solve_double_star_no():
    r = solve(Instance(double_star(), w=12, k=2))
    assert not r.decision and r.best_cost == 13


def test_solve_isolated_only():
    g = build_graph(5, [])
    r = solve(Instance(g, w=0, k=4))
    assert r.decision and r.best_cost == 0
    assert r.best_ordering.sequence == (0, 1, 2, 3, 4)


# ------------------------------------------------------------ invariants

@st.composite
def instances(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))) if possible else []
    g = build_graph(n, edges)
    k = draw(st.integers(min_value=0, max_value=n))
    return Instance(g, w=k * g.m, k=k)


@settings(max_examples=100, deadline=None)
@given(instances())
def test_oracle_equivalence(inst):
    want = brute_force_optimal(inst.graph, inst.k)
    got = branch_solve(inst)
    via_kernel = solve(inst)
    if want is None:
        assert got.best_cost is None and via_kernel.best_cost is None
    else:
        assert got.best_cost == want[0]
        assert via_kernel.best_cost == want[0]
    assert got.decision == via_kernel.decision


@settings(max_examples=60, deadline=None)
@given(instances(max_n=6))
def test_witness_validity(inst):
    r = branch_solve(inst)
    if r.best_cost is None:
        return
    rep = evaluate(inst.graph, r.best_ordering)
    assert rep.total == r.best_cost
    assert rep.max_cost <= inst.k
    assert r.decision == (r.best_cost <= inst.w)


@settings(max_examples=40, deadline=None)
@given(instances(max_n=6))
def test_determinism(inst):
    a = branch_solve(inst)
    b = branch_solve(inst)
    assert a.best_cost == b.best_cost
    assert (a.best_ordering is None) == (b.best_ordering is None)
    if a.best_ordering is not None:
        assert a.best_ordering.sequence == b.best_ordering.sequence


def test_matches_subset_dp_beyond_brute_scale():
    """Mid-size graphs where only the DP oracle still runs."""
    for n, p, seed in ((12, 0.15, 3), (13, 0.12, 5), (14, 0.1, 9)):
        g = generate(GeneratorSpec("gnp", (n, p), seed=seed))
        for k in (4, 6):
            want = subset_dp_optimal(g, k)
            got = branch_solve(Instance(g, w=k * g.m, k=k))
            if want is None:
                assert got.best_cost is None
            else:
                assert got.best_cost == want[0], (g.edges, k)


def test_exchange_property():
    """Swapping a filled vertex with a lower-or-equal-score tail vertex never
    improves the total."""
    for g, k in ((claw_chain6(), 7), (double_star(), 3), (p3(), 2)):
        k_eff = min(k, g.n)
        for cover in enumerate_minimal_covers(g, k_eff)[:3]:
            cover_list = sorted(cover)
            s = len(cover_list)
            budget = k_eff - s
            if budget == 0:
                continue
            # map the cover to the last prefix positions so the gaps come
            # first and carry genuine scores
            mapping = PartialPlacement()
            for i, v in enumerate(cover_list):
                mapping.place(k_eff - s + 1 + i, v)
            placement = PartialPlacement()
            for i, v in enumerate(cover_list):
                placement.place(k_eff - s + 1 + i, v)
            fills = {}
            for p in range(1, budget + 1):
                cands = candidate_set(g, placement, p, budget)
                if not cands:
                    break
                top = cands[0]
                fills[p] = (top, score(g, mapping, p, top))
                placement.place(p, top)
            seq = [placement.slots[p] for p in sorted(placement.slots)]
            seq += [v for v in range(g.n) if v not in placement.placed]
            base_total = evaluate(g, Ordering.from_sequence(seq)).total
            tail = [v for v in seq[k_eff:] if v not in cover]
            for p, (x, sx) in fills.items():
                for y in tail:
                    sy = score(g, mapping, p, y)
                    if sy <= sx:
                        swapped = list(seq)
                        ix, iy = swapped.index(x), swapped.index(y)
                        swapped[ix], swapped[iy] = swapped[iy], swapped[ix]
                        new_total = evaluate(g, Ordering.from_sequence(swapped)).total
                        assert new_total >= base_total


# ------------------------------------------------------------ bounds

def test_greedy_incumbent():
    assert greedy_incumbent(claw_chain6(), 7) == 60  # already optimal
    assert greedy_incumbent(triangle(), 1) is None  # its max charge is 2
    assert greedy_incumbent(build_graph(4, []), 0) == 0


def walked_mappings(g, k, cover):
    """(row, bound, walked optimum) of every mapping of a cover, each walked
    on its own."""
    terms = _CoverTerms(g, cover)
    for block, gaps in _mapping_blocks(k, len(cover)):
        base, bound, scores = terms.bounds(block, gaps, k)
        cands, gains = terms.fill_order(scores, np.arange(len(block)))
        for r, row in enumerate(block.tolist()):
            search = _Search(g, k, None)
            search.walk_mapping(
                terms, row, int(base[r]), gaps[r].tolist(), cands[r].tolist(), gains[r].tolist()
            )
            yield row, int(bound[r]), search.best_cost


def test_mapping_bound_never_exceeds_walked_optimum():
    gnp8_worst = generate(GeneratorSpec("gnp", (8, 0.65), seed=8018))
    # the double_star(40,40) kernel keeps many leaves with the same neighbor
    twins = kernelize(Instance(generate(GeneratorSpec("double_star", (40, 40))), w=121, k=8))
    cases = (
        (claw_chain6(), 7, 3),
        (double_star(), 3, 3),
        (gnp8_worst, 8, 2),
        (twins.instance.graph, 8, 3),
    )
    for g, k, first in cases:
        for cover in enumerate_minimal_covers(g, k)[:first]:
            for row, low, walked in walked_mappings(g, k, cover):
                assert low <= walked, (cover, row)


def test_fill_order_matches_reference_scores():
    """The batched per-vertex scores and candidate order at every gap equal
    those of the reference ``score`` and ``candidate_set``."""
    g, k = claw_chain6(), 7
    checked = 0
    for cover in enumerate_minimal_covers(g, k)[:3]:
        terms = _CoverTerms(g, cover)
        for block, gaps in _mapping_blocks(k, len(cover)):
            _, _, scores = terms.bounds(block, gaps, k)
            rows = np.arange(0, len(block), 97)
            cands, gains = terms.fill_order(scores, rows)
            for j, r in enumerate(rows.tolist()):
                placement = PartialPlacement()
                for v, p in zip(terms.cover_list, block[r].tolist()):
                    placement.place(p, v)
                assert gaps[r].tolist() == [p for p in range(1, k + 1) if p not in placement.slots]
                for p, order, gain in zip(gaps[r].tolist(), cands[j].tolist(), gains[j].tolist()):
                    assert order == candidate_set(g, placement, p, g.n)
                    assert gain == [score(g, placement, p, u) for u in order]
                    checked += 1
    assert checked > 0


def test_mapping_blocks_enumerate_every_mapping_once():
    for k, s in ((0, 0), (3, 0), (4, 2), (7, 4), (8, 6), (8, 8), (9, 5)):
        blocks = list(_mapping_blocks(k, s))
        assert all(len(block) <= BLOCK_ROWS for block, _ in blocks)
        rows = [tuple(r) for block, _ in blocks for r in block.tolist()]
        assert rows == list(permutations(range(1, k + 1), s))
        gaps = [g for _, block_gaps in blocks for g in block_gaps.tolist()]
        assert gaps == [[p for p in range(1, k + 1) if p not in row] for row in rows]


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_matches_subset_dp_past_brute_force_scale(n):
    for i, p in enumerate((0.15, 0.2, 0.3, 0.45)):
        g = generate(GeneratorSpec("gnp", (n, p), seed=700 + 10 * n + i))
        for k in range(1, 8):
            want = subset_dp_optimal(g, k)
            inst = Instance(g, w=k * g.m, k=k)
            for got in (branch_solve(inst), solve(inst)):
                assert got.best_cost == (None if want is None else want[0]), (n, p, k)


def witness_corpus():
    """Seeded gnp graphs, five per n = 1..8, each with every k in 0..n."""
    for n in range(1, 9):
        for i, p in enumerate((0.15, 0.3, 0.45, 0.6, 0.8)):
            g = generate(GeneratorSpec("gnp", (n, p), seed=900 + 10 * n + i))
            for k in range(n + 1):
                yield n, i, k, Instance(g, w=k * g.m, k=k)


# sha256 of every (cost, witness) of the corpus, as computed by the solver
# that walked every mapping; any change to a cost or a tie-break moves it
WITNESS_DIGEST = "e7177ad00316afcbd13633d86d266ff492d3aa49ea065bc83b01734e59c96dd4"


def test_witnesses_pinned():
    h = hashlib.sha256()
    for n, i, k, inst in witness_corpus():
        for r in (branch_solve(inst), solve(inst)):
            seq = None if r.best_ordering is None else r.best_ordering.sequence
            h.update(repr((n, i, k, r.best_cost, seq)).encode())
    assert h.hexdigest() == WITNESS_DIGEST


def complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def tie_corpus():
    """Graphs where many mappings and fills tie, each with its values of k.
    claw_chain(3) and claw_chain(4) stop at k = 8, as when the digest was
    taken by the mapping search (3.1 million mappings for claw_chain(4) at
    k = 9); the twin-class DP solves k = 9..10 at once, and
    test_claw_chains_match_subset_dp_at_large_k checks them."""
    for n in range(1, 9):
        yield f"K{n}", complete(n), range(n + 1)
    for n in range(4, 9):
        yield f"C{n}", generate(GeneratorSpec("cycle", (n,))), range(n + 1)
    for a, b in ((2, 3), (3, 4)):
        yield f"K{a},{b}", complete_bipartite(a, b), range(a + b + 1)
    for c in range(2, 5):
        g = generate(GeneratorSpec("claw_chain", (c,)))
        yield f"claw{c}", g, range(min(g.n, 8) + 1)
    for p in range(3, 7):
        for q in range(3, 7):
            yield f"ds{p},{q}", generate(GeneratorSpec("double_star", (p, q))), range(5)


# sha256 of every (cost, witness) of the tie corpus, as computed by the
# solver that walked every tie
TIE_WITNESS_DIGEST = "0fb750bf9ee933dc9bd14bb7709fa43b8134fc711f92f0cb3d8422ec45385e57"


def test_tie_witnesses_pinned():
    h = hashlib.sha256()
    for name, g, ks in tie_corpus():
        for k in ks:
            inst = Instance(g, w=k * g.m, k=k)
            for r in (branch_solve(inst), solve(inst)):
                seq = None if r.best_ordering is None else r.best_ordering.sequence
                h.update(repr((name, k, r.best_cost, seq)).encode())
    assert h.hexdigest() == TIE_WITNESS_DIGEST


def test_complete_graph_takes_the_dp():
    # every one of the 362,880 mappings ties; the DP has 2^8 states per
    # cover against the P(8, 8) = 40,320 mappings of each
    r = branch_solve(Instance(complete(9), w=120, k=8))
    assert r.decision and r.best_cost == 120
    assert r.best_ordering.sequence == tuple(range(9))
    assert r.stats.covers_enumerated == r.stats.dp_covers == 9
    assert r.stats.mappings_tried == 0 and r.stats.branches == 0
    assert 0 < r.stats.dp_states <= 9 * 2**8


def all_subsets(s):
    """Cover vertices 0..s-1 and one vertex per nonempty subset of them,
    adjacent to that subset: 2^s - 1 twin classes of one vertex each, so the
    twin-class DP has far more states than there are mappings."""
    subsets = [c for r in range(1, s + 1) for c in combinations(range(s), r)]
    return build_graph(s + len(subsets), [(x, s + j) for j, c in enumerate(subsets) for x in c])


def same_as_subset_dp(inst):
    """branch_solve returns the subset DP's (cost, sequence).  solve returns
    its cost; its lifted witness keeps the kernel's whole sequence, so it
    need not be the smallest one (WITNESS_DIGEST pins it as it is)."""
    want = subset_dp_optimal(inst.graph, inst.k)
    r = branch_solve(inst)
    got = None if r.best_cost is None else (r.best_cost, r.best_ordering.sequence)
    assert got == (None if want is None else (want[0], want[1].sequence)), inst.k
    lifted = solve(inst)
    assert lifted.best_cost == r.best_cost
    if lifted.best_cost is not None:
        report = evaluate(inst.graph, lifted.best_ordering)
        assert report.total == lifted.best_cost and report.max_cost <= inst.k


@settings(max_examples=100, deadline=None)
@given(instances(max_n=12))
def test_matches_subset_dp_witness(inst):
    same_as_subset_dp(inst)


def test_claw_chains_match_subset_dp_at_large_k():
    # kept out of the tie corpus, whose digest predates these k
    for claws in (3, 4):
        g = generate(GeneratorSpec("claw_chain", (claws,)))
        for k in (9, 10):
            same_as_subset_dp(Instance(g, w=k * g.m, k=k))


def test_all_subsets_takes_the_mapping_search():
    inst = Instance(all_subsets(4), w=0, k=8)
    r = branch_solve(inst)
    assert r.stats.dp_covers == 0 and r.stats.mappings_tried == math.perm(8, 4)
    same_as_subset_dp(inst)

    # past the subset DP's reach: 6.6 million DP states against 30,240 mappings
    g = all_subsets(5)
    start = time.perf_counter()
    r = branch_solve(Instance(g, w=0, k=10))
    assert time.perf_counter() - start < 1.0
    assert r.stats.dp_covers == 0 and r.stats.mappings_tried == math.perm(10, 5)
    report = evaluate(g, r.best_ordering)
    assert report.total == r.best_cost and report.max_cost <= 10
    # the kernel shrinks the classes and leaves the cover to the DP
    via_kernel = solve(Instance(g, w=0, k=10))
    assert via_kernel.stats.dp_covers == 1 and via_kernel.best_cost == r.best_cost


def test_fill_count_matches_enumeration():
    for mult, budget in (([], 3), ([1], 0), ([2, 1, 3], 2), ([1] * 6, 3), ([4, 2], 9)):
        vectors = product(*(range(mu + 1) for mu in mult))
        assert _fill_count(mult, budget) == sum(1 for f in vectors if sum(f) <= budget)
