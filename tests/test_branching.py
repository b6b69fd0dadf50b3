import hashlib
import random
import time
from dataclasses import dataclass, field, fields
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvc import (
    GeneratorSpec,
    Instance,
    InvariantError,
    Ordering,
    build_graph,
    brute_force_optimal,
    enumerate_minimal_covers,
    evaluate,
    generate,
    subset_dp_optimal,
)
from msvc.branching import SolveResult, _PrefixDP, branch_solve, greedy_incumbent, solve

from conftest import claw_chain6, double_star, p3, star, triangle


# Reference helpers: a placement and the per-vertex fill score and candidate
# order, written plainly, for the exchange property below.

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
    # every one of the 362,880 orderings of positions 1..8 ties; the DP has
    # at most 2^8 states per cover
    r = branch_solve(Instance(complete(9), w=120, k=8))
    assert r.decision and r.best_cost == 120
    assert r.best_ordering.sequence == tuple(range(9))
    assert r.covers_enumerated == 9
    assert 0 < r.dp_states <= 9 * 2**8


def all_subsets(s):
    """Cover vertices 0..s-1 and one vertex per nonempty subset of them,
    adjacent to that subset: 2^s - 1 twin classes of one vertex each, whose
    count vectors within the budget s number in the millions at s = 5."""
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


def test_all_subsets_takes_the_dp():
    same_as_subset_dp(Instance(all_subsets(4), w=0, k=8))

    # past the subset DP's reach: without the savings floor the DP at s = 5
    # evaluates 6.4 million states
    for s in (5, 6):
        g, k = all_subsets(s), 2 * s
        start = time.perf_counter()
        r = branch_solve(Instance(g, w=0, k=k))
        assert time.perf_counter() - start < 1.0
        assert 0 < r.dp_states <= 2 ** (s + 1)
        report = evaluate(g, r.best_ordering)
        assert report.total == r.best_cost and report.max_cost <= k
        assert solve(Instance(g, w=0, k=k)).best_cost == r.best_cost


def twin_heavy(rng):
    """A cover of 3 or 4 vertices with a few edges inside it, and outside
    vertices on 2..6 random nonempty subsets of it, one or two per subset
    (n <= 16); the ids are shuffled so ties between classes fall both
    ways."""
    s = rng.choice((3, 4))
    edges = [e for e in combinations(range(s), 2) if rng.random() < 0.3]
    n = s
    for link in rng.sample(range(1, 1 << s), rng.randint(2, 6)):
        for _ in range(rng.randint(1, 2)):
            edges += [(x, n) for x in range(s) if link >> x & 1]
            n += 1
    ids = list(range(n))
    rng.shuffle(ids)
    return build_graph(n, [(ids[u], ids[v]) for u, v in edges])


def test_twin_heavy_graphs_match_subset_dp():
    rng = random.Random(1207)
    for _ in range(16):
        g = twin_heavy(rng)
        for k in range(g.n + 1):
            same_as_subset_dp(Instance(g, w=k * g.m, k=k))


def test_optimal_savings_never_grow():
    """The rule behind the savings floor: along every optimal ordering with
    max charge <= k, the edges each vertex newly covers never grow up to the
    first full cover."""
    checked = 0
    for n in range(1, 8):
        for i, p in enumerate((0.15, 0.3, 0.45, 0.6, 0.8)):
            g = generate(GeneratorSpec("gnp", (n, p), seed=1300 + 10 * n + i))
            runs = []  # (cost, max charge, savings up to the first full cover)
            for seq in permutations(range(n)):
                placed, unc, cost, savings = set(), g.m, 0, []
                for v in seq:
                    if not unc:
                        break
                    saved = sum(1 for x in g.adj[v] if x not in placed)
                    placed.add(v)
                    unc -= saved
                    cost += unc
                    savings.append(saved)
                # each prefix adds its uncovered edges, the last one none
                runs.append((cost + g.m, len(savings), savings))
            for k in range(n + 1):
                feasible = [run for run in runs if run[1] <= k]
                if not feasible:
                    continue
                opt = min(run[0] for run in feasible)
                for cost, _, savings in feasible:
                    if cost == opt:
                        assert all(a >= b for a, b in zip(savings, savings[1:])), (n, p, k, savings)
                        checked += 1
    assert checked > 0


def cover_optimum(g, cover, k):
    """Least chain cost over the orderings that cover every edge after at
    most k - |S| vertices outside the cover S: a plain DP over the set of
    placed vertices, without twin classes or the savings floor."""
    inside = sum(1 << v for v in cover)
    adj = [sum(1 << u for u in g.adj[v]) for v in range(g.n)]
    memo = {}

    def togo(placed, unc):
        if not unc:
            return 0
        if placed not in memo:
            spare = k - len(cover) - (placed & ~inside).bit_count()
            memo[placed] = unc + min(
                togo(placed | 1 << v, unc - (adj[v] & ~placed).bit_count())
                for v in range(g.n)
                if not placed >> v & 1 and (inside >> v & 1 or spare > 0)
            )
        return memo[placed]

    return togo(0, g.m)


def test_cover_optimum_matches_plain_dp():
    """Every cover's optimum, savings floor included, is the plain DP's.  On
    the first graph at k = 9, a floor of max(top, 1) that ignores the spare
    placements would cut the optimum of the cover (0, 1, 3, 5, 9, 10)."""
    first = build_graph(11, [(0, 4), (0, 5), (0, 6), (0, 9), (1, 2), (1, 4), (1, 6),
                             (2, 10), (3, 8), (4, 5), (6, 9)])
    cases = [(first, [9])]
    for n in range(2, 9):
        for i, p in enumerate((0.3, 0.5, 0.7)):
            g = generate(GeneratorSpec("gnp", (n, p), seed=1400 + 10 * n + i))
            cases.append((g, range(n + 1)))
    rng = random.Random(1408)
    cases += [(g, range(g.n + 1)) for g in (twin_heavy(rng) for _ in range(4))]
    for g, ks in cases:
        for k in ks:
            dp = _PrefixDP(g, k)
            for cover in enumerate_minimal_covers(g, k):
                assert dp.togo(cover) == cover_optimum(g, cover, k), (g.edges, k, cover)


def plain_state_dp(g, k):
    """(togo, moves, unc) of the states (X, R) by a plain DP: a move places
    any vertex of R or, while |X| + |R| < k, any other vertex not in X;
    no twin classes and no savings floor."""
    memo = {}

    def unc(x):
        return sum(1 for u, v in g.edges if not (x >> u | x >> v) & 1)

    def moves(x, r):
        spare = k - (x | r).bit_count()
        return [v for v in range(g.n) if not x >> v & 1 and (r >> v & 1 or spare > 0)]

    def togo(x, r):
        if not unc(x):
            return 0
        if (x, r) not in memo:
            memo[x, r] = unc(x) + min(togo(x | 1 << v, r & ~(1 << v)) for v in moves(x, r))
        return memo[x, r]

    return togo, moves, unc


def check_records(g, k):
    """Every exact record of the prefix DP, capped as branch_solve caps it,
    holds its state's togo and the smallest vertex whose move reaches it,
    as a plain DP over every next vertex finds them; every lower-bound
    record is at most its state's togo.  Returns the number of lower-bound
    records."""
    dp = _PrefixDP(g, k)
    dp.costs(enumerate_minimal_covers(g, k), greedy_incumbent(g, k))
    togo, moves, unc = plain_state_dp(g, k)
    cut = 0
    for key, rec in dp.memo.items():
        x, r = key & ((1 << g.n) - 1), key >> g.n
        best = togo(x, r)
        if rec < 0:
            assert 0 < -rec >> dp.shift <= best, (g.edges, k, x, r)
            cut += 1
            continue
        first = min(v for v in moves(x, r)
                    if unc(x) + togo(x | 1 << v, r & ~(1 << v)) == best)
        got = rec >> dp.shift, rec & ((1 << dp.shift) - 1)
        assert got == (best, first), (g.edges, k, x, r)
    return cut


@settings(max_examples=60, deadline=None)
@given(instances(max_n=9))
def test_records_hold_the_smallest_optimal_move(inst):
    for k in range(inst.graph.n + 1):
        check_records(inst.graph, k)


def test_capped_records_hold_on_fixed_graphs():
    # graphs where the incumbent cap cuts states, so that lower-bound
    # records are checked too
    cut = 0
    for g, k in ((generate(GeneratorSpec("gnp", (8, 0.65), seed=8018)), 8),
                 (generate(GeneratorSpec("claw_chain", (2,))), 7),
                 (generate(GeneratorSpec("gnp", (9, 0.45), seed=31)), 7)):
        cut += check_records(g, k)
    assert cut > 0


def test_covers_share_states():
    """On gnp8_worst at k = 8 the one memo holds fewer states than the
    covers' own DPs do in all."""
    g = generate(GeneratorSpec("gnp", (8, 0.65), seed=8018))
    own = 0
    for cover in enumerate_minimal_covers(g, 8):
        dp = _PrefixDP(g, 8)
        dp.togo(cover)
        own += len(dp.memo)
    assert 0 < branch_solve(Instance(g, w=48, k=8)).dp_states < own


def test_walk_without_a_record_raises():
    g = generate(GeneratorSpec("gnp", (8, 0.65), seed=8018))
    dp = _PrefixDP(g, 8)
    covers = enumerate_minimal_covers(g, 8)
    costs = [dp.togo(cover) for cover in covers]
    roots = [cover for cover, cost in zip(covers, costs) if cost == min(costs)]
    for key in [key for key in dp.memo if (key & (1 << g.n) - 1).bit_count() == 2]:
        del dp.memo[key]
    with pytest.raises(InvariantError):
        dp.walk(roots)


def test_walk_through_a_lower_bound_record_raises():
    g = generate(GeneratorSpec("gnp", (8, 0.65), seed=8018))
    dp = _PrefixDP(g, 8)
    covers = enumerate_minimal_covers(g, 8)
    costs = dp.costs(covers, greedy_incumbent(g, 8))
    roots = [cover for cover, cost in zip(covers, costs) if cost == min(costs)]
    assert dp.walk(roots)
    # the same togo, recorded as a lower bound: the walk must not trust it
    for key, rec in dp.memo.items():
        if (key & (1 << g.n) - 1).bit_count() == 2:
            dp.memo[key] = -(abs(rec) >> dp.shift << dp.shift)
    with pytest.raises(InvariantError):
        dp.walk(roots)


N19 = build_graph(19, [(0, 3), (0, 4), (0, 6), (0, 9), (0, 10), (0, 12), (0, 14), (0, 16), (0, 18),
                       (1, 6), (1, 11), (2, 6), (2, 11), (2, 15), (3, 6), (3, 15), (4, 6), (4, 15),
                       (5, 11), (6, 8), (6, 10), (6, 11), (6, 12), (6, 14), (6, 15), (7, 11),
                       (7, 15), (8, 11), (9, 11), (11, 12), (11, 13), (11, 14), (11, 17), (11, 18),
                       (12, 15), (13, 15)])


def test_large_covers_at_large_k_match_subset_dp():
    """The n = 19 graph has large minimal covers, so at large k the savings
    floor barely cuts: without the incumbent cap its DP took 911,407 states
    at k = 16 and 2.3 million at k = 18."""
    for k in range(14, 20):
        inst = Instance(N19, w=k * N19.m, k=k)
        same_as_subset_dp(inst)
        assert branch_solve(inst).dp_states < 1_000


def test_reevaluations_stay_bounded(monkeypatch):
    """A lower-bound record is evaluated again when a larger cap reaches it;
    moves are tried most edges covered first, so that is rare."""
    calls = []
    record = _PrefixDP.record

    def counted(self, *args):
        calls.append(args[0])
        return record(self, *args)

    monkeypatch.setattr(_PrefixDP, "record", counted)
    for g, k in ((generate(GeneratorSpec("claw_chain", (9,))), 10),
                 (generate(GeneratorSpec("claw_chain", (4,))), 10),
                 (generate(GeneratorSpec("gnp", (8, 0.65), seed=8018)), 8),
                 (N19, 16)):
        calls.clear()
        r = branch_solve(Instance(g, w=0, k=k))
        assert len(calls) <= 1.25 * r.dp_states, (g, k, len(calls), r.dp_states)


def test_solve_result_fields():
    """A result keeps its figures as they went in, however large, and derives
    the decision, the witness and the kernel summary from them."""
    r = SolveResult(10**12, 2**70, 300, None, 123456, kernel_n=3, kernel_m=2, w_offset=5,
                    ids=bytes([1, 0, 2]))
    assert (r.best_cost, r.w, r.covers_enumerated, r.dp_states) == (10**12, 2**70, 300, 123456)
    assert r.decision and r.best_ordering.sequence == (1, 0, 2) and r.trivial_no is None
    assert r.kernel_summary == {"n": 3, "m": 2, "w": 2**70 - 5, "w_offset": 5}
    assert not SolveResult(2**70 + 1, 2**70, 0, None, 0).decision
    no = SolveResult(None, 5, 0, None, 0, trivial_no="rule3")
    assert not no.decision and no.best_ordering is None and no.kernel_summary == {"trivial_no": "rule3"}
    empty = branch_solve(Instance(build_graph(0, []), w=0, k=0))
    assert empty.decision and empty.best_ordering == Ordering.identity(0)
    assert empty.trivial_no is None and empty.kernel_summary is None
    text = repr(r)
    assert all(f"{f.name}=" in text for f in fields(SolveResult)), text


def test_greedy_incumbent_stops_past_k():
    # a perfect matching on 20,000 vertices: the greedy ordering takes
    # 10,000 steps, so at k = 3 its answer is None after 4
    g = build_graph(20_000, [(2 * i, 2 * i + 1) for i in range(10_000)])
    start = time.perf_counter()
    assert greedy_incumbent(g, 3) is None
    assert time.perf_counter() - start < 1.0


def test_prefix_dp_scales_with_its_states_on_a_large_star():
    # a 20,001-vertex star at k = 1: one cover, the center, and one state;
    # setting up the DP must not cost more than that state
    g = generate(GeneratorSpec("star", (20_000,)))
    start = time.perf_counter()
    r = branch_solve(Instance(g, w=g.m, k=1))
    assert time.perf_counter() - start < 0.5
    assert r.best_cost == 20_000 and r.dp_states == 1
