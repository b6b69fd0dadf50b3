import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvc import (
    Instance,
    InvariantError,
    Kernel,
    LiftError,
    Ordering,
    Rule2Record,
    Rule4Record,
    TrivialNo,
    build_graph,
    brute_force_profile,
    evaluate,
    find_big_gap,
    kernelize,
    lift,
    rule1_check,
    rule2_apply,
    rule3_check,
    rule4_apply,
    subset_dp_optimal,
)
from msvc.branching import SolveResult, branch_solve, solve
from msvc.kernel import KernelTrace, _WorkGraph, _apply_rule2

from conftest import double_star, p3, p4, star, triangle


def disjoint_edges(count):
    return build_graph(2 * count, [(2 * i, 2 * i + 1) for i in range(count)])


# ---------------------------------------------------------------- rule 1

def test_rule1_star_k0_fires():
    assert rule1_check(Instance(star(5), w=0, k=0))


def test_rule1_triangle_k1_fires():
    assert rule1_check(Instance(triangle(), w=10, k=1))


def test_rule1_p3_k1_quiet():
    assert not rule1_check(Instance(p3(), w=10, k=1))


# ---------------------------------------------------------------- gaps

def test_gap_k15():
    assert find_big_gap(Instance(star(5), w=5, k=1)) == 1


def test_gap_p3_none():
    assert find_big_gap(Instance(p3(), w=5, k=1)) is None


def test_gap_double_star():
    assert find_big_gap(Instance(double_star(), w=20, k=2)) == 2


# ---------------------------------------------------------------- rule 2

def test_rule2_k15():
    inst = Instance(star(5), w=5, k=1)
    reduced, record = rule2_apply(inst, 1)
    assert record.w_delta == 3 and record.delta == 4
    assert len(record.removed_edges) == 3
    assert reduced.w == 2
    assert reduced.graph.deg[0] == 2


def test_rule2_double_star():
    inst = Instance(double_star(), w=20, k=2)
    reduced, record = rule2_apply(inst, 2)
    assert record.w_delta == 6
    assert len(record.removed_edges) == 4  # two per center
    assert reduced.graph.degrees[:2] == (3, 3)


def test_rule2_rejects_small_gap():
    with pytest.raises(ValueError):
        rule2_apply(Instance(p3(), w=5, k=1), 1)


def test_rule2_equivalence_bruteforce():
    """Both instances must decide identically for every budget."""
    inst = Instance(star(5), w=5, k=1)
    reduced, record = rule2_apply(inst, 1)
    orig = brute_force_profile(inst.graph)[1]
    kern = brute_force_profile(reduced.graph)[1]
    assert orig == kern + record.w_delta
    for w in range(0, 12):
        assert (orig <= w) == (kern <= w - record.w_delta)


def test_rule2_preserves_head_order_and_sets_gap():
    inst = Instance(double_star(), w=20, k=2)
    reduced, _ = rule2_apply(inst, 2)
    degs = sorted(reduced.graph.degrees, reverse=True)
    assert degs[1] - degs[2] == 2  # gap at t restored to exactly k


# ---------------------------------------------------------------- rule 3

def test_rule3_disjoint_edges_fires():
    assert rule3_check(Instance(disjoint_edges(3), w=10, k=1))


def test_rule3_p3_quiet():
    assert not rule3_check(Instance(p3(), w=10, k=1))


def test_rule3_double_star_quiet():
    assert not rule3_check(Instance(double_star(), w=20, k=2))


# ---------------------------------------------------------------- rule 4

def test_rule4_double_star_direct():
    inst = Instance(double_star(), w=13, k=2)
    reduced, record = rule4_apply(inst)
    assert record is not None and record.p == 4
    g = reduced.graph
    assert g.n == 6 and g.m == 9
    # centers keep their degrees, synthetics stay small
    assert sorted(g.degrees, reverse=True) == [5, 5, 2, 2, 2, 2]
    # optimum is preserved exactly
    assert brute_force_profile(g)[2] == 13
    assert brute_force_profile(inst.graph)[2] == 13


def test_rule4_after_rule2_on_star():
    inst = Instance(star(5), w=5, k=1)
    mid, rec2 = rule2_apply(inst, 1)
    reduced, rec4 = rule4_apply(mid)
    assert rec4 is not None and rec4.p == 2
    assert reduced.graph.n == 3 and reduced.graph.m == 2
    assert brute_force_profile(reduced.graph)[1] + rec2.w_delta == brute_force_profile(inst.graph)[1]


def test_rule4_skips_when_one_vertex_sees_all():
    # unreduced star: the center is adjacent to every vertex of I
    inst = Instance(star(5), w=5, k=1)
    reduced, record = rule4_apply(inst)
    assert record is None and reduced is inst


# ---------------------------------------------------------------- pipeline

def test_kernelize_k15():
    out = kernelize(Instance(star(5), w=5, k=1))
    assert isinstance(out, Kernel)
    assert out.instance.graph.n == 3
    assert out.instance.w == 2
    assert out.trace.w_offset == 3
    # both sides are yes-instances
    assert brute_force_profile(star(5))[1] == 5
    assert brute_force_profile(out.instance.graph)[1] == 2


def test_kernelize_triangle_trivial_no():
    out = kernelize(Instance(triangle(), w=100, k=1))
    assert isinstance(out, TrivialNo) and out.rule == "rule1"


def test_kernelize_double_star():
    out = kernelize(Instance(double_star(), w=13, k=2))
    assert isinstance(out, Kernel)
    assert out.instance.graph.n == 6 and out.instance.w == 13


def test_kernelize_size_bound_examples():
    for k in range(0, 9):
        for g in (star(30), double_star(), disjoint_edges(4), p3()):
            inst = Instance(g, w=k * g.m, k=k)
            out = kernelize(inst)
            if isinstance(out, Kernel):
                assert out.instance.graph.n <= inst.k * inst.k + 2 * inst.k


def test_kernelize_strips_isolated_vertices():
    g = build_graph(5, [(0, 1)])
    out = kernelize(Instance(g, w=3, k=2))
    assert isinstance(out, Kernel)
    assert out.instance.graph.n <= 2


def test_kernelize_budget_underflow_is_trivial_no():
    # the degree-gap reduction owes more budget than the instance carries
    out = kernelize(Instance(star(5), w=2, k=1))
    assert isinstance(out, TrivialNo) and out.rule == "budget-underflow"
    assert brute_force_profile(star(5))[1] > 2  # original is a no as well


def test_rule2_standalone_underflow_raises():
    with pytest.raises(ValueError):
        rule2_apply(Instance(star(5), w=2, k=1), 1)


def test_kernelize_degenerate_inputs():
    empty = kernelize(Instance(build_graph(0, []), w=0, k=0))
    assert isinstance(empty, Kernel) and empty.instance.graph.n == 0
    lone = kernelize(Instance(build_graph(1, []), w=0, k=1))
    assert isinstance(lone, Kernel) and lone.instance.graph.n == 0


# ---------------------------------------------------------------- lift

def test_lift_double_star():
    inst = Instance(double_star(), w=13, k=2)
    out = kernelize(inst)
    result = branch_solve(out.instance)
    assert result.best_cost == 13
    lifted = lift(out, result.best_ordering, inst)
    rep = evaluate(inst.graph, lifted)
    assert rep.total == 13 and rep.max_cost <= 2
    assert set(lifted.sequence[:2]) == {0, 1}


def test_lift_k15():
    inst = Instance(star(5), w=5, k=1)
    out = kernelize(inst)
    result = branch_solve(out.instance)
    assert result.best_cost == 2
    lifted = lift(out, result.best_ordering, inst)
    assert evaluate(inst.graph, lifted).total == 5  # 2 + offset 3
    assert lifted.sequence[0] == 0  # center first


def test_lift_identity_trace():
    g = p3()
    kernel = Kernel(Instance(g, w=2, k=1), KernelTrace(steps=(), vertex_map=(0, 1, 2)))
    ordering = Ordering.from_sequence([1, 0, 2])
    assert lift(kernel, ordering, Instance(g, w=2, k=1)) == ordering


def test_lift_rejects_max_charge_over_original_k():
    g = p3()
    kernel = Kernel(Instance(g, w=3, k=2), KernelTrace(steps=(), vertex_map=(0, 1, 2)))
    # the totals agree (3 on both sides, offset 0); only the max charge, 2,
    # exceeds the original k = 1
    with pytest.raises(LiftError, match="max charge 2 exceeds k = 1"):
        lift(kernel, Ordering.identity(3), Instance(g, w=3, k=1))


def test_solve_lifts_once_per_yes_instance(monkeypatch):
    import msvc.branching

    calls = []

    def counted(*args):
        calls.append(args)
        return lift(*args)

    monkeypatch.setattr(msvc.branching, "lift", counted)
    cases = ((double_star(), 2), (star(5), 1), (p3(), 2), (disjoint_edges(3), 3), (triangle(), 1))
    yes = 0
    for g, k in cases:
        yes += solve(Instance(g, w=k * g.m, k=k)).decision
    # the triangle at k = 1 is a rule-1 no and lifts nothing
    assert yes == 4 and len(calls) == yes


# (graph, k, what the kernel does); the star has its center at the last id
# so that the lifted witness is not the identity
SOLVE_LAYER_CASES = [
    pytest.param(build_graph(6, [(i, 5) for i in range(5)]), 1, "rule2", id="rule2-star"),
    pytest.param(double_star(), 2, "rule4", id="rule4-double-star"),
    pytest.param(p4(), 2, "none", id="p4-no-rule"),
    pytest.param(triangle(), 1, "rule1", id="rule1-triangle"),
    pytest.param(disjoint_edges(3), 1, "rule3", id="rule3-matching"),
    pytest.param(disjoint_edges(3), 2, "infeasible", id="matching-no-ordering"),
]


@pytest.mark.parametrize("g, k, fired", SOLVE_LAYER_CASES)
def test_solve_result_matches_its_layers(g, k, fired):
    """Every field of solve's result is kernelize's, branch_solve's and
    lift's, with the kernel's offset added to both costs."""
    inst = Instance(g, w=k * g.m, k=k)
    got, out = solve(inst), kernelize(inst)
    if fired in ("rule1", "rule3"):
        assert out == TrivialNo(rule=fired)
        assert got == SolveResult(None, inst.w, 0, None, 0, trivial_no=fired)
        return
    steps, offset = out.trace.steps, out.trace.w_offset
    assert {
        "rule2": offset > 0,
        "rule4": any(isinstance(s, Rule4Record) and s.p > 0 for s in steps),
        "none": steps == () and out.instance == inst,
    }.get(fired, True)
    sub = branch_solve(out.instance)
    assert (sub.best_cost is None) == (fired == "infeasible") == (sub.incumbent is None)
    ids = None if sub.best_cost is None else lift(out, sub.best_ordering, inst).ids
    best, incumbent = (None if c is None else c + offset for c in (sub.best_cost, sub.incumbent))
    kg = out.instance.graph
    want = SolveResult(best, inst.w, sub.covers_enumerated, incumbent, sub.dp_states, kg.n, kg.m,
                       offset, ids)
    assert got == want
    assert (got.trivial_no, got.kernel_summary["w"]) == (None, out.instance.w)


def test_lift_rejects_suboptimal_kernel_ordering():
    from msvc import LiftError

    inst = Instance(star(5), w=5, k=1)
    out = kernelize(inst)
    # kernel is a 3-vertex star; putting a synthetic leaf first is suboptimal
    # and breaks the recorded accounting
    bad = Ordering.from_sequence([1, 0, 2])
    with pytest.raises(LiftError):
        lift(out, bad, inst)


# ---------------------------------------------------------------- properties

@st.composite
def small_instances(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))) if possible else []
    g = build_graph(n, edges)
    k = draw(st.integers(min_value=0, max_value=n))
    return Instance(g, w=k * g.m, k=k)


@settings(max_examples=120, deadline=None)
@given(small_instances())
def test_kernelize_equivalence_and_size(inst):
    g, k = inst.graph, inst.k
    profile = brute_force_profile(g)
    opt = profile[k]
    out = kernelize(inst)
    if isinstance(out, TrivialNo):
        if out.rule in ("rule1", "rule3"):
            assert opt is None
        else:
            assert opt is None or opt > inst.w
        return
    kg = out.instance.graph
    assert kg.n <= k * k + 2 * k
    # tighter accounting: high-degree block + low-degree survivors + synthetics
    k0 = sum(1 for d in kg.degrees if d > k)
    assert kg.n <= k0 + (k - k0) * (k + 1) + k * (k0 + 1)
    kopt = brute_force_profile(kg)[out.instance.k]
    offset = out.trace.w_offset
    for w in range(0, k * g.m + 1):
        orig_yes = opt is not None and opt <= w
        kern_yes = w - offset >= 0 and kopt is not None and kopt <= w - offset
        assert orig_yes == kern_yes
    # monotone progress: every rule-2 step removed at least one edge
    removed = sum(
        len(s.removed_edges) for s in out.trace.steps if isinstance(s, Rule2Record)
    )
    assert kg.m <= g.m and removed >= len(
        [s for s in out.trace.steps if isinstance(s, Rule2Record)]
    )


@settings(max_examples=80, deadline=None)
@given(small_instances())
def test_lift_round_trip(inst):
    from msvc import brute_force_optimal

    out = kernelize(inst)
    if isinstance(out, TrivialNo):
        return
    answer = brute_force_optimal(out.instance.graph, out.instance.k)
    if answer is None:
        return
    kernel_cost, kernel_ord = answer
    lifted = lift(out, kernel_ord, inst)
    rep = evaluate(inst.graph, lifted)
    assert rep.total == kernel_cost + out.trace.w_offset
    assert rep.max_cost <= inst.k


def _star_with_noise(rng):
    """A star or a double star on at most 8 vertices: leaves on random hubs,
    then up to two pendant vertices on leaves, labels shuffled."""
    hubs = rng.randint(1, 2)
    n = rng.randint(hubs + 4, 8)
    noise = rng.randint(0, 2)
    edges = [(0, 1)] if hubs == 2 else []
    edges += [(rng.randrange(hubs), v) for v in range(hubs, n - noise)]
    edges += [(rng.randrange(hubs, v), v) for v in range(n - noise, n)]
    relabel = list(range(n))
    rng.shuffle(relabel)
    return build_graph(n, [(relabel[u], relabel[v]) for u, v in edges])


def test_rules_2_and_4_against_brute_force():
    """Kernel -> branch -> lift and the budget-shifted kernel agree with
    brute force at every k on a family where rules 2 and 4 fire."""
    rng = random.Random(2606)
    profiles = {}  # a kernel that removed nothing is its input graph

    def profile(g):
        if g not in profiles:
            profiles[g] = brute_force_profile(g)
        return profiles[g]

    fired = {Rule2Record: 0, Rule4Record: 0}
    for _ in range(80):
        g = _star_with_noise(rng)
        for k in range(g.n + 1):
            opt = profile(g)[k]
            inst = Instance(g, w=k * g.m, k=k)
            result = solve(inst)
            assert result.best_cost == opt, (g.edges, k)
            if opt is not None:
                report = evaluate(g, result.best_ordering)
                assert report.total == opt and report.max_cost <= k
            out = kernelize(inst)
            if isinstance(out, TrivialNo):
                assert opt is None, (g.edges, k, out.rule)
                continue
            for rule in fired:
                fired[rule] += any(isinstance(s, rule) for s in out.trace.steps)
            kopt = profile(out.instance.graph)[out.instance.k]
            offset = out.trace.w_offset
            for w in range(k * g.m + 1):
                kern_yes = w >= offset and kopt is not None and kopt <= w - offset
                assert (opt is not None and opt <= w) == kern_yes, (g.edges, k, w)
    assert fired[Rule2Record] >= 20 and fired[Rule4Record] >= 20, fired


def _small_hub_graph(rng, n, noise=0.2):
    """n vertices: 1-3 hubs, some adjacent, and every other vertex a leaf
    of one hub, of two hubs, or, with probability ``noise``, as pendant
    noise, of an earlier leaf; labels shuffled."""
    hubs = rng.randint(1, 3)
    edges = [(h - 1, h) for h in range(1, hubs) if rng.random() < 0.5]
    for v in range(hubs, n):
        r = rng.random()
        if v > hubs and r < noise:
            edges.append((rng.randrange(hubs, v), v))
        elif hubs > 1 and r < 0.35:
            a, b = rng.sample(range(hubs), 2)
            edges += [(a, v), (b, v)]
        else:
            edges.append((rng.randrange(hubs), v))
    relabel = list(range(n))
    rng.shuffle(relabel)
    return build_graph(n, [(relabel[u], relabel[v]) for u, v in edges])


def test_solve_against_subset_dp_past_brute_force_scale():
    """Kernel -> branch -> lift agrees with the subset DP in cost, decision
    and re-costed witness on 300 hub graphs with pendant noise at
    n = 9..16, k = 1..6, with the budget at the optimum or one below it."""
    rng = random.Random(716)
    fired = {Rule2Record: 0, Rule4Record: 0}
    pairs = 0
    for i in range(50):
        g = _small_hub_graph(rng, 9 + i % 8)
        for k in range(1, 7):
            want = subset_dp_optimal(g, k)
            w = k * g.m if want is None else max(want[0] - pairs % 2, 0)
            inst = Instance(g, w=w, k=k)
            pairs += 1
            result = solve(inst)
            assert result.decision == (want is not None and want[0] <= w), (g.edges, k, w)
            if result.best_cost is None:
                # no ordering, or rule 2 already spent more than w
                assert want is None or want[0] > w, (g.edges, k, w)
            else:
                assert want is not None and result.best_cost == want[0], (g.edges, k)
                report = evaluate(g, result.best_ordering)
                assert report.total == want[0] and report.max_cost <= k, (g.edges, k)
            out = kernelize(inst)
            if isinstance(out, Kernel):
                for rule in fired:
                    fired[rule] += any(isinstance(s, rule) for s in out.trace.steps)
    assert pairs == 300
    assert fired[Rule2Record] >= 10 and fired[Rule4Record] >= 10, fired


def test_solve_against_branch_solve_past_oracle_scale():
    """Kernel -> branch -> lift returns the same cost and witness bytes as
    the branching solver on the whole graph, on 80 hub graphs at n = 50 to
    3,000, past the subset DP's n = 24, at k = 2..8.  In the first 40 the
    pendant noise leaves most pairs without a cover of k vertices; the
    other 40 have about two pendant-noise leaves each, so most of their
    pairs have an ordering and compare lifted witnesses."""
    rng = random.Random(27)
    fired = {Rule2Record: 0, Rule4Record: 0}
    pairs, orderings = 0, {False: 0, True: 0}
    for few in (False, True):
        for n in (50, 200, 1_000, 3_000):
            for _ in range(10):
                g = _small_hub_graph(rng, n, 2 / n if few else 0.2)
                for k in (2, 4, 6, 8):
                    inst = Instance(g, w=k * g.m, k=k)
                    want, result = branch_solve(inst), solve(inst)
                    assert (result.best_cost, result.ids) == (want.best_cost, want.ids), (n, g.edges, k)
                    pairs += 1
                    orderings[few] += want.best_cost is not None
                    out = kernelize(inst)
                    if isinstance(out, Kernel):
                        for rule in fired:
                            fired[rule] += any(isinstance(s, rule) for s in out.trace.steps)
    assert pairs == 320 and orderings[False] >= 4 and orderings[True] >= 100, orderings
    assert fired[Rule2Record] >= 10 and fired[Rule4Record] >= 10, fired


def test_kernelize_deterministic():
    inst = Instance(double_star(), w=13, k=2)
    a, b = kernelize(inst), kernelize(inst)
    assert a.instance == b.instance
    assert a.trace.steps == b.trace.steps
    assert a.trace.vertex_map == b.trace.vertex_map


def test_rule2_without_big_gap_raises_invariant_error():
    work = _WorkGraph(p3())
    with pytest.raises(InvariantError):
        _apply_rule2(work, [1, 0, 2], 1, 1)


# ---------------------------------------------------------------- pins

def _hub_with_noise(rng):
    """1-3 hubs with private and shared leaves, pendant noise and shuffled
    labels; at most 60 vertices."""
    hubs = rng.randint(1, 3)
    edges = []
    n = hubs
    for h in range(hubs):
        for _ in range(rng.randint(0, 14)):
            edges.append((h, n))
            n += 1
    for _ in range(rng.randint(0, 5) if hubs > 1 else 0):
        a, b = rng.sample(range(hubs), 2)
        edges += [(a, n), (b, n)]
        n += 1
    for _ in range(rng.randint(0, 6)):
        # pendant noise: a new leaf on any vertex, or an edge between leaves
        if n > hubs + 1 and rng.random() < 0.4:
            a, b = rng.sample(range(hubs, n), 2)
            if (a, b) not in edges and (b, a) not in edges:
                edges.append((a, b))
        else:
            edges.append((rng.randrange(n), n))
            n += 1
    n += rng.randint(0, 2)  # isolated vertices
    relabel = list(range(n))
    rng.shuffle(relabel)
    return build_graph(n, [(relabel[u], relabel[v]) for u, v in edges])


def kernel_pin_corpus():
    """(graph, k, w) over seeded stars, double stars, hub graphs with pendant
    noise (n <= 60) and gnp graphs (n <= 12), each at k = 0..6 with a loose
    and a tight budget."""
    from msvc import GeneratorSpec, generate

    rng = random.Random(4242)
    graphs = [star(leaves) for leaves in range(0, 45, 4)]
    graphs += [
        generate(GeneratorSpec("double_star", (p, q))) for p in (0, 3, 9, 20) for q in (1, 8, 30)
    ]
    graphs += [_hub_with_noise(rng) for _ in range(110)]
    graphs += [
        generate(GeneratorSpec("gnp", (n, (0.15, 0.3, 0.5)[i % 3]), 97 * n + i))
        for n in range(1, 13)
        for i in range(6)
    ]
    graphs.append(build_graph(3, [(0, 1)]))
    for g in graphs:
        for k in range(7):
            for w in (k * g.m, k * g.m // 3):
                yield g, k, w


def _canon_step(step, n):
    # the records hold arrays; the digest hashes the tuples they once were,
    # rule 4's with the ids n..n+p-1 it once listed for its synthetics
    if isinstance(step, Rule2Record):
        removed = tuple(map(tuple, step.removed_edges.tolist()))
        return ("r2", step.t, step.delta, removed, step.w_delta)
    return (
        "r4",
        step.p,
        tuple(step.deleted_vertices.tolist()),
        tuple(range(n, n + step.p)),
        tuple(step.moved_edge_counts.items()),
    )


def _canon_instance(inst):
    return (inst.graph.n, inst.graph.edges, inst.w, inst.k)


def kernel_pin_records():
    """Every kernelize output and every standalone rule result on the pin
    corpus, as plain tuples of ints."""
    for g, k, w in kernel_pin_corpus():
        inst = Instance(g, w=w, k=k)
        out = kernelize(inst)
        if isinstance(out, TrivialNo):
            kern = ("no", out.rule)
        else:
            kern = (
                _canon_instance(out.instance),
                out.trace.vertex_map,
                tuple(_canon_step(s, g.n) for s in out.trace.steps),
            )
        t = find_big_gap(inst)
        rule2 = None
        if t is not None:
            try:
                reduced, record = rule2_apply(inst, t)
                rule2 = (_canon_instance(reduced), _canon_step(record, g.n))
            except (ValueError, InvariantError):
                rule2 = "raises"
        reduced, record = rule4_apply(inst)
        rule4 = (_canon_instance(reduced), None if record is None else _canon_step(record, g.n))
        yield (g.n, g.edges, k, w), kern, rule1_check(inst), t, rule3_check(inst), rule2, rule4


# sha256 of kernel_pin_records(), computed before the kernel moved to arrays
KERNEL_PIN_DIGEST = "1deefe36415a8eff606fa7b5d2bf1e8ac8f4bcf8b48afd61290af41ca22e560c"


def test_kernel_pinned():
    h = hashlib.sha256()
    fired = {"r2": 0, "r4": 0}
    for record in kernel_pin_records():
        h.update(repr(record).encode())
        kern = record[1]
        if kern[0] != "no":
            for step in kern[2]:
                fired[step[0]] += 1
    assert fired["r2"] > 0 and fired["r4"] > 0
    assert h.hexdigest() == KERNEL_PIN_DIGEST


def test_rule2_apply_rejects_head_without_tail_edges():
    # k = 0: the degree sequence (1, 1, 0) has its big gap at t = 2, but the
    # head {0, 1} has no edge into the tail
    inst = Instance(build_graph(3, [(0, 1)]), w=5, k=0)
    assert find_big_gap(inst) == 2
    with pytest.raises(ValueError, match="fewer than 1 edges into the tail"):
        rule2_apply(inst, 2)
