"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy corpora are
session fixtures shared across criteria; every tolerance here is exact.
"""

from __future__ import annotations

import time
from itertools import permutations

import numpy as np
import pytest

from msvc import (
    BoundDomainError,
    GeneratorSpec,
    Instance,
    Kernel,
    Ordering,
    TrivialNo,
    build_graph,
    enumerate_minimal_covers,
    evaluate,
    generate,
    kernelize,
    lemma1_bound,
    lift,
    min_max_cost_over_optima,
    regular_solve,
    structural_audit,
    subset_dp_optimal,
    vc_number,
)
from msvc.branching import branch_solve, solve

from conftest import c4, claw_chain6, gnp_corpus, k4, petersen


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _perm_sweep(g):
    """One full permutation sweep: (sequences, positions, costs, totals, maxes)."""
    seqs = np.array(list(permutations(range(g.n))), dtype=np.int64)
    pos = np.argsort(seqs, axis=1) + 1
    if g.m:
        uu = np.array([u for u, _ in g.edges])
        vv = np.array([v for _, v in g.edges])
        costs = np.minimum(pos[:, uu], pos[:, vv])
        totals = costs.sum(axis=1)
        maxes = costs.max(axis=1)
    else:
        costs = np.zeros((len(seqs), 0), dtype=np.int64)
        totals = np.zeros(len(seqs), dtype=np.int64)
        maxes = np.zeros(len(seqs), dtype=np.int64)
    return seqs, pos, costs, totals, maxes


def test_criterion_1_oracle_triad(small_corpus, brute_profiles):
    """Brute force, subset DP and the branching solver (with and without the
    kernel) agree on cost and verdict for every (graph, k)."""
    start = time.perf_counter()
    checked = 0
    for g, profile in zip(small_corpus, brute_profiles):
        for k in range(g.n + 1):
            expected = profile[k]
            w = k * g.m
            dp = subset_dp_optimal(g, k)
            dp_cost = None if dp is None else dp[0]
            direct = branch_solve(Instance(g, w=w, k=k))
            kerneled = solve(Instance(g, w=w, k=k))
            assert dp_cost == expected, (g.edges, k)
            assert direct.best_cost == expected, (g.edges, k)
            assert kerneled.best_cost == expected, (g.edges, k)
            want_yes = expected is not None and expected <= w
            assert direct.decision == want_yes == kerneled.decision, (g.edges, k)
            checked += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        elapsed < 300,
        f"{len(small_corpus)} graphs, {checked} (graph,k) combos agree exactly "
        f"in {elapsed:.1f}s (< 300s)",
    )


@pytest.fixture(scope="session")
def kernel_corpus():
    """>= 200 graphs with n <= 60 from mixed families."""
    graphs = gnp_corpus({10: 30, 20: 30, 35: 30, 50: 30, 60: 30}, ps=(0.05, 0.15, 0.4))
    for leaves in (9, 20, 40, 59):
        graphs.append(generate(GeneratorSpec("star", (leaves,))))
    for p, q in ((5, 5), (20, 20), (29, 28)):
        graphs.append(generate(GeneratorSpec("double_star", (p, q))))
    for claws in (2, 6, 15, 19):
        graphs.append(generate(GeneratorSpec("claw_chain", (claws,))))
    for n, d in ((12, 3), (20, 4), (30, 3)):
        graphs.append(generate(GeneratorSpec("random_regular", (n, d), seed=n)))
    for count in (5, 15, 30):
        graphs.append(generate(GeneratorSpec("disjoint_edges", (count,))))
    graphs.extend(gnp_corpus({40: 30, 55: 16}, ps=(0.08, 0.25)))
    assert len(graphs) >= 200
    return graphs


def test_criterion_2_kernel_size_bound(kernel_corpus):
    kernels = 0
    for g in kernel_corpus:
        for k in range(0, 9):
            inst = Instance(g, w=k * g.m, k=k)
            out = kernelize(inst)
            if isinstance(out, Kernel):
                kernels += 1
                assert out.instance.graph.n <= inst.k * inst.k + 2 * inst.k, (g.n, g.m, k)
    _report(
        2,
        True,
        f"{len(kernel_corpus)} graphs x k<=8: all {kernels} kernels within k^2+2k vertices",
    )


def test_criterion_3_kernel_equivalence(small_corpus, brute_profiles):
    checked = 0
    for g, profile in zip(small_corpus, brute_profiles):
        for k in range(g.n + 1):
            opt = profile[k]
            out = kernelize(Instance(g, w=k * g.m, k=k))
            if isinstance(out, TrivialNo):
                # rules 1 and 3 certify infeasibility regardless of budget
                assert out.rule in ("rule1", "rule3"), out
                assert opt is None, (g.edges, k, out.rule)
                continue
            kg = out.instance.graph
            koff = out.trace.w_offset
            kopt_profile = _brute_profile_small(kg)
            kopt = kopt_profile[min(k, kg.n)]
            for w in range(0, k * g.m + 1):
                orig_yes = opt is not None and opt <= w
                kern_yes = w - koff >= 0 and kopt is not None and kopt <= w - koff
                assert orig_yes == kern_yes, (g.edges, k, w)
            checked += 1
    _report(3, True, f"decision equivalence over every w on {checked} kernels")


def _brute_profile_small(g):
    from msvc import brute_force_profile

    return brute_force_profile(g)


def test_criterion_4_lift_correctness(small_corpus, brute_profiles):
    lifted_count = 0
    for g, profile in zip(small_corpus, brute_profiles):
        for k in range(g.n + 1):
            opt = profile[k]
            if opt is None or opt > k * g.m:
                continue  # not a yes-instance at this budget ceiling
            inst = Instance(g, w=k * g.m, k=k)
            out = kernelize(inst)
            assert isinstance(out, Kernel), (g.edges, k)
            result = branch_solve(out.instance)
            assert result.best_cost is not None
            lifted = lift(out, result.best_ordering, inst)
            rep = evaluate(g, lifted)
            assert rep.total == result.best_cost + out.trace.w_offset, (g.edges, k)
            assert rep.max_cost <= k
            lifted_count += 1
    _report(4, True, f"{lifted_count} lifted orderings re-cost exactly")


def test_criterion_5_minimal_cover_enumeration():
    graphs = gnp_corpus({4: 30, 6: 40, 8: 40, 9: 45, 10: 45}, seed_base=91)
    assert len(graphs) >= 200
    checked = 0
    for g in graphs:
        n = g.n
        adj_mask = [0] * n
        for u, v in g.edges:
            adj_mask[u] |= 1 << v
            adj_mask[v] |= 1 << u
        edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
        full = (1 << n) - 1
        for k in (0, 2, n // 2, n):
            covers = enumerate_minimal_covers(g, k)
            assert len(covers) <= 2**k
            got = {frozenset(c) for c in covers}
            want = set()
            for mask in range(1 << n):
                if mask.bit_count() > k:
                    continue
                if not all(mask & em for em in edge_masks):
                    continue
                # minimal: every member keeps a neighbor outside the set
                members = [v for v in range(n) if mask >> v & 1]
                if all(adj_mask[v] & (full ^ mask) for v in members):
                    want.add(frozenset(members))
            assert got == want, (g.edges, k)
            checked += 1
    _report(5, True, f"exact match with 2^n subset scan on {checked} (graph,k) pairs")


def test_criterion_6_claw_chain_golden():
    g = claw_chain6()
    assert g.n == 19 and g.m == 18
    assert vc_number(g) == 6
    dp7 = subset_dp_optimal(g, 7)
    dp6 = subset_dp_optimal(g, 6)
    assert dp7[0] == 60 and dp6[0] == 63  # frozen goldens
    b7 = branch_solve(Instance(g, w=60, k=7))
    b6 = branch_solve(Instance(g, w=62, k=6))
    assert b7.decision and b7.best_cost == 60
    assert not b6.decision and b6.best_cost == 63
    _report(6, True, "19-vertex instance: tau=6, cost 60 at k=7 and 63 at k=6 reproduced")


def test_criterion_7_bound_holds(small_corpus):
    in_domain = out_of_domain = 0
    for g in list(small_corpus) + [c4(), claw_chain6(), k4()]:
        if g.m == 0:
            continue
        tau = vc_number(g)
        _, min_max = min_max_cost_over_optima(g)
        try:
            bound = lemma1_bound(g.m, tau)
        except BoundDomainError:
            # radicand negative exactly when m > tau^2 (tau >= 2)
            assert tau >= 2 and g.m > tau * tau
            out_of_domain += 1
            continue
        in_domain += 1
        assert min_max <= bound, (g.edges, tau, min_max, bound)
    c4_report = min_max_cost_over_optima(c4())
    assert c4_report[1] == lemma1_bound(4, 2) == 2.0  # tight case
    _report(
        7,
        True,
        f"bound holds on all {in_domain} in-domain graphs "
        f"({out_of_domain} outside the formula's real domain m<=tau^2)",
    )


def test_criterion_8_structural_audits(small_corpus, brute_profiles):
    audited = 0
    warnings = 0
    for g, profile in zip(small_corpus, brute_profiles):
        seqs, pos, costs, totals, maxes = _perm_sweep(g)
        n = g.n
        degs = np.array(g.degrees)
        tau = vc_number(g)
        for k in range(n + 1):
            opt = profile[k]
            if opt is None:
                continue
            optima = (maxes <= k) & (totals == opt)
            idx = np.flatnonzero(optima)
            if idx.size == 0:
                continue
            opt_pos = pos[idx]
            opt_costs = costs[idx]
            # proposition: degree > k forces a prefix position
            high = np.flatnonzero(degs > k)
            if high.size:
                assert (opt_pos[:, high] <= k).all(), (g.edges, k, "prop1")
            # charge profile non-increasing over prefix positions
            if k >= 2 and g.m:
                r = np.stack(
                    [(opt_costs == i).sum(axis=1) for i in range(1, k + 1)], axis=1
                )
                assert (r[:, :-1] >= r[:, 1:]).all(), (g.edges, k, "lemma2i")
            # big degree difference forces relative order
            for u in range(n):
                for v in range(n):
                    if degs[u] - k >= degs[v] > 0:
                        assert (opt_pos[:, u] < opt_pos[:, v]).all(), (
                            g.edges, k, "lemma2ii", u, v,
                        )
            # all-high-degree neighborhoods come last
            for v in range(n):
                if g.adj[v] and all(degs[x] > k for x in g.adj[v]):
                    nbr = np.array(g.adj[v])
                    assert (opt_pos[:, [v]] > opt_pos[:, nbr]).all(), (
                        g.edges, k, "lemma4", v,
                    )
            # tie the production auditor to a sample of the same optima
            for row in idx[:20]:
                ordering = Ordering.from_sequence(tuple(int(x) for x in seqs[row]))
                report = structural_audit(g, k, ordering, is_optimal=True, tau=tau)
                assert report.all_passed, (g.edges, k, seqs[row])
                if report.replacement_window.passed is False:
                    warnings += 1
                audited += 1
    _report(
        8,
        True,
        f"all enumerated optima pass; auditor spot-checked {audited} orderings "
        f"({warnings} replacement-window warnings, report-only)",
    )


def test_criterion_9_regular_fast_path(monkeypatch):
    import msvc.oracles as oracles

    calls = {"dp": 0}
    real = oracles.subset_dp_optimal

    def counting(*args, **kwargs):
        calls["dp"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(oracles, "subset_dp_optimal", counting)
    assert oracles.regular_solve(petersen(), 4) is None
    assert calls["dp"] == 0  # rejected without search
    monkeypatch.undo()

    cost, ordering = regular_solve(k4(), 3)
    assert cost == 10  # frozen from the DP oracle
    assert subset_dp_optimal(k4(), 3)[0] == 10
    assert evaluate(k4(), ordering).total == 10
    _report(9, True, "Petersen k=4 rejected with zero DP calls; K4 k=3 optimum 10")


def test_regular_fast_path_rejects_cycles_past_half(monkeypatch):
    # a cover of a d-regular graph needs n / 2 vertices for every d >= 1,
    # cycles included: cycle(9) at k = 4 is rejected without the DP
    import msvc.oracles as oracles

    calls = {"dp": 0}
    real = oracles.subset_dp_optimal

    def counting(*args, **kwargs):
        calls["dp"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(oracles, "subset_dp_optimal", counting)
    assert oracles.regular_solve(generate(GeneratorSpec("cycle", (9,))), 4) is None
    assert calls["dp"] == 0
    monkeypatch.undo()

    c8 = generate(GeneratorSpec("cycle", (8,)))
    want = subset_dp_optimal(c8, 4)
    assert want is not None and regular_solve(c8, 4) == want


def test_criterion_10_performance_smoke():
    t0 = time.perf_counter()
    big = generate(GeneratorSpec("star", (1_000_000,)))
    gen_s = time.perf_counter() - t0
    assert big.m == 1_000_000
    t0 = time.perf_counter()
    out = kernelize(Instance(big, w=10_000_000, k=8))
    kern_s = time.perf_counter() - t0
    assert isinstance(out, Kernel) and out.instance.graph.n <= 80
    assert kern_s <= 10.0, f"kernelization took {kern_s:.1f}s"
    del big, out

    k9 = build_graph(9, [(i, j) for i in range(9) for j in range(i + 1, 9)])
    branch_times = []
    for inst in (
        Instance(k9, w=10**6, k=8),
        Instance(claw_chain6(), w=10**6, k=7),
        Instance(generate(GeneratorSpec("double_star", (40, 40))), w=10**6, k=8),
    ):
        out = kernelize(inst)
        assert isinstance(out, Kernel)
        t0 = time.perf_counter()
        result = branch_solve(out.instance)
        branch_times.append(time.perf_counter() - t0)
        assert result.best_cost is not None
        assert branch_times[-1] <= 60.0, f"branch_solve took {branch_times[-1]:.1f}s"
    _report(
        10,
        True,
        f"10^6-edge kernelization {kern_s:.1f}s (<=10s, gen {gen_s:.1f}s); "
        f"k<=8 kernel solves {', '.join(f'{t:.1f}s' for t in branch_times)} (<=60s)",
    )
