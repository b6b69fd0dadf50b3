import math

import numpy as np
import pytest

from msvc import (
    AnalysisGuardError,
    BoundDomainError,
    GeneratorSpec,
    Ordering,
    bound_report,
    build_graph,
    brute_force_optimal,
    evaluate,
    generate,
    lemma1_bound,
    min_max_cost_over_optima,
    structural_audit,
    subset_dp_optimal,
    vc_number,
)

from conftest import c4, claw_chain6, p3, p4, triangle


# ------------------------------------------------------------- vc_number

def test_vc_p3():
    assert vc_number(p3()) == 1


def test_vc_c4():
    assert vc_number(c4()) == 2


def test_vc_claw_chain():
    assert vc_number(claw_chain6()) == 6


def test_vc_edgeless():
    assert vc_number(build_graph(4, [])) == 0


def test_vc_guard_rejects_large_cover_on_big_graph():
    from msvc import AnalysisGuardError
    from msvc.generators import GeneratorSpec, generate

    g = generate(GeneratorSpec("disjoint_edges", (25,)))  # n=50, tau=25
    with pytest.raises(AnalysisGuardError):
        vc_number(g)


def _tau_by_subsets(g):
    """Smallest vertex cover by scanning all 2^n vertex subsets."""
    masks = np.arange(1 << g.n, dtype=np.int64)
    covers = np.ones(masks.size, dtype=bool)
    for u, v in zip(g.eu.tolist(), g.ev.tolist()):
        covers &= ((masks >> u) | (masks >> v)) & 1 == 1
    return int(np.bitwise_count(masks[covers]).min())


def test_vc_matches_subset_scan():
    for n in range(1, 17):
        for i, p in enumerate((0.1, 0.25, 0.45, 0.65, 0.9)):
            g = generate(GeneratorSpec("gnp", (n, p), seed=31 * n + i))
            assert vc_number(g) == _tau_by_subsets(g), (n, p)


# (n, p, tau) of gnp(n, p) with seed n past the subset scan's reach; None
# where tau exceeds the guard of 20 at n > 24.  Computed by the recursive
# edge branching vc_number ran before it used the cover enumerator.
VC_PINS = [
    (25, 0.2, 15), (26, 0.3, 16), (30, 0.15, 15), (33, 0.1, 17), (36, 0.08, 18),
    (40, 0.06, 15), (40, 0.1, None),
]


@pytest.mark.parametrize("n, p, tau", VC_PINS)
def test_vc_pinned_beyond_subset_scan(n, p, tau):
    g = generate(GeneratorSpec("gnp", (n, p), seed=n))
    if tau is None:
        with pytest.raises(AnalysisGuardError):
            vc_number(g)
    else:
        assert vc_number(g) == tau


# ------------------------------------------------------------- the bound

def test_bound_c4():
    assert lemma1_bound(4, 2) == 2.0


def test_bound_star():
    assert lemma1_bound(5, 1) == 5.0


def test_bound_claw_chain():
    assert math.isclose(lemma1_bound(18, 6), math.sqrt(45) + 3)


def test_bound_tau0():
    assert lemma1_bound(0, 0) == 0.0
    with pytest.raises(ValueError):
        lemma1_bound(3, 0)


def test_bound_out_of_domain():
    # m > tau^2 makes the radicand negative: 5 edges coverable by 2 vertices
    with pytest.raises(BoundDomainError):
        lemma1_bound(5, 2)


def test_bound_domain_edge_is_exact():
    # m == tau^2 sits exactly on the boundary (radicand 0)
    assert lemma1_bound(9, 3) == 3.0


def test_bound_report_out_of_domain_graph():
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2)])
    assert vc_number(g) == 2 and g.m == 5
    rep = bound_report(g)
    assert rep.bound is None and rep.holds is None


# ------------------------------------------------------ min-max over optima

def test_min_max_p3():
    assert min_max_cost_over_optima(p3()) == (2, 1)


def test_min_max_c4():
    assert min_max_cost_over_optima(c4()) == (6, 2)


def test_min_max_claw_chain():
    assert min_max_cost_over_optima(claw_chain6()) == (60, 7)


def test_min_max_edgeless():
    assert min_max_cost_over_optima(build_graph(3, [])) == (0, 0)


def test_min_max_matches_bruteforce():
    """Exhaustive cross-check of both components on small graphs."""
    from itertools import permutations

    for g in (p3(), p4(), triangle(), c4(), build_graph(5, [(0, 1), (1, 2), (3, 4)])):
        best = None
        for seq in permutations(range(g.n)):
            rep = evaluate(g, Ordering.from_sequence(seq))
            key = (rep.total, rep.max_cost)
            if best is None or key < best:
                best = key
        # brute minimum of (total, max) lexicographically == (opt, min-max)
        opt, min_max = min_max_cost_over_optima(g)
        assert (opt, min_max) == best


# ------------------------------------------------------------------ audits

def test_audit_p3_optimum_passes():
    g = p3()
    ordering = Ordering.from_sequence([1, 0, 2])
    report = structural_audit(g, 1, ordering, is_optimal=True)
    assert report.all_passed
    assert report.prop1.passed and report.lemma2i.passed
    assert report.lemma2ii.passed and report.lemma4.passed


def test_audit_claw_chain_optimum():
    g = claw_chain6()
    cost, ordering = subset_dp_optimal(g, 7)
    assert cost == 60
    report = structural_audit(g, 7, ordering, is_optimal=True)
    assert report.all_passed
    rep = evaluate(g, ordering)
    assert rep.r[:7] == (6, 2, 2, 2, 2, 2, 2)


def test_audit_flags_rising_charge_profile():
    """Deliberately suboptimal path ordering trips the monotonicity check."""
    g = p4()
    ordering = Ordering.from_sequence([0, 2, 1, 3])
    rep = evaluate(g, ordering)
    assert rep.r[:3] == (1, 2, 0)  # rises between positions 1 and 2
    report = structural_audit(g, 3, ordering, is_optimal=True)
    assert report.lemma2i.passed is False
    assert "positions 1,2" in report.lemma2i.detail


def test_audit_rejects_infeasible():
    with pytest.raises(ValueError):
        structural_audit(triangle(), 1, Ordering.from_sequence([0, 1, 2]), is_optimal=False)


def test_audit_skips_optimal_checks_when_not_optimal():
    report = structural_audit(p3(), 2, Ordering.from_sequence([0, 1, 2]), is_optimal=False)
    assert report.prop1.passed is not None
    assert report.lemma2i.passed is None
    assert report.lemma2ii.passed is None


def test_audit_all_optima_small():
    """Every optimum of every small named graph passes every check."""
    from itertools import permutations

    for g in (p3(), p4(), triangle(), c4()):
        for k in range(g.n + 1):
            best = brute_force_optimal(g, k)
            if best is None:
                continue
            opt = best[0]
            tau = vc_number(g)
            for seq in permutations(range(g.n)):
                ordering = Ordering.from_sequence(seq)
                rep = evaluate(g, ordering)
                if rep.max_cost <= k and rep.total == opt:
                    report = structural_audit(g, k, ordering, is_optimal=True, tau=tau)
                    assert report.all_passed, (g.edges, k, seq, report)
