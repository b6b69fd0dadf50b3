"""Structural audits of optimal orderings and the cover-number cost bound.

The audits check, on concrete optima, the ordering facts the solver relies
on: high-degree vertices sit in the paid prefix, charge counts are
non-increasing, large degree differences force relative order, and vertices
whose neighbors are all high-degree come last.  The bound report compares
the smallest achievable maximum charge against a closed-form function of the
edge count and the vertex cover number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .covers import _minimal_covers
from .graph import Graph, Ordering, evaluate
from .oracles import build_dp_table, optimal_covers

VC_NUMBER_N_GUARD = 24
VC_NUMBER_TAU_GUARD = 20
MIN_MAX_GUARD = 20


class AnalysisGuardError(ValueError):
    """Graph too large for the requested exact analysis."""


class BoundDomainError(ValueError):
    """The closed-form bound has no real value for these (m, tau)."""


def vc_number(g: Graph) -> int:
    """Exact minimum vertex cover size: the smallest size at which the
    minimal-cover search finds a cover.  The search stops at its first
    cover, so graphs with many minimum covers do not enumerate them all."""
    limit = g.n if g.n <= VC_NUMBER_N_GUARD else VC_NUMBER_TAU_GUARD
    for size in range(limit + 1):
        if next(_minimal_covers(g, size), None) is not None:
            return size
    raise AnalysisGuardError(
        f"vertex cover number exceeds {VC_NUMBER_TAU_GUARD} on a graph with n > {VC_NUMBER_N_GUARD}"
    )


def lemma1_bound(m: int, tau: int) -> float:
    """sqrt(m(tau-1) - m^2/tau + m^2/tau^2) + m/tau.

    The radicand factors as m(tau-1)(tau^2 - m)/tau^2, so the expression is
    real only when m <= tau^2 (or tau <= 1); outside that domain a
    BoundDomainError is raised.  For tau = 1 the radicand vanishes and the
    value is exactly m.
    """
    if tau < 0 or m < 0:
        raise ValueError("m and tau must be nonnegative")
    if tau == 0:
        if m > 0:
            raise ValueError("tau = 0 with edges present: no cover exists")
        return 0.0
    if m < tau:
        raise ValueError(f"m = {m} below tau = {tau}: impossible on a graph")
    radicand = m * (tau - 1) - m * m / tau + m * m / (tau * tau)
    if radicand < -1e-9:
        raise BoundDomainError(
            f"bound undefined for m = {m}, tau = {tau} (m exceeds tau^2)"
        )
    return math.sqrt(max(radicand, 0.0)) + m / tau


def min_max_cost_over_optima(g: Graph):
    """(opt_cost, min_max_cost): the unconstrained optimal total charge and
    the smallest maximum charge among orderings achieving it.

    An ordering's maximum charge is the length of its first covering prefix,
    so the answer is the fewest vertices of any cover whose prefix-placement
    value equals the optimum.
    """
    n = g.n
    if n > MIN_MAX_GUARD:
        raise AnalysisGuardError(f"min-max analysis limited to n <= {MIN_MAX_GUARD}")
    if g.m == 0:
        return 0, 0
    opt, best = optimal_covers(build_dp_table(g, n))
    return opt, int(best[0]).bit_count()  # the best covers come by size


@dataclass(frozen=True)
class BoundReport:
    """The vertex cover number ``tau``, the edge count ``m``, the
    unconstrained optimal total charge ``opt_cost`` and
    ``observed_min_max_cost``, the smallest max charge among the orderings
    attaining it.  ``bound`` is ``lemma1_bound(m, tau)`` and ``holds`` tells
    whether that smallest max charge stays within it; outside the bound's
    domain both are None."""

    tau: int
    m: int
    opt_cost: int
    observed_min_max_cost: int
    bound: Optional[float]
    holds: Optional[bool]


def bound_report(g: Graph) -> BoundReport:
    tau = vc_number(g)
    opt, min_max = min_max_cost_over_optima(g)
    try:
        bound = lemma1_bound(g.m, tau)
    except BoundDomainError:
        bound = None
    holds = None if bound is None else min_max <= bound
    return BoundReport(
        tau=tau, m=g.m, opt_cost=opt, observed_min_max_cost=min_max, bound=bound, holds=holds
    )


@dataclass(frozen=True)
class CheckResult:
    # passed is None when the check was skipped (needs an optimal ordering)
    passed: Optional[bool]
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    prop1: CheckResult
    lemma2i: CheckResult
    lemma2ii: CheckResult
    lemma4: CheckResult
    replacement_window: CheckResult  # warning-level: a failure is reported, not fatal

    @property
    def all_passed(self) -> bool:
        checks = (self.prop1, self.lemma2i, self.lemma2ii, self.lemma4)
        return all(c.passed is not False for c in checks)


def structural_audit(
    g: Graph,
    k: int,
    ordering: Ordering,
    is_optimal: bool,
    tau: Optional[int] = None,
) -> AuditReport:
    """Audit one feasible ordering; the optimality-dependent checks run only
    when the ordering came from an exact oracle."""
    report = evaluate(g, ordering)
    k_eff = min(k, g.n)
    if report.max_cost > k_eff:
        raise ValueError(
            f"ordering has max charge {report.max_cost} > k = {k_eff}: not feasible"
        )
    degs = g.degrees
    pos = ordering.position

    bad = [v for v in range(g.n) if degs[v] > k_eff and pos[v] > k_eff]
    prop1 = CheckResult(
        passed=not bad,
        detail="" if not bad else f"degree>{k_eff} vertices outside prefix: {bad}",
    )

    skipped = CheckResult(passed=None, detail="needs an optimal ordering")
    lemma2i = lemma2ii = lemma4 = replacement = skipped
    if is_optimal:
        r = report.r
        viol = next(
            (i for i in range(1, k_eff) if r[i - 1] < r[i]),
            None,
        )
        lemma2i = CheckResult(
            passed=viol is None,
            detail="" if viol is None else f"r rises at positions {viol},{viol + 1}",
        )

        pair = None
        for u in range(g.n):
            for v in range(g.n):
                if degs[u] - k_eff >= degs[v] > 0 and pos[u] > pos[v]:
                    pair = (u, v)
                    break
            if pair:
                break
        lemma2ii = CheckResult(
            passed=pair is None,
            detail="" if pair is None else f"vertex {pair[0]} placed after {pair[1]}",
        )

        offender = None
        for v in range(g.n):
            if g.adj[v] and all(degs[x] > k_eff for x in g.adj[v]):
                if any(pos[v] < pos[x] for x in g.adj[v]):
                    offender = v
                    break
        lemma4 = CheckResult(
            passed=offender is None,
            detail="" if offender is None else f"vertex {offender} precedes a neighbor",
        )

        if tau is None:
            tau = vc_number(g)
        kp = report.max_cost
        if kp > 0 and kp - tau >= 1:
            window = report.r[kp - tau - 1]
            replacement = CheckResult(
                passed=window >= 2,
                detail="" if window >= 2 else f"r({kp}-{tau}) = {window} < 2",
            )
        else:
            replacement = CheckResult(passed=True, detail="window empty")
    return AuditReport(
        prop1=prop1,
        lemma2i=lemma2i,
        lemma2ii=lemma2ii,
        lemma4=lemma4,
        replacement_window=replacement,
    )
