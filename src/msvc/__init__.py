"""Minimum sum vertex cover toolkit.

Order the vertices of a graph; every edge is charged the smaller of its two
endpoint positions.  The package decides whether a total budget w is
attainable with every single charge bounded by k, via a polynomial kernel
and a branching solver, and ships exact oracles plus structural analysis
tools for validating both.
"""

from .graph import (
    CostReport,
    Graph,
    GraphError,
    Instance,
    InvariantError,
    Ordering,
    OrderingError,
    build_graph,
    evaluate,
    is_feasible,
    is_vertex_cover,
)
from .instance_io import (
    ParseError,
    parse_instance,
    parse_ordering,
    read_instance,
    write_instance,
    write_ordering,
)
from .covers import enumerate_minimal_covers, is_minimal_cover
from .kernel import (
    Kernel,
    KernelTrace,
    LiftError,
    Rule2Record,
    Rule4Record,
    TrivialNo,
    find_big_gap,
    kernelize,
    lift,
    rule1_check,
    rule2_apply,
    rule3_check,
    rule4_apply,
)
from .branching import (
    SolveResult,
    branch_solve,
    solve,
)
from .oracles import (
    DpTable,
    OracleGuardError,
    brute_force_optimal,
    brute_force_profile,
    build_dp_table,
    regular_solve,
    subset_dp_optimal,
)
from .analysis import (
    AnalysisGuardError,
    AuditReport,
    BoundDomainError,
    BoundReport,
    bound_report,
    lemma1_bound,
    min_max_cost_over_optima,
    structural_audit,
    vc_number,
)
from .generators import FAMILIES, GeneratorSpec, Pcg32, generate

__all__ = [
    "CostReport",
    "Graph",
    "GraphError",
    "Instance",
    "InvariantError",
    "Ordering",
    "OrderingError",
    "build_graph",
    "evaluate",
    "is_feasible",
    "is_vertex_cover",
    "ParseError",
    "parse_instance",
    "parse_ordering",
    "read_instance",
    "write_instance",
    "write_ordering",
    "enumerate_minimal_covers",
    "is_minimal_cover",
    "Kernel",
    "KernelTrace",
    "LiftError",
    "Rule2Record",
    "Rule4Record",
    "TrivialNo",
    "find_big_gap",
    "kernelize",
    "lift",
    "rule1_check",
    "rule2_apply",
    "rule3_check",
    "rule4_apply",
    "SolveResult",
    "branch_solve",
    "solve",
    "DpTable",
    "OracleGuardError",
    "brute_force_optimal",
    "brute_force_profile",
    "build_dp_table",
    "regular_solve",
    "subset_dp_optimal",
    "AnalysisGuardError",
    "AuditReport",
    "BoundDomainError",
    "BoundReport",
    "bound_report",
    "lemma1_bound",
    "min_max_cost_over_optima",
    "structural_audit",
    "vc_number",
    "FAMILIES",
    "GeneratorSpec",
    "Pcg32",
    "generate",
]
