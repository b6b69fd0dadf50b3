"""Command-line surface: solve, kernelize, oracle, enum-mvc, gen, bench,
verify, analyze.

Exit codes: 0 = yes/success, 1 = no/infeasible, 2 = error.  Reports are
emitted as newline-delimited JSON with an optional CSV projection.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import traceback
from typing import Optional

from .analysis import AnalysisGuardError, bound_report, structural_audit
from .branching import branch_solve, solve
from .covers import enumerate_minimal_covers
from .generators import FAMILIES, GeneratorSpec, generate
from .graph import Instance, InvariantError, evaluate
from .instance_io import read_instance, read_ordering, write_instance
from .kernel import Kernel, LiftError, Rule2Record, Rule4Record, TrivialNo, kernelize
from .oracles import (
    BRUTE_FORCE_GUARD,
    SUBSET_DP_GUARD,
    brute_force_optimal,
    brute_force_profile,
    regular_solve,
    subset_dp_optimal,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _ordering_json(ordering) -> list[int]:
    return [v + 1 for v in ordering.sequence]


def _write_text(text: str, path: Optional[str]) -> None:
    """Write text to the file at path, or to stdout when path is None."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _search_counts(result) -> dict:
    return {
        "covers_enumerated": result.covers_enumerated,
        "incumbent": result.incumbent,
        "dp_states": result.dp_states,
    }


def _timed_solve(inst: Instance, no_kernel: bool):
    """(result, seconds) of ``branch_solve`` or ``solve`` on inst."""
    start = time.perf_counter()
    result = (branch_solve if no_kernel else solve)(inst)
    return result, time.perf_counter() - start


def cmd_solve(args) -> int:
    inst = read_instance(args.instance)
    result, elapsed = _timed_solve(inst, args.no_kernel)
    payload = {
        "decision": "yes" if result.decision else "no",
        "total_cost": result.best_cost,
        "max_cost": None,
        "ordering": None,
        "kernel": result.kernel_summary,
        "stats": {**_search_counts(result), "elapsed": elapsed},
    }
    if result.best_ordering is not None:
        payload["max_cost"] = evaluate(inst.graph, result.best_ordering).max_cost
        payload["ordering"] = _ordering_json(result.best_ordering)
    print(json.dumps(payload))
    return EXIT_YES if result.decision else EXIT_NO


def cmd_kernelize(args) -> int:
    inst = read_instance(args.instance)
    outcome = kernelize(inst)
    if isinstance(outcome, TrivialNo):
        print(json.dumps({"trivial_no": outcome.rule}))
        return EXIT_NO
    if not isinstance(outcome, Kernel):
        raise InvariantError(f"kernelize returned {type(outcome).__name__}")
    _write_text(write_instance(outcome.instance), args.out)
    if args.trace:
        steps = []
        for step in outcome.trace.steps:
            if isinstance(step, Rule2Record):
                steps.append(
                    {
                        "rule": 2,
                        "t": step.t,
                        "delta": step.delta,
                        "w_delta": step.w_delta,
                        "removed_edges": (step.removed_edges + 1).tolist(),
                    }
                )
            elif isinstance(step, Rule4Record):
                steps.append(
                    {
                        "rule": 4,
                        "p": step.p,
                        "deleted_I": (step.deleted_vertices + 1).tolist(),
                        "added_x": step.p,
                        "moved_edge_counts": {
                            str(v + 1): c for v, c in sorted(step.moved_edge_counts.items())
                        },
                    }
                )
        trace_payload = {
            "steps": steps,
            "w_offset": outcome.trace.w_offset,
            "vertex_map": [
                None if orig is None else orig + 1 for orig in outcome.trace.vertex_map
            ],
        }
        _write_text(json.dumps(trace_payload) + "\n", args.trace)
    return EXIT_YES


def cmd_oracle(args) -> int:
    inst = read_instance(args.instance)
    g, k = inst.graph, inst.k
    if args.method == "brute":
        answer = brute_force_optimal(g, k)
    elif args.method == "dp":
        answer = subset_dp_optimal(g, k)
    else:
        answer = regular_solve(g, k)
    if answer is None:
        print(json.dumps({"feasible": False}))
        return EXIT_NO
    cost, ordering = answer
    print(
        json.dumps(
            {
                "feasible": True,
                "cost": cost,
                "within_budget": cost <= inst.w,
                "ordering": _ordering_json(ordering),
            }
        )
    )
    return EXIT_YES if cost <= inst.w else EXIT_NO


def cmd_enum_mvc(args) -> int:
    inst = read_instance(args.instance)
    for cover in enumerate_minimal_covers(inst.graph, inst.k):
        print(" ".join(str(v + 1) for v in cover))
    return EXIT_YES


def _number(text: str):
    """A family parameter as an int if it reads as one, else as a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def cmd_gen(args) -> int:
    params = tuple(map(_number, args.params))
    spec = GeneratorSpec(family=args.family, params=params, seed=args.seed)
    g = generate(spec)
    k = args.k if args.k is not None else g.n
    w = args.w if args.w is not None else min(k, g.n) * g.m
    _write_text(write_instance(Instance(graph=g, w=w, k=k)), args.out)
    return EXIT_YES


def _bench_corpus(args):
    """(index, spec, graph) of every gnp graph of a bench or analyze corpus,
    which must not be empty."""
    if args.per_size < 1:
        raise ValueError(f"--per-size must be at least 1, got {args.per_size}")
    if args.n_max < args.n_min:
        raise ValueError(f"--n-max must be at least --n-min, got {args.n_max} < {args.n_min}")
    idx = 0
    for n in range(args.n_min, args.n_max + 1):
        for _ in range(args.per_size):
            spec = GeneratorSpec(family="gnp", params=(n, args.p), seed=args.seed + idx)
            yield idx, spec, generate(spec)
            idx += 1


def cmd_bench(args) -> int:
    rows = []
    for idx, spec, g in _bench_corpus(args):
        ks = range(0, g.n + 1) if args.k is None else [args.k]
        profile = brute_force_profile(g) if g.n <= BRUTE_FORCE_GUARD else None
        for k in ks:
            w = k * g.m
            inst = Instance(graph=g, w=w, k=k)
            result, elapsed = _timed_solve(inst, args.no_kernel)
            row = {
                "id": f"{spec.family}-{idx}-k{k}",
                "n": g.n,
                "m": g.m,
                "k": k,
                "kernel_n": result.kernel_n,
                "kernel_m": result.kernel_m,
                **_search_counts(result),
                "time_ms": round(elapsed * 1000.0, 3),
                "decision": "yes" if result.decision else "no",
                "cost": result.best_cost,
                "oracle_cost": None if profile is None else profile[min(k, g.n)],
            }
            rows.append(row)
    return _emit_rows(rows, args.csv)


def _emit_rows(rows: list[dict], csv_path: Optional[str]) -> int:
    """Print each row as a JSON line and, given a path, write them as CSV."""
    for row in rows:
        print(json.dumps(row))
    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            if rows:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
    return EXIT_YES


def cmd_verify(args) -> int:
    inst = read_instance(args.instance)
    ordering = read_ordering(args.ordering, inst.graph.n)
    report = evaluate(inst.graph, ordering)
    feasible = report.max_cost <= inst.k and report.total <= inst.w
    payload = {
        "total_cost": report.total,
        "max_cost": report.max_cost,
        "k": inst.k,
        "w": inst.w,
        "feasible": feasible,
    }
    if report.max_cost <= inst.k:
        audit = structural_audit(inst.graph, inst.k, ordering, is_optimal=False)
        payload["audit"] = {"prop1": audit.prop1.passed}
    print(json.dumps(payload))
    return EXIT_YES if feasible else EXIT_NO


def cmd_analyze(args) -> int:
    rows = []
    for _, spec, g in _bench_corpus(args):
        row = {
            "graph_id": f"gnp-{g.n}-{spec.seed}",
            "n": g.n,
            "m": g.m,
        }
        try:
            report = bound_report(g)
        except AnalysisGuardError as exc:
            row["error"] = str(exc)
            rows.append(row)
            continue
        row.update(
            tau=report.tau,
            opt_cost=report.opt_cost,
            min_max_cost=report.observed_min_max_cost,
            gap_to_tau=report.observed_min_max_cost - report.tau,
            bound=report.bound,
            bound_holds=report.holds,
        )
        if g.n <= SUBSET_DP_GUARD:
            answer = subset_dp_optimal(g, g.n)
            if answer is not None:
                audit = structural_audit(
                    g, g.n, answer[1], is_optimal=True, tau=report.tau
                )
                row["audit_prop1"] = audit.prop1.passed
                row["audit_lemma2i"] = audit.lemma2i.passed
                row["audit_lemma2ii"] = audit.lemma2ii.passed
                row["audit_lemma4"] = audit.lemma4.passed
                row["replacement_warning"] = audit.replacement_window.passed is False
        rows.append(row)
    return _emit_rows(rows, args.csv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msvc",
        description="Minimum sum vertex cover toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide an instance and print a witness")
    p_solve.add_argument("instance")
    p_solve.add_argument("--no-kernel", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_kern = sub.add_parser("kernelize", help="reduce an instance and dump the trace")
    p_kern.add_argument("instance")
    p_kern.add_argument("--out", default=None)
    p_kern.add_argument("--trace", default=None)
    p_kern.set_defaults(func=cmd_kernelize)

    p_oracle = sub.add_parser("oracle", help="exact reference solvers")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--method", choices=("brute", "dp", "regular"), default="dp")
    p_oracle.set_defaults(func=cmd_oracle)

    p_enum = sub.add_parser("enum-mvc", help="list minimal vertex covers of size <= k")
    p_enum.add_argument("instance")
    p_enum.set_defaults(func=cmd_enum_mvc)

    p_gen = sub.add_parser("gen", help="generate an instance from a family")
    p_gen.add_argument("family", choices=FAMILIES)
    p_gen.add_argument("params", nargs="*", help="family parameters, e.g. 'gnp 8 0.5'")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--k", type=int, default=None)
    p_gen.add_argument("--w", type=int, default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--n-min", type=int, default=4)
    corpus.add_argument("--n-max", type=int, default=8)
    corpus.add_argument("--per-size", type=int, default=5)
    corpus.add_argument("--p", type=float, default=0.4)
    corpus.add_argument("--seed", type=int, default=1)
    corpus.add_argument("--csv", default=None)

    p_bench = sub.add_parser(
        "bench", parents=[corpus], help="solve a generated corpus, emit NDJSON rows"
    )
    p_bench.add_argument("--k", type=int, default=None, help="fixed k; default sweeps 0..n")
    p_bench.add_argument("--no-kernel", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="cost and feasibility of an ordering file")
    p_verify.add_argument("instance")
    p_verify.add_argument("ordering")
    p_verify.set_defaults(func=cmd_verify)

    p_an = sub.add_parser(
        "analyze", parents=[corpus], help="structural reports over a generated corpus"
    )
    p_an.set_defaults(func=cmd_analyze)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, InvariantError, LiftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # a bug, not bad input: report it with its traceback, but never
        # with exit code 1, which means "no"
        print(f"error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
