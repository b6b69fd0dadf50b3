"""Benchmark for the msvc toolkit.

    python3 perfbench/run.py --workload solve-gnp --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) as a closed loop with one client in
this process: each op starts when the previous one has returned.  The loop
cycles through the workload's inputs in a fixed order until ``--seconds``
have passed and every input has run at least once.  Every op is timed on
its own; an input's latency is the mean of its ops, and the metrics are
taken over inputs, so every run measures the same mix however far the last
cycle got.  After the loop a correctness gate, which adds to no timing,
checks every output.

The speed of a shared host drifts by 20% and more over minutes: in five
30 s runs of solve-gnp the median time of a fixed pure-Python loop, the host
probe, moved by 42%, and ops_per_s as measured spread 0.34 (quartile
distance over median).  So the probe is timed between ops every
``PROBE_INTERVAL_S``, and times and rates are reported for a reference
host, on which the probe takes ``REF_PROBE_MS``: each time is scaled by
REF_PROBE_MS over the median probe of the run, each rate by the inverse.
In those runs that cut the spread of ops_per_s to 0.12.  The probe runs
only benchmark code, so a change to msvc moves the reported figures and not
the probe.  ``peak_rss_mb`` is as measured.  The figures as measured and
the probe are printed above the result line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each input
once untraced and once traced, in alternating order so that neither side
gets the warmer caches; traced ops record spans around the calls into each
module (``tracing.py``).  It prints per-layer self times and counters of
the traced pass, the share of op time each layer takes, the tracing
overhead (traced over untraced op time), and ``op_ms.p90`` of the untraced
ops, which spreads too much from seed to seed to bound.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
repeat the metrics for a reader.  The program is imported from ``src/`` of
the checkout this file sits in; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
PROBE_LOOPS = 100_000
REF_PROBE_MS = 8.0
PROBE_INTERVAL_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "input_edges_per_s": "edges/s",
    "peak_rss_mb": "MB",
}

# Layer times are self times in seconds, as measured, over one traced pass
# over the workload's inputs; counts are of that pass too, so they repeat
# exactly for one seed.  op_ms.p90 is of the untraced ops, scaled to the
# reference host as the end-to-end times are.
PER_LAYER = {
    "op_ms.p90": "ms",
    "instance_io.parse_s": "s",
    "instance_io.write_s": "s",
    "instance_io.bytes_parsed": "B",
    "graph.build_graph_s": "s",
    "graph.build_graph_calls": "count",
    "graph.evaluate_s": "s",
    "graph.evaluate_calls": "count",
    "kernel.kernelize_s": "s",
    "kernel.lift_s": "s",
    "kernel.rule2_steps": "count",
    "kernel.rule2_edges_removed": "count",
    "kernel.rule4_deleted": "count",
    "kernel.rule4_synthetics": "count",
    "kernel.trivial_no": "count",
    "kernel.n_out": "count",
    "kernel.m_out": "count",
    "kernel.vertex_ratio": "ratio",
    "covers.enumerate_s": "s",
    "covers.count": "count",
    "branching.self_s": "s",
    "branching.mappings": "count",
    "branching.branches": "count",
    "branching.branches_per_mapping": "ratio",
    "oracles.subset_dp_s": "s",
    "oracles.dp_prefix_s": "s",
    "oracles.dp_states": "count",
    "oracles.brute_s": "s",
    "oracles.brute_perms": "count",
    "analysis.min_max_s": "s",
    "analysis.vc_number_s": "s",
    "generators.generate_s": "s",
    "host.probe_ms": "ms",
    "op.traced_s": "s",
    "trace.overhead_pct": "%",
}

# per-layer time metric -> span name whose self time it reports
SELF_TIME = {
    "instance_io.parse_s": "instance_io.parse",
    "instance_io.write_s": "instance_io.write",
    "graph.build_graph_s": "graph.build_graph",
    "graph.evaluate_s": "graph.evaluate",
    "kernel.kernelize_s": "kernel.kernelize",
    "kernel.lift_s": "kernel.lift",
    "covers.enumerate_s": "covers.enumerate",
    "branching.self_s": "branching.branch_solve",
    "oracles.subset_dp_s": "oracles.subset_dp",
    "oracles.dp_prefix_s": "oracles.dp_prefix",
    "oracles.brute_s": "oracles.brute",
    "analysis.min_max_s": "analysis.min_max",
    "analysis.vc_number_s": "analysis.vc_number",
}
CALLS = {
    "graph.build_graph_calls": "graph.build_graph",
    "graph.evaluate_calls": "graph.evaluate",
}
COUNTS = (
    "instance_io.bytes_parsed",
    "kernel.rule2_steps",
    "kernel.rule2_edges_removed",
    "kernel.rule4_deleted",
    "kernel.rule4_synthetics",
    "kernel.trivial_no",
    "kernel.n_out",
    "kernel.m_out",
    "covers.count",
    "branching.mappings",
    "branching.branches",
    "oracles.dp_states",
    "oracles.brute_perms",
)


def import_msvc():
    """Import msvc from this checkout's src/; returns (package, seconds)."""
    src = ROOT / "src"
    if not (src / "msvc" / "__init__.py").is_file():
        print(f"perfbench: no msvc sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import msvc

    elapsed = time.perf_counter() - start
    if Path(msvc.__file__).resolve().parent != src / "msvc":
        print(f"perfbench: imported msvc from {msvc.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return msvc, elapsed


@dataclass
class Op:
    index: int  # of the input in the workload's cases
    case: object
    seconds: float
    output: object
    raised: bool


def probe_ms() -> float:
    """Time of a fixed pure-Python loop: the host probe."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def run_loop(cases, seconds: float):
    """Cycle through cases until ``seconds`` have passed and each case ran
    once, with a host probe every PROBE_INTERVAL_S taken between ops.

    Returns (ops, probe times in ms).
    """
    ops, probes = [], []
    start = time.perf_counter()
    next_probe = start
    while len(ops) < len(cases) or time.perf_counter() - start < seconds:
        index = len(ops) % len(cases)
        case = cases[index]
        while time.perf_counter() >= next_probe:
            probes.append(probe_ms())
            next_probe += PROBE_INTERVAL_S
        t = time.perf_counter()
        try:
            out, raised = case.run(), False
        except Exception:  # one failed op must not stop the run
            traceback.print_exc(file=sys.stderr)
            out, raised = None, True
        ops.append(Op(index, case, time.perf_counter() - t, out, raised))
    probes.append(probe_ms())
    return ops, probes


def host_scale(probes) -> float:
    """Median probe over the reference probe: > 1 on a slower host."""
    return statistics.median(probes) / REF_PROBE_MS


def gate(workload, ops) -> int:
    """Check every output; return the number of failed ops.  An op fails
    when it raised or when its group's outputs do not check out."""
    by_group: dict[int, list] = defaultdict(list)
    for op in ops:
        by_group[op.case.group].append(op)
    failed = 0
    for group, group_ops in by_group.items():
        outputs: dict[str, list] = defaultdict(list)
        for op in group_ops:
            if not op.raised:
                outputs[op.case.kind].append(op.output)
        try:
            reason = workload.check(group, outputs)
        except Exception:  # a malformed output must count, not crash the gate
            reason = traceback.format_exc()
        if reason is not None:
            print(f"perfbench: wrong output in group {group}: {reason}", file=sys.stderr)
            failed += len(group_ops)
        else:
            failed += sum(1 for op in group_ops if op.raised)
    return failed


def end_to_end(setup_s: float, ops, scale: float) -> dict:
    """Metrics over inputs, with every time divided by scale."""
    by_input = defaultdict(list)
    for op in ops:
        by_input[op.index].append(op.seconds / scale)
    latency = {i: statistics.fmean(ts) for i, ts in by_input.items()}
    busy = sum(latency.values())
    edges = {op.index: op.case.edges for op in ops}
    return {
        "setup_s": setup_s / scale,
        "ops_per_s": len(latency) / busy,
        "op_ms.p50": statistics.median(latency.values()) * 1e3,
        "input_edges_per_s": sum(edges.values()) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, generate_s: float, plain, traced, probes) -> dict:
    """Layer metrics of one traced pass; plain holds the untraced ops."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counters
    op_s = sum(s.end - s.start for s in tracer.spans if s.name == "op")
    out = {m: self_s.get(name, 0.0) for m, name in SELF_TIME.items()}
    out.update({m: calls.get(name, 0) for m, name in CALLS.items()})
    out.update({m: c.get(m, 0) for m in COUNTS})
    out["kernel.vertex_ratio"] = c["kernel.n_out"] / c["kernel.n_in"] if c.get("kernel.n_in") else 0.0
    mappings = c.get("branching.mappings", 0)
    out["branching.branches_per_mapping"] = c["branching.branches"] / mappings if mappings else 0.0
    out["generators.generate_s"] = generate_s
    scale = host_scale(probes)
    out["host.probe_ms"] = scale * REF_PROBE_MS
    out["op.traced_s"] = op_s
    plain_s = [op.seconds / scale for op in plain]
    out["op_ms.p90"] = statistics.quantiles(plain_s, n=10, method="inclusive")[8] * 1e3
    out["trace.overhead_pct"] = (sum(op.seconds for op in traced) / sum(op.seconds for op in plain) - 1) * 100
    layer_s = defaultdict(float)
    for name, s in self_s.items():
        layer_s[name.split(".")[0]] += s
    for layer in LAYERS:
        out[f"share.{layer}"] = layer_s[layer] / op_s
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("solve-gnp", "kernel-hubs", "oracle-exact"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: minimal inputs for the self-test")
    args = ap.parse_args(argv)

    msvc, import_s = import_msvc()
    from workloads import WORKLOADS, Case  # after msvc, so setup_s includes numpy's import

    build = WORKLOADS[args.workload]
    tiny = args.scale == "tiny"
    tracer = Tracer(msvc) if args.trace else None
    gen_s, generate_s = [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # free the previous inputs before building new ones
        if tracer:
            tracer.reset()
            tracer.install()
        start = time.perf_counter()
        try:
            workload = build(msvc, args.seed, tiny)
        finally:
            if tracer:
                tracer.uninstall()
        gen_s.append(time.perf_counter() - start)
        if tracer:
            generate_s.append(tracer.self_times().get("generators.generate", 0.0))
    setup_s = import_s + statistics.median(gen_s)

    if tracer:
        paired = []
        for i, case in enumerate(workload.cases):
            wrapped = Case(case.group, case.kind, case.edges, lambda run=case.run: tracer.op(run))
            paired += [case, wrapped] if i % 2 == 0 else [wrapped, case]
        tracer.reset()
        ops, probes = run_loop(paired, 0.0)
        untraced = {id(case) for case in workload.cases}
        plain = [op for op in ops if id(op.case) in untraced]
        traced = [op for op in ops if id(op.case) not in untraced]
        metrics = per_layer(tracer, statistics.median(generate_s), plain, traced, probes)
        units = PER_LAYER
    else:
        ops, probes = run_loop(workload.cases, args.seconds)
        metrics = end_to_end(setup_s, ops, host_scale(probes))
        raw = end_to_end(setup_s, ops, 1.0)
        units = END_TO_END

    failed = gate(workload, ops)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(ops)} ops on {len(workload.cases)} inputs")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    print(f"  {'error_rate':32s} {failed / len(ops):14.6g} failed/attempted")
    if args.trace:
        print("  share of traced op time: " + "  ".join(
            f"{layer} {metrics['share.' + layer]:.3f}" for layer in LAYERS))
    else:
        print(f"  op_ms.p50 over {len(workload.cases)} inputs.  Host probe median "
              f"{statistics.median(probes):.3f} ms over {len(probes)} probes "
              f"(reference {REF_PROBE_MS} ms).  As measured: "
              + ", ".join(f"{name} {raw[name]:.6g}" for name in ("setup_s", "ops_per_s", "op_ms.p50")))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
