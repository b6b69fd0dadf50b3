"""Self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Runs every workload with ``--scale tiny``, untraced and traced, on two
seeds, and checks that:

- the last output line is the result object, with every metric that
  BENCHMARK.json names, each with its unit, and ``failed`` = 0;
- the traced run reports the layers the benchmark is meant to separate,
  and each workload spends time in the layers it exists to measure;
- in a directory holding only BENCHMARK.json and this directory, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)
TIMEOUT_S = 180

# module layers of msvc a traced run reports, plus the host noise probe
LAYER_NAMES = (
    "instance_io", "graph", "kernel", "covers", "branching",
    "oracles", "analysis", "generators", "host",
)
# metrics a traced run of each workload must find above zero
BUSY = {
    "solve-gnp": ("branching.self_s", "covers.enumerate_s", "branching.mappings", "generators.generate_s"),
    "kernel-hubs": ("instance_io.parse_s", "graph.build_graph_s", "kernel.kernelize_s",
                    "kernel.rule2_steps", "kernel.rule4_deleted", "kernel.trivial_no"),
    "oracle-exact": ("oracles.subset_dp_s", "oracles.dp_prefix_s", "oracles.brute_s",
                     "analysis.min_max_s", "analysis.vc_number_s"),
}


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_run(spec: dict, workload: str, seed: int, trace: int) -> list[str]:
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    where = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct {result['correct']}, failed {result['failed']} "
                      f"of {result['attempted']}: {proc.stderr[-500:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        errors.append(f"{where}: metrics/units differ from BENCHMARK.json: {got} vs {wanted}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if any(not isinstance(v, (int, float)) for v in values.values()):
        errors.append(f"{where}: non-numeric metric value")
    elif not trace and min(values.values()) <= 0:
        errors.append(f"{where}: an end-to-end metric is not positive: {values}")
    elif trace and any(values.get(name, 0) <= 0 for name in BUSY[workload]):
        errors.append(f"{where}: idle layer among {BUSY[workload]}: {values}")
    return errors


def check_spec(spec: dict) -> list[str]:
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(BUSY):
        errors.append(f"workloads {spec['workloads']} differ from {list(BUSY)}")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        errors.append("end_to_end in BENCHMARK.json differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != run.PER_LAYER:
        errors.append("per_layer in BENCHMARK.json differs from run.PER_LAYER")
    layers = {m["name"].split(".")[0] for m in spec["per_layer"]} - {"op", "op_ms", "trace"}
    if layers != set(LAYER_NAMES):
        errors.append(f"per-layer metrics cover layers {sorted(layers)}, expected {LAYER_NAMES}")
    traced = {name.split(".")[0] for _, _, name in tracing.WRAPPED}
    if traced != set(tracing.LAYERS) | {"generators"}:
        errors.append(f"wrapped spans name layers {sorted(traced)}, expected {tracing.LAYERS}")
    return errors


def check_bare_directory() -> list[str]:
    """Without src/ the benchmark must fail without printing a result."""
    bare = Path(tempfile.mkdtemp(prefix=".bench_selftest-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", "solve-gnp", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_spec(spec)
    for workload in BUSY:
        for seed in SEEDS:
            for trace in (0, 1):
                found = check_run(spec, workload, seed, trace)
                print(f"{'FAIL' if found else 'ok  '} {workload} seed {seed} trace {trace}", flush=True)
                errors += found
    errors += check_bare_directory()
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
