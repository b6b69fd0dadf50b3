import json

import pytest

from msvc import (
    Instance,
    InvariantError,
    LiftError,
    brute_force_optimal,
    build_graph,
    parse_instance,
    write_instance,
)
from msvc import cli
from msvc.cli import main

from conftest import p3, triangle


def write_p3(tmp_path, w=2, k=1):
    path = tmp_path / "p3.msvc"
    path.write_text(write_instance(Instance(p3(), w=w, k=k)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_yes(tmp_path, capsys):
    code, out, _ = run(capsys, ["solve", write_p3(tmp_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] == "yes"
    assert payload["total_cost"] == 2 and payload["max_cost"] == 1
    assert payload["ordering"] == [2, 1, 3]
    stats = payload["stats"]
    assert set(stats) == {"covers_enumerated", "incumbent", "dp_states", "elapsed"}
    assert stats["incumbent"] == 2  # the greedy ordering of P3 is optimal


def test_solve_reports_dp_counters(tmp_path, capsys):
    # the five covers of K5 at k = 4 have at most 2^4 DP states each
    path = tmp_path / "k5.msvc"
    k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    path.write_text(write_instance(Instance(k5, w=20, k=4)))
    code, out, _ = run(capsys, ["solve", "--no-kernel", str(path)])
    stats = json.loads(out)["stats"]
    assert code == 0
    assert stats["covers_enumerated"] == 5
    assert 0 < stats["dp_states"] <= 5 * 2**4


def test_solve_no_exit_code(tmp_path, capsys):
    code, out, _ = run(capsys, ["solve", write_p3(tmp_path, w=1)])
    assert code == 1
    assert json.loads(out)["decision"] == "no"


def test_solve_no_kernel_flag(tmp_path, capsys):
    code, out, _ = run(capsys, ["solve", write_p3(tmp_path), "--no-kernel"])
    assert code == 0
    assert json.loads(out)["total_cost"] == 2


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, ["solve", "/nonexistent/file.msvc"])
    assert code == 2 and "error" in err


@pytest.mark.parametrize("error", [InvariantError, LiftError, TypeError])
def test_solve_internal_error_exits_2(tmp_path, capsys, monkeypatch, error):
    def broken(inst):
        raise error("re-verification failed")

    monkeypatch.setattr(cli, "solve", broken)
    code, out, err = run(capsys, ["solve", write_p3(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith("error: re-verification failed")
    # only an unexpected exception, a bug, shows its traceback
    assert ("Traceback (most recent call last)" in err) == (error is TypeError)


def test_kernelize_writes_instance_and_trace(tmp_path, capsys):
    star = build_graph(6, [(0, i) for i in range(1, 6)])
    inst_path = tmp_path / "star.msvc"
    inst_path.write_text(write_instance(Instance(star, w=5, k=1)))
    out_path = tmp_path / "kernel.msvc"
    trace_path = tmp_path / "trace.json"
    code, _, _ = run(
        capsys,
        ["kernelize", str(inst_path), "--out", str(out_path), "--trace", str(trace_path)],
    )
    assert code == 0
    kernel = parse_instance(out_path.read_text())
    assert kernel.graph.n == 3 and kernel.w == 2
    trace = json.loads(trace_path.read_text())
    assert trace["w_offset"] == 3
    assert len(trace["vertex_map"]) == 3
    rules = [s["rule"] for s in trace["steps"]]
    assert rules == [2, 4]
    assert trace["steps"][1]["added_x"] == trace["steps"][1]["p"]


def test_kernelize_trace_past_numpy_sort_threshold(tmp_path, capsys):
    """From 4096 vertices on the degree sort runs in numpy; the trace must
    still hold plain integers that serialize."""
    leaves = 5000
    star = build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    inst_path = tmp_path / "star.msvc"
    inst_path.write_text(write_instance(Instance(star, w=leaves, k=1)))
    trace_path = tmp_path / "trace.json"
    code, _, _ = run(capsys, ["kernelize", str(inst_path), "--trace", str(trace_path)])
    assert code == 0
    trace = json.loads(trace_path.read_text())
    assert trace["w_offset"] == leaves - 2
    assert [s["rule"] for s in trace["steps"]] == [2, 4]


def test_kernelize_trivial_no(tmp_path, capsys):
    path = tmp_path / "tri.msvc"
    path.write_text(write_instance(Instance(triangle(), w=9, k=1)))
    code, out, _ = run(capsys, ["kernelize", str(path)])
    assert code == 1
    assert json.loads(out)["trivial_no"] == "rule1"


@pytest.mark.parametrize("method,expect_cost", [("brute", 2), ("dp", 2)])
def test_oracle_methods(tmp_path, capsys, method, expect_cost):
    code, out, _ = run(capsys, ["oracle", write_p3(tmp_path), "--method", method])
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] and payload["cost"] == expect_cost


def test_oracle_regular_rejects_irregular(tmp_path, capsys):
    code, _, err = run(capsys, ["oracle", write_p3(tmp_path), "--method", "regular"])
    assert code == 2 and "regular" in err


def test_oracle_infeasible(tmp_path, capsys):
    path = tmp_path / "tri.msvc"
    path.write_text(write_instance(Instance(triangle(), w=9, k=1)))
    code, out, _ = run(capsys, ["oracle", str(path), "--method", "dp"])
    assert code == 1
    assert json.loads(out) == {"feasible": False}


def test_enum_mvc(tmp_path, capsys):
    code, out, _ = run(capsys, ["enum-mvc", write_p3(tmp_path, k=2)])
    assert code == 0
    assert out.splitlines() == ["1 3", "2"]


def test_gen_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, ["gen", "gnp", "8", "0.5", "--seed", "7", "--k", "3"])
    assert code == 0
    inst = parse_instance(out)
    assert inst.graph.n == 8 and inst.k == 3
    code2, out2, _ = run(capsys, ["gen", "gnp", "8", "0.5", "--seed", "7", "--k", "3"])
    assert out == out2


def test_gen_claw_chain_defaults(tmp_path, capsys):
    code, out, _ = run(capsys, ["gen", "claw_chain", "6"])
    assert code == 0
    inst = parse_instance(out)
    assert inst.graph.n == 19 and inst.graph.m == 18


@pytest.mark.parametrize("argv", [["gen", "star", "3.0"], ["gen", "gnp", "8"], ["gen", "path", "1e1"]])
def test_gen_bad_params_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    if argv[-1] == "1e1":
        # read as the float 10.0, so the generator names the parameter
        assert "must be an integer, got 10.0" in err


@pytest.mark.parametrize("argv", [["gen", "gnp", "5", "0.5", "--k", "-1"], ["bench", "--k", "-2"]])
def test_negative_k_is_named_exit_2(capsys, argv):
    # the default w is derived from k, so k must be checked first
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "parameter k" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--n-min", "5", "--n-max", "3"],
        ["analyze", "--n-min", "5", "--n-max", "3"],
        ["bench", "--per-size", "0"],
        ["analyze", "--per-size", "0"],
        ["analyze", "--per-size", "-1"],
    ],
)
def test_empty_corpus_exit_2(capsys, argv):
    # no rows is no answer, so it must not exit 0, which means "yes/success"
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --")


def test_verify_feasible(tmp_path, capsys):
    inst_path = write_p3(tmp_path)
    ord_path = tmp_path / "ord.txt"
    ord_path.write_text("2 1 3\n")
    code, out, _ = run(capsys, ["verify", inst_path, str(ord_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] and payload["total_cost"] == 2


def test_verify_infeasible_budget(tmp_path, capsys):
    inst_path = write_p3(tmp_path)
    ord_path = tmp_path / "ord.txt"
    ord_path.write_text("1 2 3\n")
    code, out, _ = run(capsys, ["verify", inst_path, str(ord_path)])
    assert code == 1
    assert json.loads(out)["total_cost"] == 3


def test_verify_rejects_bad_ordering(tmp_path, capsys):
    inst_path = write_p3(tmp_path)
    ord_path = tmp_path / "ord.txt"
    ord_path.write_text("1 1 3\n")
    code, _, err = run(capsys, ["verify", inst_path, str(ord_path)])
    assert code == 2 and "error" in err


def test_bench_rows_match_oracle(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code, out, _ = run(
        capsys,
        [
            "bench",
            "--n-min", "4", "--n-max", "5",
            "--per-size", "2", "--seed", "3",
            "--csv", str(csv_path),
        ],
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows
    for row in rows:
        assert row["cost"] == row["oracle_cost"]
        assert row["covers_enumerated"] >= 0 and row["dp_states"] >= 0
        assert "incumbent" in row
    assert csv_path.read_text().startswith("id,")


@pytest.mark.parametrize(
    "argv",
    [
        ["--n-min", "3", "--n-max", "7", "--per-size", "2", "--seed", "11"],
        ["--n-min", "5", "--n-max", "6", "--per-size", "1", "--k", "9"],
        ["--n-min", "9", "--n-max", "11", "--per-size", "1", "--k", "4", "--p", "0.3"],
    ],
)
def test_bench_oracle_cost_is_brute_force_optimum(capsys, argv):
    """The per-graph profile gives each row the cost brute_force_optimal(g, k)
    gives, and no oracle cost past the brute-force guard."""
    code, out, _ = run(capsys, ["bench", *argv])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    args = cli.build_parser().parse_args(["bench", *argv])
    graphs = {f"{spec.family}-{idx}": g for idx, spec, g in cli._bench_corpus(args)}
    assert len(rows) == (len(graphs) if args.k is not None else sum(g.n + 1 for g in graphs.values()))
    for row in rows:
        g = graphs[row["id"].rsplit("-k", 1)[0]]
        if g.n > cli.BRUTE_FORCE_GUARD:
            assert row["oracle_cost"] is None
        else:
            want = brute_force_optimal(g, row["k"])
            assert row["oracle_cost"] == (None if want is None else want[0])


def test_analyze_rows(capsys):
    code, out, _ = run(
        capsys,
        ["analyze", "--n-min", "4", "--n-max", "5", "--per-size", "2", "--seed", "5"],
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 4
    for row in rows:
        assert {"graph_id", "n", "m", "tau", "opt_cost", "min_max_cost", "gap_to_tau"} <= set(row)
        if row.get("bound") is not None:
            assert row["bound_holds"]
