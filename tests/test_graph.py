import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msvc
from msvc import (
    GraphError,
    Instance,
    Ordering,
    OrderingError,
    build_graph,
    evaluate,
    is_feasible,
    is_vertex_cover,
    sorted_by_degree,
)

from conftest import p3, triangle, star


def test_build_graph_p3():
    g = p3()
    assert g.n == 3 and g.m == 2
    assert g.degrees == (1, 2, 1)
    assert g.edges == ((0, 1), (1, 2))


def test_build_graph_rejects_self_loop():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 0)])


def test_build_graph_rejects_duplicate():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 2)])


def test_build_graph_isolated():
    g = build_graph(1, [])
    assert g.n == 1 and g.m == 0


def test_sorted_by_degree_star():
    g = star(5)
    assert sorted_by_degree(g) == [0, 1, 2, 3, 4, 5]


def test_sorted_by_degree_p3():
    assert sorted_by_degree(p3()) == [1, 0, 2]


def test_sorted_by_degree_edgeless_ties():
    g = build_graph(3, [])
    assert sorted_by_degree(g) == [0, 1, 2]


def test_evaluate_p3_middle_first():
    rep = evaluate(p3(), Ordering.from_sequence([1, 0, 2]))
    assert rep.total == 2 and rep.max_cost == 1
    assert rep.r == (2, 0, 0)


def test_evaluate_triangle_any_ordering():
    rep = evaluate(triangle(), Ordering.from_sequence([0, 1, 2]))
    assert rep.total == 4 and rep.max_cost == 2
    assert rep.r == (2, 1, 0)


def test_evaluate_edgeless():
    g = build_graph(3, [])
    rep = evaluate(g, Ordering.identity(3))
    assert rep.total == 0 and rep.max_cost == 0


def test_evaluate_rejects_non_bijection():
    with pytest.raises(OrderingError):
        Ordering.from_sequence([0, 0, 1])
    with pytest.raises(OrderingError):
        evaluate(p3(), Ordering.identity(4))


def test_ordering_position_is_inverse_of_sequence():
    o = Ordering.from_sequence([2, 0, 3, 1])
    assert o.position == (2, 4, 1, 3)
    assert [o.pos(v) for v in range(4)] == [2, 4, 1, 3]
    assert [o.at(p) for p in range(1, 5)] == [2, 0, 3, 1]
    assert Ordering.from_positions(o.position) == o and o.n == 4
    assert Ordering.identity(3).position == (1, 2, 3)
    assert Ordering.identity(0).position == ()


def test_is_feasible_examples():
    inst = Instance(p3(), w=2, k=1)
    assert is_feasible(inst, Ordering.from_sequence([1, 0, 2]))
    assert not is_feasible(Instance(p3(), w=1, k=1), Ordering.from_sequence([1, 0, 2]))
    tri = Instance(triangle(), w=100, k=1)
    assert not is_feasible(tri, Ordering.from_sequence([0, 1, 2]))


def test_is_vertex_cover():
    g = p3()
    assert is_vertex_cover(g, {1})
    assert not is_vertex_cover(g, {0})
    assert is_vertex_cover(build_graph(3, []), set())


def test_instance_normalizes_k():
    inst = Instance(p3(), w=5, k=99)
    assert inst.k == 3


def test_instance_rejects_negative():
    with pytest.raises(ValueError):
        Instance(p3(), w=-1, k=1)
    with pytest.raises(ValueError):
        Instance(p3(), w=1, k=-1)


@st.composite
def graph_and_ordering(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))) if possible else []
    seq = draw(st.permutations(list(range(n))))
    return build_graph(n, edges), Ordering.from_sequence(seq)


@settings(max_examples=200, deadline=None)
@given(graph_and_ordering())
def test_cost_report_invariants(pair):
    """Per-edge charging and per-position counting must agree."""
    g, ordering = pair
    rep = evaluate(g, ordering)
    assert sum(rep.r) == g.m
    assert rep.total == sum(i * rep.r[i - 1] for i in range(1, g.n + 1))
    if g.m:
        assert rep.max_cost == max(i for i in range(1, g.n + 1) if rep.r[i - 1] > 0)
    else:
        assert rep.max_cost == 0
    # independent per-position recount: edges first covered at position i
    for i in range(1, g.n + 1):
        v = ordering.at(i)
        count = sum(1 for x in g.adj[v] if ordering.pos(x) > i)
        assert rep.r_at(i) == count


@settings(max_examples=100, deadline=None)
@given(graph_and_ordering(), st.randoms(use_true_random=False))
def test_evaluate_relabel_invariance(pair, rnd):
    g, ordering = pair
    relabel = list(range(g.n))
    rnd.shuffle(relabel)
    g2 = build_graph(g.n, [(relabel[u], relabel[v]) for u, v in g.edges])
    pos2 = [0] * g.n
    for v in range(g.n):
        pos2[relabel[v]] = ordering.pos(v)
    rep1 = evaluate(g, ordering)
    rep2 = evaluate(g2, Ordering.from_positions(pos2))
    assert rep1 == rep2


@settings(max_examples=100, deadline=None)
@given(graph_and_ordering())
def test_cover_prefix_bounds_max_cost(pair):
    g, ordering = pair
    rep = evaluate(g, ordering)
    for k in range(g.n + 1):
        prefix = {ordering.at(i) for i in range(1, k + 1)}
        if is_vertex_cover(g, prefix):
            assert rep.max_cost <= k


def test_library_has_no_assert_statements():
    """python -O strips assert statements, so library invariants raise
    InvariantError instead."""
    offenders = []
    for path in sorted(Path(msvc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert offenders == []


def reference_build(n, edge_list):
    """The list-based construction the array core replaced: (edges, adj,
    degrees), or the GraphError message of the first offending edge."""
    normalized = []
    for u, v in edge_list:
        if not (0 <= u < n) or not (0 <= v < n):
            return f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}"
        if u == v:
            return f"self-loop at vertex {u}"
        normalized.append((u, v) if u < v else (v, u))
    normalized.sort()
    for i in range(1, len(normalized)):
        if normalized[i] == normalized[i - 1]:
            return f"duplicate edge {normalized[i]}"
    neighbors = [[] for _ in range(n)]
    for u, v in normalized:
        neighbors[u].append(v)
        neighbors[v].append(u)
    return tuple(normalized), tuple(map(tuple, neighbors)), tuple(map(len, neighbors))


@st.composite
def raw_edge_lists(draw):
    """Vertex counts with edge lists that mix valid edges, out-of-range
    endpoints, self-loops and duplicates."""
    n = draw(st.integers(min_value=0, max_value=9))
    wide = draw(st.booleans())
    endpoint = st.integers(min_value=-2, max_value=n + 1) if wide else st.integers(0, max(n - 1, 0))
    return n, draw(st.lists(st.tuples(endpoint, endpoint), max_size=24))


@settings(max_examples=400, deadline=None)
@given(raw_edge_lists())
def test_build_graph_matches_reference(case):
    n, pairs = case
    want = reference_build(n, pairs)
    for edge_input in (pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2)):
        try:
            g = build_graph(n, edge_input)
        except GraphError as exc:
            assert str(exc) == want
        else:
            assert (g.edges, g.adj, g.degrees) == want
            assert g.m == len(g.edges) and g.deg.tolist() == list(g.degrees)


def test_build_graph_endpoint_beyond_int64():
    with pytest.raises(GraphError, match=r"edge \(0, 1\) has an endpoint outside 0\.\.0"):
        build_graph(1, [(0, 1), (2**70, 0)])
    with pytest.raises(GraphError, match=r"edge \(1, 36893488147419103232\)"):
        build_graph(3, [(0, 1), (1, 2**65)])


def test_graph_value_equality():
    a = build_graph(4, [(2, 3), (0, 1)])
    b = build_graph(4, np.array([[1, 0], [3, 2]]))
    assert a == b and hash(a) == hash(b)
    assert a != build_graph(5, [(0, 1), (2, 3)])
    assert Instance(a, w=3, k=2) == Instance(b, w=3, k=2)
