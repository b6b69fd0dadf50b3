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
)

from conftest import p3, triangle


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


def test_ordering_error_names_only_the_first_bad_id():
    seq = list(range(100_000))
    seq[70_000] = 123
    with pytest.raises(OrderingError) as exc:
        Ordering.from_sequence(seq)
    message = str(exc.value)
    assert "vertex id 123 at position 70001" in message and len(message) < 200
    with pytest.raises(OrderingError, match="vertex id 5 at position 2 is outside 0..2"):
        Ordering.from_sequence([0, 5, 1])


def test_ordering_from_prefix():
    # the prefix keeps its order and the other vertices follow ascending
    assert Ordering.from_prefix([3, 0], 5).sequence == (3, 0, 1, 2, 4)
    assert Ordering.from_prefix(np.array([4, 2], dtype=np.int64), 5).sequence == (4, 2, 0, 1, 3)
    # the ids stay Python ints whatever the prefix's integer dtype
    unsigned = Ordering.from_prefix(np.array([2], dtype=np.uint64), 3).sequence
    assert unsigned == (2, 0, 1) and all(type(v) is int for v in unsigned)
    assert Ordering.from_prefix([], 4) == Ordering.identity(4)
    assert Ordering.from_prefix([], 0) == Ordering.identity(0)
    assert Ordering.from_prefix([2, 0, 3, 1], 4) == Ordering.from_sequence([2, 0, 3, 1])
    with pytest.raises(OrderingError, match="vertex id 1 at position 3 repeats an earlier id"):
        Ordering.from_prefix([1, 2, 1], 5)
    with pytest.raises(OrderingError, match="vertex id 5 at position 2 is outside 0..4"):
        Ordering.from_prefix([0, 5], 5)
    with pytest.raises(OrderingError, match="vertex id -1 at position 1 is outside 0..4"):
        Ordering.from_prefix([-1], 5)
    with pytest.raises(OrderingError):
        Ordering.from_prefix([0, 1, 2], 2)


def test_ordering_position_is_inverse_of_sequence():
    o = Ordering.from_sequence([2, 0, 3, 1])
    assert o.position == (2, 4, 1, 3)
    assert o.n == 4
    assert Ordering.identity(3).position == (1, 2, 3)
    assert Ordering.identity(0).position == ()


@pytest.mark.parametrize("n, width", [(255, 1), (256, 1), (257, 4)])
def test_ordering_packs_ids_by_n(n, width):
    # one byte per id up to n = 256, four beyond, so the byte length tells
    # the width: at most 256 bytes, or at least 4 * 257
    o = Ordering.from_prefix([n - 1], n)
    assert len(o.ids) == width * n and o.n == n
    assert o.array.dtype.itemsize == width and not o.array.flags.writeable
    assert o.sequence == (n - 1,) + tuple(range(n - 1))
    assert Ordering.identity(n).ids == np.arange(n, dtype=o.array.dtype).tobytes()


def test_max_vertices_fit_packed_ids():
    assert msvc.graph.MAX_VERTICES < 2**32


@pytest.mark.parametrize("n", [0, 1, 5, 256, 300])
def test_packed_ordering_agrees_with_tuple_form(n):
    rng = np.random.default_rng(n)
    seqs = [tuple(rng.permutation(n).tolist()) for _ in range(4)] + [tuple(range(n))]
    orderings = [Ordering.from_sequence(seq) for seq in seqs]
    for seq, o in zip(seqs, orderings):
        assert o.sequence == seq and all(type(v) is int for v in o.sequence)
        position = [0] * n
        for i, v in enumerate(seq, 1):
            position[v] = i
        assert o.position == tuple(position)
        assert o.n == n and list(o.array) == list(seq)
    for a, sa in zip(orderings, seqs):
        for b, sb in zip(orderings, seqs):
            assert (a == b) == (sa == sb)
            if sa == sb:
                assert hash(a) == hash(b)
    assert len(set(orderings)) == len(set(seqs))
    assert Ordering.identity(n) == orderings[-1]


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
    pos = {v: i for i, v in enumerate(ordering.sequence, 1)}
    for i, v in enumerate(ordering.sequence, 1):
        count = sum(1 for x in g.adj[v] if pos[x] > i)
        assert rep.r[i - 1] == count


@settings(max_examples=100, deadline=None)
@given(graph_and_ordering(), st.randoms(use_true_random=False))
def test_evaluate_relabel_invariance(pair, rnd):
    g, ordering = pair
    relabel = list(range(g.n))
    rnd.shuffle(relabel)
    g2 = build_graph(g.n, [(relabel[u], relabel[v]) for u, v in g.edges])
    seq2 = [relabel[v] for v in ordering.sequence]
    rep1 = evaluate(g, ordering)
    rep2 = evaluate(g2, Ordering.from_sequence(seq2))
    assert rep1 == rep2


@settings(max_examples=100, deadline=None)
@given(graph_and_ordering())
def test_cover_prefix_bounds_max_cost(pair):
    g, ordering = pair
    rep = evaluate(g, ordering)
    for k in range(g.n + 1):
        prefix = set(ordering.sequence[:k])
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
