import hashlib
import os
import subprocess
import sys
from contextlib import contextmanager
from itertools import permutations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msvc.oracles as oracles
from msvc import (
    GeneratorSpec,
    Instance,
    Ordering,
    OracleGuardError,
    branch_solve,
    build_dp_table,
    build_graph,
    brute_force_optimal,
    brute_force_profile,
    enumerate_minimal_covers,
    evaluate,
    generate,
    min_max_cost_over_optima,
    regular_solve,
    subset_dp_optimal,
)

from conftest import c4, claw_chain6, double_star, k4, p3, p4, petersen, star, triangle


def pure_python_optimal(g, k):
    """Tiny reference evaluator, independent of the numpy batch path."""
    best = None
    best_seq = None
    for seq in permutations(range(g.n)):
        ordering = Ordering.from_sequence(seq)
        rep = evaluate(g, ordering)
        if rep.max_cost <= min(k, g.n) and (best is None or rep.total < best):
            best, best_seq = rep.total, seq
    return None if best is None else (best, best_seq)


def pure_python_profile(g):
    """best[c] over c = 0..n from one evaluate per ordering, no numpy blocks."""
    best = [None] * (g.n + 1)
    for seq in permutations(range(g.n)):
        rep = evaluate(g, Ordering.from_sequence(seq))
        for c in range(rep.max_cost, g.n + 1):
            if best[c] is None or rep.total < best[c]:
                best[c] = rep.total
    return best


# ------------------------------------------------------------ brute force

def test_brute_p3():
    cost, ordering = brute_force_optimal(p3(), 1)
    assert cost == 2 and ordering.sequence == (1, 0, 2)


def test_brute_triangle_k1_infeasible():
    assert brute_force_optimal(triangle(), 1) is None


def test_brute_triangle_k2():
    cost, _ = brute_force_optimal(triangle(), 2)
    assert cost == 4


def test_brute_guard():
    g = build_graph(11, [])
    with pytest.raises(OracleGuardError):
        brute_force_optimal(g, 3)


def test_brute_profile_guard():
    with pytest.raises(OracleGuardError):
        brute_force_profile(build_graph(11, [(0, 1)]))


@pytest.mark.parametrize("n", range(10))
def test_blocks_enumerate_lexicographically(n):
    """Head plus tail sequence, column by column, lists every ordering once,
    in lexicographic order."""
    got = []
    for head, tail, slots, *_ in oracles._blocks(build_graph(n, [])):
        assert slots.dtype == np.uint8 and slots.shape[0] == len(tail) == min(n, oracles._TAIL)
        tails = np.array(tail, dtype=np.int64)[np.argsort(slots, axis=0).T]
        got += [tuple(head) + seq for seq in map(tuple, tails.tolist())]
    assert got == list(permutations(range(n)))


def test_import_builds_no_permutation_table():
    code = "import msvc, msvc.oracles as o; print(o._tail_table.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(oracles.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "0"


def test_narrow_dtype_bounds():
    """A filled DP value is at most m * (n + 1), within int16; a tail sums at
    most comb(_TAIL, 2) edge minima of at most _TAIL - 2 each, within uint8
    below the 255 sentinel."""
    guard = oracles.SUBSET_DP_GUARD
    assert comb(guard, 2) * (guard + 1) < oracles.DP_UNFILLED == np.iinfo(np.int16).max
    assert comb(oracles._TAIL, 2) * (oracles._TAIL - 2) < 255


def test_brute_profile_prefix_min():
    prof = brute_force_profile(triangle())
    assert prof[0] is None and prof[1] is None and prof[2] == 4 and prof[3] == 4


# ------------------------------------------------------------ subset DP

def test_dp_triangle():
    assert subset_dp_optimal(triangle(), 2)[0] == 4


def test_dp_c4():
    cost, ordering = subset_dp_optimal(c4(), 2)
    assert cost == 6
    assert evaluate(c4(), ordering).max_cost <= 2


def test_dp_k15():
    assert subset_dp_optimal(star(5), 1)[0] == 5


def test_dp_guard():
    g = build_graph(25, [])
    with pytest.raises(OracleGuardError):
        subset_dp_optimal(g, 3)


def test_dp_table_accounting():
    """evaluate(reconstruction) must equal the prefix value of the final cover."""
    g = c4()
    k = 2
    cost, ordering = subset_dp_optimal(g, k)
    table = build_dp_table(g, k)
    prefix = 0
    for v in ordering.sequence[:k]:
        prefix |= 1 << v
    assert table.value[prefix] == cost
    assert evaluate(g, ordering).total == cost


@pytest.mark.parametrize("k", [0, 2, 4, 6])
def test_dp_table_fills_layers_up_to_k(k):
    """value[S] caps every charge at |S| + 1; masks above k stay unfilled,
    and the covers kept are exactly the vertex covers of at most k vertices
    at the least value among them."""
    g = generate(GeneratorSpec("gnp", (6, 0.4), seed=61))
    table = build_dp_table(g, k)
    sizes = [bin(mask).count("1") for mask in range(1 << g.n)]
    covers = [mask for mask in range(1 << g.n) if sizes[mask] <= k
              and all((mask >> u) & 1 or (mask >> v) & 1 for u, v in g.edges)]
    least = min((table.value[mask] for mask in covers), default=None)
    best = [mask for mask in covers if table.value[mask] == least]
    assert table.covers.tolist() == sorted(best, key=lambda mask: (sizes[mask], mask))
    for mask in range(1 << g.n):
        if sizes[mask] > k:
            assert table.value[mask] == oracles.DP_UNFILLED
            continue
        first = [v for v in range(g.n) if (mask >> v) & 1]
        capped = min(
            sum(count * min(i, sizes[mask] + 1)
                for i, count in enumerate(evaluate(g, Ordering.from_prefix(seq, g.n)).r, 1))
            for seq in permutations(first)
        )
        assert table.value[mask] == capped


def test_dp_empty_graph():
    g = build_graph(0, [])
    assert subset_dp_optimal(g, 0) == (0, Ordering.from_sequence(()))
    assert subset_dp_optimal(build_graph(3, []), -1) is None  # no cover of -1 vertices
    assert brute_force_optimal(build_graph(3, []), -1) is None
    assert regular_solve(build_graph(3, []), -1) is None
    assert regular_solve(build_graph(30, []), -1) is None


# ------------------------------------------------------------ cross checks

@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))) if possible else []
    return build_graph(n, edges)


@settings(max_examples=120, deadline=None)
@given(graphs(), st.integers(min_value=0, max_value=6))
def test_numpy_brute_matches_pure_python(g, k):
    got = brute_force_optimal(g, k)
    want = pure_python_optimal(g, k)
    if want is None:
        assert got is None
    else:
        assert got is not None and got[0] == want[0]
        assert got[1].sequence == want[1]  # lexicographically smallest witness


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7))
def test_numpy_profile_matches_pure_python(g):
    assert brute_force_profile(g) == pure_python_profile(g)


def _head_path_graphs():
    """Seeded gnp graphs at n = 9 and 10, where blocks have a fixed head; a
    star and a two-centre graph, where some heads leave the tail edgeless;
    K9 and K10, whose tails hold the most edges (28) of any graph."""
    return [generate(GeneratorSpec("gnp", (n, p), seed=9000 + 10 * n + i))
            for n in (9, 10) for i, p in enumerate((0.3, 0.5, 0.7))] + [
        build_graph(10, [(0, v) for v in range(1, 10)]),
        build_graph(9, [(0, 1)] + [(0, v) for v in range(2, 6)] + [(1, v) for v in range(6, 9)]),
    ] + [build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]) for n in (9, 10)]


@pytest.mark.parametrize("g", _head_path_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_head_path_profile_matches_dp(g):
    profile = brute_force_profile(g)
    for c in range(g.n + 1):
        dp = subset_dp_optimal(g, c)
        assert profile[c] == (None if dp is None else dp[0])


@pytest.mark.parametrize("g", _head_path_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_head_path_witness_matches_dp(g):
    for k in (0, 1, 2, g.n // 2, g.n - 2, g.n):
        b = brute_force_optimal(g, k)
        d = subset_dp_optimal(g, k)
        assert (b is None) == (d is None)
        if b is not None:
            assert (b[0], b[1].sequence) == (d[0], d[1].sequence)


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=8), st.integers(min_value=0, max_value=8))
def test_dp_matches_brute(g, k):
    b = brute_force_optimal(g, k)
    d = subset_dp_optimal(g, k)
    if b is None:
        assert d is None
    else:
        assert d is not None and d[0] == b[0]
        assert evaluate(g, d[1]).total == d[0]
        assert evaluate(g, d[1]).max_cost <= min(k, g.n)
        assert d[1].sequence == b[1].sequence  # both lex-smallest
        # edge accounting: the prefix value of the witness's cover point
        # equals the evaluated total (each edge charged once)
        table = build_dp_table(g, k)
        rep = evaluate(g, d[1])
        prefix = 0
        for v in d[1].sequence[: rep.max_cost]:
            prefix |= 1 << v
        assert table.value[prefix] == d[0]


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=8), st.integers(min_value=0, max_value=8))
def test_feasibility_boundary_matches_cover_existence(g, k):
    has_cover = bool(enumerate_minimal_covers(g, k)) if g.m else True
    assert (subset_dp_optimal(g, k) is not None) == has_cover


def complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def dp_corpus():
    """Seeded gnp graphs at n = 0..16 (two densities each), K1..K10 and the
    shared small graphs: past brute-force scale, with many ties in K_n."""
    for n in range(17):
        for i, p in enumerate((0.2, 0.5)):
            yield f"gnp{n}.{i}", generate(GeneratorSpec("gnp", (n, p), seed=700 + 10 * n + i))
    for n in range(1, 11):
        yield f"K{n}", complete(n)
    for name, make in (("p3", p3), ("p4", p4), ("triangle", triangle), ("c4", c4), ("k4", k4),
                       ("double_star", double_star), ("claw_chain6", claw_chain6), ("petersen", petersen)):
        yield name, make()
    yield "star5", star(5)


# sha256 of (cost, witness) of subset_dp_optimal at every k and of
# min_max_cost_over_optima over dp_corpus, as computed by the DP that charged
# |S| * |N(v) - S| per placement over the full 2^n popcount table; any change
# to a cost or to the lexicographically smallest witness moves it
DP_WITNESS_DIGEST = "5bd2e3888a290bcdd51160588fc74740a10c9ee1439f52a162439e33b494d8c7"


def test_dp_witnesses_pinned():
    h = hashlib.sha256()
    for name, g in dp_corpus():
        for k in range(g.n + 1):
            r = subset_dp_optimal(g, k)
            h.update(repr((name, k, None if r is None else (r[0], r[1].sequence))).encode())
        h.update(repr((name, min_max_cost_over_optima(g))).encode())
    assert h.hexdigest() == DP_WITNESS_DIGEST


# sha256 of the value and covers bytes of build_dp_table at every k over
# dp_corpus, as computed before the DP cached any layer
DP_TABLE_DIGEST = "f1f9ae44d1927147c0ee0acbdf06e55f3c82f19e4d447bdf7cf2f265e6661841"


@contextmanager
def dp_cache_bound(bound):
    """Run the subset DP with layers of at most bound drops cached, from an
    empty cache; the cache is emptied again on the way out."""
    saved = oracles._CACHED_DROPS
    oracles._CACHED_DROPS = bound
    oracles._layer.cache_clear()
    try:
        yield
    finally:
        oracles._CACHED_DROPS = saved
        oracles._layer.cache_clear()


# nothing cached; the small layers cached and the larger ones above them
# streamed; the default; every layer cached
CACHE_BOUNDS = [0, 200, oracles._CACHED_DROPS, 1 << 62]


@pytest.mark.parametrize("bound", CACHE_BOUNDS)
def test_dp_tables_are_byte_identical_at_any_cache_bound(bound):
    h = hashlib.sha256()
    with dp_cache_bound(bound):
        for name, g in dp_corpus():
            for k in range(g.n + 1):
                table = build_dp_table(g, k)
                h.update(repr((name, k, table.value.dtype.str, table.covers.dtype.str)).encode())
                h.update(table.value.tobytes())
                h.update(table.covers.tobytes())
        cached = [oracles._layer(g.n, s) is not None for _, g in dp_corpus() for s in range(1, g.n + 1)]
    assert h.hexdigest() == DP_TABLE_DIGEST
    assert any(cached) == (bound > 0) and all(cached) == (bound == 1 << 62)


@pytest.mark.parametrize("bound", CACHE_BOUNDS)
def test_dp_witnesses_pinned_at_any_cache_bound(bound):
    with dp_cache_bound(bound):
        test_dp_witnesses_pinned()


@pytest.mark.parametrize("n", range(11))
def test_cached_layers_match_their_definition(n):
    """Layer s holds the masks of s vertices ascending; row r and cut c of
    _next_layer rebuild each from the layer below; the drops of a mask are
    the masks less each of its vertices."""
    with dp_cache_bound(1 << 62):
        for s in range(1, n + 1):
            masks, rows, cuts, drops = oracles._layer(n, s)
            below = oracles._layer(n, s - 1)[0]
            want = [mask for mask in range(1 << n) if bin(mask).count("1") == s]
            assert masks.tolist() == want and drops.shape == (s, len(want))
            assert cuts.tolist() == [int(np.sum(below < (1 << v))) for v in range(n)]
            tops = [mask.bit_length() - 1 for mask in want]
            assert (below[rows] | (1 << np.array(tops, dtype=np.int64))).tolist() == want
            for mask, col in zip(want, drops.T.tolist()):
                assert sorted(col) == sorted(mask & ~(1 << v) for v in range(n) if mask >> v & 1)
            for a in (masks, rows, cuts, drops):
                assert a.dtype == np.int64 and not a.flags.writeable


def test_dp_layer_cache_stays_under_a_megabyte():
    """Every layer the default bound caches for n <= 18 (all of n <= 12)
    takes at most 1 MB together; larger layers stream."""
    with dp_cache_bound(oracles._CACHED_DROPS):
        layers = [oracles._layer(n, s) for n in range(19) for s in range(n + 1)]
        assert all(oracles._layer(n, s) is not None for n in range(13) for s in range(n + 1))
        assert oracles._layer(13, 7) is None and oracles._layer(18, 4) is None
        total = sum(a.nbytes for layer in layers if layer is not None for a in layer if a is not None)
    assert total <= 1_000_000, total


def test_import_builds_no_dp_layer():
    code = "import msvc, msvc.oracles as o; print(o._layer.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(oracles.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "0"


def _branch_witness(g, k):
    r = branch_solve(Instance(g, w=k * g.m, k=k))
    return None if r.best_cost is None else (r.best_cost, r.best_ordering.sequence)


def _dp_witness(g, k):
    r = subset_dp_optimal(g, k)
    return None if r is None else (r[0], r[1].sequence)


def _sparse_graphs():
    """Sparse seeded gnp graphs at n = 18..24: past brute force, where the
    DP's small-k layers and the branching solver meet."""
    return [generate(GeneratorSpec("gnp", (n, p), seed=4000 + 10 * n + i))
            for n in range(18, 25, 2) for i, p in enumerate((0.01, 0.02, 0.03, 0.04))]


@pytest.mark.parametrize("g", _sparse_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_branching_matches_dp_past_brute_scale(g):
    for k in range(7):
        assert _branch_witness(g, k) == _dp_witness(g, k), k


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=10), st.integers(min_value=0, max_value=6))
def test_branching_matches_dp(g, k):
    assert _branch_witness(g, k) == _dp_witness(g, k)


# ------------------------------------------------------------ regular fast path

def test_regular_rejects_non_regular():
    with pytest.raises(ValueError):
        regular_solve(p3(), 2)


def test_regular_petersen_shortcut(monkeypatch):
    """n > 2k on a cubic graph is rejected without touching the DP."""
    import msvc.oracles as oracles

    def boom(*args, **kwargs):  # pragma: no cover
        raise AssertionError("DP must not run for the shortcut case")

    monkeypatch.setattr(oracles, "subset_dp_optimal", boom)
    assert oracles.regular_solve(petersen(), 4) is None


def test_regular_petersen_matches_dp():
    assert regular_solve(petersen(), 4) is None
    assert subset_dp_optimal(petersen(), 4) is None


def test_regular_k4():
    cost, ordering = regular_solve(k4(), 3)
    assert cost == 10
    assert evaluate(k4(), ordering).total == 10


def test_regular_matching():
    g = build_graph(4, [(0, 1), (2, 3)])
    cost, ordering = regular_solve(g, 2)
    assert cost == 3
    assert evaluate(g, ordering).total == 3
    assert regular_solve(g, 1) is None


def test_regular_d0():
    g = build_graph(3, [])
    assert regular_solve(g, 0) == (0, Ordering.identity(3))


def test_regular_cycles_delegate():
    g = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    got = regular_solve(g, 3)
    want = brute_force_optimal(g, 3)
    assert got[0] == want[0]
