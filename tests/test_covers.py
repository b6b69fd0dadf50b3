from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvc import build_graph, enumerate_minimal_covers, is_minimal_cover, is_vertex_cover

from conftest import p3, triangle


def brute_minimal_covers(g, k):
    """Independent oracle: scan all 2^n subsets for minimal covers of size <= k."""
    out = set()
    for size in range(0, min(k, g.n) + 1):
        for combo in combinations(range(g.n), size):
            s = set(combo)
            if is_vertex_cover(g, s) and all(
                not is_vertex_cover(g, s - {v}) for v in s
            ):
                out.add(frozenset(s))
    return out


def as_sets(covers):
    return {frozenset(c) for c in covers}


def test_p3_k2():
    assert as_sets(enumerate_minimal_covers(p3(), 2)) == {frozenset({1}), frozenset({0, 2})}


def test_triangle_k2():
    assert as_sets(enumerate_minimal_covers(triangle(), 2)) == {
        frozenset({0, 1}),
        frozenset({1, 2}),
        frozenset({0, 2}),
    }


def test_edgeless_any_k():
    g = build_graph(4, [])
    assert as_sets(enumerate_minimal_covers(g, 0)) == {frozenset()}
    assert as_sets(enumerate_minimal_covers(g, 3)) == {frozenset()}


def test_k0_with_edges_is_empty():
    assert enumerate_minimal_covers(p3(), 0) == []


def test_rejects_negative_k():
    with pytest.raises(ValueError):
        enumerate_minimal_covers(p3(), -1)


def test_is_minimal_cover_examples():
    g = p3()
    assert not is_minimal_cover(g, {0, 1})  # 1 alone suffices
    assert is_minimal_cover(g, {1})
    assert not is_minimal_cover(triangle(), {0, 1, 2})
    assert not is_minimal_cover(g, {0})  # not even a cover


def test_output_is_canonically_sorted_and_deduped():
    covers = enumerate_minimal_covers(triangle(), 3)
    keys = list(covers)
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))) if possible else []
    return build_graph(n, edges)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(min_value=0, max_value=8))
def test_matches_subset_bruteforce(g, k):
    covers = enumerate_minimal_covers(g, k)
    assert as_sets(covers) == brute_minimal_covers(g, k)
    assert len(covers) <= 2**k
    for c in covers:
        assert is_minimal_cover(g, c)
        assert len(c) <= k
