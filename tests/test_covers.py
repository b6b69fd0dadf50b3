import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvc import (
    GeneratorSpec,
    build_graph,
    enumerate_minimal_covers,
    generate,
    is_minimal_cover,
    is_vertex_cover,
    vc_number,
)

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


def covers_corpus():
    """44 graphs up to n = 14, past the brute scan above."""
    for n in range(6, 15):
        for p in (0.3, 0.5):
            for seed in (1, 2):
                yield generate(GeneratorSpec("gnp", (n, p), seed=seed))
    for c in range(1, 7):
        yield generate(GeneratorSpec("claw_chain", (c,)))
    for seed in (1, 2):
        yield generate(GeneratorSpec("random_regular", (12, 3), seed=seed))


# sha256 of every cover list of the corpus for k <= min(n, 12) (2,516
# covers) and of each graph's vertex cover number; it pins the order of the
# lists as well as their sets
COVERS_DIGEST = "0fb5cf1287578b5264aa82f82abc76cd1d6dea81673f3c991ad8fa2dcd5e4e77"


def test_covers_pinned():
    h = hashlib.sha256()
    for g in covers_corpus():
        for k in range(min(g.n, 12) + 1):
            h.update(repr((g.n, g.edges, k, enumerate_minimal_covers(g, k))).encode())
        h.update(repr(vc_number(g)).encode())
    assert h.hexdigest() == COVERS_DIGEST
