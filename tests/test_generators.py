from collections import Counter

import pytest

from msvc import GeneratorSpec, Pcg32, generate


def test_pcg32_reference_stream_is_stable():
    """Frozen outputs pin the generator behavior across platforms/releases."""
    rng = Pcg32(42)
    assert [rng.next32() for _ in range(4)] == [
        565663470,
        3244226384,
        2504567229,
        903561869,
    ]


def test_pcg32_randbelow_bounds():
    rng = Pcg32(7)
    draws = [rng.randbelow(10) for _ in range(200)]
    assert all(0 <= d < 10 for d in draws)
    assert len(set(draws)) == 10


def test_path():
    g = generate(GeneratorSpec("path", (4,)))
    assert g.n == 4 and g.m == 3 and g.degrees == (1, 2, 2, 1)


def test_cycle():
    g = generate(GeneratorSpec("cycle", (5,)))
    assert g.n == 5 and g.m == 5 and set(g.degrees) == {2}


def test_star_is_k15():
    g = generate(GeneratorSpec("star", (5,)))
    assert g.n == 6 and g.m == 5
    assert g.degrees == (5, 1, 1, 1, 1, 1)


def test_double_star_shape():
    g = generate(GeneratorSpec("double_star", (4, 4)))
    assert g.n == 10 and g.m == 9
    assert g.degrees[:2] == (5, 5)


def test_claw_chain_is_the_19_vertex_instance():
    g = generate(GeneratorSpec("claw_chain", (6,)))
    assert g.n == 19 and g.m == 18
    hist = Counter(g.degrees)
    assert hist == {1: 12, 3: 6, 6: 1}


def test_disjoint_edges():
    g = generate(GeneratorSpec("disjoint_edges", (3,)))
    assert g.n == 6 and g.m == 3 and set(g.degrees) == {1}


def test_gnp_deterministic():
    a = generate(GeneratorSpec("gnp", (8, 0.5), seed=7))
    b = generate(GeneratorSpec("gnp", (8, 0.5), seed=7))
    assert a.edges == b.edges
    c = generate(GeneratorSpec("gnp", (8, 0.5), seed=8))
    assert a.edges != c.edges


def test_gnp_golden_edges():
    """Frozen edge set guards cross-platform reproducibility of the stream."""
    g = generate(GeneratorSpec("gnp", (5, 0.5), seed=1))
    assert g.edges == ((0, 2), (0, 4))


def test_random_regular_valid():
    g = generate(GeneratorSpec("random_regular", (8, 3), seed=11))
    assert g.n == 8 and set(g.degrees) == {3}
    again = generate(GeneratorSpec("random_regular", (8, 3), seed=11))
    assert g.edges == again.edges


def test_random_regular_rejects_odd_product():
    with pytest.raises(ValueError):
        generate(GeneratorSpec("random_regular", (5, 3), seed=1))


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate(GeneratorSpec("cycle", (2,)))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("gnp", (4, 1.5), seed=0))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("nosuch", (1,)))
