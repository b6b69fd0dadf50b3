import hashlib
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvc import (
    GeneratorSpec,
    Instance,
    Ordering,
    ParseError,
    build_graph,
    generate,
    parse_instance,
    parse_ordering,
    write_instance,
    write_ordering,
)

from msvc import instance_io

from conftest import p3


@contextmanager
def chunk_size(size):
    """Run the bulk parser with chunks of at least size bytes."""
    saved = instance_io._CHUNK
    instance_io._CHUNK = size
    try:
        yield
    finally:
        instance_io._CHUNK = saved


def test_write_instance_canonical():
    inst = Instance(p3(), w=2, k=1)
    assert write_instance(inst) == "p msvc 3 2 1 2\ne 1 2\ne 2 3\n"


def test_parse_instance_roundtrip():
    inst = Instance(p3(), w=2, k=1)
    text = write_instance(inst)
    back = parse_instance(text)
    assert back == inst
    assert write_instance(back) == text


def test_parse_instance_comments_and_blanks():
    text = "c hello\n\np msvc 2 1 1 3\nc mid\ne 1 2\n"
    inst = parse_instance(text)
    assert inst.graph.m == 1 and inst.k == 1 and inst.w == 3


@pytest.mark.parametrize(
    "text",
    [
        "e 1 2\n",  # edge before header
        "p msvc 2 1 1\n",  # short header
        "p other 2 1 1 3\ne 1 2\n",  # wrong format tag
        "p msvc 2 2 1 3\ne 1 2\n",  # m mismatch
        "p msvc 2 1 1 3\ne 1 3\n",  # endpoint out of range
        "p msvc 2 1 1 3\ne 1 1\n",  # self loop
        "p msvc 2 2 1 3\ne 1 2\ne 2 1\n",  # duplicate edge
        "p msvc 2 1 -1 3\ne 1 2\n",  # negative k
        "p msvc 2 1 1 3\nq 1 2\n",  # unknown record
        "p msvc 2 1 1 3\ne 1 2\np msvc 2 1 1 3\n",  # duplicate header
    ],
)
def test_parse_instance_rejects(text):
    with pytest.raises(ParseError):
        parse_instance(text)


def test_ordering_roundtrip():
    ordering = Ordering.from_sequence([1, 0, 2])
    text = write_ordering(ordering)
    assert text == "2 1 3\n"
    assert parse_ordering(text, 3) == ordering


def test_write_ordering_matches_join_on_a_large_ordering():
    # 600,000 ids: the four-byte form, written from the packed array
    seq = np.random.default_rng(11).permutation(600_000)
    ordering = Ordering.from_sequence(seq)
    assert len(ordering.ids) == 4 * 600_000
    assert write_ordering(ordering) == " ".join(str(v + 1) for v in seq.tolist()) + "\n"
    # the one-byte form, up to its largest id
    assert write_ordering(Ordering.identity(256)) == " ".join(map(str, range(1, 257))) + "\n"


def test_parse_ordering_rejects_repeat():
    with pytest.raises(ParseError):
        parse_ordering("1 1 2\n", 3)
    # the error names the id as the file writes it, 1-based
    with pytest.raises(ParseError, match="vertex id 1 at position 2 repeats an earlier id"):
        parse_ordering("1 1 2 3 4 5 6 7 8", 9)
    with pytest.raises(ParseError, match="vertex id 10 at position 9 is outside 1..9"):
        parse_ordering("1 2 3 4 5 6 7 8 10", 9)


def test_parse_ordering_rejects_wrong_length():
    with pytest.raises(ParseError):
        parse_ordering("1 2\n", 3)


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))) if possible else []
    g = build_graph(n, edges)
    k = draw(st.integers(min_value=0, max_value=n))
    w = draw(st.integers(min_value=0, max_value=50))
    return Instance(g, w=w, k=k)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_roundtrip_bit_exact(inst):
    text = write_instance(inst)
    assert parse_instance(text) == inst
    assert write_instance(parse_instance(text)) == text


# ---------------------------------------------------------------- pins

# (text, outcome) as produced before parsing moved to numpy: ("error",
# message) for a rejected text, ("ok", n, edges, k, w) for an accepted one;
# a self-loop or a duplicate edge is named with the file's 1-indexed ids
PARSE_PINS = [
    ('e 1 2\n', ('error', 'line 1: edge before header')),
    ('p msvc 2 1 1\n', ('error', "line 1: expected 'p msvc <n> <m> <k> <w>'")),
    ('p other 2 1 1 3\ne 1 2\n', ('error', "line 1: expected 'p msvc <n> <m> <k> <w>'")),
    ('p msvc 2 2 1 3\ne 1 2\n', ('error', 'header declares m=2 edges, found 1')),
    ('p msvc 2 1 1 3\ne 1 3\n', ('error', 'line 2: endpoint outside 1..2')),
    ('p msvc 2 1 1 3\ne 1 1\n', ('error', 'self-loop at vertex 1')),
    ('p msvc 2 2 1 3\ne 1 2\ne 2 1\n', ('error', 'duplicate edge (1, 2)')),
    ('p msvc 2 1 -1 3\ne 1 2\n', ('error', 'line 1: negative k or w')),
    ('p msvc 2 1 1 3\nq 1 2\n', ('error', "line 2: unknown record 'q'")),
    ('p msvc 2 1 1 3\ne 1 2\np msvc 2 1 1 3\n', ('error', 'line 3: duplicate header')),
    ('p msvc 3 1 1 3\ne 1 x\n', ('error', 'line 2: non-integer endpoint')),
    ('p msvc 3 1 1 3\ne 1 2 3\n', ('error', "line 2: expected 'e <u> <v>'")),
    ('p msvc 3 1 1 3\ne -1 2\n', ('error', 'line 2: endpoint outside 1..3')),
    ('p msvc 3 2 1 3\ne 1 2\nc between edges\ne 2 3\n', ('ok', 3, ((0, 1), (1, 2)), 1, 3)),
    ('p msvc 3 2 1 3\ne 1 2\n\ne 2 3\n', ('ok', 3, ((0, 1), (1, 2)), 1, 3)),
    ('p\tmsvc 3 2 1 3\ne\t1\t2\n\te 2\t 3\t\n', ('ok', 3, ((0, 1), (1, 2)), 1, 3)),
    ('p msvc 3 2 1 3\r\ne 1 2\r\ne 2 3\r\n', ('ok', 3, ((0, 1), (1, 2)), 1, 3)),
    ('p msvc 3 2 1 3\ne 1 2\ne 2 3', ('ok', 3, ((0, 1), (1, 2)), 1, 3)),
    ('p msvc 3 1 1 3\ne 01 2\n', ('ok', 3, ((0, 1),), 1, 3)),
    ('c top\n  c indented\np msvc 4 3 2 9\ne 4 1\ne 3 1\ne 2 1\n', ('ok', 4, ((0, 1), (0, 2), (0, 3)), 2, 9)),
    ('p msvc 3 2 1 3\ne 1 2\ne 1 2\n', ('error', 'duplicate edge (1, 2)')),
    ('p msvc 3 2 1 3\ne 2 2\ne 1 5\n', ('error', 'line 3: endpoint outside 1..3')),
    ('p msvc 3 1 1 3\ne 1 2\ne 2 3\n', ('error', 'header declares m=1 edges, found 2')),
    ('p msvc 3 1 1 3\n', ('error', 'header declares m=1 edges, found 0')),
    ('', ('error', "missing 'p msvc' header")),
    ('p msvc 0 0 0 0\n', ('ok', 0, (), 0, 0)),
    ('p msvc 3 1 1 x\ne 1 2\n', ('error', 'line 1: non-integer header field')),
    ('p msvc 3 1 1 3\nee 1 2\n', ('error', "line 2: unknown record 'ee'")),
    ('p msvc 3 1 1 3\ne 1 2e\n', ('error', 'line 2: non-integer endpoint')),
    ('p msvc 3 1 1 3\ne 12\n', ('error', "line 2: expected 'e <u> <v>'")),
    ('p msvc 3 1 1 3\ne +1 2\n', ('ok', 3, ((0, 1),), 1, 3)),
    ('p msvc 12 1 1 3\ne 1_0 2\n', ('ok', 12, ((1, 9),), 1, 3)),
    ('p msvc 3 1 1 3\x0be 1 2\x0c', ('ok', 3, ((0, 1),), 1, 3)),
    ('p msvc 3 1 1 3\ne 1\x1f2\n', ('ok', 3, ((0, 1),), 1, 3)),
    ('p msvc 3 1 1 3\ne 1 2\x85', ('ok', 3, ((0, 1),), 1, 3)),
    ('p msvc 3 1 1 3\ne 99999999999999999999 2\n', ('error', 'line 2: endpoint outside 1..3')),
    ('p msvc 3 1 1 3\ne 0000000000000000000001 2\n', ('ok', 3, ((0, 1),), 1, 3)),
    ('p msvc 3 1 1 3\ncomment without space\ne 2 3\n', ('ok', 3, ((1, 2),), 1, 3)),
    ('p msvc 3 1 1 3\ne 3 2 c\n', ('error', "line 2: expected 'e <u> <v>'")),
    ('p msvc 3 1 1 3\ne\n', ('error', "line 2: expected 'e <u> <v>'")),
    ('p msvc 3 1 1 3\n1 2\n', ('error', "line 2: unknown record '1'")),
    ('p msvc 3 1 1 3 e 1 2\n', ('error', "line 1: expected 'p msvc <n> <m> <k> <w>'")),
    ('p msvc 03 01 1 3\ne 1 2\n', ('ok', 3, ((0, 1),), 1, 3)),
    ('p msvc 3 0 1 3\n\n\nc\n', ('ok', 3, (), 1, 3)),
    ('p msvc 3 4 1 3\ne 1 3\ne 3 2\ne 2 2\ne 1 3\n', ('error', 'self-loop at vertex 2')),
    ('p msvc 4 4 1 3\ne 4 3\ne 1 2\ne 3 4\ne 2 1\n', ('error', 'duplicate edge (1, 2)')),
    # non-ASCII text, as the line reader reads it
    ('c caf\xe9\np msvc 3 1 1 3\ne 1 2\n', ('ok', 3, ((0, 1),), 1, 3)),
    ('p msvc 3 1 1 3\ne 1 2\nc note\u2028e 2 3\n', ('error', 'header declares m=1 edges, found 2')),
    ('p msvc 3 1 1 3\ne 1\xa02\n', ('ok', 3, ((0, 1),), 1, 3)),
    ('p msvc 3 1 1 3\n\xa0c note\ne 2 3\n', ('ok', 3, ((1, 2),), 1, 3)),
    # an m the text cannot hold is left to the line reader
    ('p msvc 3 99999999999 1 3\ne 1 2\n', ('error', 'header declares m=99999999999 edges, found 1')),
    # an edge line before the header in the same chunk, numbers in a chunk
    # without an 'e', and an 'e' as the last byte of the text
    ('e 1 2\np msvc 2 1 1 3\n', ('error', 'line 1: edge before header')),
    ('p msvc 3 1 1 3\n5 6\ne 1 2\n', ('error', "line 2: unknown record '5'")),
    ('p msvc 3 2 1 3\n1 2 e 1 2 e', ('error', "line 2: unknown record '1'")),
]


@pytest.mark.parametrize("text,expected", PARSE_PINS)
def test_parse_instance_pinned(text, expected):
    # at 1 and 5 bytes a chunk boundary falls after every line break, inside
    # '\r\n', before a header alone in a later chunk and before an 'e'
    for size in (instance_io._CHUNK, 1, 5):
        with chunk_size(size):
            try:
                inst = parse_instance(text)
            except ParseError as exc:
                got = ("error", str(exc))
            else:
                got = ("ok", inst.graph.n, inst.graph.edges, inst.k, inst.w)
        assert got == expected, size


def test_only_non_ascii_comments_take_the_bulk_path():
    # a non-ASCII character outside a comment, or a line break beyond ASCII,
    # leaves the text to the line reader
    texts = [text for text, _ in PARSE_PINS if not text.isascii()]
    assert len(texts) == 5
    assert [instance_io._parse_bulk(text) is not None for text in texts] == [
        text.startswith("c") for text in texts]


def test_parse_pins_cover_every_rejected_case():
    pinned = {text for text, _ in PARSE_PINS}
    cases = test_parse_instance_rejects.pytestmark[0].args[1]
    assert set(cases) <= pinned


# (family, params, seed, k, w, sha256 of write_instance) computed before
# the writers moved to numpy
WRITE_PINS = [
    ('gnp', (30, 0.3), 5, 4, 77, "6bf3eb74c58e1d10cfe3ac7195201f837fe01489b2142d2596dc092e4f68d030"),
    ('star', (50,), 0, 2, 60, "59a666e8fad1ed41d155ea448d6a9afc07e301eda9cb8b81491226cec573fccc"),
    ('double_star', (5, 7), 0, 3, 20, "1a684543b268b8b422fdda896ab93e1522f8be852d8caf2c9d0d5cd899dad1f0"),
    ('claw_chain', (6,), 0, 7, 60, "60c8fadf82d75ddc89684b64cb9530693a5f7201474fe2ac1b3512c0c391e3d1"),
    ('random_regular', (20, 3), 2, 6, 100, "df4d52314a5dadd59d4dd88c419f388e6585002d07685dfda0122fdffef9e044"),
]


@pytest.mark.parametrize("family,params,seed,k,w,digest", WRITE_PINS)
def test_write_instance_pinned(family, params, seed, k, w, digest):
    g = generate(GeneratorSpec(family, params, seed))
    text = write_instance(Instance(g, w=w, k=k))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert parse_instance(text) == Instance(g, w=w, k=k)


@st.composite
def instance_texts(draw):
    """Instance texts in every spelling the format allows (comments, blank
    lines, tabs, CR, vertical tabs, leading zeros, non-ASCII comments and
    spaces), some with a defect."""
    n = draw(st.integers(min_value=0, max_value=6))
    ids = st.integers(min_value=0, max_value=n + 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=8))
    space = st.sampled_from([" ", "\t", "  ", "\x1f", " \t"])
    pad = st.sampled_from(["", " ", "\t"])
    zeros = st.sampled_from(["", "0", "00"])
    m = len(pairs) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    header = "".join(draw(space) + str(x) for x in (n, m, 1, 5))
    lines = [draw(pad) + "p" + draw(space) + "msvc" + header]
    for u, v in pairs:
        u, v = draw(zeros) + str(u), draw(zeros) + str(v)
        lines.append(draw(pad) + "e" + draw(space) + u + draw(space) + v + draw(pad))
    extras = ["", "c note 1 2", "cfoo e 3", "  c", "e 1", "e 1 2 3", "x 1 2", "e +1 2", "e 1 a",
              "c caf\xe9", "c \u2028e 1 2", "\xa0c", "e 1\xa02"]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(st.sampled_from(extras)))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[:-1]


@settings(max_examples=400, deadline=None)
@given(instance_texts(), st.sampled_from([1, 2, 5, 64, instance_io._CHUNK]))
def test_bulk_parse_matches_line_reader(text, size):
    """Whatever the bulk decoder accepts, at any chunk size, the line-by-line
    reader reads the same way; whatever the reader rejects, the bulk decoder
    rejects too."""
    with chunk_size(size):
        bulk = instance_io._parse_bulk(text)
    try:
        lines = instance_io._parse_lines(text)
    except ParseError:
        assert bulk is None
        return
    if bulk is not None:
        assert _as_lines(bulk) == lines


def _as_lines(bulk):
    """A bulk parse in the line reader's form."""
    n, edges, k, w = bulk
    return n, [tuple(e) for e in edges.tolist()], k, w


def _bulk_matches_lines(text):
    bulk = instance_io._parse_bulk(text)
    assert bulk is not None
    assert _as_lines(bulk) == instance_io._parse_lines(text)


def test_written_text_takes_the_bulk_path():
    g = generate(GeneratorSpec("gnp", (30, 0.3), 5))
    assert instance_io._parse_bulk(write_instance(Instance(g, w=77, k=4))) is not None
    # a canonical text of more than three default chunks
    text = write_instance(Instance(generate(GeneratorSpec("star", (300_000,))), w=0, k=1))
    assert len(text) > 3 * instance_io._CHUNK
    _bulk_matches_lines(text)


def test_spelled_text_takes_the_bulk_path_across_chunks():
    # comment lines, blank lines and '\r\n' endings, with no line break at
    # the end; the chunk sizes put a boundary before and inside each of them
    g = generate(GeneratorSpec("gnp", (12, 0.4), 3))
    edges = write_instance(Instance(g, w=40, k=3)).splitlines()
    lines = ["c top", "", edges[0], "c after the header"]
    for i, line in enumerate(edges[1:]):
        lines += [line] + (["", "c note 1 2", "  "] if i % 3 == 0 else [])
    text = "\r\n".join(lines)
    for size in (1, 2, 3, 5, 7, 11, 16, 64):
        with chunk_size(size):
            _bulk_matches_lines(text)


def test_parse_memory_stays_within_five_times_the_text():
    # the 1M-edge star: the parse holds one chunk's arrays beyond the
    # endpoint array it fills, and build_graph's arrays at most
    m = 1_000_000
    text = "".join([f"p msvc {m + 1} {m} 1 {m}\n"] + [f"e 1 {v}\n" for v in range(2, m + 2)])
    tracemalloc.start()
    try:
        inst = parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.graph.m == m
    assert peak <= 5 * len(text), peak / len(text)


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        out = call(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_and_write_memory_on_the_million_edge_star():
    # parse: build_graph frees lo once the key is made, below the 4.5x of
    # holding it to the end; write: one block of rows at a time, so the
    # blocks' text and the joined text, about twice the text
    m = 1_000_000
    text = "".join([f"p msvc {m + 1} {m} 1 {m}\n"] + [f"e 1 {v}\n" for v in range(2, m + 2)])
    inst, peak = _traced_peak(parse_instance, text)
    assert peak <= 4 * len(text), peak / len(text)
    out, peak = _traced_peak(write_instance, inst)
    assert out == text
    assert peak <= 2.25 * len(text), peak / len(text)
    seq = np.random.default_rng(5).permutation(m + 1)
    out, peak = _traced_peak(write_ordering, Ordering.from_sequence(seq))
    assert peak <= 2.25 * len(out), peak / len(out)


def test_parse_memory_on_the_million_edge_star_stays_near_three_times_the_text():
    # build_graph divides the key in place: the key's buffer becomes ev, so
    # the quotient eu is its one new edge-sized array
    m = 1_000_000
    text = "".join([f"p msvc {m + 1} {m} 1 {m}\n"] + [f"e 1 {v}\n" for v in range(2, m + 2)])
    inst, peak = _traced_peak(parse_instance, text)
    assert inst.graph.m == m and inst.graph.ev[-1] == m
    assert peak <= 3.25 * len(text), peak / len(text)


@contextmanager
def block_rows(rows):
    """Run the writers with blocks of rows rows."""
    saved = instance_io._ROWS
    instance_io._ROWS = rows
    try:
        yield
    finally:
        instance_io._ROWS = saved


@pytest.mark.parametrize("rows", [1, 2, 7, 1000])
def test_written_text_is_the_same_at_any_block_size(rows):
    """Each block takes its own digit widths; the text is the same."""
    g = build_graph(1200, [(0, v) for v in range(1, 1200)] + [(998, 999), (5, 1199)])
    seq = np.random.default_rng(rows).permutation(1200)
    want = (write_instance(Instance(g, w=9, k=2)), write_ordering(Ordering.from_sequence(seq)))
    assert want[0] == "p msvc 1200 1201 2 9\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in g.edges)
    assert want[1] == " ".join(str(v + 1) for v in seq.tolist()) + "\n"
    with block_rows(rows):
        assert (write_instance(Instance(g, w=9, k=2)), write_ordering(Ordering.from_sequence(seq))) == want
        assert write_ordering(Ordering.identity(1)) == "1\n"
        assert write_instance(Instance(build_graph(3, []), w=0, k=0)) == "p msvc 3 0 0 0\n"
