"""Text formats for instances and orderings.

Instance files are DIMACS-flavored::

    c optional comment
    p msvc <n> <m> <k> <w>
    e <u> <v>        (m lines, 1-indexed endpoints)

Ordering files hold n whitespace-separated 1-indexed vertex ids in position
order.  Writers emit canonical text (sorted edges, no comments) so that
write -> parse -> write round-trips bit-exactly.

Both directions work in bulk on numpy arrays.  The parser reads the text in
line-aligned chunks of about 1 MB: it classifies every byte of a chunk with
one translation table, checks the line structure on the positions of line
breaks, 'e' records and numbers, and decodes the chunk's endpoints with one
``np.fromstring`` into a single int64 array of 2m values, allocated once
the header's m is known to fit the text, so beyond that array its memory
is O(chunk).  The line-by-line reader runs only on text that check
rejects, to name the offending line.  The writers render the edge and
vertex-id arrays digit by digit, one block of rows at a time, and join the
blocks' text, so they hold about twice the text they return.
"""

from __future__ import annotations

import re

import numpy as np

from .graph import MAX_VERTICES, Instance, Ordering, OrderingError, _permutation_error, build_graph


class ParseError(ValueError):
    """Malformed instance or ordering text."""


# The writers render this many rows at a time, so beyond the text they
# return they hold one block's arrays.
_ROWS = 1 << 16


def _decimal_rows(columns, seps: bytes, prefix: bytes = b""):
    """Yields the text of rows of 0-indexed ids, _ROWS rows at a time: row i
    is ``prefix``, then columns[j][i] + 1 in decimal followed by the byte
    seps[j], for each column j."""
    for start in range(0, len(columns[0]), _ROWS):
        values = [c[start : start + _ROWS] + np.int64(1) for c in columns]
        rows, widths = values[0].size, [len(str(int(v.max()))) for v in values]
        out = np.empty((rows, len(prefix) + sum(widths) + len(values)), dtype=np.uint8)
        keep = np.ones(out.shape, dtype=bool)
        out[:, : len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
        base = len(prefix)
        for j, (width, rest) in enumerate(zip(widths, values)):
            digits = np.empty((width, rows), dtype=np.uint8)
            for d in range(width - 1, -1, -1):
                np.remainder(rest, 10, out=digits[d], casting="unsafe")
                rest //= 10
            digits += ord("0")
            out[:, base : base + width] = digits.T
            out[:, base + width] = seps[j]
            # numbers are padded to the column's width; drop the leading zeros
            keep[:, base : base + width - 1] = np.logical_or.accumulate(digits[:-1] != ord("0")).T
            base += width + 1
        yield out[keep].tobytes().decode("ascii")


def write_instance(inst: Instance) -> str:
    g = inst.graph
    head = f"p msvc {g.n} {g.m} {inst.k} {inst.w}\n"
    return "".join([head, *_decimal_rows((g.eu, g.ev), b" \n", prefix=b"e ")])


# Byte classes of the bulk parser: in-line whitespace, line breaks (those
# of str.splitlines), digits, 'e', and everything else.
_SPACE, _BREAK, _DIGIT, _E, _OTHER = range(5)
_BREAKS = b"\n\r\x0b\x0c\x1c\x1d\x1e"
_CLASS = bytes(
    _SPACE if c in b" \t\x1f"
    else _BREAK if c in _BREAKS
    else _DIGIT if c in b"0123456789"
    else _E if c == ord("e")
    else _OTHER
    for c in range(256)
)
# keeps digits and turns every other byte into a space
_DIGITS = bytes(c if c in b"0123456789" else ord(" ") for c in range(256))
# The bulk parser reads the text in chunks of at least this many bytes,
# each ending just after a line break (or at the end of the text), so its
# transient arrays follow the chunk; only the endpoint array follows m.
_CHUNK = 1 << 20
_BREAK_AT = re.compile(f"[{_BREAKS.decode()}]")


def parse_instance(text: str) -> Instance:
    """Parse instance text.

    The text is checked and decoded in bulk with numpy, one line-aligned
    chunk at a time, into one preallocated endpoint array, so the parse holds
    one chunk's arrays beyond that array and what build_graph makes of it.
    Only text the bulk check rejects goes through the line-by-line reader,
    which names the offending line (or reads the rare forms the bulk check
    leaves to it, such as non-ASCII whitespace or a '+' sign).  A self-loop
    or a duplicate edge is named with the ids as the file writes them."""
    parsed = _parse_bulk(text)
    if parsed is None:
        parsed = _parse_lines(text)
    n, edges, k, w = parsed
    try:
        graph = build_graph(n, edges)
    except ValueError as exc:
        # past the vertex count, every endpoint is in range, so the fault is
        # a self-loop or a duplicate edge: name it as the file writes it
        raise ParseError(str(exc) if n > MAX_VERTICES else _edge_fault(edges)) from exc
    return Instance(graph=graph, w=w, k=k)


def _edge_fault(edges) -> str:
    """The fault build_graph names in edges whose endpoints are in range, the
    first self-loop in input order, else the smallest duplicated pair, with
    1-indexed ids."""
    pairs = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1) + 1
    loop = pairs[:, 0] == pairs[:, 1]
    if loop.any():
        return f"self-loop at vertex {pairs[loop.argmax(), 0]}"
    unique, counts = np.unique(pairs, axis=0, return_counts=True)
    return f"duplicate edge {tuple(unique[(counts > 1).argmax()].tolist())}"


def _parse_bulk(text: str):
    """(n, (m, 2) edge array, k, w), or None when the text is not one header
    line, comment lines, blank lines and exactly m edge lines of decimal
    endpoints in 1..n, in that order."""
    if "\x85" in text or "\u2028" in text or "\u2029" in text:
        return None  # the line breaks of str.splitlines beyond ASCII
    header, out, filled, start = None, None, 0, 0
    while start < len(text):
        found = _BREAK_AT.search(text, start + _CHUNK - 1)
        end = found.end() if found else len(text)
        # a leading break stands for the one before the chunk; a non-ASCII
        # character becomes '?', which only a comment line may hold
        data = b"\n" + text[start:end].encode("ascii", errors="replace")
        start = end
        cls = np.frombuffer(bytearray(data.translate(_CLASS)), dtype=np.uint8)
        breaks = np.flatnonzero(cls == _BREAK)
        # line i spans bytes bounds[i] + 1 .. bounds[i + 1] - 1
        bounds = np.concatenate(([-1], breaks, [len(data)]))
        blanked = []
        # every line that is not an edge line holds a byte of class _OTHER
        header_end = 0
        for line in np.unique(np.searchsorted(breaks, np.flatnonzero(cls == _OTHER))).tolist():
            a, b = int(bounds[line]) + 1, int(bounds[line + 1])
            parts = data[a:b].decode().split()
            if parts[0] == "p" and header is None and len(parts) == 6 and parts[1] == "msvc":
                if not all(x.isdigit() for x in parts[2:]):
                    return None
                header_end, header = b, [int(x) for x in parts[2:]]
                # each edge line takes at least 6 bytes, the last one 5
                if 6 * header[1] > len(text) + 1:
                    return None
                out = np.empty(2 * header[1], dtype=np.int64)
            elif not parts[0].startswith("c"):
                return None
            cls[a:b] = _SPACE
            blanked.append((a, b))
        is_digit = cls == _DIGIT
        numbers = np.flatnonzero(is_digit[1:] & ~is_digit[:-1]) + 1
        es = np.flatnonzero(cls == _E)
        if numbers.size != 2 * es.size:
            return None
        if not es.size:
            continue
        # each 'e' stands alone after a space or break and is followed on its
        # line by exactly two numbers; the next 'e' starts a later line
        line_end = bounds[np.searchsorted(breaks, es) + 1]
        if not (
            out is not None
            and filled + numbers.size <= out.size
            and es[0] > header_end
            and es[-1] + 1 < len(data)
            and (cls[es - 1] <= _BREAK).all()
            and (cls[es + 1] == _SPACE).all()
            and (es < numbers[0::2]).all()
            and (numbers[1::2] < line_end).all()
            and (line_end[:-1] < es[1:]).all()
        ):
            return None
        digits = bytearray(data.translate(_DIGITS))
        for a, b in blanked:
            digits[a:b] = b" " * (b - a)
        values = np.fromstring(bytes(digits), dtype=np.int64, sep=" ")
        if values.size != numbers.size:
            return None
        out[filled : filled + values.size] = values
        filled += values.size
    # an endpoint too large for int64 reads as its maximum, outside 1..n
    if header is None or filled != out.size or out.min(initial=1) < 1 or out.max(initial=0) > header[0]:
        return None
    out -= 1
    n, m, k, w = header
    return n, out.reshape(m, 2), k, w


def _parse_lines(text: str):
    """(n, edge list, k, w) read line by line; raises ParseError naming the
    first offending line."""
    n = m = k = w = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(parts) != 6 or parts[1] != "msvc":
                raise ParseError(f"line {lineno}: expected 'p msvc <n> <m> <k> <w>'")
            try:
                n, m, k, w = (int(x) for x in parts[2:])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-integer header field") from exc
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative n or m")
            if k < 0 or w < 0:
                raise ParseError(f"line {lineno}: negative k or w")
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-integer endpoint") from exc
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise ParseError(f"line {lineno}: endpoint outside 1..{n}")
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise ParseError("missing 'p msvc' header")
    if len(edges) != m:
        raise ParseError(f"header declares m={m} edges, found {len(edges)}")
    return n, edges, k, w


def write_ordering(ordering: Ordering) -> str:
    n = ordering.n
    if not n:
        return "\n"
    blocks = list(_decimal_rows((ordering.array,), b" "))
    blocks[-1] = blocks[-1][:-1] + "\n"
    return "".join(blocks)


def parse_ordering(text: str, n: int) -> Ordering:
    tokens = text.split()
    if len(tokens) != n:
        raise ParseError(f"expected {n} vertex ids, found {len(tokens)}")
    try:
        seq = [int(t) - 1 for t in tokens]
    except ValueError as exc:
        raise ParseError("non-integer vertex id in ordering") from exc
    try:
        return Ordering.from_sequence(seq)
    except OrderingError:
        # name the bad id as the file writes it
        raise ParseError(str(_permutation_error(np.asarray(seq) + 1, n, low=1))) from None


def read_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def read_ordering(path: str, n: int) -> Ordering:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ordering(fh.read(), n)
