"""Text formats for the four structure kinds.

graph       first line "n m", then m lines "a b" per undirected edge;
            duplicate and self-loop lines are rejected.
poset       first line "n m", then m lines "a b" meaning a < b is a
            cover; the closure is taken, so a full order relation is
            accepted too.
metric      first line "n", then n rows of n space-separated exact
            rationals ("p/q", integers, or finite decimals), each of at
            most 1000 characters and exponent at most 1000 in size.
hypergraph  first line "n m", then m lines "a b c" per 3-edge.

All points are 0-indexed.  Parse errors cite the 1-based line and
column of the offending token.  A hypergraph parses into its point
count and edge list, the arguments of ``core.hypergraph_lines``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import bits_of
from .errors import ParseError
from .graphs import Graph
from .metrics import MetricSpace
from .posets import Poset

_TOKEN = re.compile(r"\S+")
# A metric entry has at most this many characters and at most this
# large a decimal exponent, so that Fraction builds it cheaply and its
# numerator and denominator print within Python's 4300-digit limit.
_MAX_ENTRY = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)$")


class _Tokens:
    """Whitespace tokens of a text, with 1-based line/column positions."""

    def __init__(self, text: str):
        self.items: list[tuple[str, int, int]] = []
        last_line = 1
        for line_no, line in enumerate(text.splitlines(), start=1):
            last_line = line_no
            for match in _TOKEN.finditer(line):
                self.items.append((match.group(), line_no, match.start() + 1))
        self.pos = 0
        self.end = (last_line, 1)

    def take(self, what: str) -> tuple[str, int, int]:
        if self.pos >= len(self.items):
            raise ParseError(f"expected {what}, found end of input", *self.end)
        item = self.items[self.pos]
        self.pos += 1
        return item

    def take_int(self, what: str, low: int, high: int) -> tuple[int, int, int]:
        token, line, column = self.take(what)
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"expected {what}, found {token!r}", line, column)
        if not low <= value <= high:
            raise ParseError(
                f"{what} {value} out of range {low}..{high}", line, column
            )
        return value, line, column

    def finish(self) -> None:
        if self.pos < len(self.items):
            token, line, column = self.items[self.pos]
            raise ParseError(f"unexpected extra token {token!r}", line, column)


def _header(tokens: _Tokens) -> tuple[int, int]:
    n, _, _ = tokens.take_int("point count n", 1, 10**6)
    m, _, _ = tokens.take_int("entry count m", 0, 10**9)
    return n, m


def parse_graph(text: str) -> Graph:
    tokens = _Tokens(text)
    n, m = _header(tokens)
    rows = [0] * n
    for _ in range(m):
        a, line, column = tokens.take_int("edge endpoint", 0, n - 1)
        b, _, _ = tokens.take_int("edge endpoint", 0, n - 1)
        if a == b:
            raise ParseError(f"self-loop at vertex {a}", line, column)
        if rows[a] >> b & 1:
            raise ParseError(f"duplicate edge {a} {b}", line, column)
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    tokens.finish()
    # Symmetric, loop-free and inside 0..n-1 by the checks above.
    return Graph._from_rows(rows)


def parse_poset(text: str) -> Poset:
    tokens = _Tokens(text)
    n, m = _header(tokens)
    covers = []
    for _ in range(m):
        a, line, column = tokens.take_int("cover endpoint", 0, n - 1)
        b, _, _ = tokens.take_int("cover endpoint", 0, n - 1)
        if a == b:
            raise ParseError(f"cover relates point {a} to itself", line, column)
        covers.append((a, b))
    tokens.finish()
    return Poset.from_covers(n, covers)


def parse_metric(text: str) -> MetricSpace:
    tokens = _Tokens(text)
    n, _, _ = tokens.take_int("point count n", 1, 10**4)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            token, line, column = tokens.take("distance entry")
            if len(token) > _MAX_ENTRY:
                raise ParseError(
                    f"distance entry longer than {_MAX_ENTRY} characters", line, column
                )
            exponent = _EXPONENT.search(token)
            if exponent and abs(int(exponent[1])) > _MAX_ENTRY:
                raise ParseError(
                    f"distance {token!r}: exponent beyond +-{_MAX_ENTRY}", line, column
                )
            try:
                value = Fraction(token)
            except (ValueError, ZeroDivisionError):
                raise ParseError(
                    f"distance {token!r} is not an exact rational", line, column
                )
            row.append(value)
        rows.append(row)
    tokens.finish()
    return MetricSpace(rows)


def parse_hypergraph(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    tokens = _Tokens(text)
    n, m = _header(tokens)
    edges = []
    for _ in range(m):
        a, line, column = tokens.take_int("edge vertex", 0, n - 1)
        b, _, _ = tokens.take_int("edge vertex", 0, n - 1)
        c, _, _ = tokens.take_int("edge vertex", 0, n - 1)
        if len({a, b, c}) != 3:
            raise ParseError(f"edge {a} {b} {c} repeats a vertex", line, column)
        edges.append((a, b, c))
    tokens.finish()
    return n, edges


def render_points(mask: int) -> str:
    """The points of a mask in ascending order, separated by spaces."""
    return " ".join(map(str, bits_of(mask)))


def render_line_system(lines: list[tuple[int, list]]) -> str:
    """One row of points per ``(mask, pairs)`` entry of a line system
    (as ``line_system`` lists them), in list order, plus a final
    count row; parsing the rows back as sets recovers the member sets
    exactly."""
    rows = [render_points(mask) for mask, _ in lines]
    rows.append(f"count {len(lines)}")
    return "\n".join(rows)
