"""Text formats for the four structure kinds.

graph       first line "n m", then m lines "a b" per undirected edge;
            duplicate and self-loop lines are rejected.
poset       first line "n m", then m lines "a b" meaning a < b is a
            cover, read straight into one order row per point; the
            closure is taken, so a full order relation is accepted too.
metric      first line "n", then n rows of n space-separated exact
            rationals ("p/q", integers, or finite decimals), each of at
            most 1000 characters and exponent at most 1000 in size;
            an integral entry is held as an int, any other as a
            Fraction.
hypergraph  first line "n m", then m lines "a b c" per 3-edge.

All points are 0-indexed.  Tokens are runs of non-whitespace, read one
at a time from the text.  Parse errors cite the 1-based line and column
of the offending token, with lines as ``str.splitlines`` splits them,
or column 1 of the last line at the end of input; the position is
worked out only for the error.  A hypergraph parses into its point
count and edge list, the arguments of ``core.hypergraph_lines``.
"""

from __future__ import annotations

import re
from typing import Iterable, TextIO

from .core import bits_of
from .errors import ParseError
from .graphs import Graph
from .metrics import MetricSpace
from .posets import Poset

_TOKEN = re.compile(r"\S+")
# The characters ``str.splitlines`` breaks a line on; "\r\n" is one break.
_BREAKS = ("\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# A metric entry has at most this many characters and at most this
# large a decimal exponent, so that Fraction builds it cheaply and its
# numerator and denominator print within Python's 4300-digit limit.
_MAX_ENTRY = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)$")


class _Tokens:
    """Whitespace tokens of a text, read one at a time.

    Each token comes with its offset in the text; its 1-based line and
    column are worked out from the text before it only when a
    ``ParseError`` cites it, so no table of every token is built.
    """

    def __init__(self, text: str):
        self.text = text
        self.matches = _TOKEN.finditer(text)

    def error(self, message: str, start: int | None) -> ParseError:
        """A ParseError at the token that starts at offset ``start``, or
        at the start of the last line when ``start`` is None.

        The line breaks before the position are counted in place with
        ``str.count``, one count per break character less one per CR LF
        pair, and the line start is found with ``str.rfind``, so no part
        of the text is copied."""
        text = self.text
        # A token starts with a non-space, so the text up to and
        # including that character ends on the token's line.
        end = len(text) if start is None else start + 1
        line = 1 - text.count("\r\n", 0, end)
        line_start = 0
        for brk in _BREAKS:
            line += text.count(brk, 0, end)
            line_start = max(line_start, text.rfind(brk, 0, end) + 1)
        # No line follows a final line break, and an empty text is line 1.
        line = line - (line_start == end) or 1
        return ParseError(message, line, 1 if start is None else end - line_start)

    def take(self, what: str) -> tuple[str, int]:
        match = next(self.matches, None)
        if match is None:
            raise self.error(f"expected {what}, found end of input", None)
        return match[0], match.start()

    def take_int(self, what: str, low: int, high: int) -> tuple[int, int]:
        token, start = self.take(what)
        try:
            value = int(token)
        except ValueError:
            raise self.error(f"expected {what}, found {token!r}", start)
        if not low <= value <= high:
            raise self.error(f"{what} {value} out of range {low}..{high}", start)
        return value, start

    def finish(self) -> None:
        match = next(self.matches, None)
        if match is not None:
            raise self.error(f"unexpected extra token {match[0]!r}", match.start())


def _header(tokens: _Tokens) -> tuple[int, int]:
    n, _ = tokens.take_int("point count n", 1, 10**6)
    m, _ = tokens.take_int("entry count m", 0, 10**9)
    return n, m


def parse_graph(text: str) -> Graph:
    tokens = _Tokens(text)
    n, m = _header(tokens)
    rows = [0] * n
    for _ in range(m):
        a, start = tokens.take_int("edge endpoint", 0, n - 1)
        b, _ = tokens.take_int("edge endpoint", 0, n - 1)
        if a == b:
            raise tokens.error(f"self-loop at vertex {a}", start)
        if rows[a] >> b & 1:
            raise tokens.error(f"duplicate edge {a} {b}", start)
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    tokens.finish()
    # Symmetric, loop-free and inside 0..n-1 by the checks above.
    return Graph._from_rows(rows)


def parse_poset(text: str) -> Poset:
    tokens = _Tokens(text)
    n, m = _header(tokens)
    rows = [0] * n
    for _ in range(m):
        a, start = tokens.take_int("cover endpoint", 0, n - 1)
        b, _ = tokens.take_int("cover endpoint", 0, n - 1)
        if a == b:
            raise tokens.error(f"cover relates point {a} to itself", start)
        rows[a] |= 1 << b
    tokens.finish()
    # Inside 0..n-1 by the checks above; Poset takes the closure and
    # rejects cycles.
    return Poset(rows)


def parse_metric(text: str) -> MetricSpace:
    from fractions import Fraction  # only a metric needs it: kept off the start-up path

    tokens = _Tokens(text)
    # At most 1000 points: the triangle check is O(n^3), so at most 10^9 steps.
    n, _ = tokens.take_int("point count n", 1, 1000)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            token, start = tokens.take("distance entry")
            if len(token) > _MAX_ENTRY:
                raise tokens.error(
                    f"distance entry longer than {_MAX_ENTRY} characters", start
                )
            exponent = _EXPONENT.search(token)
            if exponent and abs(int(exponent[1])) > _MAX_ENTRY:
                raise tokens.error(
                    f"distance {token!r}: exponent beyond +-{_MAX_ENTRY}", start
                )
            try:
                value = Fraction(token)
            except (ValueError, ZeroDivisionError):
                raise tokens.error(
                    f"distance {token!r} is not an exact rational", start
                )
            # An integral entry is held as an int, which sums and compares
            # far faster than a Fraction and prints the same digits.
            row.append(value.numerator if value.denominator == 1 else value)
        rows.append(row)
    tokens.finish()
    return MetricSpace(rows)


def parse_hypergraph(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    tokens = _Tokens(text)
    n, m = _header(tokens)
    edges = []
    for _ in range(m):
        a, start = tokens.take_int("edge vertex", 0, n - 1)
        b, _ = tokens.take_int("edge vertex", 0, n - 1)
        c, _ = tokens.take_int("edge vertex", 0, n - 1)
        if len({a, b, c}) != 3:
            raise tokens.error(f"edge {a} {b} {c} repeats a vertex", start)
        edges.append((a, b, c))
    tokens.finish()
    return n, edges


def render_points(mask: int) -> str:
    """The points of a mask in ascending order, separated by spaces."""
    return " ".join(map(str, bits_of(mask)))


# A jsonl line row, byte for byte ``json.dumps`` of its members and
# generating pairs: slots for the member list and the pair list.
_JSONL_LINE = '{"members": [%s], "generators": [%s]}'


def render_line_system(runs: Iterable[tuple], out: TextIO, fmt: str = "text") -> None:
    """Write one row per line of a line system, given as the runs of
    ``core.line_system`` and in their order, then a final count row.

    A text row lists the points of its line; parsing the rows back as
    sets recovers the member sets exactly.  A jsonl row holds the
    members and the generating pairs.  A bare pair's row is printed
    from the pair, and each run is written as one block, so no list of
    every line or row is held.
    """
    jsonl = fmt == "jsonl"
    count = 0
    for a, bare, line in runs:
        rows = []
        if bare:
            # One row per point b, "a b" or its jsonl form, joined at once.
            if jsonl:
                template = _JSONL_LINE % (f"{a}, %d", f"[{a}, %d]")
                rows.append("\n".join(map(template.__mod__, zip(bare, bare))))
            else:
                head = f"{a} "
                rows.append(head + ("\n" + head).join(map(str, bare)))
        if line is not None:
            members, pairs = line
            if jsonl:
                rows.append(_JSONL_LINE % (
                    ", ".join(map(str, members)),
                    ", ".join(["[%d, %d]" % pair for pair in pairs]),
                ))
            else:
                rows.append(" ".join(map(str, members)))
        count += len(bare) + (line is not None)
        if rows:
            rows.append("")
            out.write("\n".join(rows))
    out.write(f'{{"count": {count}}}\n' if jsonl else f"count {count}\n")
