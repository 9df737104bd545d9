import io
import json
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesys import (
    CycleError,
    ParseError,
    bits_of,
    graph_lines,
    parse_graph,
    parse_hypergraph,
    parse_metric,
    parse_poset,
    render_line_system,
)
import linesys.formats as formats
from linesys.formats import _Tokens, render_points
from reference import all_lines, enumerate_graphs, graph_betweenness

GRAPH_K3_PLUS_ISOLATED = "4 3\n0 1\n0 2\n1 2\n"


def test_parse_graph():
    g = parse_graph(GRAPH_K3_PLUS_ISOLATED)
    assert g.adj == (0b0110, 0b0101, 0b0011, 0)
    assert g.size == 4


def test_parse_graph_errors_cite_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_graph("3 2\n0 1\n0 x\n")
    assert err.value.line == 3 and err.value.column == 3
    with pytest.raises(ParseError) as err:
        parse_graph("3 1\n0 7\n")
    assert err.value.line == 2 and err.value.column == 3
    with pytest.raises(ParseError, match="self-loop"):
        parse_graph("3 1\n1 1\n")
    with pytest.raises(ParseError, match="duplicate edge"):
        parse_graph("3 2\n0 1\n1 0\n")
    with pytest.raises(ParseError, match="end of input"):
        parse_graph("3 2\n0 1\n")
    with pytest.raises(ParseError, match="extra token"):
        parse_graph("3 1\n0 1\n2\n")


def test_parse_poset_accepts_covers_or_full_relation():
    covers = parse_poset("3 2\n0 1\n1 2\n")
    full = parse_poset("3 3\n0 1\n1 2\n0 2\n")
    assert covers.succ == full.succ
    assert covers.height == 3


def test_parse_poset_errors():
    with pytest.raises(ParseError, match="itself"):
        parse_poset("3 1\n2 2\n")
    with pytest.raises(CycleError):
        parse_poset("3 2\n0 1\n1 0\n")


def test_parse_metric_exact_rationals():
    m = parse_metric("3\n0 1/2 1\n1/2 0 1/2\n1 1/2 0\n")
    assert m.dist[0][1] == Fraction(1, 2)
    decimal = parse_metric("2\n0 0.5\n0.5 0\n")
    assert decimal.dist[0][1] == Fraction(1, 2)


def test_parse_metric_rejects_junk():
    with pytest.raises(ParseError, match="exact rational") as err:
        parse_metric("2\n0 abc\nabc 0\n")
    assert err.value.line == 2 and err.value.column == 3


def symmetric_pair(entry):
    return f"2\n0 {entry}\n{entry} 0\n"


@pytest.mark.parametrize(
    "entry, value",
    [
        ("1e1000", Fraction(10**1000)),
        ("1E-1000", Fraction(1, 10**1000)),
        ("1_0e+1_0", Fraction(10**11)),
        ("9" * 1000, Fraction(int("9" * 1000))),
    ],
    ids=["exponent", "negative-exponent", "underscores", "long-integer"],
)
def test_parse_metric_accepts_entries_up_to_its_size_bounds(entry, value):
    assert parse_metric(symmetric_pair(entry)).dist[0][1] == value


@pytest.mark.parametrize(
    "entry, match",
    [
        ("1e1001", r"exponent beyond \+-1000"),
        ("2.5e-1_001", r"exponent beyond \+-1000"),
        ("1e999999999", r"exponent beyond \+-1000"),
        ("9" * 1001, "longer than 1000 characters"),
        ("1/" + "3" * 999, "longer than 1000 characters"),
    ],
    ids=["exponent", "negative-exponent", "huge-exponent", "long-integer", "long-ratio"],
)
def test_parse_metric_rejects_oversized_entries(entry, match):
    with pytest.raises(ParseError, match=match) as err:
        parse_metric(symmetric_pair(entry))
    assert err.value.line == 2 and err.value.column == 3


def test_parse_hypergraph():
    assert parse_hypergraph("4 2\n0 1 2\n0 1 3\n") == (4, [(0, 1, 2), (0, 1, 3)])
    with pytest.raises(ParseError, match="repeats"):
        parse_hypergraph("4 1\n0 1 1\n")


PARSERS = {
    "graph": parse_graph,
    "poset": parse_poset,
    "metric": parse_metric,
    "hypergraph": parse_hypergraph,
}

# (kind, text, line, column, message): line breaks of every kind that
# str.splitlines knows, blank leading lines, trailing whitespace, the
# end of input with and without a final newline, and bad tokens on the
# last line.  A line break is one of its characters, "\r\n" one break.
PARSE_ERROR_POSITIONS = [
    ("graph", "3 2\r\n0 1\r\n0 x\r\n", 3, 3, "expected edge endpoint, found 'x'"),
    ("graph", "3 2\r0 1\r0 x", 3, 3, "expected edge endpoint, found 'x'"),
    ("graph", "3 1\x0b  0 7\x0b", 2, 5, "edge endpoint 7 out of range 0..2"),
    ("graph", "3 1\x0c1 1\x0c", 2, 1, "self-loop at vertex 1"),
    ("graph", "3 2\x1c0 1\x1c1 0\x1c", 3, 1, "duplicate edge 1 0"),
    ("graph", "3 2\x850 1\x85", 2, 1, "expected edge endpoint, found end of input"),
    ("graph", "3 2\u20280 1", 2, 1, "expected edge endpoint, found end of input"),
    ("graph", "3 2\x1d0 1\x1e\u2029", 3, 1, "expected edge endpoint, found end of input"),
    ("graph", "3 2\r\r\n0 1\n\r0 1", 5, 1, "duplicate edge 0 1"),
    ("graph", "\n\n  3 1\n0 1 \n2  \n", 5, 1, "unexpected extra token '2'"),
    ("graph", "\r\n\r\n3 1\r\n0 5", 4, 3, "edge endpoint 5 out of range 0..2"),
    ("graph", "", 1, 1, "expected point count n, found end of input"),
    ("graph", "\n", 1, 1, "expected point count n, found end of input"),
    ("graph", "   ", 1, 1, "expected point count n, found end of input"),
    ("graph", "3 2\n0 1\n", 2, 1, "expected edge endpoint, found end of input"),
    ("graph", "3 2\n0 1", 2, 1, "expected edge endpoint, found end of input"),
    ("graph", "3 2\n0 1\n\n\n", 4, 1, "expected edge endpoint, found end of input"),
    ("graph", "3 2\n0 1\n   \t", 3, 1, "expected edge endpoint, found end of input"),
    ("graph", "3 1\n0 1\n2", 3, 1, "unexpected extra token '2'"),
    ("graph", "3 1\n0\t\t1 2 x", 2, 6, "unexpected extra token '2'"),
    ("graph", "0 0\n", 1, 1, "point count n 0 out of range 1..1000000"),
    ("graph", "\n 3 x\n", 2, 4, "expected entry count m, found 'x'"),
    ("poset", "3 1\r\n2 2\r\n", 2, 1, "cover relates point 2 to itself"),
    ("poset", "3 1\x85 0 9", 2, 4, "cover endpoint 9 out of range 0..2"),
    ("poset", "3 2\u20280 1", 2, 1, "expected cover endpoint, found end of input"),
    ("poset", "", 1, 1, "expected point count n, found end of input"),
    ("poset", "3 0\x0c\x0cz", 3, 1, "unexpected extra token 'z'"),
    ("poset", "\x1c\x1c3 1\x1c\x1c0 1 \x1c2", 6, 1, "unexpected extra token '2'"),
    ("metric", "2\r\n0 abc\r\nabc 0\r\n", 2, 3, "distance 'abc' is not an exact rational"),
    ("metric", "2\x0b0 1\x0b1", 3, 1, "expected distance entry, found end of input"),
    ("metric", "2\x1c0 1\x1c1 0 \x1c 5", 4, 2, "unexpected extra token '5'"),
    ("metric", "\n\n2\n0 " + "9" * 1001 + "\n", 4, 3,
     "distance entry longer than 1000 characters"),
    ("metric", "2\u20280 1e1001", 2, 3, "distance '1e1001': exponent beyond +-1000"),
    ("metric", "x", 1, 1, "expected point count n, found 'x'"),
    ("metric", "2\n0 1/0\n1 0", 2, 3, "distance '1/0' is not an exact rational"),
    ("metric", "2\r0 1\r\r1 0\r\r 7", 6, 2, "unexpected extra token '7'"),
    ("metric", "", 1, 1, "expected point count n, found end of input"),
    ("hypergraph", "4 1\r0 1 1\r", 2, 1, "edge 0 1 1 repeats a vertex"),
    ("hypergraph", "4 1\x0c0 1 5", 2, 5, "edge vertex 5 out of range 0..3"),
    ("hypergraph", "4 2\x850 1 2\x85", 2, 1, "expected edge vertex, found end of input"),
    ("hypergraph", "4 1\u20280 1 2 3", 2, 7, "unexpected extra token '3'"),
    ("hypergraph", "", 1, 1, "expected point count n, found end of input"),
    ("hypergraph", "4 1\n\n0 1 2  \n\n\t5", 5, 2, "unexpected extra token '5'"),
]


@pytest.mark.parametrize("kind, text, line, column, message", PARSE_ERROR_POSITIONS)
def test_parse_errors_cite_the_position_of_the_token(kind, text, line, column, message):
    with pytest.raises(ParseError) as err:
        PARSERS[kind](text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([
    "0", "12", "x/y", " ", "\t", "\x1f", "\n", "\r\n", "\r", "\x0b", "\x0c",
    "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]), max_size=30))
def test_every_token_is_cited_at_its_line_and_column(pieces):
    text = "".join(pieces)
    # Each line of str.splitlines, its tokens numbered from column 1.
    expected = [
        (match[0], line, match.start() + 1)
        for line, row in enumerate(text.splitlines(), start=1)
        for match in re.finditer(r"\S+", row)
    ]
    tokens = _Tokens(text)
    cited = []
    for match in re.finditer(r"\S+", text):
        err = tokens.error("", match.start())
        cited.append((match[0], err.line, err.column))
    assert cited == expected
    end = tokens.error("", None)
    assert (end.line, end.column) == (max(len(text.splitlines()), 1), 1)


@pytest.mark.parametrize("kind", ["graph", "poset"])
def test_parsing_holds_no_table_of_every_token(kind):
    # K_{300,300}: 90,000 edge or cover lines, about 720 kB of text.
    # The traced peak is the rows (a poset's closure and layers too) and
    # a few tokens, far below the text.
    side = 300
    text = f"{2 * side} {side * side}\n" + "".join(
        f"{a} {b}\n" for a in range(side) for b in range(side, 2 * side)
    )
    parse = parse_graph if kind == "graph" else parse_poset
    tracemalloc.start()
    try:
        parsed = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = parsed.adj[0] if kind == "graph" else parsed.succ[0]
    assert row == ((1 << side) - 1) << side
    assert peak < len(text) // 4, (peak, len(text))


@pytest.mark.parametrize("block", [1, 2, 3, 5])
@pytest.mark.parametrize("text", [
    "0 \r\n1\r\n\r\n x\r\r\n2\x0b\x0c\x1cy\x1d\x1e\x85\u2028\u2029z\n\r\n",
    "\r\n\r\n ab\r\n\n\rcd\r\n\r\r\ne \x85f",
], ids=["every-break", "crlf-runs"])
def test_error_positions_do_not_depend_on_the_block_size(monkeypatch, text, block):
    # The position is counted a block at a time: blocks end everywhere,
    # between the two characters of a "\r\n" too at both parities.
    monkeypatch.setattr(formats, "_BLOCK", block)
    expected = [
        (line, match.start() + 1)
        for line, row in enumerate(text.splitlines(), start=1)
        for match in re.finditer(r"\S+", row)
    ]
    tokens = _Tokens(text)
    cited = [tokens.error("", match.start()) for match in re.finditer(r"\S+", text)]
    assert [(err.line, err.column) for err in cited] == expected
    end = tokens.error("", None)
    assert (end.line, end.column) == (len(text.splitlines()), 1)


@pytest.mark.parametrize("last, line, message", [
    ("", 90000, "expected edge endpoint, found end of input"),
    ("x 599\n", 90001, "expected edge endpoint, found 'x'"),
])
def test_a_late_parse_error_holds_no_list_of_every_line(last, line, message):
    # K_{300,300} with its last edge line cut or spoilt: the error cites
    # the last lines, and its position is worked out in bounded memory.
    side = 300
    edges = [f"{a} {b}\n" for a in range(side) for b in range(side, 2 * side)]
    text = f"{2 * side} {side * side}\n" + "".join(edges[:-1]) + last
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"line {line}, column 1: {message}"
    assert peak < len(text) // 4, (peak, len(text))


def render(runs, fmt="text"):
    out = io.StringIO()
    render_line_system(runs, out, fmt)
    return out.getvalue()


def test_render_round_trip():
    g = parse_graph(GRAPH_K3_PLUS_ISOLATED)
    rows = render(graph_lines(g)).splitlines()
    assert rows[-1] == "count 4"
    parsed = {sum(1 << int(tok) for tok in row.split()) for row in rows[:-1]}
    assert parsed == {mask for mask, _ in all_lines(graph_betweenness(g))}


def test_render_is_sorted():
    g = parse_graph(GRAPH_K3_PLUS_ISOLATED)
    assert render(graph_lines(g)) == "0 1 2\n0 3\n1 3\n2 3\ncount 4\n"


def test_render_prints_each_oracle_entry_in_both_formats():
    # Rows printed from the runs equal rows printed from the oracle's
    # entries: the points of each mask, and json.dumps of members and
    # generators, on every graph with 2 to 5 vertices.
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            entries = all_lines(graph_betweenness(g))
            assert render(graph_lines(g)) == "".join(
                [render_points(mask) + "\n" for mask, _ in entries]
            ) + f"count {len(entries)}\n"
            assert render(graph_lines(g), "jsonl") == "".join(
                json.dumps({
                    "members": list(bits_of(mask)),
                    "generators": [list(pair) for pair in pairs],
                }) + "\n"
                for mask, pairs in entries
            ) + json.dumps({"count": len(entries)}) + "\n"
