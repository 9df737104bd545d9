import io
import json
from fractions import Fraction

import pytest

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
from linesys.formats import render_points
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
