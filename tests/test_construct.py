from dataclasses import replace
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linesys import (
    HeightError,
    Poset,
    StepKind,
    UniversalLineError,
    all_lines,
    bits_of,
    build_certificate,
    certificate_issues,
    comparability_graph,
    dbe_bound,
    enumerate_posets,
    graph_betweenness,
    line_mask_set,
    line_of,
    maximum_chain_through_levels,
    poset_betweenness,
)
from linesys.construct import _adjacency_line
from linesys.graphs import has_universal_line

poset_strategy = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=12,
        ),
    )
)


def test_branching_example_full_trace():
    # 0 < 1 < 2 with 3 < 2 only: one layer pair, a raise step, a close step.
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    cert = build_certificate(p)
    assert cert.chain == (0, 1, 2)
    assert [mask for _, mask in cert.layer_lines] == [0b1001]
    kinds = [step.kind for step in cert.steps]
    assert kinds == [StepKind.RAISE_BOTTOM, StepKind.CLOSE]
    first, second = cert.steps
    assert (first.bottom, first.top, first.probe) == (1, 3, 3)
    assert [mask for _, mask in first.lines] == [0b1001, 0b1010, 0b1100]
    assert (second.bottom, second.top, second.probe) == (3, 3, None)
    assert [mask for _, mask in second.lines] == [0b0111]
    assert cert.total_distinct == 4 == dbe_bound(4, 3) == cert.bound
    assert certificate_issues(cert, p) == []


def test_weak_order_certificate_meets_bound_and_is_a_subset_of_all_lines():
    # {0, 1} below {2, 3} elementwise.
    p = Poset.from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    cert = build_certificate(p)
    assert dbe_bound(4, 2) == 4
    assert cert.total_distinct >= 4
    everything = {mask for mask, _ in all_lines(poset_betweenness(p))}
    assert {mask for _, mask in cert.layer_lines + cert.process_lines()} <= everything
    assert len(everything) >= cert.total_distinct
    assert certificate_issues(cert, p) == []


def test_split_step_on_a_poset_with_an_incomparable_probe():
    # Chain 0 < 1 and isolated 2: probe 2 is incomparable with both ends.
    p = Poset.from_covers(3, [(0, 1)])
    cert = build_certificate(p)
    assert [step.kind for step in cert.steps] == [StepKind.SPLIT]
    step = cert.steps[0]
    assert step.probe == 2
    assert [mask for _, mask in step.lines] == [0b101, 0b110, 0b011]
    assert cert.total_distinct == 3 == cert.bound
    assert certificate_issues(cert, p) == []


def test_lower_top_step():
    # Chain 0 < 1 < 2 with an extra point 3 below the bottom only:
    # 3 < 0 forces 3 < 1, 3 < 2, so use 3 > nothing and attach under 0.
    # Probe comparable with the bottom and incomparable with the top.
    p = Poset.from_covers(4, [(0, 1), (1, 2), (0, 3)])
    cert = build_certificate(p)
    assert cert.chain == (0, 1, 2)
    kinds = [step.kind for step in cert.steps]
    assert kinds[0] == StepKind.LOWER_TOP
    assert certificate_issues(cert, p) == []


def test_universal_line_poset_is_rejected():
    with pytest.raises(UniversalLineError):
        build_certificate(Poset.from_covers(3, [(0, 1), (1, 2)]))
    with pytest.raises(UniversalLineError):
        build_certificate(Poset.from_covers(4, [(0, 1), (1, 2), (2, 3)]))


def test_antichain_is_rejected_for_height():
    with pytest.raises(HeightError):
        build_certificate(Poset.from_covers(4, []))


def test_certificate_issues_flags_tampering():
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    cert = build_certificate(p)
    # replay against a different poset of the same shape data
    other = Poset.from_covers(4, [(0, 1), (1, 2), (0, 3)])
    assert certificate_issues(cert, other) != []


def test_certificate_issues_recomputes_every_recorded_line():
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    cert = build_certificate(p)
    assert certificate_issues(cert, p) == []

    def flip_first(lines):
        # One point of the first recorded line toggled, its pair kept.
        (pair, mask), *rest = lines
        return pair, ((pair, mask ^ 1), *rest)

    pair, layer_lines = flip_first(cert.layer_lines)
    assert certificate_issues(replace(cert, layer_lines=layer_lines), p) == [
        f"line of pair {pair} recomputes to different members"
    ]
    step, *later = cert.steps
    pair, step_lines = flip_first(step.lines)
    steps = (replace(step, lines=step_lines), *later)
    assert certificate_issues(replace(cert, steps=steps), p) == [
        f"line of pair {pair} recomputes to different members"
    ]


@given(poset_strategy)
@settings(max_examples=150, deadline=None)
def test_random_posets_yield_valid_certificates_meeting_the_bound(case):
    n, covers = case
    p = Poset.from_covers(n, covers)
    if p.height < 2 or (1 << n) - 1 in line_mask_set(poset_betweenness(p)):
        return
    cert = build_certificate(p)
    assert certificate_issues(cert, p) == []
    assert cert.total_distinct >= dbe_bound(n, p.height)
    # window accounting identity over the recorded steps
    windows = [(s.bottom, s.top) for s in cert.steps]
    k = len(windows)
    moved = sum(
        windows[i + 1][0] - windows[i][0] + windows[i][1] - windows[i + 1][1] - 1
        for i in range(k - 1)
    )
    assert moved == p.height - k - (windows[-1][1] - windows[-1][0])
    # monotone window with strict movement on every non-final step
    for i in range(k - 1):
        b0, t0 = windows[i]
        b1, t1 = windows[i + 1]
        assert b0 <= b1 <= t1 <= t0
        assert (b1 > b0) != (t1 < t0)


@given(poset_strategy)
@settings(max_examples=100, deadline=None)
def test_certified_lines_all_appear_in_the_full_line_system(case):
    n, covers = case
    p = Poset.from_covers(n, covers)
    if p.height < 2 or (1 << n) - 1 in line_mask_set(poset_betweenness(p)):
        return
    cert = build_certificate(p)
    everything = {mask for mask, _ in all_lines(poset_betweenness(p))}
    assert {mask for _, mask in cert.layer_lines + cert.process_lines()} <= everything


def certified_posets(max_n):
    """Every poset on 2..max_n points whose certificate is defined:
    height at least 2 and no universal line."""
    for n in range(2, max_n + 1):
        for p in enumerate_posets(n):
            if p.height >= 2 and (1 << n) - 1 not in line_mask_set(poset_betweenness(p)):
                yield p


def test_built_lines_equal_the_order_relation_up_to_n5():
    checked = 0
    for p in certified_posets(5):
        rel = poset_betweenness(p)
        cert = build_certificate(p)
        for (a, b), mask in cert.layer_lines + cert.process_lines():
            assert a < b and mask == line_of(rel, a, b), (p.succ, a, b)
            checked += 1
    assert checked > 0


def test_replay_lines_equal_the_graph_relation_up_to_n5():
    for p in certified_posets(5):
        g = comparability_graph(p)
        rel = graph_betweenness(g)
        for a, b in permutations(range(p.size), 2):
            assert _adjacency_line(g.adj, a, b) == line_of(rel, a, b), (p.succ, a, b)


def min_based_chain(p):
    """The top-down chain through the levels, each point found by
    ``min`` over the candidates on its level; an oracle independent of
    the layer masks."""
    top = min(v for v in range(p.size) if p.levels[v] == p.height)
    chain = [top]
    for level in range(p.height - 1, 0, -1):
        chain.append(
            min(u for u in bits_of(p.pred[chain[-1]]) if p.levels[u] == level)
        )
    chain.reverse()
    return tuple(chain)


def test_maximum_chain_matches_the_min_based_construction_up_to_n5():
    for n in range(1, 6):
        for p in enumerate_posets(n):
            assert maximum_chain_through_levels(p) == min_based_chain(p), p.succ


def test_replay_reports_a_chain_point_outside_the_poset():
    p = Poset.from_covers(4, [(0, 1), (1, 2)])
    cert = build_certificate(p)
    assert cert.chain == (0, 1, 2)
    for chain in [(0, 1, 4), (0, 1, 7), (-1, 1, 2)]:
        issues = certificate_issues(replace(cert, chain=chain), p)
        assert issues[0] == "chain names a point outside the poset"


def test_replay_reports_a_probe_outside_the_poset():
    p = Poset.from_covers(4, [(0, 1), (1, 2)])
    cert = build_certificate(p)
    (step,) = cert.steps
    assert (step.kind, step.probe) == (StepKind.SPLIT, 3)
    for probe in [-1, 4]:
        steps = (replace(step, probe=probe),)
        assert certificate_issues(replace(cert, steps=steps), p) == [
            f"step 1 probe {probe} is not a point of the poset"
        ]


def test_replay_reports_a_line_generator_outside_the_poset():
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    cert = build_certificate(p)
    (pair, mask), *rest = cert.layer_lines
    for bad in [(0, 4), (-1, 3), (3, 3)]:
        tampered = replace(cert, layer_lines=((bad, mask), *rest))
        assert (
            f"line of pair {bad} does not join two points of the poset"
            in certificate_issues(tampered, p)
        )


def with_line(cert, index, line):
    """``cert`` with its recorded line number ``index`` (layer lines
    first, then the steps' lines in order) replaced by ``line``."""
    layer = len(cert.layer_lines)
    if index < layer:
        lines = list(cert.layer_lines)
        lines[index] = line
        return replace(cert, layer_lines=tuple(lines))
    index -= layer
    steps = list(cert.steps)
    for s, step in enumerate(steps):
        if index < len(step.lines):
            lines = list(step.lines)
            lines[index] = line
            steps[s] = replace(step, lines=tuple(lines))
            return replace(cert, steps=tuple(steps))
        index -= len(step.lines)
    raise IndexError(index)


# Posets on at least three points with some order relation: most have a
# certificate, so few examples are filtered out.
tamper_strategy = st.integers(min_value=3, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] < p[1]
            ),
            min_size=1,
            max_size=n,
        ),
    )
)


def certified(case):
    n, covers = case
    p = Poset.from_covers(n, covers)
    assume(p.height >= 2 and (1 << n) - 1 not in line_mask_set(poset_betweenness(p)))
    return p, build_certificate(p)


@given(tamper_strategy, st.data())
@settings(max_examples=150, deadline=None)
def test_replay_catches_a_flipped_line_mask(case, data):
    p, cert = certified(case)
    lines = cert.layer_lines + cert.process_lines()
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    point = data.draw(st.integers(0, p.size - 1), label="point")
    pair, mask = lines[index]
    issues = certificate_issues(with_line(cert, index, (pair, mask ^ 1 << point)), p)
    assert f"line of pair {pair} recomputes to different members" in issues


@given(tamper_strategy, st.data())
@settings(max_examples=150, deadline=None)
def test_replay_catches_a_probe_moved_inside_the_window_line(case, data):
    p, cert = certified(case)
    probing = [pos for pos, step in enumerate(cert.steps) if step.probe is not None]
    assume(probing)
    pos = data.draw(st.sampled_from(probing), label="step")
    step = cert.steps[pos]
    low, high = cert.chain[step.bottom - 1], cert.chain[step.top - 1]
    window = line_of(poset_betweenness(p), low, high)
    probe = data.draw(st.sampled_from(list(bits_of(window))), label="probe")
    steps = list(cert.steps)
    steps[pos] = replace(step, probe=probe)
    issues = certificate_issues(replace(cert, steps=tuple(steps)), p)
    assert f"step {pos + 1} probe {probe} lies inside the window line" in issues


def test_replay_reports_a_universal_line_of_the_poset():
    # The branching example's certificate replayed on 0 < 1 < 2 with
    # 3 < 1: same size, height and levels, but the line of 1 < 2 holds
    # every point.
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    q = Poset.from_covers(4, [(0, 1), (1, 2), (3, 1)])
    assert q.levels == p.levels
    assert certificate_issues(build_certificate(p), q) == [
        "line of pair (1, 3) recomputes to different members",
        "line of pair (2, 3) recomputes to different members",
        "poset has a universal line; certificate is out of scope",
    ]


# {0, 1, 2} below {3, 4, 5} elementwise: two levels of three points,
# six layer lines, and exactly dbe_bound(6, 2) = 8 distinct lines.
bipartite_order = [(a, b) for a in range(3) for b in range(3, 6)]
LAYER_ISSUE = "layer lines do not cover exactly the within-level pairs"


def test_replay_reports_a_dropped_layer_line():
    p = Poset.from_covers(6, bipartite_order)
    cert = build_certificate(p)
    assert [pair for pair, _ in cert.layer_lines][-1] == (4, 5)
    assert cert.total_distinct == cert.bound == 8
    dropped = replace(cert, layer_lines=cert.layer_lines[:-1])
    assert certificate_issues(dropped, p) == [
        LAYER_ISSUE, "7 distinct lines, below the bound 8"
    ]


def test_replay_reports_a_duplicated_layer_line():
    p = Poset.from_covers(6, bipartite_order)
    cert = build_certificate(p)
    for line in cert.layer_lines:
        doubled = replace(cert, layer_lines=(*cert.layer_lines, line))
        assert certificate_issues(doubled, p) == [LAYER_ISSUE]


def test_replay_reports_a_foreign_layer_line():
    # (0, 3) joins two levels; its recorded line is its true one, so
    # only the layer cover fails.
    p = Poset.from_covers(6, bipartite_order)
    cert = build_certificate(p)
    foreign = ((0, 3), 1 << 0 | 1 << 3)
    for index in range(len(cert.layer_lines)):
        lines = list(cert.layer_lines)
        lines[index] = foreign
        issues = certificate_issues(replace(cert, layer_lines=tuple(lines)), p)
        assert issues[0] == LAYER_ISSUE
        assert issues[1:] in ([], ["7 distinct lines, below the bound 8"])


def test_replay_accepts_the_layer_lines_in_any_order():
    p = Poset.from_covers(6, bipartite_order)
    cert = build_certificate(p)
    for lines in permutations(cert.layer_lines):
        assert certificate_issues(replace(cert, layer_lines=lines), p) == []


def test_replay_reports_too_few_distinct_lines():
    # Weak order {0, 1} below {2, 3}: exactly dbe_bound(4, 2) = 4 lines,
    # and the layer line of (2, 3) is found by no step.
    p = Poset.from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    cert = build_certificate(p)
    assert cert.layer_lines == (((0, 1), 0b0011), ((2, 3), 0b1100))
    assert cert.total_distinct == cert.bound == 4
    steps = list(cert.steps)
    close = steps[-1]
    # The closing line replaced by a copy of a layer line: the pairs
    # differ, so the window replay objects too, and one line is lost.
    steps[-1] = replace(close, lines=(((0, 1), 0b0011),))
    assert certificate_issues(replace(cert, steps=tuple(steps)), p) == [
        "closing step does not add the full-chain line",
        "3 distinct lines, below the bound 4",
    ]


def test_replay_reports_a_broken_window_accounting_identity():
    # The first window must span the whole chain; recording 1..2 instead
    # of 1..3 leaves every later step consistent but breaks the identity.
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    cert = build_certificate(p)
    first, *later = cert.steps
    assert (first.bottom, first.top) == (1, 3)
    steps = (replace(first, top=2), *later)
    assert certificate_issues(replace(cert, steps=steps), p) == [
        "step 1 records window 1..2, expected 1..3",
        "window accounting identity fails: 0 != 3 - 2 - 0",
    ]


@given(
    st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda p: p[0] < p[1]
                ),
                max_size=2 * n,
            ),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_universal_check_matches_the_generic_evaluator_on_comparability_graphs(case):
    # The replay's O(n) check, against the full line set of the
    # relation; test_graphs checks every graph up to n = 6.
    n, covers = case
    g = comparability_graph(Poset.from_covers(n, covers))
    lines = line_mask_set(graph_betweenness(g))
    assert has_universal_line(g.adj) == ((1 << n) - 1 in lines)
