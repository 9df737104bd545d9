import json
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linesys import (
    HeightError,
    Poset,
    ProcessStep,
    UniversalLineError,
    bits_of,
    build_certificate,
    certificate_issues,
    comparability_graph,
    dbe_bound,
    maximum_chain_through_levels,
)
import linesys.construct as construct
from linesys.construct import CLOSE, LOWER_TOP, RAISE_BOTTOM, SPLIT
from linesys.construct import _adjacency_line
from linesys.graphs import has_universal_line
from reference import (
    all_lines,
    enumerate_posets,
    graph_betweenness,
    levels,
    line_mask_set,
    line_of,
    poset_betweenness,
)

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
    assert cert.layers == (0b1001, 0b0010, 0b0100)
    assert list(cert.layer_pairs()) == [(0, 3)]
    kinds = [step.kind for step in cert.steps]
    assert kinds == [RAISE_BOTTOM, CLOSE]
    first, second = cert.steps
    assert (first.bottom, first.top, first.probe) == (1, 3, 3)
    assert first.lines == (0b1001, 0b1010, 0b1100)
    assert (second.bottom, second.top, second.probe) == (3, 3, None)
    assert second.lines == (0b0111,)
    assert cert.total_distinct == 4 == dbe_bound(4, 3) == p.bound
    assert certificate_issues(cert, p) == []


def test_weak_order_certificate_meets_bound_and_is_a_subset_of_all_lines():
    # {0, 1} below {2, 3} elementwise.
    p = Poset.from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    cert = build_certificate(p)
    assert dbe_bound(4, 2) == 4
    assert cert.total_distinct >= 4
    everything = {mask for mask, _ in all_lines(poset_betweenness(p))}
    assert set(recorded_masks(cert)) <= everything
    assert len(everything) >= cert.total_distinct
    assert certificate_issues(cert, p) == []


def test_split_step_on_a_poset_with_an_incomparable_probe():
    # Chain 0 < 1 and isolated 2: probe 2 is incomparable with both ends.
    p = Poset.from_covers(3, [(0, 1)])
    cert = build_certificate(p)
    assert [step.kind for step in cert.steps] == [SPLIT]
    step = cert.steps[0]
    assert step.probe == 2
    assert step.lines == (0b101, 0b110, 0b011)
    assert cert.total_distinct == 3 == p.bound
    assert certificate_issues(cert, p) == []


def test_lower_top_step():
    # Chain 0 < 1 < 2 with an extra point 3 below the bottom only:
    # 3 < 0 forces 3 < 1, 3 < 2, so use 3 > nothing and attach under 0.
    # Probe comparable with the bottom and incomparable with the top.
    p = Poset.from_covers(4, [(0, 1), (1, 2), (0, 3)])
    cert = build_certificate(p)
    assert cert.chain == (0, 1, 2)
    kinds = [step.kind for step in cert.steps]
    assert kinds[0] == LOWER_TOP
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


def test_the_replay_compares_the_distinct_total_with_the_bound(monkeypatch):
    # With a planted undercount the build still succeeds, since it counts
    # nothing, and the replay reports the total below the bound.
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    monkeypatch.setattr(construct, "_distinct_lines", lambda layers, steps: 3)
    cert = build_certificate(p)
    assert certificate_issues(cert, p) == ["3 distinct lines, below the bound 4"]


def test_certificate_issues_recomputes_every_recorded_line():
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    cert = build_certificate(p)
    assert certificate_issues(cert, p) == []
    # Point 0 toggled in each recorded line in turn: each step names the
    # line that recomputes to different members.
    for s, step in enumerate(cert.steps):
        for i in range(len(step.lines)):
            lines = list(step.lines)
            lines[i] ^= 1
            steps = list(cert.steps)
            steps[s] = step._replace(lines=tuple(lines))
            assert certificate_issues(cert._replace(steps=tuple(steps)), p) == [
                f"step {s + 1} line {i + 1} recomputes to different members"
            ]
    # Point 0 toggled in the first level: its pair with 3 is gone.
    layers = (0b1000, *cert.layers[1:])
    assert certificate_issues(cert._replace(layers=layers), p) == [
        "layers are not the levels of the poset",
        "layers do not partition the points",
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
    assert set(recorded_masks(cert)) <= everything


def recorded_masks(cert):
    """Every line the certificate stands for, with repeats: the bare
    pair of each pair inside a level, then each step's lines."""
    return [1 << a | 1 << b for a, b in cert.layer_pairs()] + [
        mask for step in cert.steps for mask in step.lines
    ]


def step_generators(cert):
    """Each step with the generating pairs of its lines, derived from
    the walk: the probe with the chain points of the range the step
    covers (its window for a fan, up to the next bottom or from the
    next top otherwise), then for a fan or a closing step the pair of
    the chain's ends."""
    chain, steps = cert.chain, cert.steps
    ends = [(chain[0], chain[-1])]
    for k, step in enumerate(steps):
        lo, hi = step.bottom, step.top
        if step.kind == RAISE_BOTTOM:
            hi = steps[k + 1].bottom
        elif step.kind == LOWER_TOP:
            lo = steps[k + 1].top
        if step.kind == CLOSE:
            pairs = ends
        else:
            pairs = [(c, step.probe) for c in chain[lo - 1 : hi]]
            if step.kind == SPLIT:
                pairs += ends
        yield step, pairs


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
        for a, b in cert.layer_pairs():
            assert 1 << a | 1 << b == line_of(rel, a, b), (p.succ, a, b)
        for step, pairs in step_generators(cert):
            assert len(pairs) == len(step.lines), (p.succ, step)
            for (a, b), mask in zip(pairs, step.lines):
                assert a != b and mask == line_of(rel, a, b), (p.succ, a, b)
                checked += 1
    assert checked > 0


def test_distinct_total_equals_the_expanded_certificate_up_to_n5():
    # The closed-form total (the pairs of each level, plus the step lines
    # that are no such pair) against the distinct masks of every line
    # the certificate stands for.
    certs = 0
    for p in certified_posets(5):
        cert = build_certificate(p)
        assert cert.total_distinct == len(set(recorded_masks(cert))), p.succ
        certs += 1
    assert certs == 3620  # 3,450 of them at n = 5, as the sweep certifies


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
def test_distinct_total_equals_the_expanded_certificate_up_to_n12(case):
    n, covers = case
    p = Poset.from_covers(n, covers)
    if p.height < 2 or (1 << n) - 1 in line_mask_set(poset_betweenness(p)):
        return
    cert = build_certificate(p)
    assert cert.total_distinct == len(set(recorded_masks(cert)))
    assert certificate_issues(cert, p) == []


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
    level_of = levels(p)
    top = min(v for v in range(p.size) if level_of[v] == p.height)
    chain = [top]
    for level in range(p.height - 1, 0, -1):
        chain.append(
            min(u for u in bits_of(p.pred[chain[-1]]) if level_of[u] == level)
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
        issues = certificate_issues(cert._replace(chain=chain), p)
        assert issues[0] == "chain names a point outside the poset"


def test_replay_reports_a_probe_outside_the_poset():
    p = Poset.from_covers(4, [(0, 1), (1, 2)])
    cert = build_certificate(p)
    (step,) = cert.steps
    assert (step.kind, step.probe) == (SPLIT, 3)
    for probe in [-1, 4]:
        steps = (step._replace(probe=probe),)
        assert certificate_issues(cert._replace(steps=steps), p) == [
            f"step 1 probe {probe} is not a point of the poset"
        ]


def test_replay_reports_a_layer_point_outside_the_poset():
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    cert = build_certificate(p)
    first, *rest = cert.layers
    for bad in [first | 1 << 4, first | 1 << 9, -first]:
        issues = certificate_issues(cert._replace(layers=(bad, *rest)), p)
        assert issues[:2] == [
            "layers are not the levels of the poset",
            "layers do not partition the points",
        ]


def test_replay_reports_an_unknown_step_kind():
    # A label that names no step kind leaves the step's lines without
    # generators, so the walk stops there.
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    cert = build_certificate(p)
    first, *later = cert.steps
    assert first.kind == RAISE_BOTTOM
    steps = (first._replace(kind="3"), *later)
    assert certificate_issues(cert._replace(steps=steps), p) == [
        "step 1 records an unknown step kind"
    ]


def test_replay_accepts_step_kinds_read_back_as_plain_labels():
    # A certificate read back from construct's jsonl holds each step kind
    # as a new str equal to its printed label; the replay compares kinds
    # by value, so it finds no defect.
    for p in (BRANCHING, LOWERING, SPLITTING):
        cert = build_certificate(p)
        steps = tuple(
            step._replace(kind=json.loads(json.dumps(step.kind))) for step in cert.steps
        )
        assert certificate_issues(cert._replace(steps=steps), p) == []


def test_replay_against_a_poset_of_height_below_2_reports_it_out_of_scope():
    # The bound starts at height 2, so there is nothing to meet; every
    # other defect is still listed, and nothing is raised.
    cert = build_certificate(BRANCHING)
    assert certificate_issues(cert, Poset.from_covers(4, [])) == [
        "chain does not run through the levels",
        "chain points are not increasing in the order",
        "layers are not the levels of the poset",
        "poset has height below 2; certificate is out of scope",
    ]


# Certificates of three small posets, each tampered one way, with the
# full defect list the replay gives.  The branching poset records a
# raise step then a close step, the lower-top poset a lower step then a
# close step, and the split poset one fan-out step.
BRANCHING = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
LOWERING = Poset.from_covers(4, [(0, 1), (1, 2), (0, 3)])
SPLITTING = Poset.from_covers(3, [(0, 1)])


def with_step(p, index, **changes):
    cert = build_certificate(p)
    steps = list(cert.steps)
    steps[index] = steps[index]._replace(**changes)
    return cert._replace(steps=tuple(steps))


def with_lines(p, index, keep):
    """``p``'s certificate with the lines of step ``index`` sliced."""
    return with_step(p, index, lines=build_certificate(p).steps[index].lines[keep])


def with_steps(p, keep):
    """``p``'s certificate with its steps sliced."""
    cert = build_certificate(p)
    return cert._replace(steps=cert.steps[keep])


def single_fan_on_a_comparable_probe():
    # The branching certificate's lines recorded as one fan-out on
    # probe 3, which lies below the top of the window.
    cert = build_certificate(BRANCHING)
    raise_step, close = cert.steps
    fan = ProcessStep(SPLIT, 1, 3, 3, raise_step.lines + close.lines)
    return cert._replace(steps=(fan,))


WALK_DEFECTS = {
    "chain-off-the-levels": (
        lambda: build_certificate(BRANCHING)._replace(chain=(0, 2)), BRANCHING,
        ["chain does not run through the levels"],
    ),
    "chain-through-the-wrong-levels": (
        lambda: build_certificate(BRANCHING)._replace(chain=(0, 3, 2)), BRANCHING,
        [
            "chain does not run through the levels",
            "chain points are not increasing in the order",
            "step 1 line 2 recomputes to different members",
        ],
    ),
    "chain-not-increasing": (
        lambda: build_certificate(BRANCHING)._replace(chain=(3, 1, 2)), BRANCHING,
        [
            "chain points are not increasing in the order",
            "step 1 probe 3 lies inside the window line",
            "step 1 line 1 recomputes to different members",
            "step 2 line 1 recomputes to different members",
        ],
    ),
    "no-steps": (
        lambda: with_steps(BRANCHING, slice(0)), BRANCHING,
        ["certificate records no process steps"],
    ),
    "stops-late": (
        lambda: with_steps(BRANCHING, slice(1)), BRANCHING,
        ["step 1 stops in the wrong place", "3 distinct lines, below the bound 4"],
    ),
    "closing-probe": (
        lambda: with_step(BRANCHING, 1, probe=3), BRANCHING,
        ["closing step on an open window"],
    ),
    "closing-lines": (
        lambda: with_step(BRANCHING, 1, lines=()), BRANCHING,
        [
            "closing step does not add the full-chain line",
            "3 distinct lines, below the bound 4",
        ],
    ),
    "lacks-probe": (
        lambda: with_step(BRANCHING, 0, probe=None), BRANCHING,
        ["step 1 lacks a probe point"],
    ),
    "raise-on-a-lowering-probe": (
        lambda: with_step(LOWERING, 0, kind=RAISE_BOTTOM), LOWERING,
        [
            "step 1 raises the bottom on the wrong probe",
            "step 1 does not strictly raise the bottom",
        ],
    ),
    "raise-range": (
        lambda: with_lines(BRANCHING, 0, slice(2)), BRANCHING,
        [
            "step 1 lines do not match the raised range",
            "3 distinct lines, below the bound 4",
        ],
    ),
    "lower-on-a-raising-probe": (
        lambda: with_step(BRANCHING, 0, kind=LOWER_TOP), BRANCHING,
        [
            "step 1 lowers the top on the wrong probe",
            "step 1 does not strictly lower the top",
        ],
    ),
    "lower-range": (
        lambda: with_lines(LOWERING, 0, slice(1, None)), LOWERING,
        [
            "step 1 lines do not match the lowered range",
            "3 distinct lines, below the bound 4",
        ],
    ),
    "fan-on-a-comparable-probe": (
        single_fan_on_a_comparable_probe, BRANCHING,
        ["step 1 fans out on a comparable probe"],
    ),
    "fan-range": (
        lambda: with_lines(SPLITTING, 0, slice(2)), SPLITTING,
        ["step 1 fan does not cover the window", "2 distinct lines, below the bound 3"],
    ),
}


@pytest.mark.parametrize("defect", sorted(WALK_DEFECTS))
def test_replay_names_each_walk_defect(defect):
    tampered, p, expected = WALK_DEFECTS[defect]
    assert certificate_issues(tampered(), p) == expected


def with_line(cert, index, mask):
    """``cert`` with its recorded step line number ``index`` (the steps'
    lines in order) replaced by ``mask``; also the 1-based step and
    line numbers the replay names."""
    steps = list(cert.steps)
    for s, step in enumerate(steps):
        if index < len(step.lines):
            lines = list(step.lines)
            lines[index] = mask
            steps[s] = step._replace(lines=tuple(lines))
            return cert._replace(steps=tuple(steps)), s + 1, index + 1
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
    lines = [mask for step in cert.steps for mask in step.lines]
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    point = data.draw(st.integers(0, p.size - 1), label="point")
    tampered, step, line = with_line(cert, index, lines[index] ^ 1 << point)
    issues = certificate_issues(tampered, p)
    assert f"step {step} line {line} recomputes to different members" in issues


@given(tamper_strategy, st.data())
@settings(max_examples=150, deadline=None)
def test_replay_catches_a_flipped_layer_point(case, data):
    p, cert = certified(case)
    index = data.draw(st.integers(0, len(cert.layers) - 1), label="layer")
    point = data.draw(st.integers(0, p.size - 1), label="point")
    layers = list(cert.layers)
    layers[index] ^= 1 << point
    issues = certificate_issues(cert._replace(layers=tuple(layers)), p)
    assert issues[:2] == [
        "layers are not the levels of the poset",
        "layers do not partition the points",
    ]


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
    steps[pos] = step._replace(probe=probe)
    issues = certificate_issues(cert._replace(steps=tuple(steps)), p)
    assert f"step {pos + 1} probe {probe} lies inside the window line" in issues


def test_replay_reports_a_universal_line_of_the_poset():
    # The branching example's certificate replayed on 0 < 1 < 2 with
    # 3 < 1: same size, height and levels, but the line of 1 < 2 holds
    # every point.
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    q = Poset.from_covers(4, [(0, 1), (1, 2), (3, 1)])
    assert q.layers == p.layers
    assert certificate_issues(build_certificate(p), q) == [
        "step 1 line 2 recomputes to different members",
        "step 1 line 3 recomputes to different members",
        "poset has a universal line; certificate is out of scope",
    ]


# {0, 1, 2} below {3, 4, 5} elementwise: two levels of three points,
# six layer lines, and exactly dbe_bound(6, 2) = 8 distinct lines.  Its
# steps record the lines {0, 1}, {1, 3} and {0, 3}.
bipartite_order = [(a, b) for a in range(3) for b in range(3, 6)]
NOT_THE_LEVELS = "layers are not the levels of the poset"
NO_PARTITION = "layers do not partition the points"


def bipartite_certificate():
    p = Poset.from_covers(6, bipartite_order)
    cert = build_certificate(p)
    assert cert.layers == (0b000111, 0b111000)
    assert cert.total_distinct == p.bound == 8
    return p, cert


def replay_with_layers(layers):
    p, cert = bipartite_certificate()
    return certificate_issues(cert._replace(layers=layers), p)


def test_replay_reports_a_dropped_layer_line():
    # Point 5 dropped from the top level takes the lines of (3, 5) and
    # (4, 5) with it.
    assert replay_with_layers((0b000111, 0b011000)) == [
        NOT_THE_LEVELS, NO_PARTITION, "6 distinct lines, below the bound 8"
    ]


def test_replay_reports_a_duplicated_layer_line():
    for layer in (0b000111, 0b111000):
        assert replay_with_layers((0b000111, 0b111000, layer)) == [
            NOT_THE_LEVELS, NO_PARTITION
        ]


def test_replay_reports_a_foreign_layer_line():
    # Point 3 moved down a level: its pairs with 0, 1 and 2 join
    # comparable points.  The count reads the recorded layers, so the
    # step lines {0, 3} and {1, 3} now pass for layer pairs and the top
    # level's pairs of 3 are lost.
    assert replay_with_layers((0b001111, 0b110000)) == [
        NOT_THE_LEVELS, "layer 1 is not an antichain",
        "7 distinct lines, below the bound 8",
    ]


def test_replay_reports_swapped_layers():
    assert replay_with_layers((0b111000, 0b000111)) == [NOT_THE_LEVELS]


def test_replay_reports_merged_layers():
    merged = (0b111111,)
    assert replay_with_layers(merged) == [NOT_THE_LEVELS, "layer 1 is not an antichain"]
    # With the levels themselves wrong the same way, the antichain check
    # still objects.
    p, cert = bipartite_certificate()
    p.layers = merged
    assert certificate_issues(cert._replace(layers=merged), p) == [
        "layer 1 is not an antichain"
    ]


def test_replay_reports_a_split_layer():
    # The bottom level split in two: the pairs of 2 with 0 and 1 are
    # lost, and only {0, 1} of the step lines is a layer pair.
    assert replay_with_layers((0b000011, 0b000100, 0b111000)) == [
        NOT_THE_LEVELS, "6 distinct lines, below the bound 8"
    ]


def test_replay_reports_too_few_distinct_lines():
    # Weak order {0, 1} below {2, 3}: exactly dbe_bound(4, 2) = 4 lines,
    # and the layer line of (2, 3) is found by no step.
    p = Poset.from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    cert = build_certificate(p)
    assert cert.layers == (0b0011, 0b1100)
    assert cert.total_distinct == p.bound == 4
    steps = list(cert.steps)
    close = steps[-1]
    # The closing line replaced by a copy of a layer line: it recomputes
    # to other members, and one line is lost.
    steps[-1] = close._replace(lines=(0b0011,))
    assert certificate_issues(cert._replace(steps=tuple(steps)), p) == [
        f"step {len(steps)} line 1 recomputes to different members",
        "3 distinct lines, below the bound 4",
    ]
    # A closing step with no line at all.
    steps[-1] = close._replace(lines=())
    assert certificate_issues(cert._replace(steps=tuple(steps)), p) == [
        "closing step does not add the full-chain line",
        "3 distinct lines, below the bound 4",
    ]


def test_replay_reports_a_broken_window_accounting_identity():
    # The first window must span the whole chain; recording 1..2 instead
    # of 1..3 leaves every later step consistent.  The moves between
    # windows telescope, so the accounting identity over the recorded
    # windows reduces to the first window's span, which the walk checks.
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    cert = build_certificate(p)
    first, *later = cert.steps
    assert (first.bottom, first.top) == (1, 3)
    steps = (first._replace(top=2), *later)
    assert certificate_issues(cert._replace(steps=steps), p) == [
        "step 1 records window 1..2, expected 1..3",
    ]


def test_a_tampered_first_window_is_the_first_defect_up_to_n5():
    # verify and the sweeps print the first defect, so it is the one
    # that must not move when the first window is recorded wrong.
    tampered = 0
    for p in certified_posets(5):
        cert = build_certificate(p)
        first, *later = cert.steps
        height = p.height
        for bottom in range(1, height + 1):
            for top in range(1, height + 1):
                if (bottom, top) == (1, height):
                    continue
                steps = (first._replace(bottom=bottom, top=top), *later)
                issues = certificate_issues(cert._replace(steps=steps), p)
                assert issues[:1] == [
                    f"step 1 records window {bottom}..{top}, expected 1..{height}"
                ], (p.succ, bottom, top)
                tampered += 1
    assert tampered == 26790


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
