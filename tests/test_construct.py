from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesys import (
    HeightError,
    Poset,
    StepKind,
    UniversalLineError,
    all_lines,
    build_certificate,
    certificate_issues,
    dbe_bound,
    line_mask_set,
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
    everything = set(all_lines(poset_betweenness(p)))
    assert cert.distinct_member_sets() <= everything
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
    everything = set(all_lines(poset_betweenness(p)))
    assert cert.distinct_member_sets() <= everything
