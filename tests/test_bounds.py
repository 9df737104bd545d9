from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linesys import DomainError, dbe_bound, min_pair_sum


def compositions(n, parts):
    """All ordered splits of n into `parts` nonnegative integers."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, parts - 1):
            yield (first,) + rest


def test_bounds_reject_an_n_whose_value_would_not_print():
    cap = 10**2000
    assert len(str(dbe_bound(cap, 2))) == 4000
    assert len(str(min_pair_sum(cap, 1))) == 4000
    # An n past Python's 4300-digit str limit must not reach a message.
    for n in (cap + 1, 10**5000):
        for parts in (1, 2):
            with pytest.raises(DomainError, match=r"need n <= 10\*\*2000"):
                min_pair_sum(n, parts)
            with pytest.raises(DomainError, match=r"need n <= 10\*\*2000"):
                dbe_bound(n, parts)


def test_min_pair_sum_examples():
    assert min_pair_sum(5, 2) == 4          # sizes (3, 2)
    assert min_pair_sum(6, 3) == 3          # sizes (2, 2, 2)
    assert min_pair_sum(4, 2) == 2          # sizes (2, 2)


def test_min_pair_sum_seven_into_three_matches_composition_search():
    best = min(sum(comb(size, 2) for size in c) for c in compositions(7, 3))
    assert best == 5
    assert min_pair_sum(7, 3) == 5


def test_min_pair_sum_matches_composition_search_up_to_nine():
    for n in range(1, 10):
        for parts in range(1, n + 1):
            best = min(
                sum(comb(size, 2) for size in c) for c in compositions(n, parts)
            )
            assert min_pair_sum(n, parts) == best, (n, parts)


def test_min_pair_sum_domain():
    with pytest.raises(DomainError):
        min_pair_sum(3, 0)
    with pytest.raises(DomainError):
        min_pair_sum(3, 4)


def test_dbe_bound_hand_expanded_values():
    assert dbe_bound(6, 3) == 6
    assert dbe_bound(10, 2) == 2 * comb(5, 2) + 5 * 0 + 2 == 22
    assert dbe_bound(9, 2) == 2 * comb(4, 2) + 4 * 1 + 2 == 18


def test_dbe_bound_domain():
    with pytest.raises(DomainError):
        dbe_bound(5, 1)
    with pytest.raises(DomainError):
        dbe_bound(5, 6)


@given(
    st.integers(min_value=2, max_value=60).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=2, max_value=n))
    )
)
def test_dbe_bound_at_least_n_with_equality_iff_height_at_least_half(case):
    n, height = case
    value = dbe_bound(n, height)
    assert value >= n
    assert (value == n) == (2 * height >= n)


def test_smoothing_never_increases_the_pair_total():
    for big, small in product(range(2, 15), range(0, 13)):
        if big - small > 1:
            assert comb(big, 2) + comb(small, 2) >= comb(big - 1, 2) + comb(
                small + 1, 2
            )


def test_smoothing_example_five_one():
    assert comb(4, 2) + comb(2, 2) == 7 <= comb(5, 2) + comb(1, 2) == 10
