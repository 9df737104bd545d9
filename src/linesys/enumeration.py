"""Exhaustive generation of all labeled posets on small ground sets,
and their canonical integer encoding.

A poset is encoded by the state of each pair a < b in lexicographic
pair order (0 incomparable, 1 a < b, 2 b < a), read as a big-endian
base-3 number.  Posets are enumerated by backtracking over that pair
order on successor and predecessor rows: ``_fits`` admits a state only
if it keeps every triple of placed pairs transitive, so the codes
ascend in enumeration order and each poset comes with its order rows.
The decoder of a code places its digits with the same rule.
"""

from __future__ import annotations

from itertools import chain, combinations, repeat
from typing import Iterable, Iterator

from .core import check_size, pair_list
from .errors import DomainError
from .posets import Poset


def _fits(succ: list[int], pred: list[int], b: int, c: int, s: int) -> bool:
    """Whether pair (b, c), b < c, may take state s, given the rows of
    every placed pair: all pairs (a, b) and (a, c) with a < b are placed,
    so each triple a < b < c is decided once (b, c) is."""
    low = (1 << b) - 1
    if s == 0:  # no a lies between b and c
        return not (succ[b] & pred[c] | succ[c] & pred[b]) & low
    if s == 1:  # b < c: every a below b is below c, every a above c is above b
        return not (pred[b] & ~pred[c] | succ[c] & ~succ[b]) & low
    # c < b: the mirror case
    return not (pred[c] & ~pred[b] | succ[b] & ~succ[c]) & low


def _place(succ: list[int], pred: list[int], b: int, c: int, s: int) -> None:
    # Toggles the bits of state s, so a second call takes it back.
    if s == 1:
        succ[b] ^= 1 << c
        pred[c] ^= 1 << b
    elif s == 2:
        succ[c] ^= 1 << b
        pred[b] ^= 1 << c


def _iter_states(
    n: int, prefix: tuple[int, ...] = ()
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """``(code, succ rows)`` of every poset whose leading pair states
    are ``prefix``, in ascending code order.

    Yields nothing when the prefix itself breaks transitivity.
    """
    pairs = pair_list(n)
    succ, pred = [0] * n, [0] * n

    def extend(q: int, code: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        if q == len(pairs):
            yield code, tuple(succ)
            return
        b, c = pairs[q]
        for s in (prefix[q],) if q < len(prefix) else range(3):
            if _fits(succ, pred, b, c, s):
                _place(succ, pred, b, c, s)
                yield from extend(q + 1, code * 3 + s)
                _place(succ, pred, b, c, s)

    yield from extend(0, 0)


def poset_from_state(n: int, state: Iterable[int]) -> Poset:
    """The poset on n points with the given pair states, in lexicographic
    pair order; DomainError at the first state no poset has there."""
    succ, pred = [0] * n, [0] * n
    for (b, c), s in zip(combinations(range(n), 2), state):
        if not _fits(succ, pred, b, c, s):
            raise DomainError(
                f"pair ({b}, {c}) cannot take state {s}: "
                f"not the code of a poset on {n} points"
            )
        _place(succ, pred, b, c, s)
    return Poset(succ)


def _pair_states(succ: list[int], pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    return tuple(1 if succ[a] >> b & 1 else 2 if succ[b] >> a & 1 else 0 for a, b in pairs)


def _first_comparable(p: Poset) -> tuple[int, int] | None:
    """The first pair a < b, in pair order, of comparable points; None
    for an antichain."""
    for a in range(p.size):
        later = (p.succ[a] | p.pred[a]) >> a + 1
        if later:
            return a, a + (later & -later).bit_length()
    return None


def state_code(state: Iterable[int]) -> int:
    """Big-endian base-3 encoding of a pair-state vector."""
    code = 0
    for s in state:
        code = code * 3 + s
    return code


def poset_code(p: Poset) -> int:
    """The ``state_code`` of the pair states of ``p``.  Only the digits
    from the first comparable pair on are built, since those before it
    are leading zeros, and they are coded by halves: on C(n, 2) digits
    the digit-by-digit loop is quadratic, and large inputs reach it."""
    first = _first_comparable(p)
    if first is None:
        return 0
    a, b = first
    n = p.size
    pairs = chain(zip(repeat(a), range(b, n)), combinations(range(a + 1, n), 2))
    return _code_by_halves(_pair_states(p.succ, pairs))


def _code_by_halves(state: tuple[int, ...]) -> int:
    if len(state) <= 64:
        return state_code(state)
    half = len(state) // 2
    return (
        _code_by_halves(state[:half]) * 3 ** (len(state) - half)
        + _code_by_halves(state[half:])
    )


def poset_from_code(n: int, code: int) -> Poset:
    """The poset on n points whose ``poset_code`` is ``code``.

    Raises SizeError for n < 1, and DomainError for a code outside
    0..3**C(n, 2)-1 and for one that no poset has: a digit that breaks
    transitivity.
    """
    total = check_size(n) * (n - 1) // 2
    if not 0 <= code < 3**total:
        raise DomainError(f"poset code {code} is outside 0..3**{total}-1 for n = {n}")
    digits = [0] * total
    rest = code
    for q in range(total - 1, -1, -1):
        rest, digits[q] = divmod(rest, 3)
    return poset_from_state(n, digits)
