"""Counting bounds behind the poset line guarantees."""

from math import comb

from .errors import DomainError

# n is capped so that every bound, being below n**2, prints within
# Python's 4300-digit limit on int-to-str conversion.
_N_CAP = 10**2000


def min_pair_sum(n: int, parts: int) -> int:
    """Minimum total of within-group pairs over splits of n items into
    ``parts`` groups (empty groups allowed).

    The total sum of C(size, 2) is minimized by the balanced split, whose
    value this closed form evaluates; convexity makes any unbalanced
    split at least as large.
    """
    if n > _N_CAP:
        raise DomainError("need n <= 10**2000, got a larger n")
    if not 1 <= parts <= n:
        raise DomainError(f"need 1 <= parts <= n, got parts={parts}, n={n}")
    q, r = divmod(n, parts)
    return parts * comb(q, 2) + q * r


def dbe_bound(n: int, height: int) -> int:
    """De Bruijn-Erdos-type guaranteed minimum number of distinct lines
    for a poset on n points of the given height (no universal line).

    Equals min_pair_sum(n, height) + height: the balanced within-level
    pair count plus one extra line per level found along a maximum
    chain.  Always at least n, with equality exactly when 2 * height >= n.
    """
    if n > _N_CAP:
        raise DomainError("need n <= 10**2000, got a larger n")
    if not 2 <= height <= n:
        raise DomainError(f"need 2 <= height <= n, got height={height}, n={n}")
    return min_pair_sum(n, height) + height
