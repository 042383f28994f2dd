"""Exact combinatorics: binomials and lexicographic k-subsets of [1..n].

Every placement and delivery routine indexes file pieces by k-subsets,
so subset enumeration order must be deterministic.  A subset is the
sorted tuple of its elements, as itertools.combinations yields it, and
the canonical order used throughout is lexicographic on those tuples.
"""

from __future__ import annotations

import math
from itertools import combinations


def binom(n: int, k: int) -> int:
    """n choose k, with the convention that out-of-range k gives 0."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def enumerate_ksubsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of [1..n] in lexicographic order; empty when k > n."""
    if k < 0 or k > n:
        return []
    return list(combinations(range(1, n + 1), k))


def without(subset: tuple[int, ...], element: int) -> tuple[int, ...]:
    """The subset with one element removed (element must be present)."""
    i = subset.index(element)
    return subset[:i] + subset[i + 1:]


def rank_ksubset(n: int, s: tuple[int, ...]) -> int:
    """Position of the subset s of [1..n] in the lexicographic enumeration
    of its (n, len(s)) class."""
    k = len(s)
    rank = 0
    prev = 0
    for i, e in enumerate(s):
        for v in range(prev + 1, e):
            rank += binom(n - v, k - i - 1)
        prev = e
    return rank


def unrank_ksubset(n: int, k: int, rank: int) -> tuple[int, ...]:
    """Inverse of rank_ksubset for the (n, k) class."""
    total = binom(n, k)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range [0, {total}) for ({n}, {k})")
    elems = []
    v = 1
    remaining = k
    while remaining > 0:
        block = binom(n - v, remaining - 1)
        if rank < block:
            elems.append(v)
            remaining -= 1
        else:
            rank -= block
        v += 1
    return tuple(elems)
