"""Exact combinatorics: binomials and lexicographic k-subsets of [1..n].

Every placement and delivery routine indexes file pieces by k-subsets,
so subset enumeration order must be deterministic.  A subset is the
sorted tuple of its elements, as itertools.combinations yields it, and
the canonical order used throughout is lexicographic on those tuples.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations, zip_longest
from operator import getitem, sub
from typing import Iterator


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


def member_bits(n: int, t: int) -> tuple[int, ...]:
    """Per element i of [1..n], as bits over the lexicographic t-subsets of [1..n], those
    holding i.  The C(m-1, s-1) s-subsets of [1..m] holding 1 come first (1's bits), then
    i's are i-1's over [1..m-1] at s-1 OR i-1's at s shifted past them; built up in m."""
    rows = {}  # by s >= 1, over [1..m]; a missing row holds no bits
    for m in range(1, n + 1):
        rows = {s: [(1 << (first := math.comb(m - 1, s - 1))) - 1] + [
                    low | high << first
                    for low, high in zip_longest(rows.get(s - 1, ()), rows.get(s, ()), fillvalue=0)]
                for s in range(max(1, t - n + m), min(t, m) + 1)}
    return tuple(rows.get(t, [0] * n))


def drop_ranks(n: int, t: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Each (t+1)-subset S of [1..n] in lexicographic order, with the rank of S minus u
    among the t-subsets for each u in S, in O(t) per S: rank(R) = C(n, t) - 1 - the sum of
    C(n - R[i], t - i + 1) over 1-based i, as a prefix sum before u and a suffix after."""
    before = [[math.comb(n - e, t - i) for e in range(n + 1)] for i in range(t + 1)]
    after = [[math.comb(n - e, t - i + 1) for e in range(n + 1)] for i in range(t, -1, -1)]
    top = math.comb(n, t) - 1
    for s in combinations(range(1, n + 1), t + 1):
        heads = accumulate(map(getitem, before, s), sub, initial=top)
        tails = [*accumulate(map(getitem, after, reversed(s)), initial=0)]
        yield s, [*map(sub, heads, tails[-2::-1])]


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
