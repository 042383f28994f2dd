"""Exact combinatorics: binomials and lexicographic k-subsets of [1..n].

Every placement and delivery routine indexes file pieces by k-subsets,
so subset enumeration order must be deterministic.  A subset is the
sorted tuple of its elements, as itertools.combinations yields it, and
the canonical order used throughout is lexicographic on those tuples.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, islice, zip_longest
from operator import add, sub
from typing import Iterator

BLOCK = 1 << 12  # subsets per block of drop_ranks: a caller keeps only what it builds


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


def drop_ranks(n: int, t: int) -> Iterator[tuple[list[tuple[int, ...]], list[list[int]]]]:
    """The (t+1)-subsets S of [1..n] in lexicographic order, in blocks of up to BLOCK, as
    columns: per position k, each S[k] and the rank among t-subsets of S minus S[k].  The S
    with S[0] = e drop it to the last C(n - e, t) t-subsets in order; dropping S[k + 1] in
    place of S[k] adds C(n - S[k + 1], t - k) - C(n - S[k], t - k) to the rank."""
    top, subsets = math.comb(n, t), combinations(range(1, n + 1), t + 1)
    level = [[math.comb(n - e, t - k) for e in range(n + 1)] for k in range(t)]
    firsts = chain.from_iterable(range(top - math.comb(n - e, t), top) for e in range(1, n + 1))
    while block := [*islice(subsets, BLOCK)]:
        columns, ranks = [*zip(*block)], [[*islice(firsts, len(block))]]
        for k, at in enumerate(level):
            gain = map(sub, map(at.__getitem__, columns[k + 1]), map(at.__getitem__, columns[k]))
            ranks.append([*map(add, ranks[-1], gain)])
        yield columns, ranks


def drop_rank_rows(n: int, t: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """drop_ranks row by row: each S as its (S[k], rank of S minus S[k]) pairs."""
    return chain.from_iterable(zip(*map(zip, *block)) for block in drop_ranks(n, t))


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
