import math
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from dualcache import combin
from dualcache.combin import (
    binom,
    drop_rank_rows,
    drop_ranks,
    enumerate_ksubsets,
    rank_ksubset,
    unrank_ksubset,
    without,
)


def test_binom_values():
    assert binom(0, 0) == 1
    assert binom(5, 2) == 10
    assert binom(6, 4) == 15
    assert binom(20, 10) == 184756


def test_binom_out_of_range_is_zero():
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    assert binom(-2, 1) == 0


def test_binom_pascal_recurrence():
    for n in range(1, 15):
        for k in range(n + 1):
            assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_without_drops_one_element():
    s = (1, 3, 5)
    assert without(s, 3) == (1, 5)
    with pytest.raises(ValueError):
        without(s, 2)


def test_enumeration_is_lexicographic():
    subs = enumerate_ksubsets(5, 3)
    assert len(subs) == 10
    assert subs == [
        tuple(c) for c in combinations(range(1, 6), 3)
    ]
    assert enumerate_ksubsets(3, 4) == []
    assert enumerate_ksubsets(4, 0) == [()]


def test_rank_unrank_round_trip_exhaustive():
    for n in range(0, 9):
        for k in range(0, n + 1):
            for rank, s in enumerate(enumerate_ksubsets(n, k)):
                assert rank_ksubset(n, s) == rank
                assert unrank_ksubset(n, k, rank) == s


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        unrank_ksubset(5, 2, 10)
    with pytest.raises(ValueError):
        unrank_ksubset(5, 2, -1)


def test_hockey_stick_identity():
    # sum over n of binom(lam - n, t) telescopes to binom(lam, t+1)
    for lam in range(1, 13):
        for t in range(0, lam + 1):
            total = sum(binom(lam - n, t) for n in range(1, lam - t + 1))
            assert total == binom(lam, t + 1)


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=-5, max_value=65))
def test_binom_matches_math_comb(n, k):
    expected = math.comb(n, k) if 0 <= k <= n else 0
    assert binom(n, k) == expected


@given(st.integers(min_value=0, max_value=12), st.data())
def test_rank_of_random_subset(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    elements = tuple(sorted(data.draw(
        st.sets(st.integers(min_value=1, max_value=max(n, 1)), min_size=k, max_size=k)
    ))) if n else ()
    assert unrank_ksubset(n, k, rank_ksubset(n, elements)) == elements


def test_drop_ranks_match_rank_ksubset(monkeypatch):
    # every (t+1)-subset S of [1..n] in lexicographic order, each with the ranks
    # of S minus u for u in S, for every n <= 12 and t <= n (no S at t = n); in
    # blocks of BLOCK, which no n here fills, and of 5, so that blocks split
    for block in (combin.BLOCK, 5):
        monkeypatch.setattr(combin, "BLOCK", block)
        for n in range(13):
            for t in range(n + 1):
                sizes = []
                for columns, ranks in drop_ranks(n, t):
                    assert len(columns) == len(ranks) == t + 1
                    assert len({*map(len, columns), *map(len, ranks)}) == 1
                    sizes.append(len(ranks[0]))
                assert sizes == [block] * (math.comb(n, t + 1) // block) + (
                    [math.comb(n, t + 1) % block] if math.comb(n, t + 1) % block else [])
                assert list(drop_rank_rows(n, t)) == [
                    tuple((u, rank_ksubset(n, without(s, u))) for u in s)
                    for s in enumerate_ksubsets(n, t + 1)], (n, t)
