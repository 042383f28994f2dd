"""Association-known scheme 1: capacity-limited helper placement with
dedicated-cache-style delivery at rate (K-t)/(t+1).

Each file is split over t-subsets of users (the user split, which the
oblivious scheme also runs).  A helper stores only subfiles covering its
whole user group, the quota q that Ms buys, and a user's private cache takes
what its helper could not hold.  corner_feasible is the one coverage-and-cap
test; scheme1_mixture walks the dedicated-cache lattice from the first level
it passes (_first_level), running a fractional quota as two runs.  Each corner
carries its run (t, q), which place and deliver take.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import add, and_
from typing import Optional, Sequence

from . import bounds
from .combin import binom, drop_ranks
from .model import (
    Association,
    CornerPoint,
    InfeasibleSchemeError,
    NetworkConfig,
    Placement,
    Split,
    Transmission,
    integral,
)


def corner_feasible(k: int, n: int, largest_group: int, t: int, helper_mem: Fraction) -> bool:
    """The one coverage-and-cap test, in ints for Ms = a/b: L1 <= t <= K and Ms
    under the helper cap N*C(K-L1, t-L1)/C(K, t).  Quota integrality is not
    required: a fractional quota blocks a direct run, not a mixture's corner."""
    a, b = helper_mem.as_integer_ratio()
    return (largest_group <= t <= k
            and a * binom(k, t) <= b * n * binom(k - largest_group, t - largest_group))


def _integer_t(config: NetworkConfig) -> int:
    """The user split's level t = K(Ms+Mp)/N."""
    return integral("t", Fraction(config.num_users) * config.total_mem / config.num_files)


def scheme1_params(config: NetworkConfig, assoc: Association) -> tuple[int, int]:
    """The gate of a direct run asked for by memory pair: integer t >= L1, Ms
    under the cap and an integer helper quota q; returns the run (t, q)."""
    k, n, l1 = config.num_users, config.num_files, assoc.largest_group
    t = _integer_t(config)
    if t < l1:
        raise InfeasibleSchemeError(f"t = {t} is below the largest group size {l1}")
    if not corner_feasible(k, n, l1, t, config.helper_mem):
        cap = Fraction(n * binom(k - l1, t - l1), binom(k, t))
        raise InfeasibleSchemeError(f"Ms = {config.helper_mem} exceeds the helper cap {cap}")
    return t, integral("helper quota q", config.helper_mem * binom(k, t) / n)


def user_split_delivery(labels: Sequence[int], k: int, t: int, part: int = 0) -> list:
    """One XOR per (t+1)-subset S of users, exactly the dedicated-cache delivery: each
    user u in S gets its file's piece keyed S minus u, as labels[u - 1] plus that key's
    rank in the user split, a column of drop_ranks; part is the split's layout part."""
    at = (0, *labels)  # by user
    return [Transmission(part, summands) for users, ranks in drop_ranks(k, t)
            for summands in zip(*[map(add, map(at.__getitem__, c), r) for c, r in zip(users, ranks)])]


def _lowest(bits: int, q: int) -> int:
    """The q lowest set bits of bits, or all of them when it has fewer."""
    gaps = bin(bits)[:1:-1].split("1", q)[:q]  # the zeros before each of the first q ones
    return bits & ((1 << sum(map(len, gaps)) + len(gaps)) - 1)


def place_scheme1(assoc: Association, run: tuple[int, int]) -> Placement:
    """Helpers take the q lexicographically smallest group-covering subsets;
    users absorb the rest of their own subsets."""
    q = run[1]
    (keys, _), = parts = layout_scheme1(assoc, run)
    own, every = keys.bits(), (1 << len(keys)) - 1
    helpers = tuple(_lowest(reduce(and_, (own[u - 1] for u in group), every), q)
                    for group in assoc.groups)
    users = tuple(bits & ~helpers[h - 1] for bits, h in zip(own, assoc.cache_of))
    return Placement(parts, helpers, users)


def deliver_scheme1(assoc: Association, run: tuple[int, int],
                    labels: Sequence[int]) -> list[Transmission]:
    """The user split at t over the whole file; of the association only K is read."""
    return user_split_delivery(labels, assoc.num_users, run[0])


def _first_level(config: NetworkConfig, assoc: Association) -> int:
    """The level of envelope.scheme1_corners(config, assoc)[0], found without
    listing the rest: the first t with t*N/K >= Ms that passes corner_feasible."""
    k, n, ms = config.num_users, config.num_files, config.helper_mem
    a, b = ms.as_integer_ratio()
    return next(t for t in range(-(-k * a // (n * b)), k + 1)
                if corner_feasible(k, n, assoc.largest_group, t, ms))


def scheme1_mixture(config: NetworkConfig, assoc: Association) -> Optional[list]:
    """The cached dedicated-cache hull from the first feasible level, walked at
    Ms + Mp (every dedicated-cache point is a hull vertex, so man_hull(K, N)[t]
    is level t); a corner with fractional helper quota q runs as two corners at
    the same t, with quotas floor(q) and floor(q) + 1 weighted to average q."""
    k, n = config.num_users, config.num_files
    mix = bounds.hull_mix(bounds.man_hull(k, n)[_first_level(config, assoc):], config.total_mem)
    if mix is None:
        return None
    mixture = []
    for mem, rate, weight in mix:
        t = int(mem * k / n)
        quota = config.helper_mem * binom(k, t) / n
        low = math.floor(quota)
        for q, share in ((low, 1 - (quota - low)), (low + 1, quota - low)):
            if share > 0:
                ms = Fraction(q * n, binom(k, t))  # a helper's memory at quota q
                corner = CornerPoint(ms, mem - ms, rate, "scheme1", (t,), (t, q))
                mixture.append((corner, weight * share))
    return mixture


def rate_scheme1(config: NetworkConfig) -> Fraction:
    return bounds.man_hull(config.num_users, config.num_files)[_integer_t(config)][1]


def layout_scheme1(assoc: Association, run: tuple[int, int]) -> list:
    """The layout's one part: the whole file over the user split at t."""
    return [(Split((assoc.num_users, run[0])), 1)]
