"""Association-known scheme 2: two-level subpacketization and Q-set delivery.

Files are split over (helper subset tau, intra-group position subset rho)
pairs with t_s = Lambda*Ms/N and t_p = L1*Mp/(N - Ms).  A helper stores
everything indexed by its own tau; the j-th user of a helper stores the
pieces its helper misses whose position subset contains j.  Delivery XORs
over the cartesian products T x S of (t_s+1)- and (t_p+1)-subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .combin import binom, enumerate_ksubsets, without
from .model import (
    Association,
    InfeasibleSchemeError,
    NetworkConfig,
    Placement,
    SubfileId,
    Tier,
    Transmission,
    validate_demand,
)


@dataclass(frozen=True)
class Scheme2Params:
    t_s: int
    t_p: int
    largest_group: int


def scheme2_params(config: NetworkConfig, assoc: Association) -> Scheme2Params:
    """Derive integer (t_s, t_p); t_s = 0 points belong to the dedicated-cache
    engine, and fractional parameters route through the envelope."""
    n, lam = config.num_files, config.num_helpers
    l1 = assoc.largest_group
    ts = Fraction(lam) * config.helper_mem / n
    if ts.denominator != 1:
        raise InfeasibleSchemeError(
            f"t_s = {ts} is not an integer; use the memory-sharing envelope"
        )
    t_s = int(ts)
    if t_s == 0:
        raise InfeasibleSchemeError(
            "t_s = 0 (no helper memory): this point is served by the dedicated-cache scheme"
        )
    if config.helper_mem == n:
        t_p = 0
    else:
        tp = Fraction(l1) * config.private_mem / (n - config.helper_mem)
        if tp.denominator != 1:
            raise InfeasibleSchemeError(
                f"t_p = {tp} is not an integer; use the memory-sharing envelope"
            )
        t_p = int(tp)
    if not 0 <= t_p <= l1:
        raise InfeasibleSchemeError(f"t_p = {t_p} outside [0, {l1}]")
    return Scheme2Params(t_s=t_s, t_p=t_p, largest_group=l1)


def mini_subfile_size(lam: int, l1: int, t_s: int, t_p: int) -> Fraction:
    return Fraction(1, binom(lam, t_s) * binom(l1, t_p))


def place_scheme2(config: NetworkConfig, assoc: Association) -> Placement:
    params = scheme2_params(config, assoc)
    lam = config.num_helpers
    helpers: list[set] = [set() for _ in range(lam)]
    users: list[set] = [set() for _ in range(config.num_users)]
    rhos = enumerate_ksubsets(params.largest_group, params.t_p)
    for tau in enumerate_ksubsets(lam, params.t_s):
        for rho in rhos:
            key = (Tier.TWO_LEVEL, tau, rho)
            for helper in range(1, lam + 1):
                if helper in tau:
                    helpers[helper - 1].add(key)
                    continue
                for j in rho:
                    if j <= assoc.profile[helper - 1]:
                        users[assoc.user_at(helper, j) - 1].add(key)
    return Placement(
        helper_contents=tuple(map(frozenset, helpers)),
        private_contents=tuple(map(frozenset, users)),
    )


def deliver_scheme2(
    config: NetworkConfig, assoc: Association, demand: Sequence[int]
) -> list[Transmission]:
    """One XOR per T x S pair with at least one present (helper, position) slot."""
    d = validate_demand(config, demand)
    params = scheme2_params(config, assoc)
    lam, l1 = config.num_helpers, params.largest_group
    size = mini_subfile_size(lam, l1, params.t_s, params.t_p)
    out = []
    for big_t in enumerate_ksubsets(lam, params.t_s + 1):
        for big_s in enumerate_ksubsets(l1, params.t_p + 1):
            summands = set()
            for helper in big_t:
                for j in big_s:
                    if j <= assoc.profile[helper - 1]:
                        user = assoc.user_at(helper, j)
                        summands.add(SubfileId(
                            d[user - 1], Tier.TWO_LEVEL, without(big_t, helper), without(big_s, j)
                        ))
            if summands:
                out.append(Transmission(("M", big_t, big_s), frozenset(summands), size))
    return out


def rate_scheme2_formula(
    lam: int, t_s: int, t_p: int, profile: Sequence[int]
) -> Fraction:
    """Closed-form rate: nonempty T x S slots over the subpacketization level."""
    l1 = profile[0] if profile else 0
    count = sum(
        binom(lam - n, t_s) * (binom(l1, t_p + 1) - binom(l1 - profile[n - 1], t_p + 1))
        for n in range(1, lam - t_s + 1)
    )
    return Fraction(count, binom(lam, t_s) * binom(l1, t_p))


def rate_scheme2(config: NetworkConfig, assoc: Association) -> Fraction:
    params = scheme2_params(config, assoc)
    return rate_scheme2_formula(config.num_helpers, params.t_s, params.t_p, assoc.profile)


def layout_scheme2(config: NetworkConfig, assoc: Association) -> dict:
    """Byte layout of one unit file over its (tau, rho) grid."""
    params = scheme2_params(config, assoc)
    lam, l1 = config.num_helpers, params.largest_group
    size = mini_subfile_size(lam, l1, params.t_s, params.t_p)
    n_rho = binom(l1, params.t_p)
    extents = {}
    for i, tau in enumerate(enumerate_ksubsets(lam, params.t_s)):
        for j, rho in enumerate(enumerate_ksubsets(l1, params.t_p)):
            extents[(Tier.TWO_LEVEL, tau, rho)] = ((i * n_rho + j) * size, size)
    return extents
