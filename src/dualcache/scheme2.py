"""Association-known scheme 2: two-level subpacketization and Q-set delivery.

Files are split over (helper subset tau, intra-group position subset rho)
pairs with t_s = Lambda*Ms/N and t_p = L1*Mp/(N - Ms).  A helper stores
everything indexed by its own tau; the j-th user of a helper stores the
pieces its helper misses whose position subset contains j.  Delivery XORs
over the cartesian products T x S of (t_s+1)- and (t_p+1)-subsets.  At
t_p = 0 this helper split is the shared-cache scheme the oblivious scheme runs.
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
    Transmission,
    stored_by,
    tile,
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


def helper_split_keys(lam: int, l1: int, t_s: int, t_p: int) -> list[tuple]:
    """Helper-split piece keys (tau, rho), tau a t_s-subset of [Lambda] and
    rho a t_p-subset of [L1], in lexicographic (tau, rho) order."""
    rhos = enumerate_ksubsets(l1, t_p)
    return [(tau, rho) for tau in enumerate_ksubsets(lam, t_s) for rho in rhos]


def helper_split_delivery(assoc: Association, demand, t_s: int, t_p: int, size: Fraction) -> list:
    """One XOR per T x S pair with at least one present (helper, position) slot."""
    big_ss = enumerate_ksubsets(assoc.largest_group, t_p + 1)
    out = []
    for big_t in enumerate_ksubsets(assoc.num_helpers, t_s + 1):
        for big_s in big_ss:
            summands = set()
            for helper in big_t:
                for j in big_s:
                    if j <= assoc.profile[helper - 1]:
                        user = assoc.user_at(helper, j)
                        summands.add(SubfileId(
                            demand[user - 1], without(big_t, helper), without(big_s, j)
                        ))
            if summands:
                out.append(Transmission(("T", big_t, big_s), frozenset(summands), size))
    return out


def place_scheme2(config: NetworkConfig, assoc: Association) -> Placement:
    """A helper stores the keys whose tau holds it; the j-th user of a
    helper outside tau stores those whose rho holds j."""
    params = scheme2_params(config, assoc)
    keys = helper_split_keys(config.num_helpers, params.largest_group, params.t_s, params.t_p)
    users: list[set] = [set() for _ in range(config.num_users)]
    for key in keys:
        tau, rho = key
        for helper, group in enumerate(assoc.groups, start=1):
            if helper not in tau:
                for j in rho:
                    if j <= len(group):
                        users[group[j - 1] - 1].add(key)
    return Placement(stored_by(keys, config.num_helpers), tuple(map(frozenset, users)))


def deliver_scheme2(
    config: NetworkConfig, assoc: Association, demand: Sequence[int]
) -> list[Transmission]:
    """The helper split at (t_s, t_p) over the whole file."""
    d = validate_demand(config, demand)
    params = scheme2_params(config, assoc)
    size = mini_subfile_size(config.num_helpers, params.largest_group, params.t_s, params.t_p)
    return helper_split_delivery(assoc, d, params.t_s, params.t_p, size)


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
    return tile((helper_split_keys(
        config.num_helpers, params.largest_group, params.t_s, params.t_p), 1))
