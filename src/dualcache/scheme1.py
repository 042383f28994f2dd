"""Association-known scheme 1: capacity-limited helper placement with
dedicated-cache-style delivery at rate (K-t)/(t+1).

Each file is split over t-subsets of users (the user split, which the
oblivious scheme also runs).  A helper may only store subfiles covering
the whole of its user group; the per-helper quota q is what Ms buys, and
whatever a user's helper could not hold lands in that user's private cache.
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
class FeasibilityReport:
    feasible: bool
    t: Fraction
    quota: Fraction
    reasons: tuple[str, ...]


def _helper_cap(k: int, n: int, largest_group: int, t: int) -> Fraction:
    """Scheme1's helper memory cap at t: N·C(K−L1, t−L1)/C(K, t)."""
    return Fraction(n * binom(k - largest_group, t - largest_group), binom(k, t))


def corner_feasible(k: int, n: int, largest_group: int, t: int, helper_mem: Fraction) -> bool:
    """Envelope-corner gate: t covers the largest group and Ms fits the cap.

    Quota integrality is not required here; fractional quotas only block a
    direct single-run placement, not a memory-sharing corner.
    """
    return largest_group <= t <= k and helper_mem <= _helper_cap(k, n, largest_group, t)


def scheme1_feasible(config: NetworkConfig, assoc: Association) -> FeasibilityReport:
    """Direct-run gate: integer t, t >= L1, Ms under the cap, integer quota."""
    k, n = config.num_users, config.num_files
    l1 = assoc.largest_group
    t = Fraction(k) * config.total_mem / n
    reasons: list[str] = []
    if t.denominator != 1:
        reasons.append(f"t = {t} is not an integer")
        return FeasibilityReport(False, t, Fraction(0), tuple(reasons))
    t_int = int(t)
    if t_int < l1:
        reasons.append(f"t = {t_int} is below the largest group size {l1}")
    else:
        cap = _helper_cap(k, n, l1, t_int)
        if config.helper_mem > cap:
            reasons.append(f"Ms = {config.helper_mem} exceeds the helper cap {cap}")
    quota = config.helper_mem * binom(k, t_int) / n
    if quota.denominator != 1:
        reasons.append(f"helper quota q = {quota} is not an integer")
    return FeasibilityReport(not reasons, t, quota, tuple(reasons))


def user_split_keys(k: int, t: int) -> list[tuple]:
    """User-split piece keys (rho, None), rho a t-subset of [K], in lexicographic order."""
    return [(rho, None) for rho in enumerate_ksubsets(k, t)]


def user_split_delivery(demand: Sequence[int], k: int, t: int, size: Fraction) -> list:
    """One XOR per (t+1)-subset S of users, exactly the dedicated-cache delivery."""
    out = []
    for big_s in enumerate_ksubsets(k, t + 1):
        summands = frozenset(SubfileId(demand[user - 1], without(big_s, user)) for user in big_s)
        out.append(Transmission(("S", big_s), summands, size))
    return out


def place_scheme1(config: NetworkConfig, assoc: Association) -> Placement:
    """Helpers take the q lexicographically smallest group-covering subsets;
    users absorb the rest of their own subsets."""
    report = scheme1_feasible(config, assoc)
    if not report.feasible:
        raise InfeasibleSchemeError("; ".join(report.reasons))
    k, q = config.num_users, int(report.quota)
    keys = user_split_keys(k, int(report.t))
    helpers = tuple(
        frozenset([key for key in keys if set(group) <= set(key[0])][:q])
        for group in assoc.groups
    )
    users = tuple(own - helpers[h - 1] for own, h in zip(stored_by(keys, k), assoc.cache_of))
    return Placement(helper_contents=helpers, private_contents=users)


def _integer_t(config: NetworkConfig) -> int:
    """t = K(Ms+Mp)/N; raises when it is not an integer."""
    t = Fraction(config.num_users) * config.total_mem / config.num_files
    if t.denominator != 1:
        raise InfeasibleSchemeError(f"t = {t} is not an integer")
    return int(t)


def deliver_scheme1(config: NetworkConfig, demand: Sequence[int]) -> list[Transmission]:
    """The user split at t over the whole file."""
    d = validate_demand(config, demand)
    k, t = config.num_users, _integer_t(config)
    return user_split_delivery(d, k, t, Fraction(1, binom(k, t)))


def rate_scheme1(config: NetworkConfig) -> Fraction:
    t = _integer_t(config)
    return Fraction(config.num_users - t, t + 1)


def layout_scheme1(config: NetworkConfig) -> dict:
    """Byte layout of one unit file over its t-subset pieces."""
    return tile((user_split_keys(config.num_users, _integer_t(config)), 1))
