"""Association-oblivious scheme: two-tier placement, delivery, and rate.

Each file is split into a helper part (fraction F1 = Ms/(Ms+Mp)) and a
private part (F2 = Mp/(Ms+Mp)).  The helper part is subpacketized over
t_s-subsets of helpers, the private part over t_p-subsets of users, with
t_s = Lambda*(Ms+Mp)/N and t_p = K*(Ms+Mp)/N.  Delivery XORs across the
helper subsets round by round and across the user subsets directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import bounds
from .combin import binom, enumerate_ksubsets, without
from .model import (
    Association,
    CornerPoint,
    InfeasibleSchemeError,
    NetworkConfig,
    Placement,
    SubfileId,
    Tier,
    Transmission,
    validate_demand,
)


@dataclass(frozen=True)
class UnknownSchemeParams:
    """Integer split parameters; a side is None when its memory share is zero.
    Zero memory is the private tier at t_p = 0 (F1 = 0, F2 = 1): uncoded."""

    t_s: Optional[int]
    t_p: Optional[int]
    f1: Fraction
    f2: Fraction


def unknown_params(config: NetworkConfig) -> UnknownSchemeParams:
    """Derive (t_s, t_p, F1, F2); raises when a direct run needs memory sharing."""
    m = config.total_mem
    if m == 0:
        return UnknownSchemeParams(t_s=None, t_p=0, f1=Fraction(0), f2=Fraction(1))
    f1 = config.helper_mem / m
    f2 = config.private_mem / m
    t_s: Optional[int] = None
    t_p: Optional[int] = None
    if f1 > 0:
        ts = Fraction(config.num_helpers) * m / config.num_files
        if ts.denominator != 1:
            raise InfeasibleSchemeError(
                f"t_s = {ts} is not an integer; use the memory-sharing envelope"
            )
        t_s = int(ts)
    if f2 > 0:
        tp = Fraction(config.num_users) * m / config.num_files
        if tp.denominator != 1:
            raise InfeasibleSchemeError(
                f"t_p = {tp} is not an integer; use the memory-sharing envelope"
            )
        t_p = int(tp)
    return UnknownSchemeParams(t_s=t_s, t_p=t_p, f1=f1, f2=f2)


def place_unknown(config: NetworkConfig) -> Placement:
    """Fill helper caches over helper subsets and user caches over user subsets."""
    params = unknown_params(config)
    k, lam = config.num_users, config.num_helpers
    helpers: list[set] = [set() for _ in range(lam)]
    users: list[set] = [set() for _ in range(k)]
    if params.f1 > 0:
        for tau in enumerate_ksubsets(lam, params.t_s):
            for helper in tau:
                helpers[helper - 1].add((Tier.HELPER, tau, None))
    if params.f2 > 0:
        for rho in enumerate_ksubsets(k, params.t_p):
            for user in rho:
                users[user - 1].add((Tier.PRIVATE, rho, None))
    return Placement(
        helper_contents=tuple(map(frozenset, helpers)),
        private_contents=tuple(map(frozenset, users)),
    )


def deliver_unknown(
    config: NetworkConfig, assoc: Association, demand: Sequence[int]
) -> list[Transmission]:
    """Round-by-round helper-tier XORs followed by user-tier XORs."""
    d = validate_demand(config, demand)
    if assoc.num_users != config.num_users or assoc.num_helpers != config.num_helpers:
        raise ValueError("association does not match the configuration")
    params = unknown_params(config)
    k, lam = config.num_users, config.num_helpers
    out: list[Transmission] = []

    if params.f1 > 0:
        size1 = params.f1 / binom(lam, params.t_s)
        rounds = assoc.profile[0] if assoc.profile else 0
        for j in range(1, rounds + 1):
            for big_t in enumerate_ksubsets(lam, params.t_s + 1):
                summands = set()
                for helper in big_t:
                    if assoc.profile[helper - 1] >= j:
                        user = assoc.user_at(helper, j)
                        summands.add(
                            SubfileId(d[user - 1], Tier.HELPER, without(big_t, helper))
                        )
                if summands:
                    out.append(Transmission(("T", big_t, j), frozenset(summands), size1))

    if params.f2 > 0:
        size2 = params.f2 / binom(k, params.t_p)
        for big_s in enumerate_ksubsets(k, params.t_p + 1):
            summands = frozenset(
                SubfileId(d[user - 1], Tier.PRIVATE, without(big_s, user))
                for user in big_s
            )
            out.append(Transmission(("S", big_s), summands, size2))

    return out


def rate_unknown(config: NetworkConfig, profile: Sequence[int]) -> Fraction:
    """Worst-case rate at integer split parameters for a given profile."""
    params = unknown_params(config)
    k, lam = config.num_users, config.num_helpers
    rate = Fraction(0)
    if params.f1 > 0:
        served = bounds.pue_profile_sum(lam, params.t_s, profile)
        rate += params.f1 * Fraction(served, binom(lam, params.t_s))
    if params.f2 > 0:
        t_p = params.t_p
        rate += params.f2 * Fraction(k - t_p, t_p + 1)
    return rate


def unknown_mixture(config: NetworkConfig, profile: Sequence[int], weight: Fraction) -> list:
    """Weighted corners whose direct runs realize the scheme at config's
    memory pair, scaled to a total of weight: one corner at integer split
    parameters, else the helper and private shares each mixed along their
    own one-parameter lattice, up to four corners."""
    m = config.total_mem
    try:
        rate = rate_unknown(config, profile)
        return [(CornerPoint(config.helper_mem, config.private_mem, rate, "unknown", (m,)), weight)]
    except InfeasibleSchemeError:
        pass
    n, k, lam = config.num_files, config.num_users, config.num_helpers
    alpha = config.helper_mem / m
    mixture = []
    for share, points, memories in (
        (alpha, bounds.pue_points(lam, n, profile), lambda mem: (mem, Fraction(0))),
        (1 - alpha, bounds.man_points(k, n), lambda mem: (Fraction(0), mem)),
    ):
        if share == 0:
            continue
        for mem, rate, w in bounds.envelope_mix(points, m):
            if share * w > 0:
                corner = CornerPoint(*memories(mem), rate, "unknown", (mem,))
                mixture.append((corner, weight * share * w))
    return mixture


def rate_unknown_general(config: NetworkConfig, profile: Sequence[int]) -> Fraction:
    """Rate at arbitrary (Ms, Mp): the weighted rate of unknown_mixture."""
    mixture = unknown_mixture(config, profile, Fraction(1))
    return sum((corner.rate * w for corner, w in mixture), Fraction(0))


def layout_unknown(config: NetworkConfig) -> dict:
    """Byte layout of one unit file: (tier, idx_a, idx_b) -> (offset, size)."""
    params = unknown_params(config)
    k, lam = config.num_users, config.num_helpers
    extents: dict = {}
    if params.f1 > 0:
        piece = params.f1 / binom(lam, params.t_s)
        for i, tau in enumerate(enumerate_ksubsets(lam, params.t_s)):
            extents[(Tier.HELPER, tau, None)] = (i * piece, piece)
    if params.f2 > 0:
        piece = params.f2 / binom(k, params.t_p)
        for i, rho in enumerate(enumerate_ksubsets(k, params.t_p)):
            extents[(Tier.PRIVATE, rho, None)] = (params.f1 + i * piece, piece)
    return extents
