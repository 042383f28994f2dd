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

from .combin import KSubset, binom, enumerate_ksubsets, rank_ksubset
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
class UnknownSchemeParams:
    """Integer split parameters; a side is None when its memory share is zero."""

    t_s: Optional[int]
    t_p: Optional[int]
    f1: Fraction
    f2: Fraction


def unknown_params(config: NetworkConfig) -> UnknownSchemeParams:
    """Derive (t_s, t_p, F1, F2); raises when a direct run needs memory sharing."""
    m = config.total_mem
    if m == 0:
        return UnknownSchemeParams(t_s=None, t_p=None, f1=Fraction(0), f2=Fraction(0))
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
    n_files, k, lam = config.num_files, config.num_users, config.num_helpers
    sizes: dict[Tier, Fraction] = {}
    helpers: list[set] = [set() for _ in range(lam)]
    users: list[set] = [set() for _ in range(k)]

    if params.f1 > 0:
        sizes[Tier.HELPER] = params.f1 / binom(lam, params.t_s)
        for tau in enumerate_ksubsets(lam, params.t_s):
            for n in range(1, n_files + 1):
                sub = SubfileId(n, Tier.HELPER, tau)
                for helper in tau:
                    helpers[helper - 1].add(sub)
    if params.f2 > 0:
        sizes[Tier.PRIVATE] = params.f2 / binom(k, params.t_p)
        for rho in enumerate_ksubsets(k, params.t_p):
            for n in range(1, n_files + 1):
                sub = SubfileId(n, Tier.PRIVATE, rho)
                for user in rho:
                    users[user - 1].add(sub)
    if config.total_mem == 0:
        sizes[Tier.WHOLE] = Fraction(1)

    return Placement(
        helper_contents=tuple(frozenset(h) for h in helpers),
        private_contents=tuple(frozenset(u) for u in users),
        subfile_size=sizes,
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

    if config.total_mem == 0:
        whole = KSubset(k, ())
        for user in range(1, k + 1):
            sub = SubfileId(d[user - 1], Tier.WHOLE, whole)
            out.append(Transmission(("uncoded", user), frozenset([sub]), Fraction(1)))
        return out

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
                            SubfileId(d[user - 1], Tier.HELPER, big_t.without(helper))
                        )
                if summands:
                    out.append(Transmission(("T", big_t, j), frozenset(summands), size1))

    if params.f2 > 0:
        size2 = params.f2 / binom(k, params.t_p)
        for big_s in enumerate_ksubsets(k, params.t_p + 1):
            summands = frozenset(
                SubfileId(d[user - 1], Tier.PRIVATE, big_s.without(user))
                for user in big_s
            )
            out.append(Transmission(("S", big_s), summands, size2))

    return out


def rate_unknown(config: NetworkConfig, profile: Sequence[int]) -> Fraction:
    """Worst-case rate at integer split parameters for a given profile."""
    if config.total_mem == 0:
        return Fraction(config.num_users)
    params = unknown_params(config)
    k, lam = config.num_users, config.num_helpers
    rate = Fraction(0)
    if params.f1 > 0:
        t_s = params.t_s
        served = sum(
            profile[n - 1] * binom(lam - n, t_s) for n in range(1, lam - t_s + 1)
        )
        rate += params.f1 * Fraction(served, binom(lam, t_s))
    if params.f2 > 0:
        t_p = params.t_p
        rate += params.f2 * Fraction(k - t_p, t_p + 1)
    return rate


def rate_unknown_general(config: NetworkConfig, profile: Sequence[int]) -> Fraction:
    """Rate at arbitrary (Ms, Mp): the split-ratio mix of the two envelope curves.

    Each tier's term is the established one-parameter rate-memory envelope
    (user-subset curve and helper-subset curve), so the mixture at ratio
    alpha = Ms/(Ms+Mp) is achievable for any memory point.
    """
    from . import bounds

    m = config.total_mem
    if m == 0:
        return Fraction(config.num_users)
    alpha = config.helper_mem / m
    rate = Fraction(0)
    if alpha > 0:
        rate += alpha * bounds.pue_rate(config.num_helpers, config.num_files, m, profile)
    if alpha < 1:
        rate += (1 - alpha) * bounds.man_rate(config.num_users, config.num_files, m)
    return rate


def layout_unknown(config: NetworkConfig) -> dict:
    """Byte layout of one unit file: (tier, idx_a, idx_b) -> (offset, size)."""
    params = unknown_params(config)
    k, lam = config.num_users, config.num_helpers
    extents: dict = {}
    if config.total_mem == 0:
        extents[(Tier.WHOLE, KSubset(k, ()), None)] = (Fraction(0), Fraction(1))
        return extents
    if params.f1 > 0:
        piece = params.f1 / binom(lam, params.t_s)
        for tau in enumerate_ksubsets(lam, params.t_s):
            extents[(Tier.HELPER, tau, None)] = (rank_ksubset(tau) * piece, piece)
    if params.f2 > 0:
        piece = params.f2 / binom(k, params.t_p)
        for rho in enumerate_ksubsets(k, params.t_p):
            extents[(Tier.PRIVATE, rho, None)] = (
                params.f1 + rank_ksubset(rho) * piece,
                piece,
            )
    return extents
