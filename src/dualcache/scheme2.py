"""Association-known scheme 2: two-level subpacketization and Q-set delivery.

Files are split over (helper subset tau, intra-group position subset rho)
pairs with t_s = Lambda*Ms/N and t_p = L1*Mp/(N - Ms).  A helper stores
everything indexed by its own tau; the j-th user of a helper stores the
pieces its helper misses whose position subset contains j.  Delivery XORs
over the cartesian products T x S of (t_s+1)- and (t_p+1)-subsets.  At
t_p = 0 this helper split is the shared-cache scheme the oblivious scheme runs.
Each grid corner carries its run (t_s, t_p), which place and deliver take.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import bounds
from .combin import binom, drop_rank_rows
from .model import (
    Association,
    InfeasibleSchemeError,
    NetworkConfig,
    Placement,
    Split,
    Transmission,
    integral,
)


def scheme2_params(config: NetworkConfig, assoc: Association) -> tuple[int, int]:
    """The gate of a direct run asked for by memory pair: the run, integer
    (t_s, t_p); t_s = 0 points belong to the dedicated-cache engine."""
    n = config.num_files
    t_s = integral("t_s", Fraction(config.num_helpers) * config.helper_mem / n)
    if t_s == 0:
        raise InfeasibleSchemeError(
            "t_s = 0 (no helper memory): this point is served by the dedicated-cache scheme"
        )
    if config.helper_mem == n:
        return t_s, 0
    return t_s, integral("t_p", assoc.largest_group * config.private_mem / (n - config.helper_mem))


def helper_split_delivery(assoc: Association, labels, t_s: int, t_p: int) -> list:
    """One XOR per T x S pair with at least one present (helper, position) slot: the
    j-th user u of each helper in T gets its file's piece keyed (T minus the helper,
    S minus j), as labels[u - 1] plus that key's rank tau * C(L1, t_p) + rho in the
    helper split, part 0.  S runs over the positions [L1] also at t_p = 0, where rho
    is empty, of rank 0."""
    big_ss = [*drop_rank_rows(assoc.largest_group, t_p)]  # each S as (j, rank of S minus j)
    width = binom(assoc.largest_group, t_p)
    at = [[labels[user - 1] for user in group] for group in assoc.groups]  # by position
    out = []
    for big_t in drop_rank_rows(assoc.num_helpers, t_s):
        rows = [[label + tau * width for label in at[helper - 1]] for helper, tau in big_t]
        for big_s in big_ss:
            summands = tuple(row[j - 1] + rho for row in rows for j, rho in big_s if j <= len(row))
            if summands:
                out.append(Transmission(0, summands))
    return out


def place_scheme2(assoc: Association, run: tuple[int, int]) -> Placement:
    """A helper stores the keys whose tau holds it; the j-th user of a
    helper outside tau stores those whose rho holds j."""
    (keys, _), = parts = layout_scheme2(assoc, run)
    helpers, at = keys.bits(), keys.bits(1)  # at: per position j, the keys whose rho holds j
    users = tuple(at[assoc.groups[h - 1].index(user)] & ~helpers[h - 1]
                  for user, h in enumerate(assoc.cache_of, start=1))
    return Placement(parts, helpers, users)


def deliver_scheme2(assoc: Association, run: tuple[int, int],
                    labels: Sequence[int]) -> list[Transmission]:
    """The helper split at (t_s, t_p) over the whole file."""
    return helper_split_delivery(assoc, labels, *run)


def rate_scheme2_formula(
    lam: int, t_s: int, t_p: int, profile: Sequence[int]
) -> Fraction:
    """Closed-form rate: nonempty T x S slots over the subpacketization level,
    the shared-cache count with helper n serving the S that meet its L_n users."""
    l1 = profile[0] if profile else 0
    served = [binom(l1, t_p + 1) - binom(l1 - size, t_p + 1) for size in profile]
    return Fraction(bounds.pue_profile_sum(lam, t_s, served), binom(lam, t_s) * binom(l1, t_p))


def rate_scheme2(config: NetworkConfig, assoc: Association) -> Fraction:
    return rate_scheme2_formula(config.num_helpers, *scheme2_params(config, assoc), assoc.profile)


def layout_scheme2(assoc: Association, run: tuple[int, int]) -> list:
    """The layout's one part: the whole file over the helper split at (t_s, t_p)."""
    t_s, t_p = run
    return [(Split((assoc.num_helpers, t_s), (assoc.largest_group, t_p)), 1)]
