"""Association-oblivious scheme: two-tier placement, delivery, and rate.

Each file is split into a helper part F1 = Ms/(Ms+Mp) and a private part
F2 = 1 - F1, shares that only the layout holds; the gate unknown_params
returns only the levels t_s = Lambda*(Ms+Mp)/N and t_p = K*(Ms+Mp)/N.
The helper part runs scheme2's helper split at (t_s, 0), the shared-cache
scheme; the private part runs scheme1's user split at t_p, the
dedicated-cache scheme.  These are the lattice points of bounds.pue_hull
and bounds.man_hull at M = Ms + Mp; anywhere else each nonzero share is
mixed along its own lattice, walked once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import bounds
from .model import (
    Association,
    CornerPoint,
    NetworkConfig,
    Placement,
    Split,
    Transmission,
    integral,
    validate_demand,
)
from .scheme1 import user_split_delivery
from .scheme2 import helper_split_delivery


def unknown_params(config: NetworkConfig) -> tuple[Optional[int], Optional[int]]:
    """The direct run's levels (t_s, t_p), None for a zero share (at M = 0 the
    private share runs uncoded, at t_p = 0); raises off the integer split."""
    m, n = config.total_mem, config.num_files
    if m == 0:
        return None, 0
    t_s = integral("t_s", Fraction(config.num_helpers) * m / n) if config.helper_mem else None
    t_p = integral("t_p", Fraction(config.num_users) * m / n) if config.private_mem else None
    return t_s, t_p


def layout_unknown(config: NetworkConfig) -> list:
    """The layout's two parts: the helper split at (t_s, 0) over [0, F1), then
    the user split at t_p over [F1, 1), F1 = Ms/M and F2 = 1 - F1 (F2 = 1 at
    M = 0); no keys for a zero share, and at t_p = 0 the position count does
    not matter."""
    t_s, t_p = unknown_params(config)
    f1 = config.helper_mem / config.total_mem if t_s is not None else Fraction(0)
    helper = Split((config.num_helpers, t_s), (0, 0)) if t_s is not None else []
    user = Split((config.num_users, t_p)) if t_p is not None else []
    return [(helper, f1), (user, 1 - f1)]


def place_unknown(config: NetworkConfig) -> Placement:
    """Fill helper caches over helper subsets and user caches over user subsets;
    at t_p = 0 no user stores a helper-split piece."""
    (helper, _), (user, _) = parts = layout_unknown(config)
    users = user.bits() if user else (0,) * config.num_users
    return Placement(parts, helper.bits() if helper else (0,) * config.num_helpers,
                     tuple(bits << len(helper) for bits in users))


def deliver_unknown(
    config: NetworkConfig, assoc: Association, demand: Sequence[int]
) -> list[Transmission]:
    """The helper split at (t_s, 0) on F1, part 0, then the user split at t_p on F2, part 1."""
    d = validate_demand(config, demand)
    t_s, t_p = unknown_params(config)
    return ((helper_split_delivery(assoc, d, t_s, 0) if t_s is not None else [])
            + (user_split_delivery(d, config.num_users, t_p, part=1) if t_p is not None else []))


def rate_unknown(config: NetworkConfig, profile: Sequence[int]) -> Fraction:
    """The direct run's worst-case rate; unknown_params raises off the integer split."""
    unknown_params(config)
    return rate_unknown_general(config, profile)


def unknown_mixture(config: NetworkConfig, profile: Sequence[int], weight: Fraction) -> list:
    """Weighted corners whose direct runs realize the scheme at config's
    memory pair, scaled to a total of weight.  Each nonzero share walks its
    own cached lattice once at M = Ms + Mp (at M = 0, only the private share
    at level 0): one direct-run corner when every walk lands on a lattice
    point, else each share's one or two lattice points, up to four corners."""
    n, m = config.num_files, config.total_mem
    alpha = config.helper_mem / m if m else Fraction(0)
    walks = []  # (share, hull_mix of its lattice at m, a lattice memory -> the corner's (Ms, Mp))
    if alpha > 0:
        lattice = bounds.pue_hull(config.num_helpers, n, tuple(profile))
        walks.append((alpha, bounds.hull_mix(lattice, m), lambda mem: (mem, Fraction(0))))
    if alpha < 1:
        lattice = bounds.man_hull(config.num_users, n)
        walks.append((1 - alpha, bounds.hull_mix(lattice, m), lambda mem: (Fraction(0), mem)))
    if all(len(mix) == 1 for _, mix, _ in walks):
        rate = sum((share * mix[0][1] for share, mix, _ in walks), Fraction(0))
        return [(CornerPoint(config.helper_mem, config.private_mem, rate, "unknown", (m,)), weight)]
    return [(CornerPoint(*memories(mem), rate, "unknown", (mem,)), weight * share * w)
            for share, mix, memories in walks for mem, rate, w in mix]


def rate_unknown_general(config: NetworkConfig, profile: Sequence[int]) -> Fraction:
    """Rate at arbitrary (Ms, Mp): the weighted rate of unknown_mixture."""
    mixture = unknown_mixture(config, profile, Fraction(1))
    return sum((corner.rate * w for corner, w in mixture), Fraction(0))
