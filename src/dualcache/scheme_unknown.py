"""Association-oblivious scheme: two-tier placement, delivery, and rate.

Each file is split into a helper part F1 = Ms/(Ms+Mp) and a private part
F2 = 1 - F1.  The helper part runs scheme2's helper split at (t_s, 0), the
shared-cache scheme; the private part runs scheme1's user split at t_p, the
dedicated-cache scheme.  A direct run is (t_s, t_p, F1), which place and
deliver take: t_s = Lambda*(Ms+Mp)/N and t_p = K*(Ms+Mp)/N are the lattice
points of bounds.pue_hull and bounds.man_hull at M = Ms + Mp.  Anywhere else
each nonzero share is mixed along its own lattice, walked once, and each
corner carries its run; the gate unknown_params serves only a direct run
asked for by memory pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import bounds
from .combin import binom
from .model import (
    Association,
    CornerPoint,
    NetworkConfig,
    Placement,
    Split,
    Transmission,
    integral,
)
from .scheme1 import user_split_delivery
from .scheme2 import helper_split_delivery


def unknown_params(config: NetworkConfig) -> tuple[Optional[int], Optional[int], Fraction]:
    """The gate of a run asked for by memory pair: (t_s, t_p, F1), a level None for a zero
    share (at M = 0 the private share runs uncoded, at t_p = 0); raises off the integer split."""
    m, n = config.total_mem, config.num_files
    if m == 0:
        return None, 0, Fraction(0)
    t_s = integral("t_s", Fraction(config.num_helpers) * m / n) if config.helper_mem else None
    t_p = integral("t_p", Fraction(config.num_users) * m / n) if config.private_mem else None
    return t_s, t_p, config.helper_mem / m


def layout_unknown(assoc: Association, run: tuple) -> list:
    """The layout's two parts, reading only K and Lambda of assoc: the helper split at
    (t_s, 0) over [0, F1), then the user split at t_p over [F1, 1); no keys for a zero
    share, and at t_p = 0 the position count does not matter."""
    t_s, t_p, f1 = run
    helper = Split((assoc.num_helpers, t_s), (0, 0)) if t_s is not None else []
    user = Split((assoc.num_users, t_p)) if t_p is not None else []
    return [(helper, f1), (user, 1 - f1)]


def place_unknown(assoc: Association, run: tuple) -> Placement:
    """Fill helper caches over helper subsets and user caches over user subsets;
    at t_p = 0 no user stores a helper-split piece."""
    (helper, _), (user, _) = parts = layout_unknown(assoc, run)
    users = user.bits() if user else (0,) * assoc.num_users
    return Placement(parts, helper.bits() if helper else (0,) * assoc.num_helpers,
                     tuple(bits << len(helper) for bits in users))


def deliver_unknown(assoc: Association, run: tuple,
                    labels: Sequence[int]) -> list[Transmission]:
    """The helper split at (t_s, 0) on F1, part 0, then the user split at t_p on F2, part 1,
    whose first key follows the helper split's C(Lambda, t_s) keys."""
    t_s, t_p, _ = run
    first = binom(assoc.num_helpers, t_s) if t_s is not None else 0
    return ((helper_split_delivery(assoc, labels, t_s, 0) if t_s is not None else [])
            + (user_split_delivery([label + first for label in labels], assoc.num_users, t_p, part=1)
               if t_p is not None else []))


def rate_unknown(config: NetworkConfig, profile: Sequence[int]) -> Fraction:
    """The direct run's worst-case rate; unknown_params raises off the integer split."""
    unknown_params(config)
    return rate_unknown_general(config, profile)


def unknown_mixture(config: NetworkConfig, profile: Sequence[int], helper_mem: Fraction,
                    private_mem: Fraction, weight: Fraction) -> list:
    """Weighted corners, each carrying its run, that realize the scheme at (helper_mem,
    private_mem) on config's network (not at config's own pair), scaled to a total of
    weight.  Each nonzero share walks its own cached lattice once at M = Ms + Mp (at M = 0,
    only the private share at level 0): one direct-run corner when every walk lands on a
    lattice point, else each share's one or two lattice points, up to four corners."""
    n, k, lam, m = config.num_files, config.num_users, config.num_helpers, helper_mem + private_mem
    alpha = helper_mem / m if m else Fraction(0)
    walks = []  # (share, hull_mix of its lattice at m, lattice memory -> (Ms, Mp, gate's run))
    if alpha > 0:
        walks.append((alpha, bounds.hull_mix(bounds.pue_hull(lam, n, tuple(profile)), m),
                      lambda mem: (mem, Fraction(0), (lam * mem // n, None, Fraction(1))
                                                   if mem else (None, 0, Fraction(0)))))
    if alpha < 1:
        walks.append((1 - alpha, bounds.hull_mix(bounds.man_hull(k, n), m),
                      lambda mem: (Fraction(0), mem, (None, k * mem // n, Fraction(0)))))
    if all(len(mix) == 1 for _, mix, _ in walks):
        rate = sum((share * mix[0][1] for share, mix, _ in walks), Fraction(0))
        run = (lam * m // n if alpha else None, k * m // n if alpha < 1 else None, alpha)
        return [(CornerPoint(helper_mem, private_mem, rate, "unknown", (m,), run), weight)]
    return [(CornerPoint(ms, mp, rate, "unknown", (mem,), run), weight * share * w)
            for share, mix, at in walks for mem, rate, w in mix for ms, mp, run in [at(mem)]]


def rate_unknown_general(config: NetworkConfig, profile: Sequence[int]) -> Fraction:
    """Rate at arbitrary (Ms, Mp): the weighted rate of unknown_mixture."""
    mixture = unknown_mixture(config, profile, config.helper_mem, config.private_mem, Fraction(1))
    return sum((c.rate * w for c, w in mixture), Fraction(0))
