"""Reference rate curves and the cut-set lower bound.

Holds the two classic single-cache-type curves (dedicated-cache and
shared-cache), their convex-envelope helpers, and the cut-set bound.
Nothing here knows a scheme; envelope.bound_report sets the schemes
against these curves.

Each curve is written once, as a lattice cached on the network shape:
man_hull per (K, N) and pue_hull per (Lambda, N, profile).  Both lattices
are convex, so each traces its own lower hull and hull_mix walks it as it
is; no hull is built.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Optional, Sequence

from .combin import binom
from .model import Association, NetworkConfig


def lower_convex_points(
    points: Sequence[tuple[Fraction, Fraction]]
) -> list[tuple[Fraction, Fraction]]:
    """Lower convex hull of (x, y) points, left to right, exact arithmetic."""
    best: dict[Fraction, Fraction] = {}
    for x, y in points:
        if x not in best or y < best[x]:
            best[x] = y
    ordered = sorted(best.items())
    hull: list[tuple[Fraction, Fraction]] = []
    for p in ordered:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def hull_mix(
    hull: Sequence[tuple[Fraction, Fraction]], x: Fraction
) -> Optional[list[tuple[Fraction, Fraction, Fraction]]]:
    """One-dimensional mixture (x_i, y_i, weight) realizing a lower convex hull
    at x: one hull point, or the two ends of the hull edge around x; None
    outside the hull's span."""
    if not hull or x < hull[0][0] or x > hull[-1][0]:
        return None
    i = bisect_left(hull, x, key=itemgetter(0))  # hull[i] is the first point at or right of x
    x2, y2 = hull[i]
    if x == x2:
        return [(x2, y2, Fraction(1))]
    x1, y1 = hull[i - 1]
    w2 = (x - x1) / (x2 - x1)
    return [(x1, y1, 1 - w2), (x2, y2, w2)]


@lru_cache(maxsize=128)
def man_hull(k: int, n: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """The dedicated-cache lattice: memory t*N/K, rate (K-t)/(t+1) for t = 0..K.
    Its slopes -(K+1)/((t+1)(t+2)) strictly increase, so the lattice is its
    own lower hull and man_hull(K, N)[t] is level t."""
    return tuple((Fraction(t * n, k), Fraction(k - t, t + 1)) for t in range(k + 1))


def man_rate(k: int, n: int, mem: Fraction) -> Fraction:
    """Dedicated-cache envelope rate at total memory mem."""
    if not 0 <= mem <= n:
        raise ValueError(f"memory {mem} outside [0, {n}]")
    return sum(y * w for _, y, w in hull_mix(man_hull(k, n), Fraction(mem)))


def pue_profile_sum(lam: int, t: int, profile: Sequence[int]) -> int:
    """Number of served subsets per round, summed: sum_n L_n * binom(Lam-n, t)."""
    return sum(profile[i - 1] * binom(lam - i, t) for i in range(1, lam - t + 1))


@lru_cache(maxsize=128)
def pue_hull(lam: int, n: int, profile: tuple[int, ...]) -> tuple[tuple[Fraction, Fraction], ...]:
    """The shared-cache lattice for a profile of Lambda non-increasing,
    nonnegative group sizes: memory t*N/Lambda, rate
    sum_i L_i * C(Lambda-i, t) / C(Lambda, t) for t = 0..Lambda.  Each ratio is
    a product of nonnegative, falling linear factors in t, zero past Lambda-i,
    so the sum is convex and the lattice is its own lower hull, collinear
    points kept.  Raises ValueError on any other profile."""
    if (len(profile) != lam or any(size < 0 for size in profile)
            or list(profile) != sorted(profile, reverse=True)):
        raise ValueError(f"profile must be {lam} non-increasing, nonnegative sizes, got {profile}")
    return tuple((Fraction(t * n, lam), Fraction(pue_profile_sum(lam, t, profile), binom(lam, t)))
                 for t in range(lam + 1))


def pue_rate(lam: int, n: int, mem: Fraction, profile: Sequence[int]) -> Fraction:
    """Shared-cache envelope rate at total memory mem."""
    if not 0 <= mem <= n:
        raise ValueError(f"memory {mem} outside [0, {n}]")
    return sum(y * w for _, y, w in hull_mix(pue_hull(lam, n, tuple(profile)), Fraction(mem)))


def cutset_bound(config: NetworkConfig, assoc: Association) -> tuple[Fraction, int]:
    """Max over group sizes u of u - (u*Mp + lambda_u*Ms)/floor(N/u), clamped at 0.

    lambda_u is the helper (internal index) of the u-th user when users are
    listed group by group in non-increasing group-size order.
    """
    n = config.num_files
    lams = [assoc.helper_of(user) for user in assoc.ordered_users()[:min(n, config.num_users)]]
    # term u is num/den over den = b*d*floor(N/u) > 0, for Mp = a/b and Ms = c/d;
    # comparing cross-products keeps the strict >, so a tie keeps the first u
    (a, b), (c, d) = config.private_mem.as_integer_ratio(), config.helper_mem.as_integer_ratio()
    best, best_den, best_u = 0, 1, 1
    for u, lam_u in enumerate(lams, 1):
        den = b * d * (n // u)
        num = u * den - u * a * d - lam_u * c * b
        if num * best_den > best * den:
            best, best_den, best_u = num, den, u
    return Fraction(best, best_den), best_u
