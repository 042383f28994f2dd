"""Reference rate curves, cut-set lower bound, and optimality checks.

Holds the two classic single-cache-type curves (dedicated-cache and
shared-cache), their delivery references used by reduction tests, the
cut-set bound, and the high-memory optimality verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .combin import binom, enumerate_ksubsets
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


def envelope_mix(
    points: Sequence[tuple[Fraction, Fraction]], x: Fraction
) -> Optional[list[tuple[Fraction, Fraction, Fraction]]]:
    """One-dimensional mixture (x_i, y_i, weight) realizing the lower convex
    envelope at x: one hull point, or the two ends of the hull edge around x;
    None outside the point span."""
    hull = lower_convex_points(points)
    if not hull or x < hull[0][0] or x > hull[-1][0]:
        return None
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            if x == x1:
                return [(x1, y1, Fraction(1))]
            if x == x2:
                return [(x2, y2, Fraction(1))]
            w2 = (x - x1) / (x2 - x1)
            return [(x1, y1, 1 - w2), (x2, y2, w2)]
    return [(hull[-1][0], hull[-1][1], Fraction(1))]


def envelope_interp(
    points: Sequence[tuple[Fraction, Fraction]], x: Fraction
) -> Optional[Fraction]:
    """Evaluate the lower convex envelope at x; None outside the point span."""
    mix = envelope_mix(points, x)
    return None if mix is None else sum(y * w for _, y, w in mix)


def man_points(k: int, n: int) -> list[tuple[Fraction, Fraction]]:
    """Corner points of the dedicated-cache curve: memory t*N/K, rate (K-t)/(t+1)."""
    return [(Fraction(t * n, k), Fraction(k - t, t + 1)) for t in range(k + 1)]


def man_rate(k: int, n: int, mem: Fraction) -> Fraction:
    """Dedicated-cache envelope rate at total memory mem."""
    if not 0 <= mem <= n:
        raise ValueError(f"memory {mem} outside [0, {n}]")
    value = envelope_interp(man_points(k, n), Fraction(mem))
    assert value is not None
    return value


def pue_profile_sum(lam: int, t: int, profile: Sequence[int]) -> int:
    """Number of served subsets per round, summed: sum_n L_n * binom(Lam-n, t)."""
    return sum(profile[i - 1] * binom(lam - i, t) for i in range(1, lam - t + 1))


def pue_points(lam: int, n: int, profile: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    """Corner points of the shared-cache curve for an association profile."""
    return [
        (Fraction(t * n, lam), Fraction(pue_profile_sum(lam, t, profile), binom(lam, t)))
        for t in range(lam + 1)
    ]


def pue_rate(lam: int, n: int, mem: Fraction, profile: Sequence[int]) -> Fraction:
    """Shared-cache envelope rate at total memory mem."""
    if not 0 <= mem <= n:
        raise ValueError(f"memory {mem} outside [0, {n}]")
    if list(profile) != sorted(profile, reverse=True):
        raise ValueError(f"profile must be non-increasing, got {tuple(profile)}")
    value = envelope_interp(pue_points(lam, n, profile), Fraction(mem))
    assert value is not None
    return value


def cutset_bound(config: NetworkConfig, assoc: Association) -> tuple[Fraction, int]:
    """Max over group sizes u of u - (u*Mp + lambda_u*Ms)/floor(N/u), clamped at 0.

    lambda_u is the helper (internal index) of the u-th user when users are
    listed group by group in non-increasing group-size order.
    """
    n = config.num_files
    ordered = assoc.ordered_users()
    best = Fraction(0)
    best_u = 1
    for u in range(1, min(n, config.num_users) + 1):
        lam_u = assoc.helper_of(ordered[u - 1])
        term = u - Fraction(u * config.private_mem + lam_u * config.helper_mem, n // u)
        if term > best:
            best, best_u = term, u
    return best, best_u


def man_reference_transmissions(
    k: int, t: int, demand: Sequence[int]
) -> list[frozenset]:
    """Dedicated-cache delivery as abstract (file, side-subset) XOR sets."""
    out = []
    for big_s in enumerate_ksubsets(k, t + 1):
        out.append(
            frozenset(
                (demand[user - 1], big_s.without(user).elements) for user in big_s
            )
        )
    return out


def pue_reference_transmissions(
    assoc: Association, t_s: int, demand: Sequence[int]
) -> list[frozenset]:
    """Shared-cache delivery as abstract (file, helper-subset) XOR sets, per round."""
    lam = assoc.num_helpers
    out = []
    rounds = assoc.profile[0] if assoc.profile else 0
    for j in range(1, rounds + 1):
        for big_t in enumerate_ksubsets(lam, t_s + 1):
            elems = frozenset(
                (demand[assoc.user_at(helper, j) - 1], big_t.without(helper).elements)
                for helper in big_t
                if assoc.profile[helper - 1] >= j
            )
            if elems:
                out.append(elems)
    return out


@dataclass(frozen=True)
class HighMemoryVerdict:
    """Whether the two-level scheme meets the cut-set bound at this point."""

    applicable: bool
    envelope_rate: Optional[Fraction]
    cutset_rate: Fraction
    expected_rate: Optional[Fraction]
    optimal: bool


def high_memory_optimality(config: NetworkConfig, assoc: Association) -> HighMemoryVerdict:
    """In the region Ms >= N(1-1/Lambda), Mp >= N(1-1/L1), the two-level
    envelope must equal 1 - (Ms+Mp)/N and match the cut-set bound exactly."""
    from . import envelope

    n = Fraction(config.num_files)
    lam = config.num_helpers
    l1 = assoc.largest_group
    cutset, _ = cutset_bound(config, assoc)
    applicable = (
        l1 >= 1
        and config.helper_mem >= n * (1 - Fraction(1, lam))
        and config.private_mem >= n * (1 - Fraction(1, l1))
    )
    if not applicable:
        return HighMemoryVerdict(False, None, cutset, None, False)
    expected = 1 - config.total_mem / n
    achieved = envelope.scheme2_envelope_rate(config, assoc)
    return HighMemoryVerdict(
        applicable=True,
        envelope_rate=achieved,
        cutset_rate=cutset,
        expected_rate=expected,
        optimal=achieved is not None and achieved == expected == cutset,
    )


@dataclass(frozen=True)
class BoundReport:
    """Bounds and scheme rates at one memory point, with equality flags."""

    cutset: Fraction
    cutset_u: int
    man_lower: Fraction
    pue_upper: Fraction
    scheme_rates: dict
    optimality_flags: dict


def bound_report(config: NetworkConfig, assoc: Association) -> BoundReport:
    from . import envelope

    m = config.total_mem
    man = man_rate(config.num_users, config.num_files, m)
    pue = pue_rate(config.num_helpers, config.num_files, m, assoc.profile)
    cutset, u = cutset_bound(config, assoc)

    rates: dict[str, Optional[Fraction]] = {
        name: envelope.scheme_rate(name, config, assoc)[0] for name in envelope.SCHEMES
    }
    flags = {
        "scheme1_meets_man": rates["scheme1"] is not None and rates["scheme1"] == man,
        "unknown_meets_pue": rates["unknown"] == pue,
        "high_memory_optimal": high_memory_optimality(config, assoc).optimal,
    }
    return BoundReport(
        cutset=cutset,
        cutset_u=u,
        man_lower=man,
        pue_upper=pue,
        scheme_rates=rates,
        optimality_flags=flags,
    )
