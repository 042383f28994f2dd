"""Memory sharing: corner grids, an exact-rational LP over convex mixtures,
and materialization of segmented runs.

A corner point is a memory pair where some scheme's integer parameters
line up; arbitrary (Ms, Mp) targets are met by splitting files into
weighted segments, one per corner, which realizes the lower convex
envelope of the corner rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from . import bounds, simulator
from .bounds import envelope_mix
from .model import Association, InfeasibleSchemeError, NetworkConfig
from .scheme1 import corner_feasible, rate_scheme1, scheme1_feasible
from .scheme2 import rate_scheme2_formula
from .scheme_unknown import rate_unknown, rate_unknown_general, unknown_params

SCHEMES = ("unknown", "scheme1", "scheme2")


class SchemeTag(Enum):
    UNKNOWN = "unknown"
    SCHEME1 = "scheme1"
    SCHEME2 = "scheme2"
    DEDICATED = "dedicated"


@dataclass(frozen=True)
class CornerPoint:
    helper_mem: Fraction
    private_mem: Fraction
    rate: Fraction
    scheme_tag: SchemeTag
    params: tuple


@dataclass(frozen=True)
class EnvelopeSolution:
    weights: tuple  # ((CornerPoint, Fraction), ...) with positive weights
    achieved_rate: Fraction
    duals: tuple  # supporting hyperplane (y_ms, y_mp, y_const)


# ---------------------------------------------------------------------------
# corner grids


def dedicated_corners(config: NetworkConfig) -> list[CornerPoint]:
    """Zero-helper-memory corners from the dedicated-cache curve."""
    k, n = config.num_users, config.num_files
    return [
        CornerPoint(Fraction(0), Fraction(t * n, k), Fraction(k - t, t + 1),
                    SchemeTag.DEDICATED, (t,))
        for t in range(k + 1)
    ]


def scheme2_corners(config: NetworkConfig, assoc: Association) -> list[CornerPoint]:
    """Two-level corners for all (t_s in [1..Lambda], t_p in [0..L1]), plus a
    single t_s = 0 point: the dedicated-cache curve evaluated at the target
    private memory. Pinning that level to the target keeps the mixture from
    reshuffling private memory onto the zero-helper curve, which is how the
    two-level decomposition is meant to work."""
    n, lam = config.num_files, config.num_helpers
    l1 = assoc.largest_group
    k = config.num_users
    mp0 = config.private_mem
    corners = [
        CornerPoint(Fraction(0), mp0, bounds.man_rate(k, n, mp0),
                    SchemeTag.DEDICATED, (Fraction(k * mp0, n),))
    ]
    seen = {(c.helper_mem, c.private_mem, c.rate) for c in corners}
    for t_s in range(1, lam + 1):
        ms = Fraction(t_s * n, lam)
        for t_p in range(0, l1 + 1):
            mp = (n - ms) * Fraction(t_p, l1)
            rate = rate_scheme2_formula(lam, t_s, t_p, assoc.profile)
            key = (ms, mp, rate)
            if key in seen:
                continue
            seen.add(key)
            corners.append(CornerPoint(ms, mp, rate, SchemeTag.SCHEME2, (t_s, t_p)))
    return corners


def scheme1_corners(config: NetworkConfig, assoc: Association) -> list[CornerPoint]:
    """Feasible single-level corners at this fixed Ms: memory pairs
    (Ms, t*N/K - Ms) for integer t passing the coverage and cap gates."""
    k, n = config.num_users, config.num_files
    l1 = assoc.largest_group
    ms = config.helper_mem
    corners = []
    for t in range(k + 1):
        mp = Fraction(t * n, k) - ms
        if mp < 0 or not corner_feasible(k, n, l1, t, ms):
            continue
        corners.append(
            CornerPoint(ms, mp, Fraction(k - t, t + 1), SchemeTag.SCHEME1, (t,))
        )
    return corners


def unknown_corners(config: NetworkConfig, assoc: Association) -> list[CornerPoint]:
    """Corners along the fixed split-ratio memory axis, on the union of the
    two subpacketization lattices."""
    n, k, lam = config.num_files, config.num_users, config.num_helpers
    m = config.total_mem
    if m == 0:
        return [CornerPoint(Fraction(0), Fraction(0), Fraction(k), SchemeTag.UNKNOWN, ())]
    alpha = config.helper_mem / m
    lattice = sorted(
        {Fraction(t * n, lam) for t in range(lam + 1)}
        | {Fraction(t * n, k) for t in range(k + 1)}
    )
    corners = []
    for mem in lattice:
        sub = config.with_memories(alpha * mem, (1 - alpha) * mem)
        corners.append(
            CornerPoint(sub.helper_mem, sub.private_mem,
                        rate_unknown_general(sub, assoc.profile),
                        SchemeTag.UNKNOWN, (mem,))
        )
    return corners


# ---------------------------------------------------------------------------
# exact-rational simplex (equality form, Bland's rule)


def _pivot_loop(tableau, basis, costs, blocked) -> None:
    m = len(tableau)
    while True:
        entering = None
        width = len(tableau[0]) - 1
        for j in range(width):
            if j in blocked or j in basis:
                continue
            reduced = costs[j] - sum(costs[basis[i]] * tableau[i][j] for i in range(m))
            if reduced < 0:
                entering = j
                break
        if entering is None:
            return
        leaving = None
        best = None
        for i in range(m):
            if tableau[i][entering] > 0:
                ratio = tableau[i][-1] / tableau[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best, leaving = ratio, i
        if leaving is None:
            raise ArithmeticError("LP unbounded; mixture problems are always bounded")
        piv = tableau[leaving][entering]
        tableau[leaving] = [x / piv for x in tableau[leaving]]
        row = tableau[leaving]
        for i in range(m):
            if i != leaving and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [x - factor * y for x, y in zip(tableau[i], row)]
        basis[leaving] = entering


def simplex_solve(
    columns: Sequence[Sequence[Fraction]],
    costs: Sequence[Fraction],
    rhs: Sequence[Fraction],
) -> Optional[tuple[Fraction, list[Fraction], list[Fraction]]]:
    """Minimize costs.x subject to columns.x = rhs, x >= 0.

    Returns (value, x, duals) or None when infeasible.
    """
    m = len(rhs)
    n = len(columns)
    sign = [Fraction(-1) if rhs[i] < 0 else Fraction(1) for i in range(m)]
    tableau = [
        [sign[i] * columns[j][i] for j in range(n)]
        + [Fraction(1) if r == i else Fraction(0) for r in range(m)]
        + [sign[i] * rhs[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]

    phase1 = [Fraction(0)] * n + [Fraction(1)] * m
    _pivot_loop(tableau, basis, phase1, blocked=set())
    if sum(tableau[i][-1] for i in range(m) if basis[i] >= n) > 0:
        return None
    # drive leftover zero-level artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tableau[i][j] != 0:
                    piv = tableau[i][j]
                    tableau[i] = [x / piv for x in tableau[i]]
                    for r in range(m):
                        if r != i and tableau[r][j] != 0:
                            factor = tableau[r][j]
                            tableau[r] = [x - factor * y for x, y in zip(tableau[r], tableau[i])]
                    basis[i] = j
                    break

    phase2 = list(costs) + [Fraction(0)] * m
    _pivot_loop(tableau, basis, phase2, blocked=set(range(n, n + m)))

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][-1]
    value = sum(costs[j] * x[j] for j in range(n))
    duals = [
        sign[i] * sum(phase2[basis[r]] * tableau[r][n + i] for r in range(m))
        for i in range(m)
    ]
    return value, x, duals


def envelope_at(
    corners: Sequence[CornerPoint], helper_mem: Fraction, private_mem: Fraction
) -> Optional[EnvelopeSolution]:
    """Cheapest convex mixture of corners hitting both memory targets exactly."""
    if not corners:
        return None
    columns = [
        (c.helper_mem, c.private_mem, Fraction(1)) for c in corners
    ]
    rhs = (Fraction(helper_mem), Fraction(private_mem), Fraction(1))
    result = simplex_solve(columns, [c.rate for c in corners], rhs)
    if result is None:
        return None
    value, x, duals = result
    weights = tuple(
        (corner, w) for corner, w in zip(corners, x) if w > 0
    )
    return EnvelopeSolution(weights=weights, achieved_rate=value, duals=tuple(duals))


def certificate_holds(
    corners: Sequence[CornerPoint],
    solution: EnvelopeSolution,
    helper_mem: Fraction,
    private_mem: Fraction,
) -> bool:
    """LP-duality check: the duals support every corner and price the target."""
    y = solution.duals
    for c in corners:
        if y[0] * c.helper_mem + y[1] * c.private_mem + y[2] > c.rate:
            return False
    return y[0] * helper_mem + y[1] * private_mem + y[2] == solution.achieved_rate


def scheme2_envelope(
    config: NetworkConfig, assoc: Association
) -> Optional[EnvelopeSolution]:
    """The cheapest mixture of scheme2 corners at the configured memory pair."""
    return envelope_at(scheme2_corners(config, assoc), config.helper_mem, config.private_mem)


def scheme2_envelope_rate(
    config: NetworkConfig, assoc: Association
) -> Optional[Fraction]:
    sol = scheme2_envelope(config, assoc)
    return sol.achieved_rate if sol is not None else None


def scheme1_envelope_rate(
    config: NetworkConfig, assoc: Association
) -> Optional[Fraction]:
    """Envelope over feasible single-level corners along Mp at this fixed Ms."""
    corners = scheme1_corners(config, assoc)
    points = [(c.private_mem, c.rate) for c in corners]
    return bounds.envelope_interp(points, config.private_mem) if points else None


def scheme_rate(
    name: str, config: NetworkConfig, assoc: Association
) -> tuple[Optional[Fraction], str]:
    """A scheme's rate at the configured memory pair, with its provenance.

    Returns (rate, "formula") when one direct run of the scheme achieves
    the rate, (rate, "envelope") when it takes a memory-sharing mixture,
    and (None, reason) when no mixture reaches the pair.  The scheme2 rate
    is always the LP optimum, the same mixture that verification runs.
    """
    if name == "unknown":
        try:
            return rate_unknown(config, assoc.profile), "formula"
        except InfeasibleSchemeError:
            return rate_unknown_general(config, assoc.profile), "envelope"
    if name == "scheme1":
        report = scheme1_feasible(config, assoc)
        if report.feasible:
            return rate_scheme1(config), "formula"
        value = scheme1_envelope_rate(config, assoc)
        if value is None:
            return None, "; ".join(report.reasons)
        return value, "envelope"
    if name == "scheme2":
        sol = scheme2_envelope(config, assoc)
        if sol is None:
            return None, "no mixture of corner points reaches this memory pair"
        # a single weight-1 corner sits at the target pair itself
        direct = len(sol.weights) == 1 and sol.weights[0][0].scheme_tag is SchemeTag.SCHEME2
        return sol.achieved_rate, "formula" if direct else "envelope"
    raise ValueError(f"unknown scheme {name!r}")


# ---------------------------------------------------------------------------
# materialization


def _unknown_segments(config: NetworkConfig, assoc: Association, weight: Fraction) -> list:
    """Segments realizing the association-oblivious scheme at config's memory
    pair, scaled to a total of weight.

    At lattice-aligned parameters this is a single segment; otherwise the
    helper share and the private share are each mixed along their own
    one-parameter lattice, giving up to four pure segments.
    """
    try:
        unknown_params(config)
        return [simulator.build_segment("unknown", config, assoc, weight)]
    except InfeasibleSchemeError:
        pass
    n, k, lam = config.num_files, config.num_users, config.num_helpers
    m = config.total_mem
    alpha = config.helper_mem / m
    segments = []
    for share, points, memories in (
        (alpha, bounds.pue_points(lam, n, assoc.profile), lambda mem: (mem, 0)),
        (1 - alpha, bounds.man_points(k, n), lambda mem: (0, mem)),
    ):
        if share == 0:
            continue
        for mem, _rate, w in envelope_mix(points, m):
            if share * w > 0:
                sub = config.with_memories(*memories(mem))
                segments.append(simulator.build_segment("unknown", sub, assoc, weight * share * w))
    return segments


def materialize_shared_placement(
    solution: EnvelopeSolution, config: NetworkConfig, assoc: Association
):
    """Split files into one weighted segment per corner and place each segment
    under its own scheme; returns a simulator-ready SegmentedRun.

    A dedicated corner is the oblivious scheme at zero helper memory, so a
    point between its subpacketization levels becomes two segments."""
    segments = []
    for corner, weight in solution.weights:
        sub = config.with_memories(corner.helper_mem, corner.private_mem)
        if corner.scheme_tag in (SchemeTag.SCHEME1, SchemeTag.SCHEME2):
            segments.append(simulator.build_segment(corner.scheme_tag.value, sub, assoc, weight))
        else:
            segments.extend(_unknown_segments(sub, assoc, weight))
    return simulator.SegmentedRun(tuple(segments))


def unknown_run_segments(config: NetworkConfig, assoc: Association):
    """Segmented realization of the association-oblivious scheme at any memory."""
    return simulator.SegmentedRun(tuple(_unknown_segments(config, assoc, Fraction(1))))
