"""Memory sharing: corner grids, an exact-rational LP over convex mixtures,
the mixtures of direct runs that realize each scheme's rate, and the bound
report that sets those rates against the reference curves.

A corner point is a memory pair where some scheme's integer parameters
line up, and it carries that run; arbitrary (Ms, Mp) targets are met by
splitting files into weighted segments, one per corner's run: a SegmentedRun of
Segments, which the simulator executes.  scheme_rate and scheme_run both read
scheme_mixture, so a printed rate is the rate of the run.

Every LP is one two-phase Bland solve of the columns it is given, and
lp_optimal, the one certificate check for any number of rows, checks each
optimum.  envelope_at puts each LP into integers once, with _integer_lp, the
one scaling rule, and the solver and the check both read that one system,
which the solver leaves as it is.  bound_reports, behind `bounds` and
`curve`, reads each scheme2 rate from its LP's checked optimum.  Along a
sweep only Mp and the pinned corner move, so each LP lists the previous
row's optimal corners first.  The optimal value is unique, but a reordered
LP can reach another optimal x, so bound_reports reads only the value, and
scheme_mixture, which `rate` sums and `verify` runs, lists the corners in
scheme2_corners order.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from . import bounds, model, scheme1, scheme2, scheme_unknown
from .model import (Association, CertificateError, CornerPoint, InfeasibleSchemeError, NetworkConfig,
                    Placement, Transmission, tile)

UNREACHABLE = "no mixture of {} runs reaches this memory pair"


@dataclass(frozen=True)
class EnvelopeSolution:
    weights: tuple  # ((CornerPoint, Fraction), ...) with positive weights
    achieved_rate: Fraction
    duals: tuple  # supporting hyperplane (y_ms, y_mp, y_const)
    support: tuple = ()  # indices of the weighted corners in the LP's corner list


# ---------------------------------------------------------------------------
# corner grids


def dedicated_corners(config: NetworkConfig) -> list[CornerPoint]:
    """Zero-helper-memory corners from the dedicated-cache curve."""
    return [CornerPoint(Fraction(0), mem, rate, "unknown", (t,))
            for t, (mem, rate) in enumerate(bounds.man_hull(config.num_users, config.num_files))]


def scheme2_corners(config: NetworkConfig, assoc: Association) -> list[CornerPoint]:
    """Two-level corners for all (t_s in [1..Lambda], t_p in [0..L1]), plus a
    single t_s = 0 point: the dedicated-cache curve evaluated at the target
    private memory. Pinning that level to the target keeps the mixture from
    reshuffling private memory onto the zero-helper curve, which is how the
    two-level decomposition is meant to work.  The pinned corner comes first,
    then the cached scheme2_grid; it has Ms = 0, so no grid corner repeats it."""
    n, k, mp0 = config.num_files, config.num_users, config.private_mem
    pinned = CornerPoint(Fraction(0), mp0, bounds.man_rate(k, n, mp0),
                         "unknown", (Fraction(k * mp0, n),))
    return [pinned, *scheme2_grid(n, config.num_helpers, assoc.profile)]


@lru_cache(maxsize=128)
def scheme2_grid(n: int, lam: int, profile: tuple[int, ...]) -> tuple[CornerPoint, ...]:
    """The t_s >= 1 corners of scheme2_corners, distinct (Ms, Mp, rate) in
    (t_s, t_p) order; built once per (N, Lambda, profile), as L1 = profile[0]."""
    l1 = profile[0]
    corners, seen = [], set()
    for t_s in range(1, lam + 1):
        ms = Fraction(t_s * n, lam)
        for t_p in range(0, l1 + 1):
            mp = (n - ms) * Fraction(t_p, l1)
            rate = scheme2.rate_scheme2_formula(lam, t_s, t_p, profile)
            if (ms, mp, rate) not in seen:
                seen.add((ms, mp, rate))
                corners.append(CornerPoint(ms, mp, rate, "scheme2", (t_s, t_p), (t_s, t_p)))
    return tuple(corners)


def scheme1_corners(config: NetworkConfig, assoc: Association) -> list[CornerPoint]:
    """Feasible single-level corners at this fixed Ms: memory pairs (Ms, t*N/K - Ms)
    for integer t passing scheme1.corner_feasible.  Their levels are t = first..K,
    never empty: t >= L1 and t*N/K >= Ms grow with t, the cap N*C(K-L1, t-L1)/C(K, t)
    is nondecreasing (t -> t+1 multiplies it by (t+1)/(t+1-L1) >= 1) and is N at K."""
    k, n, ms = config.num_users, config.num_files, config.helper_mem
    return [CornerPoint(ms, mem - ms, rate, "scheme1", (t,))
            for t, (mem, rate) in enumerate(bounds.man_hull(k, n))
            if mem >= ms and scheme1.corner_feasible(k, n, assoc.largest_group, t, ms)]


def unknown_corners(config: NetworkConfig, assoc: Association) -> list[CornerPoint]:
    """Corners along the fixed split-ratio memory axis, on the union of the
    two subpacketization lattices."""
    n, k, lam, m = config.num_files, config.num_users, config.num_helpers, config.total_mem
    if m == 0:
        return [CornerPoint(Fraction(0), Fraction(0), Fraction(k), "unknown", ())]
    alpha = config.helper_mem / m
    lattice = sorted({Fraction(t * n, lam) for t in range(lam + 1)}
                     | {Fraction(t * n, k) for t in range(k + 1)})
    corners = []
    for mem in lattice:
        ms, mp = alpha * mem, (1 - alpha) * mem
        mixture = scheme_unknown.unknown_mixture(config, assoc.profile, ms, mp, Fraction(1))
        corners.append(CornerPoint(ms, mp, sum(c.rate * w for c, w in mixture), "unknown", (mem,)))
    return corners


# ---------------------------------------------------------------------------
# exact simplex (equality form, Bland's rule) on an integer-scaled system


def _dot(u, v) -> int:
    return sum(map(operator.mul, u, v))


class _Basis:
    """A simplex basis over integer columns, held as the adjugate inv = det * B^-1
    and beta = inv . b; fraction-free (Bareiss) pivots keep both integer.  It
    starts on the artificial columns, B = diag(scale)."""

    def __init__(self, cols, b, scale, n: int):
        self.cols, self.det, m = cols, math.prod(scale), len(b)
        self.inv = [[self.det // scale[i] if r == i else 0 for r in range(m)] for i in range(m)]
        self.beta = [self.det // scale[i] * b[i] for i in range(m)]
        self.basis = list(range(n, n + m))

    def column(self, j: int) -> list[int]:
        """det times tableau column j, B^-1 . A_j."""
        return [_dot(row, self.cols[j]) for row in self.inv]

    def prices(self, costs) -> list[int]:
        """pi = c_B . inv: column j has reduced cost (c_j * det - pi . A_j) / det."""
        return [_dot([costs[k] for k in self.basis], col) for col in zip(*self.inv)]

    def pivot(self, row: int, col: int, alpha: list[int]) -> None:
        """Make col basic in row, given alpha = self.column(col)."""
        piv, inv, beta = alpha[row], self.inv, self.beta
        for i, a in enumerate(alpha):
            if i != row:
                inv[i] = [(piv * x - a * y) // self.det for x, y in zip(inv[i], inv[row])]
                beta[i] = (piv * beta[i] - a * beta[row]) // self.det
        self.det, self.basis[row] = piv, col

    def run(self, costs, candidates) -> None:
        """Bland's rule: the first candidate with a negative reduced cost enters;
        the smallest ratio beta_i / alpha_i leaves, ties to the smallest basic index."""
        while True:
            pi, sgn = self.prices(costs), (1 if self.det > 0 else -1)
            entering = next((j for j in candidates if j not in self.basis
                             and (costs[j] * self.det - _dot(pi, self.cols[j])) * sgn < 0), None)
            if entering is None:
                return
            alpha, leaving = self.column(entering), None
            for i, a in enumerate(alpha):
                # a and alpha[leaving] share the sign of det, so cross-multiplying keeps the order
                if a * sgn > 0 and (leaving is None or (self.beta[i] * alpha[leaving], self.basis[i])
                                    < (self.beta[leaving] * a, self.basis[leaving])):
                    leaving = i
            if leaving is None:
                raise ArithmeticError("LP unbounded; mixture problems are always bounded")
            self.pivot(leaving, entering, alpha)


def _over_lcm(values, sign: int = 1) -> tuple[list[int], int]:
    """(ints, d): the values times d, the lcm of their denominators times sign."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*(q for _, q in ratios)) * sign
    return [p * (d // q) for p, q in ratios], d


def _integer_lp(columns, costs, rhs):
    """The LP in integers, the one scaling rule: row i times factor[i], the lcm of
    its denominators signed so that its rhs is >= 0, and the costs times unit,
    the lcm of theirs.  Returns (cols, b, factor, c, unit); positive scaling keeps
    every sign, and a flipped row keeps its equation."""
    rows = [_over_lcm(row, -1 if row[-1] < 0 else 1) for row in zip(*columns, rhs)]
    *cols, b = zip(*(row for row, _ in rows))
    c, unit = _over_lcm(costs)
    return cols, b, [f for _, f in rows], c, unit


def simplex_solve(lp) -> Optional[tuple[Fraction, list[Fraction], list[Fraction]]]:
    """Minimize costs.x subject to columns.x = rhs, x >= 0, given as
    lp = _integer_lp(columns, costs, rhs), which it reads and leaves as it is.

    Returns (value, x, duals) or None when infeasible.  Two phases from an
    artificial basis, as in the textbook tableau, but revised and in integers;
    row i's artificial column is |factor[i]| times a unit column.  Positive
    scaling changes no reduced cost's sign and no ratio, so the solver visits
    the bases the tableau visits and returns the same optimum.
    """
    cols, b, factor, c, unit = lp
    m, n = len(b), len(cols)
    scale = [abs(f) for f in factor]
    cols = [*cols, *([scale[i] if r == i else 0 for r in range(m)] for i in range(m))]
    basis = _Basis(cols, b, scale, n)
    basis.run([0] * n + [1] * m, range(n + m))
    if any(beta for beta, j in zip(basis.beta, basis.basis) if j >= n):
        return None
    # drive leftover zero-level artificials out of the basis where possible
    for i in range(m):
        if basis.basis[i] >= n:
            for j in range(n):
                if _dot(basis.inv[i], cols[j]) != 0:
                    basis.pivot(i, j, basis.column(j))
                    break

    phase2 = [*c, *[0] * m]
    basis.run(phase2, range(n))

    # only basic columns have a nonzero x[j], and costs[j] is c[j] / unit
    level = {j: beta for j, beta in zip(basis.basis, basis.beta) if j < n}
    x = [Fraction(0)] * n
    for j, beta in level.items():
        x[j] = Fraction(beta, basis.det)
    value = Fraction(sum(c[j] * beta for j, beta in level.items()), basis.det * unit)
    duals = [Fraction(p * f, basis.det * unit) for p, f in zip(basis.prices(phase2), factor)]
    return value, x, duals


def lp_optimal(lp, value, x, y) -> bool:
    """Whether x and y certify value as the optimum of min costs.x subject to
    columns.x = rhs, x >= 0, for any number of rows, given as
    lp = _integer_lp(columns, costs, rhs).  Primal: x >= 0, columns.x = rhs and
    costs.x = value.  Dual: y.rhs = value and y.column_j <= costs_j for every j.
    Checked in ints on lp, whose duals are y_i * unit / factor_i; x is read on
    its support."""
    cols, b, factor, c, unit = lp
    if len(x) != len(cols) or len(y) != len(b):
        return False
    support = [j for j, w in enumerate(x) if w]
    # x on its support is xs / dx, and the scaled system's duals are ys / dy
    xs, dx = _over_lcm(x[j] for j in support)
    ys, dy = _over_lcm(Fraction(y_i) * unit / f for y_i, f in zip(y, factor))
    num, den = value.as_integer_ratio()
    return (
        all(w > 0 for w in xs)
        and all(sum(cols[j][i] * w for j, w in zip(support, xs)) == b_i * dx
                for i, b_i in enumerate(b))
        and _dot([c[j] for j in support], xs) * den == num * unit * dx
        and _dot(ys, b) * den == num * unit * dy
        and all(_dot(ys, col) <= c_j * dy for col, c_j in zip(cols, c))
    )


def envelope_at(
    corners: Sequence[CornerPoint], helper_mem: Fraction, private_mem: Fraction
) -> Optional[EnvelopeSolution]:
    """Cheapest convex mixture of corners hitting both memory targets exactly;
    raises CertificateError if lp_optimal rejects its optimum."""
    if not corners:
        return None
    lp = _integer_lp([(c.helper_mem, c.private_mem, 1) for c in corners],
                     [c.rate for c in corners], (Fraction(helper_mem), Fraction(private_mem), 1))
    result = simplex_solve(lp)
    if result is None:
        return None
    value, x, duals = result
    if not lp_optimal(lp, value, x, duals):
        raise CertificateError(
            f"the LP certificate of rate {value} at (Ms, Mp) = "
            f"({helper_mem}, {private_mem}) does not hold"
        )
    support = tuple(j for j, w in enumerate(x) if w != 0)
    return EnvelopeSolution(tuple((corners[j], x[j]) for j in support), value, tuple(duals), support)


# ---------------------------------------------------------------------------
# mixtures: weighted corners, each one direct run of its scheme


def _solution_mixture(
    solution: EnvelopeSolution, config: NetworkConfig, assoc: Association
) -> list:
    """An LP solution with each corner that carries no run, the zero-helper one, run
    as the oblivious scheme at Ms = 0, which takes two runs between its lattice levels."""
    return [pair for corner, weight in solution.weights for pair in (
        [(corner, weight)] if corner.run is not None else
        scheme_unknown.unknown_mixture(config, assoc.profile, Fraction(0), corner.private_mem,
                                       weight))]


def _scheme2_mixture(config: NetworkConfig, assoc: Association) -> Optional[list]:
    """The LP optimum over scheme2_corners, run as _solution_mixture."""
    sol = envelope_at(scheme2_corners(config, assoc), config.helper_mem, config.private_mem)
    return None if sol is None else _solution_mixture(sol, config, assoc)


# mixture(config, assoc), whose corners carry their runs; gate(config, assoc), the run asked
# for by memory pair; place(assoc, run); deliver(assoc, run, labels).  Each looks its
# module's function up at each call: it may be rebound
Scheme = namedtuple("Scheme", "mixture gate place deliver")
SCHEMES = {  # in the order of `rate --scheme all` and of the curve's columns
    "unknown": Scheme(lambda c, a: scheme_unknown.unknown_mixture(c, a.profile, c.helper_mem,
                                                                  c.private_mem, Fraction(1)),
                      lambda c, a: scheme_unknown.unknown_params(c),
                      lambda a, r: scheme_unknown.place_unknown(a, r),
                      lambda a, r, d: scheme_unknown.deliver_unknown(a, r, d)),
    "scheme1": Scheme(scheme1.scheme1_mixture, lambda c, a: scheme1.scheme1_params(c, a),
                      lambda a, r: scheme1.place_scheme1(a, r),
                      lambda a, r, d: scheme1.deliver_scheme1(a, r, d)),
    "scheme2": Scheme(_scheme2_mixture, lambda c, a: scheme2.scheme2_params(c, a),
                      lambda a, r: scheme2.place_scheme2(a, r),
                      lambda a, r, d: scheme2.deliver_scheme2(a, r, d)),
}


def scheme_mixture(
    name: str, config: NetworkConfig, assoc: Association
) -> Optional[list[tuple[CornerPoint, Fraction]]]:
    """The weighted corners whose direct runs realize a scheme at the
    configured memory pair: weights sum to 1 and the corner memories
    average to (Ms, Mp).  None when no mixture reaches the pair."""
    model.validate_association(config, assoc)
    if name not in SCHEMES:
        raise ValueError(f"unknown scheme {name!r}")
    return SCHEMES[name].mixture(config, assoc)


def scheme_rate(
    name: str, config: NetworkConfig, assoc: Association
) -> tuple[Optional[Fraction], str]:
    """The rate of scheme_mixture, labelled "formula" when the mixture is one
    direct run of the scheme and "envelope" otherwise; (None, reason) when
    no mixture reaches the pair."""
    mixture = scheme_mixture(name, config, assoc)
    if mixture is None:
        return None, UNREACHABLE.format(name)
    value = sum((corner.rate * w for corner, w in mixture), Fraction(0))
    direct = len(mixture) == 1 and mixture[0][0].scheme_tag == name  # weight 1
    return value, "formula" if direct else "envelope"


def scheme2_envelope_rate(
    config: NetworkConfig, assoc: Association
) -> Optional[Fraction]:
    """The LP optimum over the scheme2 corners at the configured memory pair."""
    return scheme_rate("scheme2", config, assoc)[0]


@dataclass(frozen=True)
class BoundReport:
    """Bounds and scheme rates at one memory point, with equality flags."""

    cutset: Fraction
    cutset_u: int
    man_lower: Fraction
    pue_upper: Fraction
    scheme_rates: dict
    optimality_flags: dict


def bound_reports(configs: Iterable[NetworkConfig], assoc: Association) -> Iterator[BoundReport]:
    """The bound_report of each config in turn.  Each scheme2 rate is the checked
    optimum of one envelope_at call that lists the last optimum's corners first:
    Bland's rule ends under any column order, and a basis near the last is found in
    fewer pivots.  A reordered LP may reach another optimal x, so only achieved_rate,
    the unique optimal value, is read, and it never feeds `verify`."""
    support = ()  # indices into scheme2_corners, the same list on every row for this assoc
    for config in configs:
        model.validate_association(config, assoc)
        n, m = config.num_files, config.total_mem
        man = bounds.man_rate(config.num_users, n, m)
        pue = bounds.pue_rate(config.num_helpers, n, m, assoc.profile)
        cutset, u = bounds.cutset_bound(config, assoc)
        corners = scheme2_corners(config, assoc)
        order = [*support, *(j for j in range(len(corners)) if j not in support)]
        sol = envelope_at([corners[j] for j in order], config.helper_mem, config.private_mem)
        support = support if sol is None else tuple(order[j] for j in sol.support)
        rates = {"unknown": scheme_rate("unknown", config, assoc)[0],
                 "scheme1": scheme_rate("scheme1", config, assoc)[0],
                 "scheme2": None if sol is None else sol.achieved_rate}
        flags = {
            "scheme1_meets_man": rates["scheme1"] is not None and rates["scheme1"] == man,
            "unknown_meets_pue": rates["unknown"] == pue,
            "high_memory_optimal": (
                config.helper_mem >= n * (1 - Fraction(1, config.num_helpers))
                and config.private_mem >= n * (1 - Fraction(1, assoc.largest_group))
                and rates["scheme2"] == 1 - m / n == cutset
            ),
        }
        yield BoundReport(cutset, u, man, pue, rates, flags)


def bound_report(config: NetworkConfig, assoc: Association) -> BoundReport:
    """Every scheme's rate at this point against the reference curves and the
    cut-set bound.  high_memory_optimal: in the region Ms >= N(1-1/Lambda),
    Mp >= N(1-1/L1) the two-level rate is 1 - (Ms+Mp)/N and meets the cut-set
    bound exactly."""
    return next(bound_reports([config], assoc))


# ---------------------------------------------------------------------------
# materialization


@dataclass(frozen=True)
class Segment:
    """One weighted slice of every file: a direct run of the scheme its tag names."""

    tag: str
    weight: Fraction
    run: tuple
    placement: Placement

    @property
    def extents(self) -> dict:
        """The per-piece view of the placement's parts: key -> (offset, size)."""
        return tile(*self.placement.parts)

    def transmissions(self, assoc: Association, labels: Sequence[int]) -> list[Transmission]:
        """The run's broadcasts, each summand labels[u - 1] plus the piece's index among
        the segment's keys for the user u it serves: the simulator labels u by where its
        file's copy of this segment starts among the run's addresses."""
        return SCHEMES[self.tag].deliver(assoc, self.run, labels)


@dataclass(frozen=True)
class SegmentedRun:
    segments: tuple[Segment, ...]


def _segments(mixture, assoc: Association) -> SegmentedRun:
    """One segment per corner, placing the run the corner carries."""
    return SegmentedRun(tuple(
        Segment(corner.scheme_tag, weight, corner.run,
                SCHEMES[corner.scheme_tag].place(assoc, corner.run))
        for corner, weight in mixture
    ))


def scheme_run(name: str, config: NetworkConfig, assoc: Association) -> SegmentedRun:
    """The segments whose rate scheme_rate reports, one per mixture corner;
    raises InfeasibleSchemeError when no mixture reaches the pair."""
    mixture = scheme_mixture(name, config, assoc)
    if mixture is None:
        raise InfeasibleSchemeError(UNREACHABLE.format(name))
    return _segments(mixture, assoc)


def materialize_shared_placement(
    solution: EnvelopeSolution, config: NetworkConfig, assoc: Association
) -> SegmentedRun:
    """Split files into one weighted segment per corner of an LP solution;
    returns a simulator-ready SegmentedRun."""
    return _segments(_solution_mixture(solution, config, assoc), assoc)


def unknown_run_segments(config: NetworkConfig, assoc: Association) -> SegmentedRun:
    """Segmented realization of the association-oblivious scheme at any memory."""
    return scheme_run("unknown", config, assoc)
