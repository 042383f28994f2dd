import copy
import math
from fractions import Fraction
from typing import Optional, Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from dualcache import envelope, scheme1, scheme2
from dualcache.bounds import (
    hull_mix,
    lower_convex_points,
    man_hull,
    man_rate,
    pue_hull,
)
from dualcache.combin import binom
from dualcache.envelope import (
    _integer_lp,
    bound_report,
    bound_reports,
    envelope_at,
    lp_optimal,
    scheme1_corners,
    scheme2_corners,
    scheme2_envelope_rate,
    materialize_shared_placement,
    scheme_mixture,
    scheme_rate,
    simplex_solve,
    unknown_run_segments,
)
from dualcache.model import CornerPoint, NetworkConfig, build_association
from dualcache.scheme2 import rate_scheme2_formula
from dualcache.scheme_unknown import rate_unknown_general
from dualcache.simulator import run_end_to_end
from layout_bytes import segment_memories
from test_scheme_rate import NETWORKS

F = Fraction


def _corner_lp(corners, helper_mem, private_mem):
    """envelope_at's LP: one column (Ms, Mp, 1) per corner, priced at its rate."""
    return ([(c.helper_mem, c.private_mem, F(1)) for c in corners], [c.rate for c in corners],
            (helper_mem, private_mem, F(1)))


def _solve(columns, costs, rhs):
    """simplex_solve on the integer system of (columns, costs, rhs)."""
    return simplex_solve(_integer_lp(columns, costs, rhs))


def _lp_optimal(columns, costs, rhs, value, x, y) -> bool:
    """lp_optimal on the integer system of (columns, costs, rhs)."""
    return lp_optimal(_integer_lp(columns, costs, rhs), value, x, y)


def _certified(corners, sol, helper_mem, private_mem) -> bool:
    """lp_optimal on envelope_at's LP, with sol's weights at its support."""
    x = [F(0)] * len(corners)
    for j, (_, w) in zip(sol.support, sol.weights):
        x[j] = w
    return _lp_optimal(*_corner_lp(corners, helper_mem, private_mem), sol.achieved_rate, x, sol.duals)


def test_two_level_corner_grid(net_4users):
    config, assoc = net_4users
    corners = scheme2_corners(config, assoc)
    triples = {(c.helper_mem, c.private_mem, c.rate) for c in corners}
    assert (Fraction(0), Fraction(1), Fraction(3, 2)) in triples
    assert (Fraction(2), Fraction(2, 3), Fraction(1, 2)) in triples
    assert (Fraction(2), Fraction(4, 3), Fraction(1, 6)) in triples
    # a full-memory corner always closes the grid at rate 0
    assert any(
        c.helper_mem == 4 and c.private_mem == 0 and c.rate == 0 for c in corners
    )
    # exactly one zero-helper-memory point, pinned at the target Mp
    dedicated = [c for c in corners if c.scheme_tag == "unknown"]
    assert [(c.helper_mem, c.private_mem) for c in dedicated] == [
        (Fraction(0), Fraction(1))
    ]


def test_mixture_at_intermediate_memory(net_4users):
    config, assoc = net_4users
    corners = scheme2_corners(config, assoc)
    sol = envelope_at(corners, Fraction(1), Fraction(1))
    assert sol is not None
    assert sol.achieved_rate == Fraction(11, 12)
    mix = {
        (c.helper_mem, c.private_mem): w for c, w in sol.weights
    }
    assert mix == {
        (Fraction(0), Fraction(1)): Fraction(1, 2),
        (Fraction(2), Fraction(2, 3)): Fraction(1, 4),
        (Fraction(2), Fraction(4, 3)): Fraction(1, 4),
    }
    assert _certified(corners, sol, Fraction(1), Fraction(1))


def test_mixture_decodes_at_its_rate(net_4users):
    config, assoc = net_4users
    sol = envelope_at(scheme2_corners(config, assoc), Fraction(1), Fraction(1))
    run = materialize_shared_placement(sol, config, assoc)
    memories = [(seg.weight, *segment_memories(seg, 4)) for seg in run.segments]
    assert sum(w * ms for w, ms, _ in memories) == 1
    assert sum(w * mp for w, _, mp in memories) == 1
    report = run_end_to_end(config, assoc, (1, 2, 3, 4), scheme=run, seed=6)
    assert report.ok, report.failure
    assert report.measured_rate == Fraction(11, 12)


def test_target_on_a_corner_is_degenerate(net_4users):
    config, assoc = net_4users
    target = config.with_memories(Fraction(2), Fraction(2, 3))
    corners = scheme2_corners(target, assoc)
    sol = envelope_at(corners, Fraction(2), Fraction(2, 3))
    assert sol.achieved_rate == Fraction(1, 2)
    assert sum(w for _, w in sol.weights) == 1
    assert {c.rate for c, w in sol.weights if w > 0} == {Fraction(1, 2)}


def test_unreachable_target_is_reported(net_4users):
    _, assoc = net_4users
    config = NetworkConfig(4, 4, 2, Fraction(1), Fraction(5, 2))
    assert envelope_at(scheme2_corners(config, assoc), Fraction(1), Fraction(5, 2)) is None
    assert envelope_at([], Fraction(1), Fraction(1)) is None  # no corner reaches any pair
    assert scheme2_envelope_rate(config, assoc) is None


def test_simplex_small_problems():
    # min x0 + 2*x1 s.t. x0 + x1 = 1
    value, x, duals = _solve(
        [(Fraction(1),), (Fraction(1),)], [Fraction(1), Fraction(2)], [Fraction(1)]
    )
    assert value == 1 and x == [Fraction(1), Fraction(0)]
    assert duals == [Fraction(1)]
    # infeasible: no nonnegative combination reaches a negative target
    assert _solve([(Fraction(1),)], [Fraction(1)], [Fraction(-1)]) is None


def test_duals_support_every_corner(net_4users):
    config, assoc = net_4users
    for ms_num in range(0, 5):
        ms = Fraction(ms_num, 2)
        mp = Fraction(3, 2)
        if ms + mp > 4:
            continue
        probe = config.with_memories(ms, mp)
        corners = scheme2_corners(probe, assoc)
        sol = envelope_at(corners, ms, mp)
        if sol is None:
            continue
        assert _certified(corners, sol, ms, mp)


def test_one_dimensional_mix():
    points = [(Fraction(0), Fraction(4)), (Fraction(2), Fraction(1)), (Fraction(4), Fraction(0))]
    hull = lower_convex_points(points)
    assert hull_mix(hull, Fraction(1)) == [
        (Fraction(0), Fraction(4), Fraction(1, 2)),
        (Fraction(2), Fraction(1), Fraction(1, 2)),
    ]
    assert hull_mix(hull, Fraction(2)) == [(Fraction(2), Fraction(1), Fraction(1))]
    assert hull_mix(hull, Fraction(5)) is None


def test_single_level_envelope_interpolates(net_4users):
    _, assoc = net_4users
    config = NetworkConfig(4, 4, 2, Fraction(1), Fraction(5, 2))
    # feasible corners sit at Mp = 2 (rate 1/4) and Mp = 3 (rate 0)
    corners = scheme1_corners(config, assoc)
    assert [(c.private_mem, c.rate) for c in corners] == [
        (Fraction(2), Fraction(1, 4)), (Fraction(3), Fraction(0)),
    ]
    assert scheme_rate("scheme1", config, assoc)[0] == Fraction(1, 8)
    below = config.with_memories(Fraction(1), Fraction(1))
    assert scheme_rate("scheme1", below, assoc)[0] is None


def test_oblivious_run_off_the_lattice():
    config = NetworkConfig(4, 4, 2, Fraction(3, 4), Fraction(3, 4))
    assoc = build_association(config, [[1, 2, 3], [4]])
    run = unknown_run_segments(config, assoc)
    assert len(run.segments) > 1
    memories = [(seg.weight, *segment_memories(seg, 4)) for seg in run.segments]
    assert sum(w * ms for w, ms, _ in memories) == Fraction(3, 4)
    assert sum(w * mp for w, _, mp in memories) == Fraction(3, 4)
    report = run_end_to_end(config, assoc, (1, 2, 3, 4), scheme=run, seed=8)
    assert report.ok, report.failure
    assert report.measured_rate == rate_unknown_general(config, assoc.profile)


# corners (Ms, 0) at Ms = 0, 2, 1 priced on rate = 2 - Ms, target (1, 0): the
# duals (-1, 0, 2) meet every column's cost with equality and price the target at 1
_LINE_LP = ([(F(ms), F(0), F(1)) for ms in (0, 2, 1)], [F(2 - ms) for ms in (0, 2, 1)],
            (F(1), F(0), F(1)))


def test_certificate_rejects_a_negative_weight():
    # both x meet every row and cost 1: only the negative entries are wrong
    good, bad, duals = [F(0), F(0), F(1)], [F(-1, 2), F(-1, 2), F(2)], [F(-1), F(0), F(2)]
    for check in (_lp_optimal, _reference_lp_optimal):
        assert check(*_LINE_LP, F(1), good, duals)
        assert not check(*_LINE_LP, F(1), bad, duals)
        # so is an x or y of the wrong length
        assert not check(*_LINE_LP, F(1), good[1:], duals)
        assert not check(*_LINE_LP, F(1), good, duals[1:])


# ---------------------------------------------------------------------------
# differential reference: the textbook two-phase tableau simplex in Fraction
# arithmetic.  It and simplex_solve both start from the artificial basis and
# use Bland's rule, so they must visit the same bases and return the same
# (value, x, duals).


def _pivot(tableau, basis, row: int, col: int) -> None:
    """Make column col basic in row: scale the row, clear the column elsewhere."""
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            factor = tableau[i][col]
            tableau[i] = [x - factor * y for x, y in zip(tableau[i], tableau[row])]
    basis[row] = col


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
        _pivot(tableau, basis, leaving, entering)


def _tableau_solve(
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
                    _pivot(tableau, basis, i, j)
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


def _captured_lps(run):
    """Each (columns, costs, rhs) that run() puts into integers with _integer_lp,
    with simplex_solve's result on that integer system."""
    made, solved = {}, []
    scale, solve = envelope._integer_lp, envelope.simplex_solve

    def scale_spy(*lp):
        system = scale(*lp)
        made[id(system)] = lp, system  # kept alive, so no later system takes its id
        return system

    def solve_spy(system):
        solved.append((made[id(system)][0], solve(system)))
        return solved[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(envelope, "_integer_lp", scale_spy)
        patch.setattr(envelope, "simplex_solve", solve_spy)
        run()
    return solved


@pytest.fixture(scope="module")
def bound_report_lps():
    """Each LP that bound_report solves at the _sweep_points(), with its result."""
    return _captured_lps(lambda: [bound_report(config, build_association(config, partition))
                                  for config, partition in _sweep_points()])


def _half_step_grid(n, lam, partition):
    for ms2 in range(2 * n + 1):
        for mp2 in range(2 * n - ms2 + 1):
            yield NetworkConfig(n, n, lam, Fraction(ms2, 2), Fraction(mp2, 2)), partition


def _network_sweeps():
    """Each test_scheme_rate network's half-step grid as one sweep, its half-step
    Mp sweeps one Ms after another, as (partition, configs)."""
    for network in NETWORKS:
        yield network[2], [config for config, _ in _half_step_grid(*network)]


def _benchmark_sweeps():
    """The curve benchmark's sweep shapes over contiguous groups, as (partition,
    configs): the six criterion-7 sweeps (K=20, Ms = 5, 10, 15, Mp step 1) and
    K=30 at Ms = 7, Mp step 1/4."""
    shapes = [(20, 4, sizes, ms, Fraction(1)) for sizes in ((10, 5, 3, 2), (5, 5, 5, 5))
              for ms in (5, 10, 15)] + [(30, 6, (12, 7, 5, 3, 2, 1), 7, Fraction(1, 4))]
    for n, lam, sizes, ms, step in shapes:
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        partition = [list(range(at + 1, at + size + 1)) for at, size in zip(starts, sizes)]
        yield partition, [NetworkConfig(n, n, lam, Fraction(ms), i * step)
                          for i in range(int((n - ms) / step) + 1)]


def test_simplex_matches_tableau_on_bound_report_lps(bound_report_lps):
    # the test_scheme_rate grids and the smallest curve benchmark sweep
    points = _sweep_points()
    assert len(bound_report_lps) == len(points)
    for lp, result in bound_report_lps:
        assert result == _tableau_solve(*lp), lp
    # the same points as sweeps, whose LPs list the corners in another order
    k20 = _k20_sweep()
    sweeps = [*_network_sweeps(), (k20[0][1], [config for config, _ in k20])]
    swept = _captured_lps(lambda: [list(bound_reports(configs, build_association(configs[0], p)))
                                   for p, configs in sweeps])
    assert len(swept) == len(points)
    for lp, result in swept:
        assert result == _tableau_solve(*lp), lp


def test_each_lp_is_scaled_once_for_the_solver_and_the_check():
    # the K=30 curve benchmark sweep: one integer system per row, which the
    # solver leaves as it is and the check then reads
    partition, configs = list(_benchmark_sweeps())[-1]
    scaled, solved, checked = [], [], []
    scale, solve, check = envelope._integer_lp, envelope.simplex_solve, envelope.lp_optimal

    def scale_spy(*lp):
        scaled.append(scale(*lp))
        return scaled[-1]

    def solve_spy(system):
        before = copy.deepcopy(system)
        result = solve(system)
        assert system == before
        solved.append((system, result))
        return result

    def check_spy(system, *certificate):
        checked.append(system)
        return check(system, *certificate)

    with pytest.MonkeyPatch.context() as patch:
        for name, spy in (("_integer_lp", scale_spy), ("simplex_solve", solve_spy),
                          ("lp_optimal", check_spy)):
            patch.setattr(envelope, name, spy)
        reports = list(bound_reports(configs, build_association(configs[0], partition)))
    assert len(reports) == len(scaled) == len(solved) == len(configs)
    assert [id(system) for system, _ in solved] == [id(system) for system in scaled]
    optima = [system for system, result in solved if result is not None]
    assert [id(system) for system in checked] == [id(system) for system in optima]
    assert len(optima) > 0


def _outcome(solve, lp):
    try:
        return solve(*lp)
    except ArithmeticError:
        return "unbounded"


_ENTRIES = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _small_lps(draw):
    """m <= 6 rows, n <= 7 columns; sometimes a row is a multiple of the first."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    columns = [draw(st.lists(_ENTRIES, min_size=m, max_size=m)) for _ in range(n)]
    costs = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    rhs = draw(st.lists(_ENTRIES, min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        row, factor = draw(st.integers(1, m - 1)), draw(_ENTRIES)
        for column in columns:
            column[row] = factor * column[0]
        rhs[row] = factor * rhs[0]
    return columns, costs, rhs


def _single_changes(x, y):
    """(x, y) with one component of x or of y moved by 1 or by -1/6."""
    for delta in (F(1), F(-1, 6)):
        for j in range(len(x)):
            yield [*x[:j], x[j] + delta, *x[j + 1:]], y
        for i in range(len(y)):
            yield x, [*y[:i], y[i] + delta, *y[i + 1:]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lp=_small_lps())
@example(lp=([[F(-1)], [F(1)]], [F(1), F(1)], [F(-1)]))  # negative rhs
@example(lp=([[F(1), F(2)], [F(1), F(2)]], [F(1), F(2)], [F(1), F(2)]))  # redundant row
@example(lp=([[F(1), F(1)], [F(1), F(1)]], [F(1), F(0)], [F(1), F(2)]))  # infeasible
@example(lp=([[F(1)], [F(-1)]], [F(-1), F(0)], [F(0)]))  # unbounded
def test_simplex_matches_tableau_on_small_lps(lp):
    outcome = _outcome(_solve, lp)
    assert outcome == _outcome(_tableau_solve, lp)
    if isinstance(outcome, tuple):
        value, x, y = outcome
        system = _integer_lp(*lp)
        assert lp_optimal(system, value, x, y)
        for changed in _single_changes(x, y):
            assert lp_optimal(system, value, *changed) == _reference_lp_optimal(*lp, value, *changed)


# ---------------------------------------------------------------------------
# the caches of a sweep: what does not depend on the memory point is built once


def _k20_sweep():
    """The smallest curve benchmark sweep: K=20, groups [10, 5, 3, 2], Ms = 5."""
    groups = [list(range(1, 11)), list(range(11, 16)), [16, 17, 18], [19, 20]]
    return [(NetworkConfig(20, 20, 4, Fraction(5), Fraction(mp)), groups) for mp in range(16)]


def _sweep_points():
    return [point for network in NETWORKS for point in _half_step_grid(*network)] + _k20_sweep()


def _reference_scheme2_corners(config, assoc):
    """scheme2_corners built from scratch at every call, with no cache."""
    n, lam, l1, k = config.num_files, config.num_helpers, assoc.largest_group, config.num_users
    mp0 = config.private_mem
    corners = [CornerPoint(Fraction(0), mp0, man_rate(k, n, mp0), "unknown",
                           (Fraction(k * mp0, n),))]
    seen = {(c.helper_mem, c.private_mem, c.rate) for c in corners}
    for t_s in range(1, lam + 1):
        ms = Fraction(t_s * n, lam)
        for t_p in range(0, l1 + 1):
            mp = (n - ms) * Fraction(t_p, l1)
            rate = rate_scheme2_formula(lam, t_s, t_p, assoc.profile)
            if (ms, mp, rate) not in seen:
                seen.add((ms, mp, rate))
                corners.append(CornerPoint(ms, mp, rate, "scheme2", (t_s, t_p)))
    return corners


def test_scheme2_corners_match_an_uncached_build():
    for config, partition in _sweep_points():
        assoc = build_association(config, partition)
        assert scheme2_corners(config, assoc) == _reference_scheme2_corners(config, assoc)


def test_a_sweep_builds_the_scheme2_grid_once(monkeypatch):
    formula, calls = scheme2.rate_scheme2_formula, []

    def counted(*args):
        calls.append(args)
        return formula(*args)

    monkeypatch.setattr(scheme2, "rate_scheme2_formula", counted)
    envelope.scheme2_grid.cache_clear()
    for config, partition in _k20_sweep():
        bound_report(config, build_association(config, partition))
    # Lambda * (L1 + 1) = 4 * 11 for the whole sweep, not for each of its 16 rows
    assert len(calls) == 4 * (10 + 1)


def test_returned_lists_do_not_alias_the_caches(net_4users):
    config, assoc = net_4users
    calls = {
        "scheme2_corners": lambda: scheme2_corners(config, assoc),
        "hull_mix": lambda: hull_mix(man_hull(4, 4), Fraction(3, 2)),
    }
    for name, call in calls.items():
        returned = call()
        before = list(returned)
        returned.reverse()
        returned[0] = None
        returned.append(None)
        assert call() == before, name
    # the caches are bounded and hold tuples, which no caller can mutate
    for cache, key in ((envelope.scheme2_grid, (4, 2, assoc.profile)), (man_hull, (4, 4)),
                       (pue_hull, (2, 4, assoc.profile))):
        assert cache.cache_info().maxsize is not None
        assert isinstance(cache(*key), tuple)


# ---------------------------------------------------------------------------
# scheme1 walks the cached dedicated-cache hull from its first feasible level


def _reference_scheme1_mixture(config, assoc):
    """scheme1's mixture from a fresh hull over its corners at this Ms, walked along Mp."""
    corners = {c.private_mem: c for c in scheme1_corners(config, assoc)}
    hull = lower_convex_points([(c.private_mem, c.rate) for c in corners.values()])
    mix = hull_mix(hull, config.private_mem)
    if mix is None:
        return None
    k, n = config.num_users, config.num_files
    mixture = []
    for mp, rate, weight in mix:
        (t,) = corners[mp].params
        unit = Fraction(n, binom(k, t))
        quota = config.helper_mem / unit
        low = math.floor(quota)
        for q, share in ((low, 1 - (quota - low)), (low + 1, quota - low)):
            if share > 0:
                mp_q = Fraction(t * n, k) - q * unit
                corner = CornerPoint(q * unit, mp_q, rate, "scheme1", (t,))
                mixture.append((corner, weight * share))
    return mixture


def test_scheme1_levels_are_a_suffix_ending_at_k():
    for config, partition in _sweep_points():
        corners = scheme1_corners(config, build_association(config, partition))
        levels = [c.params[0] for c in corners]
        assert levels and levels == list(range(levels[0], config.num_users + 1)), config


def test_scheme1_first_level_is_the_first_corners_level():
    points = [point for network in NETWORKS for point in _half_step_grid(*network)]
    points += [(config, partition)
               for partition, configs in _benchmark_sweeps() for config in configs]
    for config, partition in points:
        assoc = build_association(config, partition)
        first = scheme1._first_level(config, assoc)
        assert first == scheme1_corners(config, assoc)[0].params[0], config


def test_scheme1_mixture_matches_a_fresh_hull_over_its_corners():
    two_level = 0
    for config, partition in _sweep_points():
        assoc = build_association(config, partition)
        mixture = scheme_mixture("scheme1", config, assoc)
        assert mixture == _reference_scheme1_mixture(config, assoc), config
        two_level += mixture is not None and len({c.params for c, _ in mixture}) == 2
    assert two_level > 0  # the grids walk hull edges, not only single levels


# ---------------------------------------------------------------------------
# curve sweeps: bound_reports lists the last optimum's corners first in each LP


def test_swept_reports_match_cold_one_point_reports():
    unreachable_then_reachable = 0
    for partition, configs in [*_benchmark_sweeps(), *_network_sweeps()]:
        assoc = build_association(configs[0], partition)
        reachable = []
        for config, report in zip(configs, bound_reports(configs, assoc), strict=True):
            assert report == bound_report(config, assoc), config
            scheme2, _ = scheme_rate("scheme2", config, assoc)
            assert report.scheme_rates["scheme2"] == scheme2, config
            reachable.append(report.scheme_rates["scheme2"] is not None)
        unreachable_then_reachable += any(not a and b for a, b in zip(reachable, reachable[1:]))
    assert unreachable_then_reachable > 0


def _pivots(run) -> int:
    """The number of _Basis.pivot calls that run() makes."""
    count, pivot = [0], envelope._Basis.pivot

    def counted(basis, *args):
        count[0] += 1
        return pivot(basis, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(envelope._Basis, "pivot", counted)
        run()
    return count[0]


def test_swept_lps_list_the_last_optimum_first(monkeypatch):
    calls, solve = [], envelope.envelope_at

    def spy(corners, *target):
        calls.append((corners, solve(corners, *target)))
        return calls[-1][1]

    monkeypatch.setattr(envelope, "envelope_at", spy)
    sweeps = list(_benchmark_sweeps())
    swept = _pivots(lambda: [list(bound_reports(configs, build_association(configs[0], partition)))
                             for partition, configs in sweeps])
    assert len(calls) == sum(len(configs) for _, configs in sweeps)
    reordered, rows = 0, iter(calls)
    for partition, configs in sweeps:
        assoc, last = build_association(configs[0], partition), ()
        for config, (corners, sol) in zip(configs, rows):
            # scheme2_corners, the last optimum's corners first and the rest in their order
            listed = scheme2_corners(config, assoc)
            order = [listed.index(c) for c in corners]
            assert order == [*last, *(j for j in range(len(listed)) if j not in last)], config
            reordered += order != sorted(order)
            last = last if sol is None else tuple(order[j] for j in sol.support)
    assert reordered > 0
    # the same LPs with the corners in their order take more pivots
    cold = _pivots(lambda: [
        envelope_at(scheme2_corners(config, build_association(config, partition)),
                    config.helper_mem, config.private_mem)
        for partition, configs in sweeps for config in configs])
    assert swept < cold


# ---------------------------------------------------------------------------
# differential reference for lp_optimal: its conditions in Fraction arithmetic


def _reference_lp_optimal(columns, costs, rhs, value, x, y):
    rows = range(len(rhs))
    return (
        len(x) == len(columns) and len(y) == len(rhs)
        and all(w >= 0 for w in x)
        and all(sum(col[i] * w for col, w in zip(columns, x)) == rhs[i] for i in rows)
        and sum(cost * w for cost, w in zip(costs, x)) == value
        and sum(y[i] * rhs[i] for i in rows) == value
        and all(sum(y[i] * col[i] for i in rows) <= cost for col, cost in zip(columns, costs))
    )


def _nudged_duals(columns, costs, rhs, y):
    """Duals moved along d = ±(e_i - rhs_i e_last), which keeps y.rhs while the
    last row is the weights' sum (rhs 1): to the tightest column, where they
    still meet every column's cost, and a step of 1/L**2 past it, for L the lcm
    of every denominator."""
    def at(v, col):
        return sum(a * b for a, b in zip(v, col))

    *heads, last = range(len(rhs))
    for i in heads:
        for sign in (1, -1):
            d = [sign if r == i else -sign * rhs[i] if r == last else 0 for r in range(len(rhs))]
            # moving t along d raises y.col by t * at(d, col): col binds at slack / at(d, col)
            reach = [(cost - at(y, col)) / at(d, col)
                     for col, cost in zip(columns, costs) if at(d, col) > 0]
            if reach:
                t = min(reach)
                edge = [v + t * di for v, di in zip(y, d)]
                values = [*edge, *costs, *(v for col in columns for v in col)]
                step = F(1, math.lcm(*(v.denominator for v in values)) ** 2)
                return edge, [v + step * di for v, di in zip(edge, d)]
    raise AssertionError("every column sits at the target")


def test_integer_certificate_matches_the_fraction_check(bound_report_lps):
    optima = [(lp, result) for lp, result in bound_report_lps if result is not None]
    assert len(optima) > 300
    for lp, (value, x, y) in optima:
        assert _lp_optimal(*lp, value, x, y)
        assert _reference_lp_optimal(*lp, value, x, y)
        edge, past = _nudged_duals(*lp, y)
        for duals, verdict in ((edge, True), (past, False)):
            assert _lp_optimal(*lp, value, x, duals) == verdict
            assert _reference_lp_optimal(*lp, value, x, duals) == verdict


def test_certificate_rejects_duals_one_unit_past_a_corner():
    # the duals (0, 0, 1) still price the target Ms = 1 at 1, but overshoot the
    # corner at Ms = 2 by exactly 1
    x, good, past = [F(0), F(0), F(1)], [F(-1), F(0), F(2)], [F(0), F(0), F(1)]
    for check in (_lp_optimal, _reference_lp_optimal):
        assert check(*_LINE_LP, F(1), x, good)
        assert not check(*_LINE_LP, F(1), x, past)
