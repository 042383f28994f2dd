from fractions import Fraction
from typing import Optional, Sequence

from hypothesis import example, given, settings, strategies as st

from dualcache import envelope
from dualcache.envelope import (
    EnvelopeSolution,
    bound_report,
    certificate_holds,
    envelope_at,
    envelope_mix,
    scheme1_corners,
    scheme2_corners,
    scheme2_envelope_rate,
    materialize_shared_placement,
    scheme_rate,
    simplex_solve,
    unknown_run_segments,
)
from dualcache.model import CornerPoint, NetworkConfig, build_association
from dualcache.scheme_unknown import rate_unknown_general
from dualcache.simulator import run_end_to_end
from test_scheme_rate import NETWORKS


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
    assert certificate_holds(corners, sol, Fraction(1), Fraction(1))


def test_mixture_decodes_at_its_rate(net_4users):
    config, assoc = net_4users
    sol = envelope_at(scheme2_corners(config, assoc), Fraction(1), Fraction(1))
    run = materialize_shared_placement(sol, config, assoc)
    assert sum(seg.weight * seg.config.helper_mem for seg in run.segments) == 1
    assert sum(seg.weight * seg.config.private_mem for seg in run.segments) == 1
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
    assert scheme2_envelope_rate(config, assoc) is None


def test_simplex_small_problems():
    # min x0 + 2*x1 s.t. x0 + x1 = 1
    value, x, duals = simplex_solve(
        [(Fraction(1),), (Fraction(1),)], [Fraction(1), Fraction(2)], [Fraction(1)]
    )
    assert value == 1 and x == [Fraction(1), Fraction(0)]
    assert duals == [Fraction(1)]
    # infeasible: no nonnegative combination reaches a negative target
    assert simplex_solve([(Fraction(1),)], [Fraction(1)], [Fraction(-1)]) is None


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
        assert certificate_holds(corners, sol, ms, mp)


def test_one_dimensional_mix():
    points = [(Fraction(0), Fraction(4)), (Fraction(2), Fraction(1)), (Fraction(4), Fraction(0))]
    mix = envelope_mix(points, Fraction(1))
    assert mix == [
        (Fraction(0), Fraction(4), Fraction(1, 2)),
        (Fraction(2), Fraction(1), Fraction(1, 2)),
    ]
    assert envelope_mix(points, Fraction(2)) == [(Fraction(2), Fraction(1), Fraction(1))]
    assert envelope_mix(points, Fraction(5)) is None


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
    assert sum(seg.weight * seg.config.helper_mem for seg in run.segments) == Fraction(3, 4)
    assert sum(seg.weight * seg.config.private_mem for seg in run.segments) == Fraction(3, 4)
    report = run_end_to_end(config, assoc, (1, 2, 3, 4), scheme=run, seed=8)
    assert report.ok, report.failure
    assert report.measured_rate == rate_unknown_general(config, assoc.profile)


def test_certificate_rejects_a_negative_weight():
    # rate = 2 - Ms on all three corners, so the duals (-1, 0, 2) support every
    # corner and price the target, and the weights sum to 1 and average to the
    # target: only the negative weights are wrong
    a, b, c = (CornerPoint(Fraction(ms), Fraction(0), Fraction(2 - ms), "scheme2", ())
               for ms in (0, 2, 1))
    half = Fraction(1, 2)
    good = EnvelopeSolution(((c, Fraction(1)),), Fraction(1), (Fraction(-1), Fraction(0), Fraction(2)))
    bad = EnvelopeSolution(((a, -half), (b, -half), (c, Fraction(2))), Fraction(1), good.duals)
    assert certificate_holds([a, b, c], good, Fraction(1), Fraction(0))
    assert not certificate_holds([a, b, c], bad, Fraction(1), Fraction(0))


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


def _bound_report_lps(monkeypatch, points):
    """Every (columns, costs, rhs) that bound_report hands simplex_solve."""
    lps, solve = [], envelope.simplex_solve

    def spy(*lp):
        lps.append(lp)
        return solve(*lp)

    monkeypatch.setattr(envelope, "simplex_solve", spy)
    for config, partition in points:
        bound_report(config, build_association(config, partition))
    return lps


def _half_step_grid(n, lam, partition):
    for ms2 in range(2 * n + 1):
        for mp2 in range(2 * n - ms2 + 1):
            yield NetworkConfig(n, n, lam, Fraction(ms2, 2), Fraction(mp2, 2)), partition


def test_simplex_matches_tableau_on_bound_report_lps(monkeypatch):
    points = [point for network in NETWORKS for point in _half_step_grid(*network)]
    # the smallest curve benchmark sweep: K=20, groups [10, 5, 3, 2], Ms = 5
    groups = [list(range(1, 11)), list(range(11, 16)), [16, 17, 18], [19, 20]]
    points += [(NetworkConfig(20, 20, 4, Fraction(5), Fraction(mp)), groups) for mp in range(16)]
    lps = _bound_report_lps(monkeypatch, points)
    assert len(lps) == len(points)
    for lp in lps:
        assert simplex_solve(*lp) == _tableau_solve(*lp), lp


def _outcome(solve, lp):
    try:
        return solve(*lp)
    except ArithmeticError:
        return "unbounded"


_ENTRIES = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _small_lps(draw):
    """m <= 4 rows, n <= 7 columns; sometimes a row is a multiple of the first."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    columns = [draw(st.lists(_ENTRIES, min_size=m, max_size=m)) for _ in range(n)]
    costs = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    rhs = draw(st.lists(_ENTRIES, min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        row, factor = draw(st.integers(1, m - 1)), draw(_ENTRIES)
        for column in columns:
            column[row] = factor * column[0]
        rhs[row] = factor * rhs[0]
    return columns, costs, rhs


F = Fraction


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lp=_small_lps())
@example(lp=([[F(-1)], [F(1)]], [F(1), F(1)], [F(-1)]))  # negative rhs
@example(lp=([[F(1), F(2)], [F(1), F(2)]], [F(1), F(2)], [F(1), F(2)]))  # redundant row
@example(lp=([[F(1), F(1)], [F(1), F(1)]], [F(1), F(0)], [F(1), F(2)]))  # infeasible
@example(lp=([[F(1)], [F(-1)]], [F(-1), F(0)], [F(0)]))  # unbounded
def test_simplex_matches_tableau_on_small_lps(lp):
    assert _outcome(simplex_solve, lp) == _outcome(_tableau_solve, lp)
