from fractions import Fraction

import pytest

from dualcache.bounds import (
    cutset_bound,
    hull_mix,
    lower_convex_points,
    man_hull,
    man_rate,
    pue_hull,
    pue_profile_sum,
    pue_rate,
)
from dualcache.envelope import bound_report
from dualcache.model import NetworkConfig, build_association
from test_envelope import _benchmark_sweeps, _half_step_grid
from test_scheme_rate import NETWORKS


def test_lower_hull_drops_dominated_points():
    points = [
        (Fraction(0), Fraction(4)), (Fraction(1), Fraction(3)),
        (Fraction(2), Fraction(1)), (Fraction(1), Fraction(5)),
        (Fraction(4), Fraction(0)),
    ]
    hull = lower_convex_points(points)
    assert hull == [
        (Fraction(0), Fraction(4)), (Fraction(2), Fraction(1)), (Fraction(4), Fraction(0)),
    ]


def _interp(points, x):
    """The lower convex envelope of the points at x; None outside their span."""
    mix = hull_mix(lower_convex_points(points), x)
    return None if mix is None else sum(y * w for _, y, w in mix)


def test_envelope_interp_bounds():
    points = [(Fraction(0), Fraction(2)), (Fraction(2), Fraction(0))]
    assert _interp(points, Fraction(1)) == 1
    assert _interp(points, Fraction(3)) is None
    assert _interp(points, Fraction(-1)) is None


def test_dedicated_curve_values():
    assert man_hull(4, 4) == (
        (Fraction(0), Fraction(4)), (Fraction(1), Fraction(3, 2)),
        (Fraction(2), Fraction(2, 3)), (Fraction(3), Fraction(1, 4)),
        (Fraction(4), Fraction(0)),
    )
    assert man_rate(4, 4, Fraction(2)) == Fraction(2, 3)
    assert man_rate(4, 4, Fraction(3, 2)) == Fraction(13, 12)
    with pytest.raises(ValueError):
        man_rate(4, 4, Fraction(5))


def _profiles(k, lam, largest=None):
    """Every non-increasing profile of k users over lam groups, empty groups included."""
    largest = k if largest is None else largest
    if lam == 0:
        if k == 0:
            yield ()
        return
    for first in range(min(k, largest), -1, -1):
        for rest in _profiles(k - first, lam - 1, first):
            yield (first, *rest)


def test_each_reference_lattice_is_its_own_lower_hull():
    # slopes -(K+1)/((t+1)(t+2)) strictly increase, so every dedicated-cache
    # point is a hull vertex and man_hull(K, N)[t] is level t
    for k in range(1, 21):
        for n in (k, k + 3):
            assert tuple(lower_convex_points(man_hull(k, n))) == man_hull(k, n), (k, n)
    # the shared-cache lattice is convex: with an empty group some of its
    # points are collinear, so they lie on the hull without being vertices
    for lam in range(1, 7):
        for k in range(lam, 11):
            for profile in _profiles(k, lam):
                for n in (k, k + 1):
                    lattice = pue_hull(lam, n, profile)
                    hull = lower_convex_points(lattice)
                    for mem, rate in lattice:
                        assert sum(y * w for _, y, w in hull_mix(hull, mem)) == rate, (
                            lam, n, profile, mem)


def _reference_hull_mix(hull, x):
    """hull_mix as a linear scan of the hull's edges."""
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


def test_hull_mix_bisection_matches_a_linear_scan():
    lattices = [man_hull(k, n) for k in range(1, 21) for n in (k, k + 3)]
    lattices += [pue_hull(lam, n, profile) for lam in range(1, 7) for k in range(lam, 11)
                 for profile in _profiles(k, lam) for n in (k, k + 1)]
    lattices.append(((Fraction(2), Fraction(1)),))  # the one-point lattice
    for lattice in lattices:
        xs = [x for x, _ in lattice]
        # every point, every midpoint, and a probe past each end
        for x in [*xs, *((a + b) / 2 for a, b in zip(xs, xs[1:])), xs[0] - 1, xs[-1] + 1]:
            assert hull_mix(lattice, x) == _reference_hull_mix(lattice, x), (lattice, x)


def test_shared_curve_values():
    profile = (3, 1)
    assert pue_profile_sum(2, 1, profile) == 3
    assert pue_hull(2, 4, profile)[1] == (Fraction(2), Fraction(3, 2))
    assert pue_rate(2, 4, Fraction(2), profile) == Fraction(3, 2)
    with pytest.raises(ValueError):
        pue_rate(2, 4, Fraction(1), (1, 3))  # profile must be non-increasing
    for mem in (Fraction(-1, 2), Fraction(9, 2)):
        with pytest.raises(ValueError, match=r"outside \[0, 4\]"):
            pue_rate(2, 4, mem, profile)


def test_reference_hulls_are_built_once_per_shape():
    memories = [Fraction(m, 4) for m in range(17)]
    man_lattice = [(Fraction(0), Fraction(4)), (Fraction(1), Fraction(3, 2)),
                   (Fraction(2), Fraction(2, 3)), (Fraction(3), Fraction(1, 4)),
                   (Fraction(4), Fraction(0))]
    pue_lattice = [(Fraction(0), Fraction(4)), (Fraction(2), Fraction(3, 2)),
                   (Fraction(4), Fraction(0))]
    expected = [(_interp(man_lattice, m), _interp(pue_lattice, m)) for m in memories]
    man_hull.cache_clear()
    pue_hull.cache_clear()
    for mem, (man, pue) in zip(memories, expected):
        assert man_rate(4, 4, mem) == man
        assert pue_rate(2, 4, mem, (3, 1)) == pue_rate(2, 4, mem, [3, 1]) == pue
    # one lattice per (K, N) and one per (Lambda, N, profile), for 17 memory points
    assert man_hull.cache_info().misses == 1
    assert pue_hull.cache_info().misses == 1


def test_shared_curve_uniform_matches_closed_form():
    # equal groups of size K/Lam: rate (K/Lam) * (Lam-t) / (t+1) at each level
    profile = (2, 2, 2)
    for t in range(0, 4):
        _, rate = pue_hull(3, 6, profile)[t]
        assert rate == Fraction(2 * (3 - t), t + 1)


def test_cutset_values(net_4users):
    config, assoc = net_4users
    assert cutset_bound(config, assoc) == (Fraction(1, 2), 1)
    empty = NetworkConfig(4, 4, 2, Fraction(0), Fraction(0))
    assoc0 = build_association(empty, [[1, 2, 3], [4]])
    assert cutset_bound(empty, assoc0) == (Fraction(4), 4)
    full = NetworkConfig(4, 4, 2, Fraction(0), Fraction(4))
    assert cutset_bound(full, assoc0)[0] == 0


def test_cutset_uses_group_ordering():
    # the u-th cut user follows the group-by-group listing, so the helper
    # index entering the bound is the internal one
    config = NetworkConfig(6, 6, 3, Fraction(3), Fraction(1, 2))
    assoc = build_association(config, [[6], [1, 2, 3], [4, 5]])
    rate, u = cutset_bound(config, assoc)
    n = 6
    expected = max(
        Fraction(0),
        max(
            uu - Fraction(uu * config.private_mem
                          + assoc.helper_of(assoc.ordered_users()[uu - 1]) * config.helper_mem,
                          n // uu)
            for uu in range(1, 7)
        ),
    )
    assert rate == expected


def _cutset_terms(config, assoc):
    """u - (u*Mp + lambda_u*Ms)/floor(N/u) for u = 1..min(N, K), in Fraction arithmetic."""
    n, ordered = config.num_files, assoc.ordered_users()
    return [u - Fraction(u * config.private_mem
                         + assoc.helper_of(ordered[u - 1]) * config.helper_mem, n // u)
            for u in range(1, min(n, config.num_users) + 1)]


def test_integer_cutset_matches_the_fraction_formula():
    points = [point for network in NETWORKS for point in _half_step_grid(*network)]
    points += [(config, partition)
               for partition, configs in _benchmark_sweeps() for config in configs]
    ties = 0
    for config, partition in points:
        assoc = build_association(config, partition)
        terms = _cutset_terms(config, assoc)
        best = max(0, *terms)
        # a term above 0 wins at its first u; with none, the bound is 0 at u = 1
        u = terms.index(best) + 1 if best > 0 else 1
        assert cutset_bound(config, assoc) == (best, u), config
        ties += best > 0 and terms.count(best) > 1
    assert ties > 0  # the grids hold ties, where only the strict > keeps the first u


def test_high_memory_region():
    config = NetworkConfig(2, 2, 2, Fraction(3, 2), Fraction(1, 4))
    assoc = build_association(config, [[1], [2]])
    report = bound_report(config, assoc)
    assert report.optimality_flags["high_memory_optimal"] is True
    assert report.scheme_rates["scheme2"] == report.cutset == Fraction(1, 8)

    # outside the region (Ms < N(1 - 1/Lambda)) the rates still meet, but
    # the flag only speaks for the region
    outside = config.with_memories(Fraction(0), Fraction(2))
    report = bound_report(outside, assoc)
    assert report.scheme_rates["scheme2"] == 1 - outside.total_mem / 2 == report.cutset == 0
    assert report.optimality_flags["high_memory_optimal"] is False


def test_bound_report_flags(net_4users):
    config, assoc = net_4users
    at = config.with_memories(Fraction(1), Fraction(2))
    report = bound_report(at, assoc)
    assert report.cutset <= report.man_lower
    assert report.man_lower == Fraction(1, 4)
    assert report.scheme_rates["scheme1"] == Fraction(1, 4)
    assert report.optimality_flags["scheme1_meets_man"]
    assert report.man_lower <= report.scheme_rates["unknown"] <= report.pue_upper


def test_bound_report_solves_one_lp_per_point(monkeypatch):
    # the high-memory verdict reads the scheme2 rate the report already holds
    from dualcache import envelope

    calls = []
    solve = envelope.envelope_at

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(envelope, "envelope_at", counted)
    config = NetworkConfig(4, 4, 2, Fraction(2), Fraction(2))
    assoc = build_association(config, [[1, 2], [3, 4]])
    for at, scheme2, optimal in ((config, 0, True),
                                 (config.with_memories(Fraction(1), Fraction(1)),
                                  Fraction(7, 8), False)):
        calls.clear()
        report = bound_report(at, assoc)
        assert len(calls) == 1
        assert report.scheme_rates["scheme2"] == scheme2
        assert report.optimality_flags["high_memory_optimal"] is optimal
