from fractions import Fraction
from itertools import product

import pytest

from dualcache.bounds import man_rate
from dualcache.combin import binom, enumerate_ksubsets
from dualcache.model import (
    InfeasibleSchemeError,
    NetworkConfig,
    build_association,
)
from dualcache.scheme1 import (
    corner_feasible,
    deliver_scheme1,
    layout_scheme1,
    place_scheme1,
    rate_scheme1,
    scheme1_params,
)
from dualcache.simulator import build_segment, run_end_to_end
from layout_bytes import cache_load, summand_sizes
from subfile_delivery import labels


def test_params(net_6users_deep):
    config, assoc = net_6users_deep
    assert scheme1_params(config, assoc) == (4, 3)


def test_helpers_take_lex_smallest_covering_subsets(net_6users_deep):
    config, assoc = net_6users_deep
    placement = place_scheme1(assoc, scheme1_params(config, assoc))
    expected = {
        1: [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6)],
        2: [(1, 2, 4, 5), (1, 3, 4, 5), (1, 4, 5, 6)],
        3: [(1, 2, 3, 6), (1, 2, 4, 6), (1, 2, 5, 6)],
    }
    for helper, taus in expected.items():
        want = frozenset((t, None) for t in taus)
        assert placement.helper_contents[helper - 1] == want


def test_placement_memory_and_coverage(net_6users_deep):
    config, assoc = net_6users_deep
    run = scheme1_params(config, assoc)
    placement, parts = place_scheme1(assoc, run), layout_scheme1(assoc, run)
    for helper in (1, 2, 3):
        assert cache_load(config, parts, placement.helper_contents[helper - 1]) == config.helper_mem
    for user in range(1, 7):
        assert cache_load(config, parts, placement.private_contents[user - 1]) == config.private_mem
        # the user's own and its helper's contents tile {tau : user in tau}
        helper = assoc.helper_of(user)
        own = {idx_a for idx_a, _ in placement.private_contents[user - 1]}
        shared = {
            idx_a
            for idx_a, _ in placement.helper_contents[helper - 1]
            if user in idx_a
        }
        assert own.isdisjoint(shared)
        assert own | shared == {
            tau for tau in enumerate_ksubsets(6, 4) if user in tau
        }


def test_delivery_and_rate(net_6users_deep):
    config, assoc = net_6users_deep
    run = scheme1_params(config, assoc)
    parts = layout_scheme1(assoc, run)
    out = deliver_scheme1(assoc, run, labels(parts, (1, 2, 3, 4, 5, 6)))
    assert len(out) == 6
    assert all(summand_sizes(parts, t) == {Fraction(1, 15)} for t in out)
    assert rate_scheme1(config) == Fraction(2, 5)
    report = run_end_to_end(config, assoc, (1, 2, 3, 4, 5, 6), scheme="scheme1", seed=3)
    assert report.ok, report.failure
    assert report.measured_rate == Fraction(2, 5)


def test_rate_matches_dedicated_curve(net_6users_deep):
    config, _ = net_6users_deep
    assert rate_scheme1(config) == man_rate(6, 6, config.total_mem)


def test_full_memory_needs_no_transmissions():
    config = NetworkConfig(4, 4, 2, Fraction(4), Fraction(0))
    assoc = build_association(config, [[1, 2, 3], [4]])
    assert scheme1_params(config, assoc) == (4, 1)
    assert rate_scheme1(config) == 0
    assert deliver_scheme1(assoc, scheme1_params(config, assoc), (1, 2, 3, 4)) == []
    report = run_end_to_end(config, assoc, (1, 2, 3, 4), scheme="scheme1", seed=9)
    assert report.ok, report.failure
    assert report.measured_rate == 0


def test_one_below_full_memory():
    config = NetworkConfig(4, 4, 2, Fraction(1), Fraction(2))
    assoc = build_association(config, [[1, 2, 3], [4]])
    assert scheme1_params(config, assoc) == (3, 1)
    assert rate_scheme1(config) == Fraction(1, 4)
    assert len(deliver_scheme1(assoc, scheme1_params(config, assoc), (1, 2, 3, 4))) == 1
    sim = run_end_to_end(config, assoc, (4, 3, 2, 1), scheme="scheme1", seed=2)
    assert sim.ok, sim.failure
    assert sim.measured_rate == Fraction(1, 4)


def test_layout_rejects_fractional_t():
    # t = K(Ms+Mp)/N = 3/2; the layout used to truncate it to the t = 1 layout,
    # and a segment asked for at this memory pair runs the gate before any layout
    config = NetworkConfig(4, 4, 2, Fraction(1), Fraction(1, 2))
    assoc = build_association(config, [[1, 2, 3], [4]])
    with pytest.raises(InfeasibleSchemeError, match="t = 3/2 is not an integer"):
        build_segment("scheme1", config, assoc, Fraction(1))
    with pytest.raises(InfeasibleSchemeError, match="t = 3/2 is not an integer"):
        rate_scheme1(config)


def test_place_rejects_infeasible_points():
    config = NetworkConfig(6, 6, 3, Fraction(2), Fraction(2))
    assoc = build_association(config, [[1, 2, 3], [4, 5], [6]])
    with pytest.raises(InfeasibleSchemeError):
        build_segment("scheme1", config, assoc, Fraction(1))


@pytest.mark.parametrize("l1,ms,lo,hi", [
    (10, 5, 19, 20), (10, 10, 19, 20), (10, 15, 20, 20),
    (5, 5, 16, 20), (5, 10, 18, 20), (5, 15, 19, 20),
])
def test_large_network_feasibility_windows(l1, ms, lo, hi):
    # K=N=20: the feasible t range shrinks as Ms grows and as the largest
    # group gets bigger
    feasible = [
        t for t in range(21) if corner_feasible(20, 20, l1, t, Fraction(ms))
    ]
    assert feasible == list(range(lo, hi + 1))


def _fraction_cap(k, n, l1, t):
    """The reference helper cap at t, in Fractions: N·C(K−L1, t−L1)/C(K, t)."""
    return Fraction(n * binom(k - l1, t - l1), binom(k, t))


def test_corner_gate_matches_the_fraction_cap():
    # N = K <= 10, every L1 and t, Ms in quarter steps over [0, N], and Ms at
    # the cap and a quarter above it, where an int rewrite of the cap
    # inequality would slip (below L1 the reference cap is 0 and never read)
    quarter = Fraction(1, 4)
    for k in range(1, 11):
        for l1, t in product(range(1, k + 1), range(k + 1)):
            cap = _fraction_cap(k, k, l1, t)
            for ms in [*(i * quarter for i in range(4 * k + 1)), cap, cap + quarter]:
                expected = l1 <= t and ms <= cap
                assert corner_feasible(k, k, l1, t, ms) == expected, (k, l1, t, ms)


def test_corner_gate_ignores_quota_integrality():
    # Ms=5, t=20 has quota 5*binom(20,20)/20 = 1/4, which only blocks a
    # direct run, not an envelope corner
    assert corner_feasible(20, 20, 10, 20, Fraction(5))
    config = NetworkConfig(20, 20, 4, Fraction(5), Fraction(15))
    assoc = build_association(
        config, [list(range(1, 11)), list(range(11, 16)), [16, 17, 18], [19, 20]]
    )
    with pytest.raises(InfeasibleSchemeError, match="helper quota q = 1/4 is not an integer"):
        scheme1_params(config, assoc)
