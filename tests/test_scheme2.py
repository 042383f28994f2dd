from fractions import Fraction

import pytest

from dualcache.model import (
    InfeasibleSchemeError,
    NetworkConfig,
    SubfileId,
    build_association,
    tile,
)
from dualcache.scheme2 import (
    deliver_scheme2,
    layout_scheme2,
    place_scheme2,
    rate_scheme2,
    rate_scheme2_formula,
    scheme2_params,
)
from dualcache.scheme_unknown import rate_unknown_general
from dualcache.simulator import run_end_to_end
from layout_bytes import air, cache_load, summand_sizes
from subfile_delivery import labels, reference_delivery, subfiles


def test_params(net_6users_two_level):
    config, assoc = net_6users_two_level
    assert scheme2_params(config, assoc) == (1, 1)
    assert set(tile(*layout_scheme2(assoc, scheme2_params(config, assoc))).values()) == {
        (Fraction(i, 9), Fraction(1, 9)) for i in range(9)}


def test_params_rejections():
    assoc_cfg = NetworkConfig(6, 6, 3, Fraction(1), Fraction(1))
    assoc = build_association(assoc_cfg, [[1, 2, 3], [4, 5], [6]])
    with pytest.raises(InfeasibleSchemeError):
        scheme2_params(assoc_cfg, assoc)  # t_s = 1/2
    no_helper = NetworkConfig(6, 6, 3, Fraction(0), Fraction(2))
    with pytest.raises(InfeasibleSchemeError):
        scheme2_params(no_helper, assoc)  # t_s = 0 is the dedicated curve
    bad_tp = NetworkConfig(6, 6, 3, Fraction(2), Fraction(1))
    with pytest.raises(InfeasibleSchemeError):
        scheme2_params(bad_tp, assoc)  # t_p = 3/4


def test_full_helper_memory_means_zero_private_levels():
    config = NetworkConfig(6, 6, 3, Fraction(6), Fraction(0))
    assoc = build_association(config, [[1, 2, 3], [4, 5], [6]])
    assert scheme2_params(config, assoc) == (3, 0)
    assert rate_scheme2(config, assoc) == 0


def _sub(n, tau, rho):
    return SubfileId(n, tau, rho)


def test_placement_matches_known_listing(net_6users_two_level):
    config, assoc = net_6users_two_level
    placement = place_scheme2(assoc, scheme2_params(config, assoc))
    for helper in (1, 2, 3):
        want = frozenset(_sub(1, (helper,), (j,)).piece for j in (1, 2, 3))
        assert placement.helper_contents[helper - 1] == want
    expected_users = {
        1: [((2,), (1,)), ((3,), (1,))],
        2: [((2,), (2,)), ((3,), (2,))],
        3: [((2,), (3,)), ((3,), (3,))],
        4: [((1,), (1,)), ((3,), (1,))],
        5: [((1,), (2,)), ((3,), (2,))],
        6: [((1,), (1,)), ((2,), (1,))],
    }
    for user, pairs in expected_users.items():
        want = frozenset(_sub(1, tau, rho).piece for tau, rho in pairs)
        assert placement.private_contents[user - 1] == want


def test_placement_memory(net_6users_two_level):
    config, assoc = net_6users_two_level
    run = scheme2_params(config, assoc)
    placement, parts = place_scheme2(assoc, run), layout_scheme2(assoc, run)
    for helper in (1, 2, 3):
        assert cache_load(config, parts, placement.helper_contents[helper - 1]) == config.helper_mem
    for user in range(1, 7):
        assert cache_load(config, parts, placement.private_contents[user - 1]) == config.private_mem


def test_delivery_listing_and_rate(net_6users_two_level):
    config, assoc = net_6users_two_level
    run = scheme2_params(config, assoc)
    parts = layout_scheme2(assoc, run)
    out = deliver_scheme2(assoc, run, labels(parts, (1, 2, 3, 4, 5, 6)))
    assert len(out) == 9
    assert all(summand_sizes(parts, t) == {Fraction(1, 9)} for t in out)
    assert rate_scheme2(config, assoc) == 1
    # each XOR under its (T, S), read off the reference delivery, which lists them in order
    by_label = {label[1:]: subfiles(parts, t) for (_, label, _), t in
                zip(reference_delivery(parts, assoc, (1, 2, 3, 4, 5, 6)), out, strict=True)}
    assert by_label[((2, 3), (2, 3))] == frozenset({_sub(5, (3,), (3,))})
    assert by_label[((1, 2), (1, 2))] == frozenset({
        _sub(1, (2,), (2,)), _sub(2, (2,), (1,)),
        _sub(4, (1,), (2,)), _sub(5, (1,), (1,)),
    })
    report = run_end_to_end(config, assoc, (1, 2, 3, 4, 5, 6), scheme="scheme2", seed=4)
    assert report.ok, report.failure
    assert report.measured_rate == 1


def test_uniform_association_gain_is_constant():
    # every transmission serves (t_s+1)(t_p+1) users when groups are equal
    config = NetworkConfig(6, 6, 3, Fraction(2), Fraction(2))
    assoc = build_association(config, [[1, 4], [2, 5], [3, 6]])
    t_s, t_p = scheme2_params(config, assoc)
    out = deliver_scheme2(assoc, (t_s, t_p), (1, 2, 3, 4, 5, 6))
    gain = (t_s + 1) * (t_p + 1)
    assert all(len(t.summands) == gain for t in out)
    expected = Fraction(6, gain) * (1 - config.total_mem / 6)
    assert rate_scheme2(config, assoc) == expected
    report = run_end_to_end(config, assoc, (6, 5, 4, 3, 2, 1), scheme="scheme2", seed=1)
    assert report.ok, report.failure
    assert report.measured_rate == expected


def test_formula_counts_nonempty_slots():
    # brute-force check of the closed form against actual delivery
    for partition in ([[1, 2, 3], [4, 5], [6]], [[1, 2], [3, 4], [5, 6]]):
        for ms_level in (1, 2):
            ms = Fraction(2 * ms_level)
            probe = NetworkConfig(6, 6, 3, ms, Fraction(0))
            assoc = build_association(probe, partition)
            l1 = assoc.largest_group
            for tp_level in range(0, l1 + 1):
                mp = (6 - ms) * Fraction(tp_level, l1)
                if ms + mp > 6:
                    continue
                config = NetworkConfig(6, 6, 3, ms, mp)
                run = scheme2_params(config, assoc)
                parts = layout_scheme2(assoc, run)
                out = deliver_scheme2(assoc, run, labels(parts, (1, 2, 3, 4, 5, 6)))
                total = air(parts, out)
                assert total == rate_scheme2_formula(3, ms_level, tp_level, assoc.profile)


def test_known_association_never_hurts(net_6users_two_level):
    config, assoc = net_6users_two_level
    two_level = rate_scheme2(config, assoc)
    oblivious = rate_unknown_general(config, assoc.profile)
    assert two_level <= oblivious
