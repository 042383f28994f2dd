import json
from fractions import Fraction
from itertools import permutations

import pytest

from dualcache import scheme_unknown
from dualcache.bounds import man_rate, pue_rate
from dualcache.combin import enumerate_ksubsets, without
from dualcache.envelope import scheme_rate, scheme_run
from dualcache.model import (
    InfeasibleSchemeError,
    NetworkConfig,
    build_association,
    tile,
)
from dualcache.scheme1 import deliver_scheme1, layout_scheme1
from dualcache.scheme2 import deliver_scheme2, layout_scheme2, place_scheme2
from dualcache.scheme_unknown import (
    deliver_unknown,
    layout_unknown,
    place_unknown,
    rate_unknown,
    rate_unknown_general,
    unknown_mixture,
    unknown_params,
)
from dualcache.simulator import run_end_to_end
from golden import record
from layout_bytes import air, cache_load, summand_sizes
from subfile_delivery import labels, subfiles
from test_converse import _set_partitions
from test_scheme_rate import NETWORKS


def man_reference_transmissions(k, t, demand):
    """Dedicated-cache delivery as abstract (file, side-subset) XOR sets."""
    out = []
    for big_s in enumerate_ksubsets(k, t + 1):
        out.append(
            frozenset(
                (demand[user - 1], without(big_s, user)) for user in big_s
            )
        )
    return out


def pue_reference_transmissions(assoc, t_s, demand):
    """Shared-cache delivery as abstract (file, helper-subset) XOR sets, per round."""
    lam = assoc.num_helpers
    out = []
    rounds = assoc.profile[0] if assoc.profile else 0
    for j in range(1, rounds + 1):
        for big_t in enumerate_ksubsets(lam, t_s + 1):
            elems = frozenset(
                (demand[assoc.groups[helper - 1][j - 1] - 1], without(big_t, helper))
                for helper in big_t
                if assoc.profile[helper - 1] >= j
            )
            if elems:
                out.append(elems)
    return out


def test_params_split_evenly(net_4users):
    config, assoc = net_4users
    assert unknown_params(config) == (1, 2, Fraction(1, 2))
    assert [share for _, share in layout_unknown(assoc, unknown_params(config))] == \
        [Fraction(1, 2)] * 2


def test_params_reject_fractional_levels():
    config = NetworkConfig(4, 4, 2, Fraction(1, 2), Fraction(1))
    with pytest.raises(InfeasibleSchemeError):
        unknown_params(config)


def test_placement_matches_known_listing(net_4users):
    config, assoc = net_4users
    placement = place_unknown(assoc, unknown_params(config))
    for helper in (1, 2):
        expected = frozenset({((helper,), ())})
        assert placement.helper_contents[helper - 1] == expected
    # user 1 keeps the user-subset pieces whose index contains 1
    rho_of_user1 = [(1, 2), (1, 3), (1, 4)]
    expected = frozenset(
        (rho, None) for rho in rho_of_user1
    )
    assert placement.private_contents[0] == expected


def test_placement_fills_memory_exactly(net_4users):
    config, assoc = net_4users
    run = unknown_params(config)
    placement, parts = place_unknown(assoc, run), layout_unknown(assoc, run)
    for helper in (1, 2):
        assert cache_load(config, parts, placement.helper_contents[helper - 1]) == config.helper_mem
    for user in range(1, 5):
        assert cache_load(config, parts, placement.private_contents[user - 1]) == config.private_mem


def test_delivery_counts_and_rate(net_4users):
    config, assoc = net_4users
    run = unknown_params(config)
    parts = layout_unknown(assoc, run)
    out = deliver_unknown(assoc, run, labels(parts, (1, 2, 3, 4)))
    tier1 = [t for t in out if t.part == 0]  # the helper split
    tier2 = [t for t in out if t.part == 1]  # the user split
    assert len(tier1) == 3 and len(tier2) == 4
    assert air(parts, out) == Fraction(13, 12)
    assert rate_unknown(config, assoc.profile) == Fraction(13, 12)


def test_rate_is_demand_permutation_invariant(net_4users):
    config, assoc = net_4users
    run = unknown_params(config)
    parts = layout_unknown(assoc, run)
    sizes = {
        air(parts, deliver_unknown(assoc, run, labels(parts, d))) for d in permutations((1, 2, 3, 4))
    }
    assert sizes == {Fraction(13, 12)}


def test_zero_memory_sends_whole_files():
    config = NetworkConfig(4, 4, 2, Fraction(0), Fraction(0))
    assoc = build_association(config, [[1, 2, 3], [4]])
    assert rate_unknown(config, assoc.profile) == 4
    run = unknown_params(config)
    parts = layout_unknown(assoc, run)
    out = deliver_unknown(assoc, run, labels(parts, (2, 1, 4, 3)))
    assert len(out) == 4
    assert all(summand_sizes(parts, t) == {1} for t in out)


def test_private_only_reduces_to_dedicated_delivery():
    config = NetworkConfig(4, 4, 2, Fraction(0), Fraction(2))
    assoc = build_association(config, [[1, 2, 3], [4]])
    demand = (3, 1, 2, 4)
    run = unknown_params(config)
    parts = layout_unknown(assoc, run)
    out = deliver_unknown(assoc, run, labels(parts, demand))
    got = [
        frozenset((s.file, s.idx_a) for s in subfiles(parts, t)) for t in out
    ]
    expected = man_reference_transmissions(4, 2, demand)
    assert sorted(got, key=sorted) == sorted(expected, key=sorted)
    assert rate_unknown(config, assoc.profile) == man_rate(4, 4, Fraction(2))


def test_helper_only_reduces_to_shared_delivery():
    config = NetworkConfig(4, 4, 2, Fraction(2), Fraction(0))
    assoc = build_association(config, [[1, 2, 3], [4]])
    demand = (4, 2, 1, 3)
    run = unknown_params(config)
    parts = layout_unknown(assoc, run)
    out = deliver_unknown(assoc, run, labels(parts, demand))
    got = [
        frozenset((s.file, s.idx_a) for s in subfiles(parts, t)) for t in out
    ]
    expected = pue_reference_transmissions(assoc, 1, demand)
    assert sorted(got, key=sorted) == sorted(expected, key=sorted)
    assert rate_unknown(config, assoc.profile) == pue_rate(
        2, 4, Fraction(2), assoc.profile
    )


def test_uniform_association_tier1_closed_form():
    # with equal group sizes the helper-tier term collapses to
    # (K/Lam) * (Lam - t_s) / (t_s + 1)
    config = NetworkConfig(8, 8, 4, Fraction(2), Fraction(2))
    assoc = build_association(config, [[1, 2], [3, 4], [5, 6], [7, 8]])
    t_s, t_p, _ = run = unknown_params(config)
    (_, f1), (_, f2) = layout_unknown(assoc, run)
    expected = f1 * Fraction(2 * (4 - t_s), t_s + 1) + f2 * Fraction(8 - t_p, t_p + 1)
    assert rate_unknown(config, assoc.profile) == expected


def test_general_rate_mixes_the_two_curves():
    # at every half-step memory pair of the test_scheme_rate networks, and
    # with an empty group, whose shared-cache lattice has a collinear point:
    # the mixture walk and the reference walk read one curve
    half = Fraction(1, 2)
    for n, lam, partition in NETWORKS + [(4, 2, [[1, 2, 3, 4], []])]:
        for ms2 in range(2 * n + 1):
            for mp2 in range(2 * n + 1 - ms2):
                if ms2 + mp2 == 0:
                    continue
                config = NetworkConfig(n, n, lam, ms2 * half, mp2 * half)
                assoc = build_association(config, partition)
                m = config.total_mem
                alpha = config.helper_mem / m
                expected = (alpha * pue_rate(lam, n, m, assoc.profile)
                            + (1 - alpha) * man_rate(n, n, m))
                assert rate_unknown_general(config, assoc.profile) == expected, config


def test_mixture_walks_the_lattices_without_the_direct_run_gate(monkeypatch):
    # with rate_unknown and unknown_params refusing every call, the mixture, its
    # rate and the scheme's printed rate and label still read as recorded at
    # every half-step point of the test_scheme_rate grids
    def refuse(*args):
        raise AssertionError("the mixture walks the lattices itself")

    monkeypatch.setattr(scheme_unknown, "rate_unknown", refuse)
    monkeypatch.setattr(scheme_unknown, "unknown_params", refuse)
    records = [json.loads(line) for line in record.OUTPUTS.read_text().splitlines()]
    printed = {(str(r["network"]), r["ms"], r["mp"]): r["scheme_rate"]["unknown"]
               for r in records if "ms" in r}
    mixtures = [r for r in records if "mixture_at" in r]
    assert len(mixtures) == len(printed) == 338
    for r in mixtures:
        n, lam, partition = r["network"]
        config = NetworkConfig(n, n, lam, *map(Fraction, r["mixture_at"]))
        assoc = build_association(config, partition)
        mixture = scheme_unknown.unknown_mixture(config, assoc.profile, config.helper_mem,
                                                 config.private_mem, Fraction(1))
        assert [[record._corner(c), str(w)] for c, w in mixture] == r["mixtures"]["unknown"]
        value, label = printed[(str(r["network"]), *r["mixture_at"])]
        assert str(scheme_unknown.rate_unknown_general(config, assoc.profile)) == value
        assert record._text(scheme_rate("unknown", config, assoc)) == [value, label]


def test_malformed_profiles_are_rejected():
    # unsorted, one group too many, one group too few, all at Ms > 0
    config = NetworkConfig(4, 4, 2, Fraction(1), Fraction(1))
    general = config.with_memories(Fraction(1, 2), Fraction(1, 3))
    readers = [
        lambda p: pue_rate(2, 4, Fraction(2), p),
        lambda p: rate_unknown(config, p),
        lambda p: rate_unknown_general(config, p),
        lambda p: rate_unknown_general(general, p),
        lambda p: unknown_mixture(config, p, config.helper_mem, config.private_mem, Fraction(1)),
        lambda p: unknown_mixture(general, p, general.helper_mem, general.private_mem, Fraction(1)),
    ]
    for profile in ((1, 3), [1, 3], (3, 1, 0), (4,)):
        for reader in readers:
            with pytest.raises(ValueError, match="profile"):
                reader(profile)


def test_general_rate_agrees_at_integer_levels(net_4users):
    config, assoc = net_4users
    assert rate_unknown_general(config, assoc.profile) == rate_unknown(
        config, assoc.profile
    )


@pytest.mark.parametrize("lam,k,partition", [
    (2, 4, [[1, 2, 3], [4]]),
    (2, 4, [[1, 2], [3, 4]]),
    (3, 6, [[1, 2, 3], [4, 5], [6]]),
    (4, 4, [[1], [2], [3], [4]]),
])
def test_simulated_rate_equals_formula(lam, k, partition):
    n = k
    for t in range(1, k + 1):
        m = Fraction(t * n, k)
        if (Fraction(lam) * m / n).denominator != 1 or m > n:
            continue
        for ms_share in (Fraction(0), Fraction(1, 2), Fraction(1)):
            config = NetworkConfig(n, k, lam, ms_share * m, (1 - ms_share) * m)
            assoc = build_association(config, partition)
            report = run_end_to_end(config, assoc, tuple(range(1, k + 1)), seed=t)
            assert report.ok, report.failure
            assert report.measured_rate == rate_unknown(config, assoc.profile)


@pytest.mark.parametrize("n,lam,partition", [
    (4, 2, [[1, 2, 3], [4]]),
    (6, 3, [[1, 2, 3], [4, 5], [6]]),
    (6, 2, [[1, 2, 3, 4], [5, 6]]),
    (6, 3, [[1, 2], [3, 4], [5, 6]]),
])
def test_extreme_points_run_the_component_schemes(n, lam, partition):
    # helper-only, the oblivious scheme is the helper split at t_p = 0, which
    # is scheme2 there; private-only, it is the user split, which is scheme1
    k = n
    demand = tuple(range(k, 0, -1))
    for t_s in range(1, lam + 1):
        config = NetworkConfig(n, k, lam, Fraction(t_s * n, lam), Fraction(0))
        assoc = build_association(config, partition)
        run = unknown_params(config)
        assert deliver_unknown(assoc, run, demand) == deliver_scheme2(assoc, (t_s, 0), demand)
        assert tile(*layout_unknown(assoc, run)) == tile(*layout_scheme2(assoc, (t_s, 0)))
        unknown, scheme2 = place_unknown(assoc, run), place_scheme2(assoc, (t_s, 0))
        # the parts differ only by the user split's empty zero share, as tile shows
        assert unknown.helper_contents == scheme2.helper_contents
        assert unknown.private_contents == scheme2.private_contents
    for t in range(k + 1):
        config = NetworkConfig(n, k, lam, Fraction(0), Fraction(t * n, k))
        assoc = build_association(config, partition)
        # the oblivious user split is its layout's part 1, scheme1's (at quota 0) is part 0
        run, user_split = unknown_params(config), (t, 0)
        parts, user_parts = layout_unknown(assoc, run), layout_scheme1(assoc, user_split)
        assert [subfiles(parts, u) for u in deliver_unknown(assoc, run, labels(parts, demand))] == \
            [subfiles(user_parts, u)
             for u in deliver_scheme1(assoc, user_split, labels(user_parts, demand))]
        assert tile(*layout_unknown(assoc, run)) == tile(*layout_scheme1(assoc, user_split))


def test_oblivious_placement_ignores_the_association():
    # every partition of K <= 6 users into Lambda nonempty groups, so every
    # profile without an empty group, and up to K = 4 also every partition
    # with empty groups, at each half-step memory pair of N = K: the runs
    # weight the same segments, and those place the same parts and fill the
    # same caches.  An empty group puts collinear points on the shared-cache
    # lattice, so a mixture along a hull that dropped them would not pass
    for k in range(1, 7):
        for lam in range(1, k + 1):
            fewest = 1 if k <= 4 else lam  # nonempty groups, the rest empty
            partitions = [partition + [[]] * (lam - blocks)
                          for blocks in range(fewest, lam + 1)
                          for partition in _set_partitions(list(range(1, k + 1)), blocks)]
            for ms2 in range(2 * k + 1):
                for mp2 in range(2 * k + 1 - ms2):
                    config = NetworkConfig(k, k, lam, Fraction(ms2, 2), Fraction(mp2, 2))
                    first, *rest = (
                        [(seg.weight, seg.placement)
                         for seg in scheme_run("unknown", config, assoc).segments]
                        for assoc in (build_association(config, p) for p in partitions)
                    )
                    assert all(run == first for run in rest), config
