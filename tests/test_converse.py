import json
import random
from collections import deque
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from dualcache import converse
from dualcache.combin import binom
from dualcache.converse import acyclic_in_order, build_h, certify, verify_acyclic
from dualcache.model import (
    InfeasibleSchemeError, NetworkConfig, Placement, SubfileId, build_association,
)
from dualcache.scheme1 import place_scheme1, rate_scheme1, scheme1_params
from dualcache.scheme2 import place_scheme2, scheme2_params
from dualcache.scheme_unknown import place_unknown, unknown_params
from dualcache.simulator import run_end_to_end
from golden import record
from test_envelope import _half_step_grid
from test_scheme_rate import NETWORKS, _direct_rate


def _helper_sub(n, tau):
    return SubfileId(n, tau, ())


def _private_sub(n, rho):
    return SubfileId(n, rho, None)


def _kept_bits(placement, demand, subfiles):
    """A SubfileId set as verify_acyclic takes it: per user, the bits (over the
    placement's keys laid end to end) of the set's pieces of the file it wants;
    pieces of files no user wants have no receiver and are dropped."""
    index = {key: j for j, key in enumerate(key for keys, _ in placement.parts for key in keys)}
    receiver = {n: user for user, n in enumerate(demand)}
    kept = [0] * len(demand)
    for s in subfiles:
        if s.file in receiver:
            kept[receiver[s.file]] |= 1 << index[s.piece]
    return kept


def test_positions_follow_group_order(net_4users):
    _, assoc = net_4users
    assert assoc.ordered_users() == (1, 2, 3, 4)


def test_certificate_set_listing(net_4users):
    config, assoc = net_4users
    h1, h2 = build_h(config, assoc, (1, 2, 3, 4), place_unknown(assoc, unknown_params(config)))
    assert h1 == frozenset({
        _helper_sub(1, (2,)), _helper_sub(2, (2,)), _helper_sub(3, (2,)),
    })
    assert h2 == frozenset({
        _private_sub(1, (2, 3)), _private_sub(1, (2, 4)),
        _private_sub(1, (3, 4)), _private_sub(2, (3, 4)),
    })


def test_certificate_is_tight_and_acyclic(net_4users):
    config, assoc = net_4users
    cert = certify(config, assoc, (1, 2, 3, 4))
    assert cert.alpha_lower == cert.kappa_upper == Fraction(13, 12)
    assert cert.acyclic and cert.tight


def test_adding_a_known_subfile_creates_a_cycle(net_4users):
    config, assoc = net_4users
    placement, demand = place_unknown(assoc, unknown_params(config)), (1, 2, 3, 4)
    known = placement.known(assoc)
    h1, h2 = build_h(config, assoc, demand, placement)
    kept = _kept_bits(placement, demand, h1 | h2)
    assert verify_acyclic(kept, known)
    # H's edges point back along the walk's order, so reversed they point forward:
    # the check certifies the order it is given and searches for no other
    order = assoc.ordered_users()
    assert acyclic_in_order(order, kept, known)
    assert not acyclic_in_order(order[::-1], kept, known)
    # user 1 wants file 1 and caches W2's {1,3} piece; user 2 wants file 2
    # and caches W1's {2,3} piece, closing a 2-cycle
    poisoned = _kept_bits(placement, demand, h1 | h2 | {_private_sub(2, (1, 3))})
    assert not verify_acyclic(poisoned, known)
    # a cycle has no topological order, so no order certifies it
    for order in permutations(range(1, 5)):
        assert not acyclic_in_order(order, poisoned, known), order


def test_certify_needs_no_order_free_check(monkeypatch):
    # certify proves acyclicity along the walk's order alone: with verify_acyclic
    # unusable, every golden certify record comes out as recorded
    def unusable(kept, known):
        raise AssertionError("certify called verify_acyclic")

    monkeypatch.setattr(converse, "verify_acyclic", unusable)
    checked = 0
    for line in record.OUTPUTS.read_text().splitlines():
        if "certify_at" not in (want := json.loads(line)):
            continue
        (n, lam, partition), (ms, mp) = want["network"], want["certify_at"]
        config = NetworkConfig(n, n, lam, Fraction(ms), Fraction(mp))
        assoc = build_association(config, partition)
        for field, demand in (("forward", range(1, n + 1)), ("reverse", range(n, 0, -1))):
            assert record._certificate(config, assoc, demand) == want[field], (want, field)
            checked += 1
    assert checked == 224


def test_set_sizes_match_closed_forms(net_4users):
    config, assoc = net_4users
    # per ordered user: helper subsets avoiding helpers 1..c, and user
    # subsets drawn from the strictly later ordered users
    for demand in [(1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3)]:
        h1, h2 = build_h(config, assoc, demand, place_unknown(assoc, unknown_params(config)))
        expected_h1 = sum(
            binom(2 - assoc.helper_of(u), 1) for u in range(1, 5)
        )
        ordered = assoc.ordered_users()
        expected_h2 = sum(binom(3 - ordered.index(u), 2) for u in range(1, 5))
        assert len(h1) == expected_h1
        assert len(h2) == expected_h2


def test_tight_for_every_demand_permutation(net_4users):
    config, assoc = net_4users
    for demand in permutations((1, 2, 3, 4)):
        cert = certify(config, assoc, demand)
        assert cert.tight and cert.acyclic


def test_lower_bound_never_exceeds_rate():
    for ms, mp in [(Fraction(2), Fraction(0)), (Fraction(0), Fraction(2)),
                   (Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(3, 2))]:
        config = NetworkConfig(4, 4, 2, ms, mp)
        assoc = build_association(config, [[1, 2], [3, 4]])
        cert = certify(config, assoc, (2, 1, 4, 3))
        assert cert.alpha_lower <= cert.kappa_upper


def test_zero_memory_certificate():
    # no cache holds anything, so H is every wanted file, whole, and the
    # uncoded delivery of K files is optimal
    networks = [(4, 2, [[1, 2, 3], [4]]), (4, 2, [[1, 2, 3, 4], []]),
                (6, 3, [[1, 2, 3], [4, 5], [6]]), (5, 5, [[1], [2], [3], [4], [5]])]
    for (k, lam, partition), extra in product(networks, (0, 2)):
        config = NetworkConfig(k + extra, k, lam, Fraction(0), Fraction(0))
        assoc = build_association(config, partition)
        demand = tuple(range(k, 0, -1))
        cert = certify(config, assoc, demand)
        assert (len(cert.h1), len(cert.h2)) == (0, k), config
        assert cert.alpha_lower == cert.kappa_upper == k, config
        assert cert.acyclic and cert.tight, config
        report = run_end_to_end(config, assoc, demand)
        assert report.ok and report.measured_rate == k, config


@pytest.mark.parametrize("k, lam, h_size", [(14, 7, 2072), (16, 4, 4392)])
def test_certify_ladder(k, lam, h_size):
    # uniform groups at Ms = Mp = 2, the benchmark's largest certify points
    config = NetworkConfig(k, k, lam, Fraction(2), Fraction(2))
    size = k // lam
    assoc = build_association(
        config, [list(range(g * size + 1, (g + 1) * size + 1)) for g in range(lam)]
    )
    cert = certify(config, assoc, tuple(range(k, 0, -1)))
    assert len(cert.h1) + len(cert.h2) == h_size
    assert cert.acyclic and cert.tight


def _every_file(config, pieces):
    """Piece keys as that piece of every file."""
    return frozenset(
        SubfileId(n, *piece) for piece in pieces for n in range(1, config.num_files + 1)
    )


def _subfile_graph_acyclic(config, assoc, demand, subfiles, placement):
    """Reference check: Kahn's algorithm over one node per subfile, with an
    edge from each wanted subfile to every set member its receiver caches."""
    nodes = set(subfiles)
    edges = {v: set() for v in nodes}
    for user in range(1, config.num_users + 1):
        side = _every_file(config, placement.private_contents[user - 1]
                           | placement.helper_contents[assoc.helper_of(user) - 1])
        known = nodes & side
        for v in nodes:
            if v.file == demand[user - 1] and v not in side:
                edges[v] |= known
    indeg = {v: 0 for v in nodes}
    for outs in edges.values():
        for w in outs:
            indeg[w] += 1
    queue = deque(v for v, deg in indeg.items() if deg == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for w in edges[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(nodes)


def _set_partitions(users, blocks):
    """Every partition of users into exactly `blocks` nonempty groups."""
    if not users:
        if blocks == 0:
            yield []
        return
    first, rest = users[0], users[1:]
    for partition in _set_partitions(rest, blocks - 1):
        yield [[first]] + partition
    for partition in _set_partitions(rest, blocks):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]


PLACES = {"unknown": lambda config, assoc: place_unknown(assoc, unknown_params(config)),
          "scheme1": lambda config, assoc: place_scheme1(assoc, scheme1_params(config, assoc)),
          "scheme2": lambda config, assoc: place_scheme2(assoc, scheme2_params(config, assoc))}
PARAMS = {"unknown": lambda config, _: unknown_params(config),
          "scheme1": scheme1_params, "scheme2": scheme2_params}


def _runs_directly(name, config, assoc):
    try:
        PARAMS[name](config, assoc)
    except InfeasibleSchemeError:
        return False
    return True


def _half_step_configs(n, k, lam):
    """The network at every half-step (Ms, Mp) with 0 < Ms + Mp <= N."""
    half = [Fraction(i, 2) for i in range(2 * n + 1)]
    return [NetworkConfig(n, k, lam, ms, mp) for ms in half for mp in half if 0 < ms + mp <= n]


def _direct_memory_pairs(n, k, lam):
    """Half-step (Ms, Mp) with Ms + Mp > 0 at which the oblivious scheme runs directly."""
    return [(config.helper_mem, config.private_mem) for config in _half_step_configs(n, k, lam)
            if _runs_directly("unknown", config, None)]


def _direct_runs(name, n, k, lam):
    """Every partition of [K] into Λ groups, paired off cyclically with the
    half-step (Ms, Mp), Ms + Mp > 0, at which scheme `name` runs directly on it."""
    every = _half_step_configs(n, k, lam)
    gated = {}  # a gate reads the association only through its profile
    runs = []
    for partition in _set_partitions(list(range(1, k + 1)), lam):
        assoc = build_association(every[0], partition)
        if assoc.profile not in gated:
            gated[assoc.profile] = [config for config in every
                                    if _runs_directly(name, config, assoc)]
        runs.append((partition, gated[assoc.profile]))
    for i in range(max(len(runs), max(len(configs) for _, configs in runs))):
        partition, configs = runs[i % len(runs)]
        if configs:
            yield configs[i % len(configs)], partition


def test_receiver_quotient_matches_subfile_graph():
    # each scheme's direct placements, over every partition of each network
    # paired off cyclically with its direct memory pairs; the sets are H,
    # H plus a few placed subfiles, and random sets of placed subfiles
    outcomes = {}
    for name, place in PLACES.items():
        rng = random.Random(2022)
        for n, k, lam in [(4, 4, 2), (5, 4, 2), (6, 6, 3), (6, 5, 2)]:
            for config, partition in _direct_runs(name, n, k, lam):
                assoc = build_association(config, partition)
                demand = tuple(rng.sample(range(1, n + 1), k))
                placement = place(config, assoc)
                placed = sorted(
                    _every_file(config, frozenset().union(
                        *placement.helper_contents, *placement.private_contents)),
                    key=lambda v: (v.file, v.idx_b is None, v.idx_a, v.idx_b or ()),
                )
                h = frozenset().union(*build_h(config, assoc, demand, placement))
                candidates = [h] + [
                    h | set(rng.sample(placed, rng.randint(1, 3))) for _ in range(3)
                ] + [
                    frozenset(rng.sample(placed, rng.randint(1, len(placed) // 3)))
                    for _ in range(3)
                ]
                for subfiles in candidates:
                    expected = _subfile_graph_acyclic(config, assoc, demand, subfiles, placement)
                    kept = _kept_bits(placement, demand, subfiles)
                    assert verify_acyclic(kept, placement.known(assoc)) == expected, (
                        name, config, partition, demand, sorted(map(repr, subfiles))
                    )
                    # no order certifies a cycle, and the walk's own order certifies H
                    in_order = acyclic_in_order(assoc.ordered_users(), kept,
                                                placement.known(assoc))
                    assert expected or not in_order, (name, config, partition, demand)
                    assert in_order or subfiles is not h, (name, config, partition, demand)
                    outcomes.setdefault(name, set()).add(expected)
    assert outcomes == {name: {True, False} for name in PLACES}


def test_helper_only_two_cycle_is_rejected():
    # users 1 and 3 sit on helpers 1 and 2 and have empty private caches;
    # helper 1 holds the piece user 3 wants and helper 2 the piece user 1
    # wants, so each user's wanted subfile points at the other's
    config = NetworkConfig(4, 4, 2, Fraction(1), Fraction(0))
    assoc = build_association(config, [[1, 2], [3, 4]])
    demand = (1, 2, 3, 4)
    first, second = ((1,), ()), ((2,), ())
    # helper 1 caches the layout's key 0 (first), helper 2 its key 1 (second)
    placement = Placement([([first, second], Fraction(1))],
                          helper_bits=(0b01, 0b10), private_bits=(0,) * 4)
    cycle = {SubfileId(1, *second), SubfileId(3, *first)}
    assert not verify_acyclic(_kept_bits(placement, demand, cycle), placement.known(assoc))
    for order in permutations(range(1, 5)):
        assert not acyclic_in_order(order, _kept_bits(placement, demand, cycle),
                                    placement.known(assoc)), order
    assert not _subfile_graph_acyclic(config, assoc, demand, cycle, placement)
    for v in cycle:
        assert verify_acyclic(_kept_bits(placement, demand, cycle - {v}), placement.known(assoc))


def _listed_h(config, assoc, demand):
    """Reference H for the oblivious placement, listed from its split
    parameters: the user at ordered position p, attached to internal helper
    c, keeps the helper subsets avoiding helpers 1..c and the user subsets
    avoiding the first p ordered users."""
    d = tuple(demand)
    t_s, t_p, _ = unknown_params(config)
    k, lam = config.num_users, config.num_helpers
    ordered = assoc.ordered_users()
    h1 = frozenset(
        SubfileId(d[user - 1], tau, ())
        for user in range(1, k + 1)
        for tau in combinations(range(assoc.helper_of(user) + 1, lam + 1), t_s)
    ) if t_s is not None else frozenset()
    h2 = frozenset(
        SubfileId(d[user - 1], rho, None)
        for p, user in enumerate(ordered)
        for rho in combinations(sorted(ordered[p + 1:]), t_p)
    ) if t_p is not None else frozenset()
    return h1, h2


def test_placement_read_h_matches_the_listed_sets():
    # N in {K, K+2}, K <= 5, every Λ <= K, seeded partitions with empty
    # groups in shuffled order, zero memory and every direct memory pair,
    # and random distinct demands
    rng = random.Random(22)
    compared = 0
    for k in range(1, 6):
        for n, lam in product((k, k + 2), range(1, k + 1)):
            partitions = [
                p + [[]] * (lam - blocks)
                for blocks in range(1, lam + 1)
                for p in _set_partitions(list(range(1, k + 1)), blocks)
            ]
            pairs = [(Fraction(0), Fraction(0)), *_direct_memory_pairs(n, k, lam)]
            for partition in rng.sample(partitions, min(3, len(partitions))):
                rng.shuffle(partition)
                for ms, mp in pairs:
                    config = NetworkConfig(n, k, lam, ms, mp)
                    assoc = build_association(config, partition)
                    demand = tuple(rng.sample(range(1, n + 1), k))
                    placement = place_unknown(assoc, unknown_params(config))
                    assert build_h(config, assoc, demand, placement) == _listed_h(
                        config, assoc, demand), (config, partition, demand)
                    compared += 1
    assert compared > 1000


def test_placement_read_h_bounds_every_direct_run():
    # H read from any uncoded placement is acyclic, so its size, in pieces of
    # share / len(keys) each, is at most the scheme's rate; scheme1's user
    # split meets it.  Fractions throughout: scheme1 and scheme2 parts carry
    # the int share 1, where len(h) * share / len(keys) would be a float
    runs = {name: [0, 0] for name in PLACES}  # runs, tight runs
    for network in NETWORKS:
        for config, partition in _half_step_grid(*network):
            assoc = build_association(config, partition)
            demand = tuple(range(config.num_users, 0, -1))
            for name, place in PLACES.items():
                rate = _direct_rate(name, config, assoc)
                if rate is None:
                    continue
                placement = place(config, assoc)
                h = build_h(config, assoc, demand, placement)
                kept = _kept_bits(placement, demand, frozenset().union(*h))
                assert verify_acyclic(kept, placement.known(assoc))
                assert acyclic_in_order(assoc.ordered_users(), kept, placement.known(assoc))
                alpha = sum((Fraction(len(part) * share, len(keys))
                             for part, (keys, share) in zip(h, placement.parts) if keys),
                            Fraction(0))
                assert alpha <= rate, (name, config, partition)
                assert alpha == rate or name != "scheme1", (config, partition)
                runs[name][0] += 1
                runs[name][1] += alpha == rate
    assert runs == {"unknown": [112, 112], "scheme1": [39, 39], "scheme2": [26, 22]}


def test_certify_keeps_alpha_exact_for_an_int_share(monkeypatch):
    # scheme1's one layout part carries the int share 1; certified on scheme1's
    # placement and rate, where that run is tight, alpha must stay a Fraction.
    # certify reads two parts, as the oblivious placement has, so an empty
    # second part follows scheme1's, and certify's one gate returns scheme1's run
    n, lam, partition = NETWORKS[0]
    config = NetworkConfig(n, n, lam, Fraction(1), Fraction(2))  # t = 3, helper quota 1
    assoc = build_association(config, partition)

    def place(assoc, run):
        placement = place_scheme1(assoc, run)
        return replace(placement, parts=[*placement.parts, ([], 0)])

    monkeypatch.setattr(converse, "unknown_params", lambda config: scheme1_params(config, assoc))
    monkeypatch.setattr(converse, "place_unknown", place)
    monkeypatch.setattr(converse, "rate_unknown_general",
                        lambda config, profile: rate_scheme1(config))
    cert = certify(config, assoc, tuple(range(n, 0, -1)))
    assert isinstance(cert.alpha_lower, Fraction)
    assert cert.alpha_lower == cert.kappa_upper == Fraction(1, 4)
    assert cert.tight
