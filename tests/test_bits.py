"""Caches as bits: a Split's bits and every place_* against the frozenset
rules they replace, decoded bit by bit on the test side."""

import math
from itertools import chain, product

import pytest

from dualcache.combin import binom, enumerate_ksubsets, unrank_ksubset
from dualcache.model import InfeasibleSchemeError, Split, build_association, members
from dualcache.scheme1 import layout_scheme1, scheme1_params
from dualcache.scheme2 import layout_scheme2, scheme2_params
from dualcache.scheme_unknown import layout_unknown, unknown_params
from test_converse import PARAMS, PLACES
from test_envelope import _half_step_grid
from test_scheme_rate import NETWORKS


def _decode(keys, bits):
    """The keys that bits selects, one bit at a time."""
    return frozenset(key for j, key in enumerate(keys) if bits >> j & 1)


def _stored_by(keys, n, field=0):
    """Per cache i in [1..n], the keys whose key[field] holds i, as a frozenset."""
    caches = [set() for _ in range(n)]
    for key in keys:
        for i in key[field]:
            caches[i - 1].add(key)
    return tuple(map(frozenset, caches))


def _unknown_rule(config, assoc):
    (helper_keys, _), (user_keys, _) = layout_unknown(assoc, unknown_params(config))
    return _stored_by(helper_keys, config.num_helpers), _stored_by(user_keys, config.num_users)


def _scheme1_rule(config, assoc):
    run = scheme1_params(config, assoc)
    q = run[1]
    (keys, _), = layout_scheme1(assoc, run)
    helpers = tuple(frozenset([key for key in keys if set(group) <= set(key[0])][:q])
                    for group in assoc.groups)
    users = tuple(own - helpers[h - 1]
                  for own, h in zip(_stored_by(keys, config.num_users), assoc.cache_of))
    return helpers, users


def _scheme2_rule(config, assoc):
    (keys, _), = layout_scheme2(assoc, scheme2_params(config, assoc))
    users = [set() for _ in range(config.num_users)]
    for tau, rho in keys:
        for helper, group in enumerate(assoc.groups, start=1):
            if helper not in tau:
                for j in rho:
                    if j <= len(group):
                        users[group[j - 1] - 1].add((tau, rho))
    return _stored_by(keys, config.num_helpers), tuple(map(frozenset, users))


RULES = {"unknown": _unknown_rule, "scheme1": _scheme1_rule, "scheme2": _scheme2_rule}


@pytest.mark.parametrize("n", range(1, 9))
def test_stored_by_decodes_to_the_subset_rule(n):
    # the user split's bits, from the lexicographic recursion, per user
    for t in range(n + 1):
        split = Split((n, t))
        keys = list(split)
        caches = split.bits()
        assert len(caches) == n
        for i, bits in enumerate(caches, start=1):
            want = {key for key in keys if i in key[0]}
            assert _decode(keys, bits) == want, (n, t, i)
            assert bits >> len(keys) == 0 and list(members(keys, bits)) == sorted(want)


def _helper_splits():
    """Every helper split with Lambda <= 5 and L1 <= 4, at 1 <= t_s <= Lambda
    and 0 <= t_p <= L1."""
    return [Split((lam, t_s), (l1, t_p)) for lam in range(1, 6) for l1 in range(5)
            for t_s in range(1, lam + 1) for t_p in range(l1 + 1)]


def test_helper_split_bits_match_the_subset_rule():
    # helper bits spread the [Lambda] recursion, position bits tile the [L1] one
    splits = _helper_splits()
    assert len(splits) == 225
    for split in splits:
        keys = list(split)
        for field in (0, 1):
            n = split.levels[field][0]
            caches = split.bits(field)
            assert tuple(_decode(keys, bits) for bits in caches) == _stored_by(keys, n, field), \
                (split, field)
            assert all(bits >> len(keys) == 0 for bits in caches), (split, field)


def test_a_split_is_its_ranked_keys():
    user = [Split((n, t)) for n in range(8) for t in range(n + 1)]
    for split in user + _helper_splits():
        subsets = [enumerate_ksubsets(n, t) for n, t in split.levels]
        keys = list(product(*subsets)) if len(subsets) == 2 else [(s, None) for s in subsets[0]]
        assert len(split) == len(keys) == math.prod(binom(n, t) for n, t in split.levels), split
        assert list(split) == keys and bool(split) is bool(keys), split
        for j, key in enumerate(keys):
            if len(subsets) == 1:
                assert split[j] == (unrank_ksubset(*split.levels[0], j), None), (split, j)
            else:
                tau, rho = divmod(j, binom(*split.levels[1]))
                assert split[j] == (unrank_ksubset(*split.levels[0], tau),
                                    unrank_ksubset(*split.levels[1], rho)), (split, j)
            assert split[j] == key == split[j - len(keys)], (split, j)
        for j in (len(keys), -len(keys) - 1):
            with pytest.raises(IndexError):
                split[j]
    # past the file length cap a split raises when it is made
    with pytest.raises(InfeasibleSchemeError, match=r"C\(28, 14\) = 40116600 pieces"):
        Split((28, 14))


def test_splits_compare_and_hash_by_their_levels():
    assert Split((6, 3)) == Split((6, 3)) and hash(Split((6, 3))) == hash(Split((6, 3)))
    assert len({Split((6, 3)), Split((6, 3)), Split((4, 2), (3, 1)), Split((4, 2), (3, 1))}) == 2
    for other in (Split((6, 2)), Split((5, 3)), Split((6, 3), (0, 0)), list(Split((6, 3))),
                  tuple(Split((6, 3)))):
        assert Split((6, 3)) != other, other
    # one key either way, but the helper split's key differs from the user split's
    assert list(Split((2, 0))) == [((), None)] != list(Split((2, 0), (0, 0)))


def test_placement_views_match_the_frozenset_rules():
    # every direct run of each scheme on the test_scheme_rate half-step grids
    runs = dict.fromkeys(PLACES, 0)
    for network in NETWORKS:
        for config, partition in _half_step_grid(*network):
            assoc = build_association(config, partition)
            for name, place in PLACES.items():
                try:
                    PARAMS[name](config, assoc)
                except InfeasibleSchemeError:
                    continue
                placement = place(config, assoc)
                helpers, users = RULES[name](config, assoc)
                keys = list(chain.from_iterable(keys for keys, _ in placement.parts))
                where = (name, network, config)
                assert placement.helper_contents == helpers, where
                assert placement.private_contents == users, where
                for bits, want in zip(placement.helper_bits + placement.private_bits,
                                      helpers + users, strict=True):
                    assert _decode(keys, bits) == want and bits >> len(keys) == 0, where
                runs[name] += 1
    assert runs == {"unknown": 112, "scheme1": 39, "scheme2": 26}
