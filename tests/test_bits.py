"""Caches as bits: stored_by and every place_* against the frozenset rules
they replace, decoded bit by bit on the test side."""

from itertools import chain

import pytest

from dualcache.model import InfeasibleSchemeError, build_association, members, stored_by
from dualcache.scheme1 import layout_scheme1, scheme1_params, user_split_keys
from dualcache.scheme2 import layout_scheme2
from dualcache.scheme_unknown import layout_unknown
from test_converse import PARAMS, PLACES
from test_envelope import _half_step_grid
from test_scheme_rate import NETWORKS


def _decode(keys, bits):
    """The keys that bits selects, one bit at a time."""
    return frozenset(key for j, key in enumerate(keys) if bits >> j & 1)


def _stored_by(keys, n):
    """Per cache i in [1..n], the keys whose idx_a holds i, as a frozenset."""
    caches = [set() for _ in range(n)]
    for key in keys:
        for i in key[0]:
            caches[i - 1].add(key)
    return tuple(map(frozenset, caches))


def _unknown_rule(config, assoc):
    (helper_keys, _), (user_keys, _) = layout_unknown(config)
    return _stored_by(helper_keys, config.num_helpers), _stored_by(user_keys, config.num_users)


def _scheme1_rule(config, assoc):
    q = scheme1_params(config, assoc)[1]
    (keys, _), = layout_scheme1(config)
    helpers = tuple(frozenset([key for key in keys if set(group) <= set(key[0])][:q])
                    for group in assoc.groups)
    users = tuple(own - helpers[h - 1]
                  for own, h in zip(_stored_by(keys, config.num_users), assoc.cache_of))
    return helpers, users


def _scheme2_rule(config, assoc):
    (keys, _), = layout_scheme2(config, assoc)
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
    for t in range(n + 1):
        keys = user_split_keys(n, t)
        caches = stored_by(keys, n)
        assert len(caches) == n
        for i, bits in enumerate(caches, start=1):
            want = {key for key in keys if i in key[0]}
            assert _decode(keys, bits) == want, (n, t, i)
            assert bits >> len(keys) == 0 and list(members(keys, bits)) == sorted(want)


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
