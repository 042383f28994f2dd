import json
from fractions import Fraction

import pytest

from dualcache.converse import build_h, certify
from dualcache.envelope import SCHEMES, bound_report, scheme_mixture, scheme_run
from dualcache.model import (
    ConfigError,
    InfeasibleSchemeError,
    NetworkConfig,
    build_association,
    load_config,
    parse_fraction,
    tile,
    validate_demand,
)
from dualcache.scheme1 import deliver_scheme1, layout_scheme1, place_scheme1, scheme1_params
from dualcache.scheme2 import deliver_scheme2, layout_scheme2, place_scheme2, scheme2_params
from dualcache.scheme_unknown import deliver_unknown, layout_unknown, place_unknown, unknown_params
from dualcache.simulator import run_end_to_end
from subfile_delivery import labels, subfiles


def test_parse_fraction_forms():
    assert parse_fraction(3) == Fraction(3)
    assert parse_fraction("6/5") == Fraction(6, 5)
    assert parse_fraction(0.1) == Fraction(1, 10)
    assert parse_fraction(Fraction(2, 7)) == Fraction(2, 7)
    with pytest.raises(ConfigError):
        parse_fraction("abc")
    with pytest.raises(ConfigError):
        parse_fraction("1/0")
    with pytest.raises(ConfigError):
        parse_fraction(True)


def test_config_validation():
    NetworkConfig(4, 4, 2, Fraction(1), Fraction(1))
    with pytest.raises(ConfigError):
        NetworkConfig(3, 4, 2, Fraction(0), Fraction(0))  # N < K
    with pytest.raises(ConfigError):
        NetworkConfig(4, 3, 4, Fraction(0), Fraction(0))  # Lambda > K
    with pytest.raises(ConfigError):
        NetworkConfig(4, 4, 2, Fraction(3), Fraction(2))  # memory over N
    with pytest.raises(ConfigError):
        NetworkConfig(4, 4, 2, Fraction(-1), Fraction(0))


def test_association_relabels_by_group_size():
    config = NetworkConfig(6, 6, 3, Fraction(1), Fraction(1))
    assoc = build_association(config, [[6], [1, 2, 3], [4, 5]])
    assert assoc.profile == (3, 2, 1)
    assert assoc.groups == ((1, 2, 3), (4, 5), (6,))
    assert assoc.helper_of(6) == 3
    assert assoc.groups[0][1] == 2
    assert assoc.ordered_users() == (1, 2, 3, 4, 5, 6)


def test_association_tie_break_keeps_original_order():
    config = NetworkConfig(4, 4, 2, Fraction(1), Fraction(1))
    assoc = build_association(config, [[3, 4], [1, 2]])
    assert assoc.groups == ((3, 4), (1, 2))


def test_association_allows_empty_groups():
    config = NetworkConfig(4, 4, 3, Fraction(1), Fraction(1))
    assoc = build_association(config, [[1, 2], [], [3, 4]])
    assert assoc.profile == (2, 2, 0)


def test_association_rejects_bad_partitions():
    config = NetworkConfig(4, 4, 2, Fraction(1), Fraction(1))
    with pytest.raises(ConfigError):
        build_association(config, [[1, 2], [2, 3, 4]])  # duplicate user
    with pytest.raises(ConfigError):
        build_association(config, [[1, 2], [3]])  # user 4 missing
    with pytest.raises(ConfigError):
        build_association(config, [[1, 2, 3, 4]])  # wrong group count
    with pytest.raises(ConfigError):
        build_association(config, [[1, 2, 5], [3, 4]])  # out of range


def test_demand_validation():
    config = NetworkConfig(4, 4, 2, Fraction(1), Fraction(1))
    assert validate_demand(config, [2, 1, 4, 3]) == (2, 1, 4, 3)
    with pytest.raises(ConfigError):
        validate_demand(config, [1, 2, 3])
    with pytest.raises(ConfigError):
        validate_demand(config, [1, 1, 2, 3])
    with pytest.raises(ConfigError):
        validate_demand(config, [1, 2, 3, 5])


def _all_schemes(config, assoc):
    return [scheme_mixture(name, config, assoc) for name in SCHEMES]


def _decode(config, assoc):
    return run_end_to_end(config, assoc, range(1, config.num_users + 1))


def _certify(config, assoc):
    return certify(config, assoc, range(1, config.num_users + 1))


@pytest.mark.parametrize("entry", [_all_schemes, bound_report, _decode, _certify],
                         ids=["scheme_mixture", "bound_report", "run_end_to_end", "certify"])
@pytest.mark.parametrize("swap", [False, True], ids=["small_config", "large_config"])
def test_entry_points_reject_another_networks_association(entry, swap):
    # N=K=4, Lambda=2 against K=6, Lambda=3, both at Ms=2, Mp=1: one way the
    # rates came out silently, the other raised IndexError or a t_s error
    small = NetworkConfig(4, 4, 2, Fraction(2), Fraction(1))
    large = NetworkConfig(6, 6, 3, Fraction(2), Fraction(1))
    small_assoc = build_association(small, [[1, 2, 3], [4]])
    large_assoc = build_association(large, [[1, 2, 3], [4, 5], [6]])
    config, assoc = (large, small_assoc) if swap else (small, large_assoc)
    with pytest.raises(ConfigError) as excinfo:
        entry(config, assoc)
    assert "(4, 2)" in str(excinfo.value) and "(6, 3)" in str(excinfo.value)


def test_load_config_from_json(tmp_path):
    payload = {
        "N": 6, "K": 6, "Lambda": 3, "Ms": "6/5", "Mp": "14/5",
        "association": [[1, 2, 3], [4, 5], [6]],
        "demand": [1, 2, 3, 4, 5, 6], "seed": 11,
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(payload))
    loaded = load_config(path)
    assert loaded.config.helper_mem == Fraction(6, 5)
    assert loaded.config.private_mem == Fraction(14, 5)
    assert loaded.association.profile == (3, 2, 1)
    assert loaded.demand == (1, 2, 3, 4, 5, 6)
    assert loaded.seed == 11
    # JSON text, as perfbench's curve cases pass it, reads as the file does
    assert load_config("  " + json.dumps(payload)) == loaded
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(json.dumps(payload)[:-1])  # cut short


def test_load_config_missing_key():
    with pytest.raises(ConfigError):
        load_config({"N": 4, "K": 4, "Lambda": 2, "Ms": 1})


@pytest.mark.parametrize("place, partition, small, large", [
    (lambda config, assoc: place_unknown(assoc, unknown_params(config)), [[1, 2], [3, 4]],
     (4, 4, 2, Fraction(1), Fraction(1)), (8, 4, 2, Fraction(2), Fraction(2))),
    (lambda config, assoc: place_scheme2(assoc, scheme2_params(config, assoc)),
     [[1, 2, 3], [4, 5], [6]],
     (6, 6, 3, Fraction(2), Fraction(4, 3)), (12, 6, 3, Fraction(4), Fraction(8, 3))),
    (lambda config, assoc: place_scheme1(assoc, scheme1_params(config, assoc)),
     [[1, 2, 3], [4, 5], [6]],
     (6, 6, 3, Fraction(6, 5), Fraction(14, 5)), (12, 6, 3, Fraction(12, 5), Fraction(28, 5))),
], ids=["unknown", "scheme2", "scheme1"])
def test_placement_does_not_depend_on_n(place, partition, small, large):
    # the same split parameters at twice the library: a placement names
    # pieces, each standing for that piece of every file
    placements = []
    for params in (small, large):
        config = NetworkConfig(*params)
        placements.append(place(config, build_association(config, partition)))
    assert placements[0] == placements[1]
    assert any(placements[0].helper_contents) and any(placements[0].private_contents)


def _plain(value) -> bool:
    """Built only from int, tuple and None (a named tuple is a tuple)."""
    if isinstance(value, tuple):
        return all(map(_plain, value))
    return value is None or type(value) is int


def test_piece_keys_are_plain_tuples(net_4users, net_6users_deep, net_6users_two_level):
    (config4, assoc4), (config6, deep), (_, two_level) = \
        net_4users, net_6users_deep, net_6users_two_level
    unknown = unknown_params(config4)
    one = scheme1_params(config6, deep)
    two = scheme2_params(*net_6users_two_level)
    runs = [
        (place_unknown(assoc4, unknown), tile(*layout_unknown(assoc4, unknown)),
         deliver_unknown(assoc4, unknown, labels(layout_unknown(assoc4, unknown), (1, 2, 3, 4)))),
        (place_scheme1(deep, one), tile(*layout_scheme1(deep, one)),
         deliver_scheme1(deep, one, labels(layout_scheme1(deep, one), range(1, 7)))),
        (place_scheme2(two_level, two), tile(*layout_scheme2(two_level, two)),
         deliver_scheme2(two_level, two, labels(layout_scheme2(two_level, two), range(1, 7)))),
    ]
    for placement, extents, transmissions in runs:
        keys = set(extents).union(*placement.helper_contents, *placement.private_contents)
        pieces = {s.piece for t in transmissions for s in subfiles(placement.parts, t)}
        assert keys == set(extents) and pieces <= keys
        assert all(type(key) is tuple and _plain(key) for key in keys)
    h1, h2 = build_h(*net_4users, (1, 2, 3, 4), place_unknown(assoc4, unknown))
    assert h1 and h2 and all(map(_plain, h1 | h2))


def test_transmission_summands_share_one_layout_size(
    net_4users, net_6users_deep, net_6users_two_level
):
    # a transmission's size is its summands' one layout size: the simulator
    # sizes a payload by its part and XORs ints, so unequal summands would
    # show up only later, as a corrupted rebuild
    checked = set()
    for config, assoc in (net_4users, net_6users_deep, net_6users_two_level):
        demand = tuple(range(config.num_users, 0, -1))
        for name in SCHEMES:
            try:
                run = scheme_run(name, config, assoc)
            except InfeasibleSchemeError:
                continue
            for seg in run.segments:
                parts = seg.placement.parts
                for trans in seg.transmissions(assoc, labels(parts, demand)):
                    sizes = {seg.extents[s.piece][1] for s in subfiles(parts, trans)}
                    assert len(sizes) == 1
                checked.add(seg.tag)
    assert checked == set(SCHEMES)


_GROUPS_4 = (4, 2, [[1, 2, 3], [4]])
_GROUPS_6 = (6, 3, [[1, 2, 3], [4, 5], [6]])
_SKEWED_20 = (20, 4, [list(range(1, 11)), list(range(11, 16)), [16, 17, 18], [19, 20]])
_GATES = {
    "unknown": lambda config, assoc: unknown_params(config),
    "scheme1": scheme1_params,
    "scheme2": scheme2_params,
}


@pytest.mark.parametrize("gate,network,ms,mp,message", [
    ("unknown", _GROUPS_4, "1/2", "1", "t_s = 3/4 is not an integer"),
    ("unknown", _GROUPS_4, "0", "1/2", "t_p = 1/2 is not an integer"),
    ("scheme2", _GROUPS_6, "1", "1", "t_s = 1/2 is not an integer"),
    ("scheme2", _GROUPS_6, "0", "2",
     "t_s = 0 (no helper memory): this point is served by the dedicated-cache scheme"),
    ("scheme2", _GROUPS_6, "2", "1", "t_p = 3/4 is not an integer"),
    ("scheme1", _GROUPS_6, "1", "1/2", "t = 3/2 is not an integer"),
    ("scheme1", _GROUPS_6, "1", "1", "t = 2 is below the largest group size 3"),
    ("scheme1", _GROUPS_6, "2", "2", "Ms = 2 exceeds the helper cap 6/5"),
    ("scheme1", _SKEWED_20, "5", "15", "helper quota q = 1/4 is not an integer"),
], ids=["unknown-t_s", "unknown-t_p", "scheme2-t_s", "scheme2-t_s-zero", "scheme2-t_p",
        "scheme1-t", "scheme1-below-L1", "scheme1-over-cap", "scheme1-quota"])
def test_direct_run_gates_name_the_parameter(gate, network, ms, mp, message):
    n, lam, partition = network
    config = NetworkConfig(n, n, lam, Fraction(ms), Fraction(mp))
    with pytest.raises(InfeasibleSchemeError) as exc:
        _GATES[gate](config, build_association(config, partition))
    assert str(exc.value) == message
