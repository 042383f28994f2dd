"""The deliveries as SubfileId sets, the reference a scheme's int summands must
decode to, and the reader that decodes them.

A delivery's summand is the label of the user it serves plus the piece's index
among the segment's keys.  Labelled by labels, each user by its file times W,
the segment's key count, a summand divmods by W to (file, index), and the index
less its part's first key is the piece's rank in the part's split, which
subfiles unranks.  user_split_delivery and helper_split_delivery list each
XOR's summands as SubfileId(file, *key), with the key built from the subsets
themselves, and label it with them: ("S", S) in the user split, ("T", T, S) in
the helper split."""

from dualcache.combin import enumerate_ksubsets, without
from dualcache.model import SubfileId


def user_split_delivery(demand, k: int, t: int) -> list:
    """One XOR per (t+1)-subset S of users: user u in S gets its file's piece S minus u."""
    return [(("S", big_s), frozenset(SubfileId(demand[user - 1], without(big_s, user))
                                     for user in big_s))
            for big_s in enumerate_ksubsets(k, t + 1)]


def helper_split_delivery(assoc, demand, t_s: int, t_p: int) -> list:
    """One XOR per T x S pair with at least one present (helper, position) slot: the
    j-th user of each helper in T gets its file's piece (T minus the helper, S minus j)."""
    out = []
    for big_t in enumerate_ksubsets(assoc.num_helpers, t_s + 1):
        for big_s in enumerate_ksubsets(assoc.largest_group, t_p + 1):
            summands = frozenset(
                SubfileId(demand[assoc.groups[helper - 1][j - 1] - 1], without(big_t, helper),
                          without(big_s, j))
                for helper in big_t for j in big_s if j <= assoc.profile[helper - 1])
            if summands:
                out.append((("T", big_t, big_s), summands))
    return out


def reference_delivery(parts, assoc, demand) -> list:
    """(part, label, summands) per XOR, part by part in layout order: the user split
    Split((K, t)) sends user_split_delivery at t, the helper split at levels
    ((Lambda, t_s), (l1, t_p)) sends helper_split_delivery at (t_s, t_p)."""
    out = []
    for part, (keys, _) in enumerate(parts):
        if keys and len(keys.levels) == 1:
            rows = user_split_delivery(demand, *keys.levels[0])
        elif keys:
            (_, t_s), (_, t_p) = keys.levels
            rows = helper_split_delivery(assoc, demand, t_s, t_p)
        else:
            rows = []
        out += [(part, label, summands) for label, summands in rows]
    return out


def labels(parts, demand) -> list:
    """Per user, its file times the segment's key count: the labels pairs reads."""
    width = sum(len(keys) for keys, _ in parts)
    return [n * width for n in demand]


def pairs(parts, transmission) -> list:
    """A transmission's summands, delivered to labels(parts, demand), as (file, rank):
    each divmod by the key count, the index less the part's first key."""
    sizes = [len(keys) for keys, _ in parts]
    width, first = sum(sizes), sum(sizes[:transmission.part])
    out = [(n, index - first) for n, index in (divmod(s, width) for s in transmission.summands)]
    assert all(0 <= rank < sizes[transmission.part] for _, rank in out), transmission
    return out


def subfiles(parts, transmission) -> frozenset:
    """A transmission's summands as SubfileIds, each rank unranked through its part's split."""
    keys = parts[transmission.part][0]
    return frozenset(SubfileId(n, *keys[rank]) for n, rank in pairs(parts, transmission))
