"""Byte accounting read from a layout's (keys, share) parts, for the scheme
tests: each piece of a part is the part's share over its number of keys."""

from fractions import Fraction

from subfile_delivery import subfiles


def piece_sizes(parts) -> dict:
    """Piece key -> size, as a share of one file."""
    return {key: Fraction(share, len(keys)) for keys, share in parts for key in keys}


def cache_load(config, parts, pieces) -> Fraction:
    """Files' worth of memory a cache holding these piece keys of every file takes."""
    size = piece_sizes(parts)
    return config.num_files * sum(size[key] for key in pieces)


def summand_sizes(parts, transmission) -> set:
    """The layout sizes of a transmission's summands, each unranked through its part's split."""
    size = piece_sizes(parts)
    return {size[s.piece] for s in subfiles(parts, transmission)}


def air(parts, transmissions) -> Fraction:
    """Total broadcast size: each transmission is as large as its summands,
    which have one layout size."""
    total = Fraction(0)
    for t in transmissions:
        (one,) = summand_sizes(parts, t)
        total += one
    return total


def segment_memories(seg, n: int) -> tuple:
    """A segment's (Ms, Mp) read from its caches, not from a label: per cache, in
    each part, its bit count times the part's share over its number of keys,
    times N.  Every helper holds the same, and every user."""
    def load(bits):
        total, low = Fraction(0), 0
        for keys, share in seg.placement.parts:
            if keys:
                held = (bits >> low & (1 << len(keys)) - 1).bit_count()
                total += Fraction(held * share, len(keys))
            low += len(keys)
        return n * total

    helpers = set(map(load, seg.placement.helper_bits))
    users = set(map(load, seg.placement.private_bits))
    assert len(helpers) == len(users) == 1, (seg.tag, seg.run, helpers, users)
    return helpers.pop(), users.pop()
