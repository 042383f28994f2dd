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
