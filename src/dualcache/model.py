"""Network configuration, user/helper association, and placement containers.

All memory sizes, subfile sizes, and rates are exact rationals
(fractions.Fraction) end to end; floats appear only when rendering
output.
"""

from __future__ import annotations

import json
import math
from collections.abc import Set
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, product, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .combin import binom, enumerate_ksubsets, member_bits, unrank_ksubset


class ConfigError(ValueError):
    """Invalid network configuration, association, or demand."""


class InfeasibleSchemeError(ValueError):
    """A scheme's direct-run preconditions do not hold at this memory point."""


class CertificateError(ArithmeticError):
    """An LP optimum whose dual certificate does not check."""


FILE_LEN_CAP = 2 ** 24  # bytes per file in a simulated run


def integral(name: str, value: Fraction) -> int:
    """A scheme's split parameter as an int: a direct run needs an integer."""
    if value.denominator != 1:
        raise InfeasibleSchemeError(f"{name} = {value} is not an integer")
    return int(value)


def check_pieces(levels: Sequence[tuple[int, int]], count: int) -> None:
    """The size gate every Split passes when it is made: each piece takes at
    least a byte, so more than FILE_LEN_CAP pieces per file never fit."""
    if count > FILE_LEN_CAP:
        label = " * ".join(f"C({n}, {t})" for n, t in levels)
        raise InfeasibleSchemeError(f"{label} = {count} pieces per file exceed the file "
                                    f"length cap {FILE_LEN_CAP}; pick a coarser grid point")


def parse_fraction(value) -> Fraction:
    """Parse an exact rational from an int, a decimal number, or an 'a/b' string."""
    if isinstance(value, bool):
        raise ConfigError(f"expected a number or fraction string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # Route through the decimal representation so 0.1 means 1/10.
        value = repr(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse fraction {value!r}") from exc
    if isinstance(value, Fraction):
        return value
    raise ConfigError(f"expected a number or fraction string, got {value!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """Library size N, users K, helpers Lambda, and the two memory budgets."""

    num_files: int
    num_users: int
    num_helpers: int
    helper_mem: Fraction
    private_mem: Fraction

    def __post_init__(self) -> None:
        if self.num_files < 1 or self.num_users < 1 or self.num_helpers < 1:
            raise ConfigError("N, K, and Lambda must all be positive")
        if self.num_files < self.num_users:
            raise ConfigError(f"need N >= K, got N={self.num_files}, K={self.num_users}")
        if self.num_helpers > self.num_users:
            raise ConfigError(
                f"need Lambda <= K, got Lambda={self.num_helpers}, K={self.num_users}"
            )
        if self.helper_mem < 0 or self.private_mem < 0:
            raise ConfigError("memory sizes must be non-negative")
        if self.helper_mem + self.private_mem > self.num_files:
            raise ConfigError(
                f"Ms + Mp = {self.helper_mem + self.private_mem} exceeds N={self.num_files}"
            )

    @property
    def total_mem(self) -> Fraction:
        return self.helper_mem + self.private_mem

    def with_memories(self, helper_mem: Fraction, private_mem: Fraction) -> "NetworkConfig":
        return NetworkConfig(
            self.num_files, self.num_users, self.num_helpers,
            Fraction(helper_mem), Fraction(private_mem),
        )


@dataclass(frozen=True)
class Association:
    """Partition of users into helper groups, relabeled so sizes are non-increasing.

    groups[i] holds the users of internal helper i+1, sorted ascending.
    """

    groups: tuple[tuple[int, ...], ...]
    profile: tuple[int, ...]
    cache_of: tuple[int, ...]          # user k -> internal helper index (1-based)

    @property
    def num_helpers(self) -> int:
        return len(self.groups)

    @property
    def num_users(self) -> int:
        return len(self.cache_of)

    @property
    def largest_group(self) -> int:
        """L1: size of the largest (nonempty) group; 0 only if K = 0."""
        return self.profile[0] if self.profile else 0

    def helper_of(self, user: int) -> int:
        return self.cache_of[user - 1]

    def ordered_users(self) -> tuple[int, ...]:
        """Users listed group by group in internal helper order."""
        return tuple(u for group in self.groups for u in group)


def build_association(config: NetworkConfig, partition: Sequence[Iterable[int]]) -> Association:
    """Validate a partition of [K] into Lambda groups and relabel helpers.

    Helpers are reindexed so the profile is non-increasing, ties broken by
    the original label; empty groups are allowed.
    """
    k, lam = config.num_users, config.num_helpers
    groups = [tuple(sorted(g)) for g in partition]
    if len(groups) != lam:
        raise ConfigError(f"expected {lam} groups, got {len(groups)}")
    seen: dict[int, int] = {}
    for label, group in enumerate(groups, start=1):
        for u in group:
            if not 1 <= u <= k:
                raise ConfigError(f"user {u} in group {label} is outside [1..{k}]")
            if u in seen:
                raise ConfigError(f"user {u} appears in groups {seen[u]} and {label}")
            seen[u] = label
    missing = [u for u in range(1, k + 1) if u not in seen]
    if missing:
        raise ConfigError(f"users {missing} are not assigned to any helper")

    order = sorted(range(lam), key=lambda i: (-len(groups[i]), i))
    sorted_groups = tuple(groups[i] for i in order)
    profile = tuple(len(g) for g in sorted_groups)
    cache_of = [0] * k
    for internal, group in enumerate(sorted_groups, start=1):
        for u in group:
            cache_of[u - 1] = internal
    return Association(
        groups=sorted_groups,
        profile=profile,
        cache_of=tuple(cache_of),
    )


def validate_demand(config: NetworkConfig, demand: Sequence[int]) -> tuple[int, ...]:
    """Check that demand is K distinct file indices in [1..N]."""
    d = tuple(demand)
    if len(d) != config.num_users:
        raise ConfigError(f"expected {config.num_users} demands, got {len(d)}")
    seen: dict[int, int] = {}
    for pos, n in enumerate(d, start=1):
        if not 1 <= n <= config.num_files:
            raise ConfigError(f"demand at position {pos} is {n}, outside [1..{config.num_files}]")
        if n in seen:
            raise ConfigError(f"duplicate demand {n} at positions {seen[n]} and {pos}")
        seen[n] = pos
    return d


def validate_association(config: NetworkConfig, assoc: Association) -> None:
    """Check that assoc groups this config's K users over its Lambda helpers."""
    ours, theirs = (config.num_users, config.num_helpers), (assoc.num_users, assoc.num_helpers)
    if theirs != ours:
        raise ConfigError(f"association (K, Lambda) = {theirs} does not match the config's {ours}")


class SubfileId(NamedTuple):
    """One piece of one file: the file index and the piece key (idx_a, idx_b).

    idx_b names the split: in the helper split it is a position subset rho,
    empty at t_p = 0, and idx_a a helper subset tau; in the user split it is
    None and idx_a a user subset.  So an oblivious segment's shares never collide."""

    file: int
    idx_a: tuple[int, ...]
    idx_b: Optional[tuple[int, ...]] = None

    @property
    def piece(self) -> tuple:
        """The piece key (idx_a, idx_b): this piece of every file."""
        return (self.idx_a, self.idx_b)


@dataclass(frozen=True, init=False)
class Split(Sequence):
    """A layout part's piece keys in lexicographic order, held as levels and never
    listed: the user split Split((n, t)) keys (rho, None) by t-subsets of [n], the
    helper split Split((lam, t_s), (l1, t_p)) keys (tau, rho) by their product.
    len is the piece count, size-gated when made; key j is unranked via combin."""

    levels: tuple[tuple[int, int], ...]

    def __init__(self, *levels: tuple[int, int]) -> None:
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "count", math.prod(binom(n, t) for n, t in levels))
        check_pieces(levels, self.count)

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[tuple]:
        lists = [enumerate_ksubsets(n, t) for n, t in self.levels]
        return product(*lists) if len(lists) == 2 else zip(*lists, repeat(None))

    def __getitem__(self, j: int) -> tuple:
        if not -len(self) <= j < len(self):
            raise IndexError(f"key {j} out of range for {self}")
        j %= len(self)
        ranks = divmod(j, binom(*self.levels[1])) if len(self.levels) == 2 else (j,)
        key = [unrank_ksubset(n, t, rank) for (n, t), rank in zip(self.levels, ranks)]
        return (*key, None)[:2]  # the user split's key is (rho, None)

    def bits(self, field: int = 0) -> tuple[int, ...]:
        """Per element i of field's ground set, as bits over the keys (bit j is key
        j), the keys whose key[field] holds i: member_bits at that field's levels,
        each bit spread over the later field and the whole tiled over the earlier."""
        (n, t), size = self.levels[field], binom(*self.levels[field])
        if len(self) == size:  # no other field to spread or tile over
            return member_bits(n, t)
        tiles, later = (binom(*self.levels[0]), 1) if field else (1, len(self) // size)
        spread = {48: "0" * later, 49: "1" * later}  # ord("0"), ord("1")
        return tuple(int(format(bits, f"0{size}b").translate(spread) * tiles, 2)
                     for bits in member_bits(n, t))


_SELECT = bytes.maketrans(b"01", b"\0\1")


def flags(bits: int, width: int = 0) -> bytes:
    """One byte per bit of bits, 1 where set, bit j at index j, zero-padded to width."""
    return format(bits, f"0{width}b")[::-1].encode().translate(_SELECT)


def members(items: Iterable, bits: int) -> Iterator:
    """The items that bits selects, in order: bit j selects the j-th item."""
    return compress(items, flags(bits))


class BitSet(Set):
    """A read-only set view of layout keys held as (label, bits) rows: bit j
    is the layout's j-th key, a member as itself under the label None, else
    as SubfileId(label, *key).  len is the bit count, iteration decodes, and
    set operators return frozensets."""

    _from_iterable = frozenset

    def __init__(self, parts: list, rows: Sequence[tuple[Optional[int], int]]) -> None:
        self.parts, self.rows = parts, rows

    def __len__(self) -> int:
        return sum(bits.bit_count() for _, bits in self.rows)

    def __iter__(self) -> Iterator:
        for label, bits in self.rows:
            keys = members(chain.from_iterable(keys for keys, _ in self.parts), bits)
            yield from keys if label is None else (SubfileId(label, *key) for key in keys)

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self)

    def __contains__(self, value) -> bool:
        return value in self._members


def tile(*parts: tuple[Sequence, Fraction]) -> dict:
    """The per-piece view of a layout, key -> (offset, size) in one unit
    file.  A layout is its parts (split, share), laid end to end, each cut
    into equal pieces over its keys; the simulator reads the parts."""
    extents, base = {}, Fraction(0)
    for keys, share in parts:
        if keys:
            size = Fraction(share, len(keys))
            extents.update((key, (base + i * size, size)) for i, key in enumerate(keys))
        base += share
    return extents


class Transmission(NamedTuple):
    """One XOR broadcast: a layout part and its summands, one int each: the caller's
    label for the user it serves plus the piece's index among the segment's keys,
    the part's first key plus the piece's rank in the part's split.  The part sizes
    the broadcast; its summands all have the part's one piece size."""

    part: int
    summands: tuple


@dataclass(frozen=True)
class Placement:
    """A scheme's layout, its (split, share) parts, and every helper's and
    every user's cache as one int over the layout's keys laid end to end:
    bit j is the j-th key across all parts.  Placement is uncoded and the
    same for every file, so a key stands for that piece of every file."""

    parts: list
    helper_bits: tuple[int, ...]
    private_bits: tuple[int, ...]

    # each cache's piece keys (SubfileId.piece), as read-only views of its bits
    helper_contents = cached_property(lambda self: tuple(
        BitSet(self.parts, [(None, bits)]) for bits in self.helper_bits))
    private_contents = cached_property(lambda self: tuple(
        BitSet(self.parts, [(None, bits)]) for bits in self.private_bits))

    def known(self, assoc: Association) -> list[int]:
        """Per user in 1..K, its private cache and its helper's as one int."""
        helpers = self.helper_bits
        return [bits | helpers[h - 1] for bits, h in zip(self.private_bits, assoc.cache_of)]


@dataclass(frozen=True)
class CornerPoint:
    """A memory pair with a scheme's rate there; mixtures weight corners."""

    helper_mem: Fraction
    private_mem: Fraction
    rate: Fraction
    scheme_tag: str  # the scheme run at this corner; "unknown" at zero helper memory
    params: tuple
    # the run place and deliver take (None: a mixture runs it); not compared, the others fix it
    run: Optional[tuple] = field(default=None, compare=False)


@dataclass(frozen=True)
class LoadedConfig:
    """A parsed JSON config file: network, association, optional demand/seed."""

    config: NetworkConfig
    association: Association
    demand: Optional[tuple[int, ...]]
    seed: int


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple))


def load_config(source) -> LoadedConfig:
    """Load a config from a path, JSON text, or an already-parsed dict."""
    try:
        if isinstance(source, (str, Path)) and not (isinstance(source, str) and source.lstrip().startswith("{")):
            data = json.loads(Path(source).read_text())
        elif isinstance(source, str):
            data = json.loads(source)
        else:
            data = source
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    try:
        n, k, lam = data["N"], data["K"], data["Lambda"]
        ms = parse_fraction(data["Ms"])
        mp = parse_fraction(data["Mp"])
        partition = data["association"]
    except KeyError as exc:
        raise ConfigError(f"config is missing required key {exc.args[0]!r}") from exc
    seed = data.get("seed", 0)
    for key, value in (("N", n), ("K", k), ("Lambda", lam), ("seed", seed)):
        if not _is_int(value):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    if not _is_list(partition) or not all(
        _is_list(group) and all(map(_is_int, group)) for group in partition
    ):
        raise ConfigError("association must be a list of lists of integer user ids")
    config = NetworkConfig(n, k, lam, ms, mp)
    assoc = build_association(config, partition)
    demand = data.get("demand")
    if demand is not None:
        if not _is_list(demand) or not all(map(_is_int, demand)):
            raise ConfigError("demand must be a list of integer file indices")
        demand = validate_demand(config, demand)
    return LoadedConfig(config=config, association=assoc, demand=demand, seed=seed)

