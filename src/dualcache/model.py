"""Network configuration, user/helper association, and placement containers.

All memory sizes, subfile sizes, and rates are exact rationals
(fractions.Fraction) end to end; floats appear only when rendering
output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .combin import KSubset


class ConfigError(ValueError):
    """Invalid network configuration, association, or demand."""


class InfeasibleSchemeError(Exception):
    """A scheme's direct-run preconditions do not hold at this memory point."""


def parse_fraction(value) -> Fraction:
    """Parse an exact rational from an int, a decimal number, or an 'a/b' string."""
    if isinstance(value, bool):
        raise ConfigError(f"expected a number or fraction string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # Route through the decimal representation so 0.1 means 1/10.
        return Fraction(repr(value))
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

    groups[i] holds the users of internal helper i+1, sorted ascending;
    original_label[i] is the caller-supplied 1-based label of that helper.
    """

    groups: tuple[tuple[int, ...], ...]
    profile: tuple[int, ...]
    cache_of: tuple[int, ...]          # user k -> internal helper index (1-based)
    original_label: tuple[int, ...]

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

    def user_at(self, helper: int, position: int) -> int:
        """The position-th listed user of an internal helper (both 1-based)."""
        return self.groups[helper - 1][position - 1]

    def ordered_users(self) -> tuple[int, ...]:
        """Users listed group by group in internal helper order."""
        return tuple(u for group in self.groups for u in group)

    def original_partition(self) -> list[list[int]]:
        """Reconstruct the caller's partition in its original helper labeling."""
        out: list[list[int]] = [[] for _ in self.groups]
        for internal, label in enumerate(self.original_label):
            out[label - 1] = list(self.groups[internal])
        return out


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
        original_label=tuple(i + 1 for i in order),
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


class Tier(Enum):
    """Which subpacketization family a subfile belongs to."""

    HELPER = "helper"        # split over helper subsets, stored in helper caches
    PRIVATE = "private"      # split over user subsets, stored in private caches
    SINGLE = "single"        # one-level split over user subsets (association-known)
    TWO_LEVEL = "two_level"  # helper-subset x intra-group-position split
    WHOLE = "whole"          # unsplit file (zero-memory uncoded delivery)


@dataclass(frozen=True)
class SubfileId:
    """Coordinate of one mini-subfile: file index, tier, and its subset indices."""

    file: int
    tier: Tier
    idx_a: KSubset
    idx_b: Optional[KSubset] = None


@dataclass(frozen=True)
class Transmission:
    """One XOR broadcast: a generating label, its summands, and its size."""

    label: tuple
    summands: frozenset
    size: Fraction

    def __post_init__(self) -> None:
        if not self.summands:
            raise ValueError("a transmission must have at least one summand")


@dataclass(frozen=True)
class Placement:
    """Cache contents for every helper and every user, plus per-tier sizes."""

    helper_contents: tuple[frozenset, ...]
    private_contents: tuple[frozenset, ...]
    subfile_size: Mapping[Tier, Fraction]

    def helper_load(self, helper: int) -> Fraction:
        return sum(
            (self.subfile_size[s.tier] for s in self.helper_contents[helper - 1]),
            start=Fraction(0),
        )

    def user_load(self, user: int) -> Fraction:
        return sum(
            (self.subfile_size[s.tier] for s in self.private_contents[user - 1]),
            start=Fraction(0),
        )


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
    if isinstance(source, (str, Path)) and not (isinstance(source, str) and source.lstrip().startswith("{")):
        data = json.loads(Path(source).read_text())
    elif isinstance(source, str):
        data = json.loads(source)
    else:
        data = source
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

