"""Bit-exact execution: synthesize file bytes, fill caches, broadcast XOR
payloads, and check that every user reconstructs its demanded file.

A run is a list of weighted segments; each segment covers a contiguous
slice of every file and is placed and delivered by one scheme.  Decoding
is a fixpoint: a transmission releases its one unknown summand to any
user that already holds the rest.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import (
    Association,
    NetworkConfig,
    Placement,
    SubfileId,
    Transmission,
)
from .scheme1 import deliver_scheme1, layout_scheme1, place_scheme1
from .scheme2 import deliver_scheme2, layout_scheme2, place_scheme2
from .scheme_unknown import deliver_unknown, layout_unknown, place_unknown

FILE_LEN_CAP = 2 ** 24


@dataclass(frozen=True)
class Segment:
    """One weighted slice of every file, run under a single scheme."""

    tag: str
    weight: Fraction
    config: NetworkConfig
    placement: Placement
    extents: dict  # (tier, idx_a, idx_b) -> (offset, size), relative to a unit segment

    def transmissions(self, assoc: Association, demand: Sequence[int]) -> list[Transmission]:
        if self.tag == "scheme1":
            return deliver_scheme1(self.config, demand)
        if self.tag == "scheme2":
            return deliver_scheme2(self.config, assoc, demand)
        return deliver_unknown(self.config, assoc, demand)


@dataclass(frozen=True)
class SegmentedRun:
    segments: tuple[Segment, ...]

    @property
    def total_helper_mem(self) -> Fraction:
        return sum((s.weight * s.config.helper_mem for s in self.segments), Fraction(0))

    @property
    def total_private_mem(self) -> Fraction:
        return sum((s.weight * s.config.private_mem for s in self.segments), Fraction(0))


def build_segment(
    tag: str, config: NetworkConfig, assoc: Association, weight: Fraction
) -> Segment:
    if tag == "scheme1":
        placement = place_scheme1(config, assoc)
        extents = layout_scheme1(config)
    elif tag == "scheme2":
        placement = place_scheme2(config, assoc)
        extents = layout_scheme2(config, assoc)
    elif tag == "unknown":
        placement = place_unknown(config)
        extents = layout_unknown(config)
    else:
        raise ValueError(f"unknown scheme tag {tag!r}")
    return Segment(tag=tag, weight=Fraction(weight), config=config,
                   placement=placement, extents=extents)


def choose_file_len(
    segments: Sequence[Segment], min_len: int = 1, cap: int = FILE_LEN_CAP
) -> int:
    """Smallest byte length making every mini-subfile slice a whole number of
    bytes, scaled up to min_len; errors past the cap."""
    denom = 1
    base = Fraction(0)
    for seg in segments:
        for offset, size in seg.extents.values():
            denom = math.lcm(denom, (seg.weight * size).denominator)
            denom = math.lcm(denom, (base + seg.weight * offset).denominator)
        base += seg.weight
    if base != 1:
        raise ValueError(f"segment weights sum to {base}, expected 1")
    length = denom * max(1, -(-min_len // denom))
    if length > cap:
        raise ValueError(
            f"required file length {length} exceeds the cap {cap}; "
            f"pick a coarser grid point"
        )
    return length


@dataclass(frozen=True)
class DecodeReport:
    ok: bool
    file_len: int
    per_user_ok: tuple[bool, ...]
    private_bytes: tuple[int, ...]
    helper_bytes: tuple[int, ...]
    air_bytes: tuple[int, ...]
    total_air_bytes: int
    measured_rate: Fraction
    failure: Optional[str]


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def _resolve_segments(
    scheme, config: NetworkConfig, assoc: Association
) -> tuple[Segment, ...]:
    if isinstance(scheme, SegmentedRun):
        return scheme.segments
    if isinstance(scheme, str):
        if scheme == "unknown":
            from .envelope import unknown_run_segments

            return unknown_run_segments(config, assoc).segments
        return (build_segment(scheme, config, assoc, Fraction(1)),)
    raise TypeError(f"scheme must be a name or a SegmentedRun, got {scheme!r}")


def run_end_to_end(
    config: NetworkConfig,
    assoc: Association,
    demand: Sequence[int],
    scheme="unknown",
    seed: int = 0,
    min_len: int = 1,
) -> DecodeReport:
    """Full broadcast round: every user must reconstruct its file byte-for-byte."""
    segments = _resolve_segments(scheme, config, assoc)
    file_len = choose_file_len(segments, min_len=min_len)
    rng = random.Random(seed)
    files = {n: rng.randbytes(file_len) for n in range(1, config.num_files + 1)}

    # absolute byte extent of every (segment, subfile-coordinate)
    slots: list[dict] = []
    base = Fraction(0)
    for seg in segments:
        seg_slots = {}
        for key, (offset, size) in seg.extents.items():
            start = (base + seg.weight * offset) * file_len
            length = seg.weight * size * file_len
            assert start.denominator == 1 and length.denominator == 1
            seg_slots[key] = (int(start), int(length))
        slots.append(seg_slots)
        base += seg.weight

    def slice_of(seg_idx: int, sub: SubfileId) -> bytes:
        start, length = slots[seg_idx][(sub.tier, sub.idx_a, sub.idx_b)]
        return files[sub.file][start:start + length]

    k = config.num_users
    known: list[dict] = [dict() for _ in range(k)]
    private_bytes = [0] * k
    helper_bytes = [0] * k
    air_bytes = [0] * k
    for user in range(1, k + 1):
        seen_private = set()
        for i, seg in enumerate(segments):
            for sub in seg.placement.private_contents[user - 1]:
                data = slice_of(i, sub)
                known[user - 1][(i, sub)] = data
                private_bytes[user - 1] += len(data)
                seen_private.add((i, sub))
        helper = assoc.helper_of(user)
        for i, seg in enumerate(segments):
            for sub in seg.placement.helper_contents[helper - 1]:
                if (i, sub) in seen_private:
                    continue
                data = slice_of(i, sub)
                known[user - 1][(i, sub)] = data
                helper_bytes[user - 1] += len(data)

    payloads: list[tuple[int, Transmission, bytes]] = []
    total_air = 0
    for i, seg in enumerate(segments):
        for trans in seg.transmissions(assoc, demand):
            payload = None
            for sub in trans.summands:
                data = slice_of(i, sub)
                payload = data if payload is None else _xor(payload, data)
            payloads.append((i, trans, payload))
            total_air += len(payload)

    for user in range(1, k + 1):
        mine = known[user - 1]
        progress = True
        while progress:
            progress = False
            for i, trans, payload in payloads:
                missing = [s for s in trans.summands if (i, s) not in mine]
                if len(missing) != 1:
                    continue
                acc = payload
                for s in trans.summands:
                    if s is not missing[0]:
                        acc = _xor(acc, mine[(i, s)])
                mine[(i, missing[0])] = acc
                air_bytes[user - 1] += len(acc)
                progress = True

    per_user_ok = []
    failure = None
    for user in range(1, k + 1):
        wanted = demand[user - 1]
        rebuilt = bytearray(file_len)
        covered = 0
        user_ok = True
        for i, seg in enumerate(segments):
            for key, (start, length) in slots[i].items():
                tier, idx_a, idx_b = key
                sub = SubfileId(wanted, tier, idx_a, idx_b)
                data = known[user - 1].get((i, sub))
                if data is None:
                    user_ok = False
                    if failure is None:
                        failure = (
                            f"user {user} could not recover {sub} in segment {i} "
                            f"({seg.tag}); no transmission completed it"
                        )
                    continue
                rebuilt[start:start + length] = data
                covered += length
        if user_ok and (covered != file_len or bytes(rebuilt) != files[wanted]):
            user_ok = False
            if failure is None:
                failure = f"user {user} rebuilt a corrupted copy of file {wanted}"
        per_user_ok.append(user_ok)

    return DecodeReport(
        ok=all(per_user_ok),
        file_len=file_len,
        per_user_ok=tuple(per_user_ok),
        private_bytes=tuple(private_bytes),
        helper_bytes=tuple(helper_bytes),
        air_bytes=tuple(air_bytes),
        total_air_bytes=total_air,
        measured_rate=Fraction(total_air, file_len),
        failure=failure,
    )


@dataclass(frozen=True)
class SweepReport:
    trials: int
    failures: int
    rates: tuple[Fraction, ...]
    first_failure: Optional[str]

    @property
    def ok(self) -> bool:
        return self.failures == 0

    @property
    def worst_rate(self) -> Fraction:
        return max(self.rates)


def adversarial_sweep(
    config: NetworkConfig,
    assoc: Association,
    scheme="unknown",
    trials: int = 10,
    seed: int = 0,
) -> SweepReport:
    """Random distinct demands and fresh file bytes each trial; any decode
    failure fails the sweep."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    rates = []
    failures = 0
    first_failure = None
    for trial in range(trials):
        demand = rng.sample(range(1, config.num_files + 1), config.num_users)
        report = run_end_to_end(
            config, assoc, tuple(demand), scheme=scheme, seed=rng.randrange(2 ** 32)
        )
        rates.append(report.measured_rate)
        if not report.ok:
            failures += 1
            if first_failure is None:
                first_failure = f"trial {trial}: {report.failure}"
    return SweepReport(
        trials=trials, failures=failures, rates=tuple(rates), first_failure=first_failure
    )
