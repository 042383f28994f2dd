"""Bit-exact execution: synthesize file bytes, fill caches, broadcast XOR
payloads, and check that every user reconstructs its demanded file.

A run is a list of weighted segments; each covers a contiguous slice of every
file and runs the scheme its tag names in envelope.SCHEMES.  A segment's
layout is its parts, (split, share) laid end to end and each cut into equal
pieces; one pass turns the parts of every segment into bytes, and is the only
place a run lists a split's keys.  A piece is held as one int, its bytes being
that int's big-endian bytes, and a payload is the int XOR of its summands.
Only the pieces some payload carries are ever read, so only they are drawn:
random.Random(seed).getrandbits(8 * length) for each, in order of file, then start.
Decoding is a fixpoint over piece addresses only: a transmission releases
its one unknown summand to any user that already holds the rest, and the
user records which payload released it.  Two indexes built once per run,
in-file start -> payloads and address -> payloads, let a user visit only
the payloads that can release something: first those that touch a start it
caches or have one summand, then those holding an address just released.
It visits them pass by pass in payload order, a later payload still in the
same pass, so each address is released by the payload a scan of every
payload on every pass would pick.  The rebuild walks only the keys that the
user's caches lack and XORs each released piece of its own file through the
decoded summands it was built from, comparing it with the library's.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from typing import Optional, Sequence

from . import model
from .envelope import SCHEMES, scheme_run
from .model import (
    Association,
    InfeasibleSchemeError,
    NetworkConfig,
    Placement,
    SubfileId,
    Transmission,
    tile,
)


@dataclass(frozen=True)
class Segment:
    """One weighted slice of every file: a direct run of the scheme its tag names."""

    tag: str
    weight: Fraction
    config: NetworkConfig
    placement: Placement

    @property
    def extents(self) -> dict:
        """The per-piece view of the placement's parts: key -> (offset, size)."""
        return tile(*self.placement.parts)

    def transmissions(self, assoc: Association, demand: Sequence[int]) -> list[Transmission]:
        return SCHEMES[self.tag].deliver(self.config, assoc, demand)


@dataclass(frozen=True)
class SegmentedRun:
    segments: tuple[Segment, ...]


def build_segment(
    tag: str, config: NetworkConfig, assoc: Association, weight: Fraction
) -> Segment:
    """Place one direct run of the scheme registered as tag."""
    return Segment(tag, Fraction(weight), config, SCHEMES[tag].place(config, assoc))


def _byte_layout(segments: Sequence[Segment], min_len: int) -> tuple[int, list[dict]]:
    """The file length and, per segment, key -> (start, length) in bytes: one
    Fraction start and piece length per part, the lcm of their denominators
    scaled up to min_len (errors past FILE_LEN_CAP), then ints per piece."""
    runs = []  # (segment index, keys, first start, piece length)
    base = Fraction(0)
    for i, seg in enumerate(segments):
        start = base
        for keys, share in seg.placement.parts:
            if keys:
                runs.append((i, keys, start, seg.weight * share / len(keys)))
            start += seg.weight * share
        base += seg.weight
    denom = math.lcm(*(v.denominator for _, _, start, size in runs for v in (start, size)))
    if base != 1:
        raise ValueError(f"segment weights sum to {base}, expected 1")
    file_len = denom * max(1, -(-min_len // denom))
    if file_len > model.FILE_LEN_CAP:
        raise InfeasibleSchemeError(f"required file length {file_len} exceeds the cap "
                                    f"{model.FILE_LEN_CAP}; pick a coarser grid point")
    slots: list[dict] = [{} for _ in segments]
    for i, keys, start, size in runs:
        start, size = int(start * file_len), int(size * file_len)
        slots[i].update((key, (start + j * size, size)) for j, key in enumerate(keys))
    return file_len, slots


def choose_file_len(segments: Sequence[Segment], min_len: int = 1) -> int:
    """Smallest byte length making every mini-subfile slice a whole number of
    bytes, scaled up to min_len; errors past FILE_LEN_CAP."""
    return _byte_layout(segments, min_len)[0]


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


_xor = operator.xor  # read at each reduce, so a patched _xor sees every XOR


def _resolve_segments(
    scheme, config: NetworkConfig, assoc: Association
) -> tuple[Segment, ...]:
    if isinstance(scheme, SegmentedRun):
        return scheme.segments
    if isinstance(scheme, str):
        return scheme_run(scheme, config, assoc).segments
    raise TypeError(f"scheme must be a name or a SegmentedRun, got {scheme!r}")


def run_end_to_end(
    config: NetworkConfig,
    assoc: Association,
    demand: Sequence[int],
    scheme="unknown",
    seed: int = 0,
    min_len: int = 1,
) -> DecodeReport:
    """Full broadcast round: every user must reconstruct its file byte-for-byte.
    A scheme name runs envelope.scheme_run, the mixture scheme_rate reports.

    Inside, a piece is named by its byte address in the library, the files
    laid end to end: (file - 1) * file_len + start.  Pieces have positive
    length and the segments tile the file, so a start names one (segment,
    piece key).  A cache holds the same pieces of every file; a user's two
    caches are read once per segment as Placement.known bits over its keys,
    and it knows an address when its start is cached or a transmission
    released it.  The fixpoint records only which payload released each
    address; the rebuild walks only the keys those bits lack and compares
    each released piece of its file, rebuilt by int XORs, with the library's."""
    model.validate_association(config, assoc)
    segments = _resolve_segments(scheme, config, assoc)
    # (start, length) in the file of every (segment, piece key)
    file_len, slots = _byte_layout(segments, min_len)
    length_at = {start: length for seg_slots in slots for start, length in seg_slots.values()}
    tiled = sum(length for seg_slots in slots for _, length in seg_slots.values()) == file_len

    # each segment's piece starts in key order, the order of a cache's bits
    key_starts = [[start for start, _ in seg_slots.values()] for seg_slots in slots]

    known = [seg.placement.known(assoc) for seg in segments]  # per segment, per user

    def starts(caches) -> list[int]:
        """The in-file starts of one cache's pieces, from its bits in each segment."""
        return [s for i, bits in enumerate(caches) for s in model.members(key_starts[i], bits)]

    sent = [
        [(s.file - 1) * file_len + seg_slots[s.piece][0] for s in trans.summands]
        for seg_slots, seg in zip(slots, segments)
        for trans in seg.transmissions(assoc, demand)
    ]
    # only the pieces some payload carries are ever read, so only they are drawn
    needed = {a for summands in sent for a in summands}
    rng = random.Random(seed)
    piece = {a: rng.getrandbits(8 * length_at[a % file_len]) for a in sorted(needed)}
    payloads = [(summands, reduce(_xor, (piece[a] for a in summands))) for summands in sent]
    total_air = sum(length_at[summands[0] % file_len] for summands, _ in payloads)
    # each payload's summand starts in the file; the payloads with a summand
    # at each in-file start and at each address; the one-summand payloads
    in_file = [tuple(a % file_len for a in summands) for summands in sent]
    at_start: dict[int, list[int]] = {}
    holders: dict[int, list[int]] = {}
    for j, summands in enumerate(sent):
        for a, s in zip(summands, in_file[j]):
            at_start.setdefault(s, []).append(j)
            holders.setdefault(a, []).append(j)
    singles = [j for j, summands in enumerate(sent) if len(summands) == 1]

    def materialize(address: int, released: dict, decoded: dict) -> int:
        """A released piece: its payload XOR the other summands as the user
        holds them, rebuilding a decoded summand first."""
        if address not in decoded:
            summands, payload = payloads[released[address]]
            others = (materialize(a, released, decoded) if a in released else piece[a]
                      for a in summands if a != address)
            decoded[address] = reduce(_xor, others, payload)
        return decoded[address]

    private_bytes, helper_bytes, air_bytes, per_user_ok = [], [], [], []
    failure = None
    for user in range(1, config.num_users + 1):
        mine = [bits[user - 1] for bits in known]
        private = [seg.placement.private_bits[user - 1] for seg in segments]
        private_bytes.append(config.num_files * sum(length_at[s] for s in starts(private)))
        helper_bytes.append(config.num_files * sum(
            length_at[s] for s in starts(bits & ~own for bits, own in zip(mine, private))))
        cached = set(starts(mine))
        released: dict[int, int] = {}  # address -> index of the payload that released it
        # one pass pops its payloads in index order; a payload holding an
        # address released at j joins this pass above j, the next one below
        queue = sorted({j for s in cached for j in at_start.get(s, ())}.union(singles))
        while queue:
            queued, later = set(queue), set()
            while queue:
                j = heappop(queue)
                missing = [a for a, s in zip(sent[j], in_file[j])
                           if s not in cached and a not in released]
                if len(missing) == 1:
                    released[missing[0]] = j
                    for i in holders[missing[0]]:
                        if i < j:
                            later.add(i)
                        elif i not in queued:
                            queued.add(i)
                            heappush(queue, i)
            queue = sorted(later)
        air_bytes.append(sum(length_at[a % file_len] for a in released))
        decoded: dict[int, int] = {}
        wanted = demand[user - 1]
        file_base = (wanted - 1) * file_len
        user_ok = True
        intact = tiled
        for i, seg in enumerate(segments):
            lacked = ((1 << len(key_starts[i])) - 1) & ~mine[i]
            for key, start in model.members(zip(slots[i], key_starts[i]), lacked):
                address = file_base + start
                if address not in released:
                    user_ok = False
                    if failure is None:
                        failure = (
                            f"user {user} could not recover {SubfileId(wanted, *key)} "
                            f"in segment {i} ({seg.tag}); no transmission completed it"
                        )
                    continue
                intact = intact and materialize(address, released, decoded) == piece[address]
        if user_ok and not intact:
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
    """Random distinct demands and fresh file bytes each trial over one run,
    built once; any decode failure fails the sweep."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    run = SegmentedRun(_resolve_segments(scheme, config, assoc))
    rng = random.Random(seed)
    rates = []
    failures = 0
    first_failure = None
    for trial in range(trials):
        demand = rng.sample(range(1, config.num_files + 1), config.num_users)
        report = run_end_to_end(
            config, assoc, tuple(demand), scheme=run, seed=rng.randrange(2 ** 32)
        )
        rates.append(report.measured_rate)
        if not report.ok:
            failures += 1
            if first_failure is None:
                first_failure = f"trial {trial}: {report.failure}"
    return SweepReport(
        trials=trials, failures=failures, rates=tuple(rates), first_failure=first_failure
    )
