"""Bit-exact execution: synthesize file bytes, fill caches, broadcast XOR
payloads, and check that every user reconstructs its demanded file.

A run is a list of weighted segments; each covers a contiguous slice of every
file and runs the scheme its tag names in envelope.SCHEMES.  A segment's layout
is its parts, (split, share) laid end to end and each cut into equal pieces, so
a part is its first key, byte start and piece length.  A delivery summand is one
int, its user's label plus the piece's index among the segment's keys; labelled
by where its file's copy of the segment starts, a summand is its piece's address,
found by arithmetic: no key is listed, and one is unranked only to name the
first failure.  A piece is one int, its bytes that int's big-endian bytes; a
payload is the int XOR of its summands.  Only the pieces some payload carries are
drawn: random.Random(seed).getrandbits(8 * length) for each, in order of file,
then start.  Decoding is a fixpoint over addresses: a transmission releases its
one unknown summand to a user that holds the rest.  Each address has an int with
a bit per user lacking it, so one scan of the payloads in order decodes every
user at once: a payload finds the users lacking exactly one of its summands in a
few int ops.  The scan repeats only when some
address is carried twice, so each address is released by the payload a user's
own scan of every payload on every pass would pick.  A user rebuilds only the
releases of its own file, from the pieces listed with each payload.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

from . import model
from .envelope import SCHEMES, Segment, SegmentedRun, scheme_run
from .model import Association, InfeasibleSchemeError, NetworkConfig, SubfileId


def build_segment(
    tag: str, config: NetworkConfig, assoc: Association, weight: Fraction
) -> Segment:
    """Place the direct run that tag's gate returns at config's memory pair."""
    run = SCHEMES[tag].gate(config, assoc)
    return Segment(tag, Fraction(weight), run, SCHEMES[tag].place(assoc, run))


def _byte_layout(segments: Sequence[Segment], min_len: int) -> tuple[int, list[list]]:
    """The file length and, per segment, per layout part, (first key, start, piece
    length): its first key among every segment's keys laid end to end, as the run's
    bits number them, then its bytes in the file, length 0 for a part with no keys.
    One Fraction start and piece length per part, the lcm of their denominators
    scaled up to min_len (errors past FILE_LEN_CAP), then ints."""
    rows, first, base = [], 0, Fraction(0)
    for seg in segments:
        rows.append(row := [])
        start, base = base, base + seg.weight
        for keys, share in seg.placement.parts:
            row.append((first, start, seg.weight * share / len(keys) if keys else 0))
            first, start = first + len(keys), start + seg.weight * share
    denom = math.lcm(*(v.denominator for row in rows for _, start, size in row if size
                       for v in (start, size)))
    if base != 1:
        raise ValueError(f"segment weights sum to {base}, expected 1")
    file_len = denom * max(1, -(-min_len // denom))
    if file_len > model.FILE_LEN_CAP:
        raise InfeasibleSchemeError(f"required file length {file_len} exceeds the cap "
                                    f"{model.FILE_LEN_CAP}; pick a coarser grid point")
    return file_len, [[(first, int(start * file_len), int(size * file_len))
                       for first, start, size in row] for row in rows]


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


_xor = operator.xor  # looked up at each use, so a patched _xor sees every XOR


def _releases(sent: Sequence[tuple], lacks: list, users: int, repeated: bool) -> list[dict]:
    """Per user, address -> the payload that released it to that user, where
    bit u - 1 of lacks[a] is set while user u lacks address a.  Every user
    decodes at once: a scan visits the payloads in index order, and each releases
    a summand to the users lacking only that one of its summands.  Users never
    interact, so scanning until a scan releases nothing is each user's own scan
    of every payload on every pass, run in lockstep.  Unless repeated, no address
    is carried twice, a release completes no other payload, and the first scan is
    the fixpoint."""
    releases: list[dict] = [{} for _ in range(users)]
    progress = True
    while progress:
        progress = False
        for j, summands in enumerate(sent):
            once = twice = 0
            for a in summands:
                twice |= once & lacks[a]
                once |= lacks[a]
            one = once & ~twice  # the users lacking exactly one summand
            for a in summands:
                if got := one & lacks[a]:
                    lacks[a] ^= got
                    progress = repeated
                    while got:
                        low = got & -got
                        releases[low.bit_length() - 1][a] = j
                        got ^= low
    return releases


def _lacks(caches: Sequence[int], width: int) -> list[int]:
    """Per key, bit u set unless caches[u] holds it: each cache is a lane of ceil(K / 8)
    bytes per key, 1 where not held; shifted by u and summed, a key's lane is its mask."""
    size, lanes = -(-len(caches) // 8), 0
    lane = bytearray(size * width)
    for u, cached in enumerate(caches):
        lane[::size] = model.flags(((1 << width) - 1) & ~cached, width)
        lanes += int.from_bytes(lane, "little") << u
    masks = lanes.to_bytes(size * width, "little")
    return [int.from_bytes(masks[g:g + size], "little") for g in range(0, len(masks), size)]


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

    Inside, a piece's address is its place in the demanded files laid end to end in
    file order, each as every segment's keys laid end to end: slot * width + its
    part's first key + rank, slot the file's place among the sorted demanded files and
    width the keys per file, so addresses run in (file, byte start) order and the
    undemanded files, which no payload carries, take no room.  Each segment's delivery
    labels user u with slot(d_u) * width + the segment's first key, so its summands
    are these addresses as they come.  A user's two caches are read once, as one int
    over a file's keys, and the users lacking each key form one int, tiled over the K
    demanded files.  Each payload's pieces are held with it and the library is
    dropped, the fixpoint records only which payload released each address to each
    user, and each release of a user's file, rebuilt by int XORs, is checked against
    its piece."""
    model.validate_association(config, assoc)
    demand = model.validate_demand(config, demand)
    segments = _resolve_segments(scheme, config, assoc)
    file_len, layout = _byte_layout(segments, min_len)
    parts = [(i, keys, first, size) for i, (seg, row) in enumerate(zip(segments, layout))
             for (keys, _), (first, _, size) in zip(seg.placement.parts, row)]
    width = sum(len(keys) for _, keys, _, _ in parts)
    tiled = sum(len(keys) * size for _, keys, _, size in parts) == file_len
    known = [seg.placement.known(assoc) for seg in segments]  # per segment, per user
    base = {n: width * slot for slot, n in enumerate(sorted(demand))}  # demands are distinct

    sent, length = [], []  # per payload, its summands' addresses and its pieces' length
    for seg, row in zip(segments, layout):
        for part, summands in seg.transmissions(assoc, [base[n] + row[0][0] for n in demand]):
            sent.append(summands)
            length.append(row[part][2])
    # only the pieces some payload carries are ever read, so only they are drawn
    piece = {a: size for summands, size in zip(sent, length) for a in summands}
    rng = random.Random(seed)
    for a in sorted(piece):
        piece[a] = rng.getrandbits(8 * piece[a])
    held = [tuple(map(piece.__getitem__, summands)) for summands in sent]  # per payload
    payloads = [reduce(_xor, pieces) for pieces in held]
    repeated = len(piece) < sum(map(len, sent))  # some address is carried twice
    del piece

    def spread(caches) -> int:
        """A cache's bits in each segment as one int over every segment's keys."""
        return sum(bits << row[0][0] for bits, row in zip(caches, layout))

    def cached_bytes(bits: int) -> int:
        """The bytes of every file a cache holds: per part, its bits times its length."""
        return config.num_files * sum(((bits >> first) & ((1 << len(keys)) - 1)).bit_count()
                                      * size for _, keys, first, size in parts)

    caches = [spread(bits[u] for bits in known) for u in range(config.num_users)]
    releases = _releases(sent, _lacks(caches, width) * len(base), config.num_users, repeated)

    def rebuilt(released: dict, lo: int) -> tuple[int, bool]:
        """How many releases are of the user's file [lo, lo + width), and whether each, its
        payload XOR its other summands (cached, else the user's copies), is its piece."""
        found, intact, copies = 0, tiled, {}
        for a, j in released.items() if repeated else ():  # in order, each through those before
            i, pieces = sent[j].index(a), [*map(copies.get, sent[j], held[j])]
            copies[a] = reduce(_xor, pieces[:i] + pieces[i + 1:], payloads[j])
        for a, j in released.items():
            if lo <= a < lo + width:
                found += 1
                if intact:
                    i, pieces = sent[j].index(a), held[j]
                    copy = (copies[a] if repeated
                            else reduce(_xor, pieces[:i] + pieces[i + 1:], payloads[j]))
                    intact = copy == pieces[i]
        return found, intact

    private_bytes, helper_bytes, air_bytes, per_user_ok, failure = [], [], [], [], None
    for user, (wanted, cached, released) in enumerate(zip(demand, caches, releases), start=1):
        private = spread(seg.placement.private_bits[user - 1] for seg in segments)
        private_bytes.append(cached_bytes(private))
        helper_bytes.append(cached_bytes(cached & ~private))
        air_bytes.append(sum(map(length.__getitem__, released.values())))
        lo = base[wanted]
        found, intact = rebuilt(released, lo)
        user_ok = found == width - cached.bit_count()  # every lacked piece released
        if not user_ok:  # name the first lacked piece not released, in (part, rank) order
            i, keys, rank = next((i, keys, g - first) for i, keys, first, _ in parts
                                 for g in range(first, first + len(keys))
                                 if not (cached >> g) & 1 and lo + g not in released)
            failure = failure or (
                f"user {user} could not recover {SubfileId(wanted, *keys[rank])} in "
                f"segment {i} ({segments[i].tag}); no transmission completed it")
        elif not intact:
            user_ok = False
            failure = failure or f"user {user} rebuilt a corrupted copy of file {wanted}"
        per_user_ok.append(user_ok)

    return DecodeReport(
        ok=all(per_user_ok),
        file_len=file_len,
        per_user_ok=tuple(per_user_ok),
        private_bytes=tuple(private_bytes),
        helper_bytes=tuple(helper_bytes),
        air_bytes=tuple(air_bytes),
        total_air_bytes=sum(length),
        measured_rate=Fraction(sum(length), file_len),
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


def _distinct_files(rng: random.Random, n: int, k: int) -> list[int]:
    """k distinct files of 1..n, drawn as rng.sample(range(1, n + 1), k) draws them.  Past
    sys.maxsize, where a range has no len, by sample's own rule for a population that
    large: redraw rng.randrange(n) until it is new."""
    if n <= sys.maxsize:
        return rng.sample(range(1, n + 1), k)
    drawn: list[int] = []
    while len(drawn) < k:
        if (j := rng.randrange(n) + 1) not in drawn:
            drawn.append(j)
    return drawn


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
        demand = _distinct_files(rng, config.num_files, config.num_users)
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
