import math
import random
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import pytest

from dualcache import combin, converse, model, simulator
from dualcache.envelope import (
    SCHEMES, envelope_at, materialize_shared_placement, scheme2_corners, scheme_run,
)
from dualcache.model import (
    InfeasibleSchemeError, NetworkConfig, SubfileId, Transmission, build_association,
)
from dualcache.simulator import (
    DecodeReport,
    adversarial_sweep,
    build_segment,
    choose_file_len,
    run_end_to_end,
)
from subfile_delivery import labels, pairs, reference_delivery, subfiles
from test_scheme_rate import NETWORKS


def test_minimal_file_length(net_4users, net_6users_two_level):
    config, assoc = net_4users
    seg = build_segment("unknown", config, assoc, Fraction(1))
    assert choose_file_len([seg]) == 12
    assert choose_file_len([seg], min_len=13) == 24
    assert choose_file_len([seg], min_len=24) == 24
    c2, a2 = net_6users_two_level
    seg2 = build_segment("scheme2", c2, a2, Fraction(1))
    assert choose_file_len([seg2]) == 9


def _spy_on_keys(monkeypatch) -> list:
    """Every listing of subsets or keys, as (name, result): enumerate_ksubsets in
    every dualcache module that binds it, Split iteration and Split indexing."""
    listed = []

    def spy(name, original):
        def wrapper(*args):
            listed.append((name, original(*args)))
            return listed[-1][1]
        return wrapper

    original = combin.enumerate_ksubsets
    for module in [m for name, m in sys.modules.items() if name.startswith("dualcache.")]:
        if getattr(module, "enumerate_ksubsets", None) is original:
            monkeypatch.setattr(module, "enumerate_ksubsets", spy("enumerate_ksubsets", original))
    for method in ("__iter__", "__getitem__"):
        monkeypatch.setattr(model.Split, method, spy(method, getattr(model.Split, method)))
    return listed


def test_placing_a_segment_lists_no_key(monkeypatch, net_6users_deep, net_6users_two_level):
    # a segment's placement holds its splits as levels and reads every cache's
    # bits from them, and the converse reads only those bits, so neither lists
    # a subset nor iterates or indexes a split; scheme2's split at
    # (t_s, t_p) = (1, 1) over Lambda = L1 = 3 has both levels C(3, 1)
    listed = _spy_on_keys(monkeypatch)
    config = NetworkConfig(16, 16, 4, Fraction(4), Fraction(4))
    contiguous = (config, build_association(config, [range(g, g + 4) for g in (1, 5, 9, 13)]))
    for tag, network, expected in (
        ("unknown", contiguous, [model.Split((4, 2), (0, 0)), model.Split((16, 8))]),
        ("scheme1", net_6users_deep, [model.Split((6, 4))]),
        ("scheme2", net_6users_two_level, [model.Split((3, 1), (3, 1))]),
    ):
        seg = build_segment(tag, *network, Fraction(1))
        assert [keys for keys, _ in seg.placement.parts] == expected, tag
        assert listed == [], tag
    cert = converse.certify(*contiguous, range(1, 17))
    assert (len(cert.h1), len(cert.h2), cert.alpha_lower, cert.tight) == \
        (16, 11440, Fraction(16, 9), True)
    assert listed == []


def test_a_run_lists_no_key(monkeypatch, net_4users, net_6users_deep, net_6users_two_level):
    # a run reads its layout as parts and its summands as address ints, so an
    # intact run lists no key; with the first transmission of every segment
    # dropped, it unranks one key, the one its failure text names
    config, assoc = net_4users
    mix = materialize_shared_placement(
        envelope_at(scheme2_corners(config, assoc), Fraction(1), Fraction(1)), config, assoc)
    runs = [(config, assoc, mix)] + [
        (*network, scheme_run(tag, *network))
        for tag, network in (("unknown", net_4users), ("scheme1", net_6users_deep),
                             ("scheme2", net_6users_two_level))]
    transmissions = simulator.Segment.transmissions
    listed = _spy_on_keys(monkeypatch)
    for config, assoc, run in runs:
        demand = tuple(range(config.num_users, 0, -1))
        assert run_end_to_end(config, assoc, demand, scheme=run).ok
        assert listed == []
        with monkeypatch.context() as patched:
            patched.setattr(simulator.Segment, "transmissions",
                            lambda seg, assoc, labels: transmissions(seg, assoc, labels)[1:])
            report = run_end_to_end(config, assoc, demand, scheme=run)
        ((name, key),) = listed
        user = report.per_user_ok.index(False) + 1
        assert name == "__getitem__"
        assert report.failure.startswith(
            f"user {user} could not recover {SubfileId(demand[user - 1], *key)} in segment")
        listed.clear()


def test_file_length_for_mixtures(net_4users):
    config, assoc = net_4users
    sol = envelope_at(scheme2_corners(config, assoc), Fraction(1), Fraction(1))
    run = materialize_shared_placement(sol, config, assoc)
    assert 48 % choose_file_len(run.segments) == 0


def test_file_length_cap(net_4users, monkeypatch):
    config, assoc = net_4users
    seg = build_segment("unknown", config, assoc, Fraction(1))
    monkeypatch.setattr(model, "FILE_LEN_CAP", 11)
    with pytest.raises(ValueError):
        choose_file_len([seg])


def test_weights_must_tile_the_file(net_4users):
    config, assoc = net_4users
    seg = build_segment("unknown", config, assoc, Fraction(1, 2))
    with pytest.raises(ValueError):
        choose_file_len([seg])


def test_end_to_end_byte_accounting(net_4users):
    config, assoc = net_4users
    report = run_end_to_end(config, assoc, (1, 2, 3, 4), seed=1)
    assert report.ok
    assert report.measured_rate == Fraction(13, 12)
    assert report.total_air_bytes == Fraction(13, 12) * report.file_len
    for user in range(4):
        assert report.private_bytes[user] == config.private_mem * report.file_len
        assert report.helper_bytes[user] == config.helper_mem * report.file_len
        # a user never pulls more off the air than was broadcast
        assert report.air_bytes[user] <= report.total_air_bytes


def test_a_run_holds_only_the_demanded_files(monkeypatch):
    # addresses cover the K demanded files, not all N, so a million files take the
    # room of four: with each demand in the same place among the sorted demands,
    # the run at N = 10**6 and Ms = Mp = N/4 is the run at N = 4 and Ms = Mp = 1
    releases, addresses, reports = simulator._releases, [], []

    def counted(sent, lacks, users, repeated):
        addresses.append(len(lacks))
        return releases(sent, lacks, users, repeated)

    monkeypatch.setattr(simulator, "_releases", counted)
    for n, demand in ((4, (4, 2, 3, 1)), (10**6, (10**6, 7, 500_000, 1))):
        config = NetworkConfig(n, 4, 2, Fraction(n, 4), Fraction(n, 4))
        assoc = build_association(config, [[1, 2, 3], [4]])
        reports.append(run_end_to_end(config, assoc, demand, seed=1))
    small, large = reports
    assert large.ok, large.failure
    assert ((large.measured_rate, large.file_len, large.air_bytes)
            == (small.measured_rate, small.file_len, small.air_bytes))
    assert addresses[0] == addresses[1]


def test_decode_across_schemes(net_6users_deep, net_6users_two_level):
    c1, a1 = net_6users_deep
    r1 = run_end_to_end(c1, a1, (6, 5, 4, 3, 2, 1), scheme="scheme1", seed=2)
    assert r1.ok and r1.measured_rate == Fraction(2, 5)
    c2, a2 = net_6users_two_level
    r2 = run_end_to_end(c2, a2, (2, 3, 1, 6, 4, 5), scheme="scheme2", seed=3)
    assert r2.ok and r2.measured_rate == 1


def test_different_seeds_give_different_bytes(monkeypatch, net_4users):
    config, assoc = net_4users
    xor = simulator._xor

    def xored(seed):
        """Every int XOR of one run: the payloads and the rebuilt pieces."""
        seen = []

        def recorded(a, b):
            seen.append(xor(a, b))
            return seen[-1]

        monkeypatch.setattr(simulator, "_xor", recorded)
        report = run_end_to_end(config, assoc, (1, 2, 3, 4), seed=seed)
        assert report.ok and report.measured_rate == Fraction(13, 12)
        return seen

    assert xored(1) == xored(1)
    assert xored(1) != xored(2)


def test_only_carried_pieces_are_drawn(monkeypatch, net_4users):
    # the library is one getrandbits(8 * length) per carried piece, in (file,
    # start) order, and a piece is that int; at min_len=4096 pieces are hundreds
    # of bytes, so no two drawn ints coincide
    config, assoc = net_4users
    demand = (1, 2, 3, 4)
    (seg,) = scheme_run("unknown", config, assoc).segments
    file_len = choose_file_len([seg], min_len=4096)
    transmissions = seg.transmissions(assoc, labels(seg.placement.parts, demand))
    sent = [subfiles(seg.placement.parts, t) for t in transmissions]
    slot = {sub: (sub.file, int(seg.extents[sub.piece][0] * file_len),
                  int(seg.extents[sub.piece][1] * file_len))
            for summands in sent for sub in summands}
    rng = random.Random(1)
    drawn = {(n, start): rng.getrandbits(8 * length) for n, start, length in sorted(set(slot.values()))}
    xor, bits, operands = simulator._xor, 0, set()

    class Counted(random.Random):
        def getrandbits(self, k):
            nonlocal bits
            bits += k
            return super().getrandbits(k)

    def recorded(a, b):
        operands.update((a, b))
        return xor(a, b)

    monkeypatch.setattr(random, "Random", Counted)
    monkeypatch.setattr(simulator, "_xor", recorded)
    report = run_end_to_end(config, assoc, demand, scheme=simulator.SegmentedRun((seg,)),
                            seed=1, min_len=4096)
    assert report.ok
    assert bits == 8 * sum(length for _, _, length in set(slot.values()))
    assert bits < 8 * config.num_files * file_len
    # the payload XOR takes each of its summands as the int drawn for it
    assert all(drawn[slot[sub][:2]] in operands
               for summands in sent if len(summands) > 1 for sub in summands)


def test_adversarial_sweeps(net_4users, net_6users_two_level, monkeypatch):
    config, assoc = net_4users
    sweep = adversarial_sweep(config, assoc, scheme="unknown", trials=8, seed=0)
    assert sweep.ok, sweep.first_failure
    assert sweep.worst_rate == Fraction(13, 12)
    c2, a2 = net_6users_two_level
    sweep2 = adversarial_sweep(c2, a2, scheme="scheme2", trials=8, seed=1)
    assert sweep2.ok, sweep2.first_failure
    assert sweep2.worst_rate == 1
    with pytest.raises(ValueError):
        adversarial_sweep(config, assoc, trials=0)
    # a run's segments alone are neither a scheme name nor a SegmentedRun
    with pytest.raises(TypeError, match="a name or a SegmentedRun"):
        adversarial_sweep(config, assoc, scheme=scheme_run("unknown", config, assoc).segments)
    # zeroing each XOR's last byte corrupts every coded payload, so some user in
    # every trial rebuilds a wrong copy, and the sweep counts each trial
    xor = simulator._xor
    monkeypatch.setattr(simulator, "_xor", lambda a, b: xor(a, b) & ~0xFF)
    sweep = adversarial_sweep(config, assoc, trials=3, seed=0)
    assert (sweep.ok, sweep.failures, sweep.trials) == (False, 3, 3)
    assert sweep.first_failure.startswith("trial 0: user "), sweep.first_failure


def test_single_user_network():
    config = NetworkConfig(1, 1, 1, Fraction(0), Fraction(0))
    assoc = build_association(config, [[1]])
    report = run_end_to_end(config, assoc, (1,), seed=4)
    assert report.ok
    assert report.measured_rate == 1


def test_zero_memory_broadcasts_everything(net_4users):
    _, assoc = net_4users
    config = NetworkConfig(4, 4, 2, Fraction(0), Fraction(0))
    report = run_end_to_end(config, assoc, (3, 4, 1, 2), seed=5)
    assert report.ok
    assert report.measured_rate == 4
    assert report.private_bytes == (0, 0, 0, 0)


def _bytes_xor(a, b):
    """The reference's XOR on bytes; the int XOR itself is simulator._xor, so
    a patched _xor corrupts the reference and the simulator alike."""
    return simulator._xor(int.from_bytes(a, "big"), int.from_bytes(b, "big")).to_bytes(len(a), "big")


def _reference_run(config, assoc, demand, run, seed, min_len=1):
    """The simulator before pieces were named by byte address: one key per
    (segment, SubfileId), one byte copy per user, every piece decoded.  The
    library is zeros except for the pieces some payload carries, each drawn
    as getrandbits(8 * length) in (file, start) order, big-endian."""
    segments = run.segments
    file_len = choose_file_len(segments, min_len=min_len)

    slots: list[dict] = []
    base = Fraction(0)
    for seg in segments:
        seg_slots = {}
        for key, (offset, size) in seg.extents.items():
            start = (base + seg.weight * offset) * file_len
            length = seg.weight * size * file_len
            seg_slots[key] = (int(start), int(length))
        slots.append(seg_slots)
        base += seg.weight

    sent = [(i, subfiles(seg.placement.parts, trans)) for i, seg in enumerate(segments)
            for trans in seg.transmissions(assoc, labels(seg.placement.parts, demand))]
    carried = sorted({(sub.file, *slots[i][sub.piece]) for i, summands in sent
                      for sub in summands})
    rng = random.Random(seed)
    library = {n: bytearray(file_len) for n in range(1, config.num_files + 1)}
    for n, start, length in carried:
        library[n][start:start + length] = rng.getrandbits(8 * length).to_bytes(length, "big")
    files = {n: bytes(data) for n, data in library.items()}

    def slice_of(seg_idx, sub):
        start, length = slots[seg_idx][sub.piece]
        return files[sub.file][start:start + length]

    def every_file(pieces):
        """A cache's piece keys as that piece of every file."""
        return [SubfileId(n, *piece) for piece in pieces
                for n in range(1, config.num_files + 1)]

    k = config.num_users
    known: list[dict] = [dict() for _ in range(k)]
    private_bytes = [0] * k
    helper_bytes = [0] * k
    air_bytes = [0] * k
    for user in range(1, k + 1):
        seen_private = set()
        for i, seg in enumerate(segments):
            for sub in every_file(seg.placement.private_contents[user - 1]):
                data = slice_of(i, sub)
                known[user - 1][(i, sub)] = data
                private_bytes[user - 1] += len(data)
                seen_private.add((i, sub))
        helper = assoc.helper_of(user)
        for i, seg in enumerate(segments):
            for sub in every_file(seg.placement.helper_contents[helper - 1]):
                if (i, sub) in seen_private:
                    continue
                data = slice_of(i, sub)
                known[user - 1][(i, sub)] = data
                helper_bytes[user - 1] += len(data)

    payloads = []
    total_air = 0
    for i, summands in sent:
        payload = None
        for sub in summands:
            data = slice_of(i, sub)
            payload = data if payload is None else _bytes_xor(payload, data)
        payloads.append((i, summands, payload))
        total_air += len(payload)

    for user in range(1, k + 1):
        mine = known[user - 1]
        progress = True
        while progress:
            progress = False
            for i, summands, payload in payloads:
                missing = [s for s in summands if (i, s) not in mine]
                if len(missing) != 1:
                    continue
                acc = payload
                for s in summands:
                    if s is not missing[0]:
                        acc = _bytes_xor(acc, mine[(i, s)])
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
                sub = SubfileId(wanted, *key)
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


def _half_step_runs(config, assoc):
    n = config.num_files
    for ms2 in range(2 * n + 1):
        for mp2 in range(2 * n + 1 - ms2):
            point = config.with_memories(Fraction(ms2, 2), Fraction(mp2, 2))
            for name in SCHEMES:
                try:
                    yield point, scheme_run(name, point, assoc)
                except InfeasibleSchemeError:
                    pass


def _scan_per_user(sent, lacks, users):
    """The reference decode order, as in _reference_run: each user on its own
    scans every payload in index order, pass by pass, until a pass releases
    nothing.  Bit u - 1 of lacks[a] is set where user u lacks address a."""
    releases = []
    for u in range(users):
        released = {}
        progress = True
        while progress:
            progress = False
            for j, summands in enumerate(sent):
                missing = [a for a in summands if lacks[a] >> u & 1 and a not in released]
                if len(missing) == 1:
                    released[missing[0]] = j
                    progress = True
        releases.append(released)
    return releases


def _check_releases(patched) -> list:
    """Check every later simulator._releases call against _scan_per_user: the
    same address -> payload map for every user.  Returns the checked calls."""
    releases, calls = simulator._releases, []

    def checked(sent, lacks, users, repeated):
        expected = _scan_per_user(sent, list(lacks), users)
        calls.append(releases(sent, lacks, users, repeated))
        assert calls[-1] == expected
        return calls[-1]

    patched.setattr(simulator, "_releases", checked)
    return calls


def _check_parity(monkeypatch, cases, modes, min_len=1):
    """Every case under every mode decodes to the reference's report, every user
    by the reference's releases; an intact run never fails, a damaged one fails on
    some cases but not all.  A mode is intact, the first transmission of every
    segment dropped, or every XOR's last big-endian byte zeroed.  Returns the last
    mode's failure texts."""
    transmissions, xor = simulator.Segment.transmissions, simulator._xor
    patches = {
        "intact": None,
        "dropped": (simulator.Segment, "transmissions",
                    lambda seg, assoc, labels: transmissions(seg, assoc, labels)[1:]),
        "corrupted": (simulator, "_xor", lambda a, b: xor(a, b) & ~0xFF),
    }
    failures = []
    for mode in modes:
        patch = patches[mode]
        with monkeypatch.context() as patched:
            if patch:
                patched.setattr(*patch)
            calls = _check_releases(patched)
            reports = []
            for seed, (config, assoc, run) in enumerate(cases):
                demand = tuple(range(config.num_users, 0, -1))
                report = run_end_to_end(config, assoc, demand, scheme=run, seed=seed,
                                        min_len=min_len)
                reference = _reference_run(config, assoc, demand, run, seed, min_len=min_len)
                assert report == reference, (mode, config)
                reports.append(report)
            assert len(calls) == len(cases)
        failures = [r.failure for r in reports if not r.ok]
        if mode == "intact":
            assert not failures
        else:
            assert 0 < len(failures) < len(reports), mode
    return failures


def test_matches_reference_simulator(monkeypatch, net_4users, net_6users_deep, net_6users_two_level):
    # every half-step case of N=K=4; the two N=K=6 fixtures share one network,
    # so one grid serves both, sampled to a fixed third to keep the test short
    config4, assoc4 = net_4users
    config6, assoc6 = net_6users_deep
    assert assoc6 == net_6users_two_level[1]
    grid6 = [(point, assoc6, run) for point, run in _half_step_runs(config6, assoc6)]
    cases = [(point, assoc4, run) for point, run in _half_step_runs(config4, assoc4)]
    cases += random.Random(0).sample(grid6, len(grid6) // 3)
    assert {seg.tag for _, _, run in cases for seg in run.segments} == set(SCHEMES)
    failures = _check_parity(monkeypatch, cases, ("intact", "dropped", "corrupted"))
    assert any("rebuilt a corrupted copy" in f for f in failures)


def test_matches_reference_simulator_at_multi_byte_pieces(monkeypatch, net_4users):
    # at the minimal file_len pieces are a few bytes; at 4096 they are hundreds,
    # so some start with a zero byte, which a piece's int does not show
    config, assoc = net_4users
    cases = [(point, assoc, run) for point, run in _half_step_runs(config, assoc)]
    failures = _check_parity(monkeypatch, cases, ("intact", "corrupted"), min_len=4096)
    assert any("rebuilt a corrupted copy" in f for f in failures)


def test_users_xor_only_the_pieces_they_rebuild(monkeypatch):
    # the oblivious scheme releases pieces of other users' files too: 870 air
    # bytes here against 360 bytes of demanded files; a user XORs once per other
    # summand of each release of its own file, to rebuild it, and never otherwise
    config = NetworkConfig(6, 6, 2, Fraction(3, 2), Fraction(1, 2))
    assoc = build_association(config, [[1, 2, 3], [4, 5, 6]])
    demand = tuple(range(1, 7))
    run = scheme_run("unknown", config, assoc)
    xor, calls = simulator._xor, 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return xor(a, b)

    monkeypatch.setattr(simulator, "_xor", counted)
    report = run_end_to_end(config, assoc, demand, scheme=run, seed=0)
    assert report.ok
    assert (sum(report.air_bytes), config.num_users * report.file_len) == (870, 360)

    encode = bound = 0
    for seg in run.segments:
        transmissions = seg.transmissions(assoc, labels(seg.placement.parts, demand))
        encode += sum(len(t.summands) - 1 for t in transmissions)
        for user, wanted in enumerate(demand, start=1):
            cached = set(seg.placement.private_contents[user - 1])
            cached |= set(seg.placement.helper_contents[assoc.helper_of(user) - 1])
            released = {}  # own-file piece -> XORs to rebuild it from its payload
            for t in transmissions:
                for s in subfiles(seg.placement.parts, t):
                    if s.file == wanted and s.piece not in cached:
                        released.setdefault(s.piece, len(t.summands) - 1)
            bound += sum(released.values())
    assert calls - encode == bound


def test_a_decoded_summand_carries_its_fault(monkeypatch):
    # no current scheme releases a piece through another decoded piece, so
    # chain the zero-memory broadcasts into W1, W1+W2, W2+W3: user 3 rebuilds
    # W3 through the W2 it decoded, and a fault in the W1+W2 payload reaches it.
    # A lone W3 sent last changes nothing: the scan in payload order releases
    # W3 through W2+W3 in the same pass, before it reaches the lone W3
    config = NetworkConfig(3, 3, 1, Fraction(0), Fraction(0))
    assoc = build_association(config, [[1, 2, 3]])
    demand = (1, 2, 3)
    run = scheme_run("unknown", config, assoc)

    def chain(labels):
        # the user split's one key, part 1 after the helper split's none, is index 0
        w1, w2, w3 = ((label,) for label in labels)
        return [Transmission(1, w1), Transmission(1, w1 + w2), Transmission(1, w2 + w3)]

    def lone_w3_last(labels):
        return chain(labels) + [Transmission(1, (labels[2],))]

    for sends in (chain, lone_w3_last):
        with monkeypatch.context() as patched:
            patched.setattr(simulator.Segment, "transmissions",
                            lambda seg, assoc, labels: sends(labels))
            checked = _check_releases(patched)
            report = run_end_to_end(config, assoc, demand, scheme=run, seed=6)
            assert report.ok and report == _reference_run(config, assoc, demand, run, seed=6)

            xor, calls = simulator._xor, 0

            def first_call_flips_a_bit(a, b):
                # the first XOR of a run encodes the W1+W2 payload
                nonlocal calls
                calls += 1
                return xor(a, b) ^ (calls == 1)

            patched.setattr(simulator, "_xor", first_call_flips_a_bit)
            report = run_end_to_end(config, assoc, demand, scheme=run, seed=6)
            calls = 0
            assert report == _reference_run(config, assoc, demand, run, seed=6)
            assert report.per_user_ok == (True, False, False), sends.__name__
            assert report.failure == "user 2 rebuilt a corrupted copy of file 2"
            assert len(checked) == 2


def test_a_release_can_complete_an_earlier_payload():
    # W2+W3, W1+W2, W1 to two users lacking all three: each scan releases one
    # piece, through the piece the scan before it released
    sent, lacks = [(1, 2), (0, 1), (0,)], [0b11] * 3
    expected = [{0: 2, 1: 1, 2: 0}] * 2
    assert _scan_per_user(sent, lacks, 2) == expected
    assert simulator._releases(sent, lacks, 2, True) == expected
    assert lacks == [0] * 3


def test_lacks_by_lanes_match_the_per_user_build():
    # K from 1 to 33 puts lanes of one to five bytes, each byte boundary on
    # both sides; random caches and the empty and full ones
    rng = random.Random(0)
    for k in (1, 7, 8, 9, 16, 17, 32, 33):
        for width in (1, 5, 64, 300):
            for caches in ([rng.getrandbits(width) for _ in range(k)], [0] * k,
                           [(1 << width) - 1] * k):
                expected = [(1 << k) - 1] * width  # the per-(user, cached key) build
                for u, cached in enumerate(caches):
                    for g in model.members(range(width), cached):
                        expected[g] &= ~(1 << u)
                assert simulator._lacks(caches, width) == expected, (k, width)


def test_a_layout_gap_fails_the_rebuild():
    # every piece arrives, but the pieces cover half the file
    config = NetworkConfig(1, 1, 1, Fraction(0), Fraction(0))
    assoc = build_association(config, [[1]])
    (seg,) = scheme_run("unknown", config, assoc).segments
    parts = [(keys, Fraction(1, 2) if keys else 0) for keys, _ in seg.placement.parts]
    half = replace(seg, placement=replace(seg.placement, parts=parts))
    report = run_end_to_end(config, assoc, (1,), scheme=simulator.SegmentedRun((half,)))
    assert (report.file_len, report.air_bytes) == (2, (1,))
    assert report.failure == "user 1 rebuilt a corrupted copy of file 1"


def _per_piece_layout(segments, min_len):
    """The per-piece rule over seg.extents: a piece at (offset, size) in a
    segment of weight w after base is ((base + w*offset)*L, w*size*L) bytes,
    L the lcm of those shares' denominators scaled up to min_len."""
    shares, base = [], Fraction(0)
    for seg in segments:
        shares.append({key: (base + seg.weight * offset, seg.weight * size)
                       for key, (offset, size) in seg.extents.items()})
        base += seg.weight
    denom = math.lcm(*(v.denominator for seg_shares in shares
                       for piece in seg_shares.values() for v in piece))
    file_len = denom * max(1, -(-min_len // denom))
    slots = [{key: (start * file_len, length * file_len) for key, (start, length) in s.items()}
             for s in shares]
    assert all(v.denominator == 1 for s in slots for piece in s.values() for v in piece)
    return file_len, slots


def _keys(seg):
    return tuple(key for keys, _ in seg.placement.parts for key in keys)


def _pieces_of(segments, layout) -> list:
    """_byte_layout's parts piece by piece, key -> (start, length) per segment,
    each part's first key checked against its place among every segment's keys."""
    parts = [keys for seg in segments for keys, _ in seg.placement.parts]
    firsts = list(accumulate(map(len, parts), initial=0))[:-1]
    assert [first for row in layout for first, _, _ in row] == firsts
    return [{key: (start + rank * size, size)
             for (keys, _), (_, start, size) in zip(seg.placement.parts, row)
             for rank, key in enumerate(keys)} for seg, row in zip(segments, layout)]


def test_byte_layout_matches_the_per_piece_rule():
    # every mixture of every scheme on the half-step grids of test_scheme_rate,
    # among them scheme1's quota split, whose two segments share their keys
    runs = []
    for n, lam, partition in NETWORKS:
        config = NetworkConfig(n, n, lam, Fraction(0), Fraction(0))
        runs += [run for _, run in _half_step_runs(config, build_association(config, partition))]
    assert any(len(set(map(_keys, run.segments))) < len(run.segments) for run in runs)
    # and a gap: the one piece starts a third into the file and covers half of it
    config = NetworkConfig(1, 1, 1, Fraction(0), Fraction(0))
    (seg,) = scheme_run("unknown", config, build_association(config, [[1]])).segments
    (key,) = _keys(seg)
    parts = [([], Fraction(1, 3)), ([key], Fraction(1, 2))]
    gap = replace(seg, placement=replace(seg.placement, parts=parts))
    assert simulator._byte_layout([gap], 1) == (6, [[(0, 0, 0), (0, 2, 3)]])
    for segments in [*(run.segments for run in runs), [gap]]:
        for min_len in (1, 4096):
            file_len, layout = simulator._byte_layout(segments, min_len)
            expected = _per_piece_layout(segments, min_len)
            assert (file_len, _pieces_of(segments, layout)) == expected


def test_rank_rows_unrank_to_the_subfile_deliveries():
    # every segment of every scheme's runs on the half-step grids of
    # test_scheme_rate: a row is a part and distinct summand ints, and decoded
    # to (file, rank) and unranked through the part's split its summands are
    # the reference's SubfileId set, row for row in the reference's order
    tags = set()
    for n, lam, partition in NETWORKS:
        config = NetworkConfig(n, n, lam, Fraction(0), Fraction(0))
        assoc = build_association(config, partition)
        demand = tuple(range(n, 0, -1))
        for _, run in _half_step_runs(config, assoc):
            for seg in run.segments:
                parts = seg.placement.parts
                rows = seg.transmissions(assoc, labels(parts, demand))
                assert all(type(v) is int for t in rows for v in (t.part, *t.summands))
                assert all(len(set(t.summands)) == len(t.summands) for t in rows)
                reference = reference_delivery(parts, assoc, demand)
                assert [(t.part, subfiles(parts, t)) for t in rows] == [
                    (part, summands) for part, _, summands in reference]
                tags.add(seg.tag)
    assert tags == set(SCHEMES)


def test_summands_are_the_addresses_of_their_pairs(monkeypatch, net_4users, net_6users_deep):
    # every half-step case of N=K=4 and N=K=6: labelled file times W, W the segment's
    # key count, the summands decode to the reference delivery in its order; labelled
    # by the simulator, the summands it hands _releases are the addresses slot * width
    # + part first + rank of those same pairs, the rule the simulator once applied to
    # (file, rank) summands itself, so no address, and so no draw, moved
    releases, handed = simulator._releases, []

    def spied(sent, lacks, users, repeated):
        handed.append(list(sent))
        return releases(sent, lacks, users, repeated)

    monkeypatch.setattr(simulator, "_releases", spied)
    tags = set()
    for config, assoc in (net_4users, net_6users_deep):
        demand = tuple(range(config.num_users, 0, -1))
        slot = {n: s for s, n in enumerate(sorted(demand))}
        for point, run in _half_step_runs(config, assoc):
            _, layout = simulator._byte_layout(run.segments, 1)
            width = sum(len(keys) for seg in run.segments for keys, _ in seg.placement.parts)
            expected = []
            for seg, row in zip(run.segments, layout):
                parts = seg.placement.parts
                rows = seg.transmissions(assoc, labels(parts, demand))
                assert [(t.part, subfiles(parts, t)) for t in rows] == [
                    (part, summands) for part, _, summands in reference_delivery(parts, assoc, demand)]
                expected += [tuple(slot[n] * width + row[t.part][0] + rank
                                   for n, rank in pairs(parts, t)) for t in rows]
                tags.add(seg.tag)
            assert run_end_to_end(point, assoc, demand, scheme=run).ok
            assert handed.pop() == expected
    assert tags == set(SCHEMES)
