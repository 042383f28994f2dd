import random
from fractions import Fraction

import pytest

from dualcache import simulator
from dualcache.envelope import (
    SCHEMES, envelope_at, materialize_shared_placement, scheme2_corners, scheme_run,
)
from dualcache.model import InfeasibleSchemeError, NetworkConfig, SubfileId, build_association
from dualcache.simulator import (
    DecodeReport,
    adversarial_sweep,
    build_segment,
    choose_file_len,
    run_end_to_end,
)


def test_minimal_file_length(net_4users, net_6users_two_level):
    config, assoc = net_4users
    seg = build_segment("unknown", config, assoc, Fraction(1))
    assert choose_file_len([seg]) == 12
    assert choose_file_len([seg], min_len=13) == 24
    assert choose_file_len([seg], min_len=24) == 24
    c2, a2 = net_6users_two_level
    seg2 = build_segment("scheme2", c2, a2, Fraction(1))
    assert choose_file_len([seg2]) == 9


def test_file_length_for_mixtures(net_4users):
    config, assoc = net_4users
    sol = envelope_at(scheme2_corners(config, assoc), Fraction(1), Fraction(1))
    run = materialize_shared_placement(sol, config, assoc)
    assert 48 % choose_file_len(run.segments) == 0


def test_file_length_cap(net_4users, monkeypatch):
    config, assoc = net_4users
    seg = build_segment("unknown", config, assoc, Fraction(1))
    monkeypatch.setattr(simulator, "FILE_LEN_CAP", 11)
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


def test_decode_across_schemes(net_6users_deep, net_6users_two_level):
    c1, a1 = net_6users_deep
    r1 = run_end_to_end(c1, a1, (6, 5, 4, 3, 2, 1), scheme="scheme1", seed=2)
    assert r1.ok and r1.measured_rate == Fraction(2, 5)
    c2, a2 = net_6users_two_level
    r2 = run_end_to_end(c2, a2, (2, 3, 1, 6, 4, 5), scheme="scheme2", seed=3)
    assert r2.ok and r2.measured_rate == 1


def test_different_seeds_give_different_bytes(net_4users):
    config, assoc = net_4users
    a = run_end_to_end(config, assoc, (1, 2, 3, 4), seed=1)
    b = run_end_to_end(config, assoc, (1, 2, 3, 4), seed=2)
    assert a.ok and b.ok
    assert a.measured_rate == b.measured_rate


def test_adversarial_sweeps(net_4users, net_6users_two_level):
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


def _reference_run(config, assoc, demand, run, seed):
    """The simulator before pieces were named by byte address: one key per
    (segment, SubfileId), one byte copy per user."""
    segments = run.segments
    file_len = choose_file_len(segments)
    rng = random.Random(seed)
    files = {n: rng.randbytes(file_len) for n in range(1, config.num_files + 1)}

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

    def slice_of(seg_idx, sub):
        start, length = slots[seg_idx][sub.piece]
        return files[sub.file][start:start + length]

    def subfiles(pieces):
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
            for sub in subfiles(seg.placement.private_contents[user - 1]):
                data = slice_of(i, sub)
                known[user - 1][(i, sub)] = data
                private_bytes[user - 1] += len(data)
                seen_private.add((i, sub))
        helper = assoc.helper_of(user)
        for i, seg in enumerate(segments):
            for sub in subfiles(seg.placement.helper_contents[helper - 1]):
                if (i, sub) in seen_private:
                    continue
                data = slice_of(i, sub)
                known[user - 1][(i, sub)] = data
                helper_bytes[user - 1] += len(data)

    payloads = []
    total_air = 0
    for i, seg in enumerate(segments):
        for trans in seg.transmissions(assoc, demand):
            payload = None
            for sub in trans.summands:
                data = slice_of(i, sub)
                payload = data if payload is None else simulator._xor(payload, data)
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
                        acc = simulator._xor(acc, mine[(i, s)])
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
    transmissions, xor = simulator.Segment.transmissions, simulator._xor
    modes = {
        "intact": None,
        "dropped": (simulator.Segment, "transmissions",
                    lambda seg, assoc, demand: transmissions(seg, assoc, demand)[1:]),
        "corrupted": (simulator, "_xor", lambda a, b: xor(a, b)[:-1] + b"\0"),
    }
    for mode, patch in modes.items():
        with monkeypatch.context() as patched:
            if patch:
                patched.setattr(*patch)
            reports = []
            for seed, (config, assoc, run) in enumerate(cases):
                demand = tuple(range(config.num_users, 0, -1))
                report = run_end_to_end(config, assoc, demand, scheme=run, seed=seed)
                assert report == _reference_run(config, assoc, demand, run, seed), (mode, config)
                reports.append(report)
        failures = [r.failure for r in reports if not r.ok]
        if mode == "intact":
            assert not failures
        else:
            assert 0 < len(failures) < len(reports), mode
    assert any("rebuilt a corrupted copy" in f for f in failures)
