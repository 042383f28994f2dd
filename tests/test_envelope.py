from fractions import Fraction

from dualcache.envelope import (
    certificate_holds,
    envelope_at,
    envelope_mix,
    scheme1_corners,
    scheme2_corners,
    scheme2_envelope_rate,
    materialize_shared_placement,
    scheme_rate,
    simplex_solve,
    unknown_run_segments,
)
from dualcache.model import NetworkConfig, build_association
from dualcache.scheme_unknown import rate_unknown_general
from dualcache.simulator import run_end_to_end


def test_two_level_corner_grid(net_4users):
    config, assoc = net_4users
    corners = scheme2_corners(config, assoc)
    triples = {(c.helper_mem, c.private_mem, c.rate) for c in corners}
    assert (Fraction(0), Fraction(1), Fraction(3, 2)) in triples
    assert (Fraction(2), Fraction(2, 3), Fraction(1, 2)) in triples
    assert (Fraction(2), Fraction(4, 3), Fraction(1, 6)) in triples
    # a full-memory corner always closes the grid at rate 0
    assert any(
        c.helper_mem == 4 and c.private_mem == 0 and c.rate == 0 for c in corners
    )
    # exactly one zero-helper-memory point, pinned at the target Mp
    dedicated = [c for c in corners if c.scheme_tag == "unknown"]
    assert [(c.helper_mem, c.private_mem) for c in dedicated] == [
        (Fraction(0), Fraction(1))
    ]


def test_mixture_at_intermediate_memory(net_4users):
    config, assoc = net_4users
    corners = scheme2_corners(config, assoc)
    sol = envelope_at(corners, Fraction(1), Fraction(1))
    assert sol is not None
    assert sol.achieved_rate == Fraction(11, 12)
    mix = {
        (c.helper_mem, c.private_mem): w for c, w in sol.weights
    }
    assert mix == {
        (Fraction(0), Fraction(1)): Fraction(1, 2),
        (Fraction(2), Fraction(2, 3)): Fraction(1, 4),
        (Fraction(2), Fraction(4, 3)): Fraction(1, 4),
    }
    assert certificate_holds(corners, sol, Fraction(1), Fraction(1))


def test_mixture_decodes_at_its_rate(net_4users):
    config, assoc = net_4users
    sol = envelope_at(scheme2_corners(config, assoc), Fraction(1), Fraction(1))
    run = materialize_shared_placement(sol, config, assoc)
    assert sum(seg.weight * seg.config.helper_mem for seg in run.segments) == 1
    assert sum(seg.weight * seg.config.private_mem for seg in run.segments) == 1
    report = run_end_to_end(config, assoc, (1, 2, 3, 4), scheme=run, seed=6)
    assert report.ok, report.failure
    assert report.measured_rate == Fraction(11, 12)


def test_target_on_a_corner_is_degenerate(net_4users):
    config, assoc = net_4users
    target = config.with_memories(Fraction(2), Fraction(2, 3))
    corners = scheme2_corners(target, assoc)
    sol = envelope_at(corners, Fraction(2), Fraction(2, 3))
    assert sol.achieved_rate == Fraction(1, 2)
    assert sum(w for _, w in sol.weights) == 1
    assert {c.rate for c, w in sol.weights if w > 0} == {Fraction(1, 2)}


def test_unreachable_target_is_reported(net_4users):
    _, assoc = net_4users
    config = NetworkConfig(4, 4, 2, Fraction(1), Fraction(5, 2))
    assert envelope_at(scheme2_corners(config, assoc), Fraction(1), Fraction(5, 2)) is None
    assert scheme2_envelope_rate(config, assoc) is None


def test_simplex_small_problems():
    # min x0 + 2*x1 s.t. x0 + x1 = 1
    value, x, duals = simplex_solve(
        [(Fraction(1),), (Fraction(1),)], [Fraction(1), Fraction(2)], [Fraction(1)]
    )
    assert value == 1 and x == [Fraction(1), Fraction(0)]
    assert duals == [Fraction(1)]
    # infeasible: no nonnegative combination reaches a negative target
    assert simplex_solve([(Fraction(1),)], [Fraction(1)], [Fraction(-1)]) is None


def test_duals_support_every_corner(net_4users):
    config, assoc = net_4users
    for ms_num in range(0, 5):
        ms = Fraction(ms_num, 2)
        mp = Fraction(3, 2)
        if ms + mp > 4:
            continue
        probe = config.with_memories(ms, mp)
        corners = scheme2_corners(probe, assoc)
        sol = envelope_at(corners, ms, mp)
        if sol is None:
            continue
        assert certificate_holds(corners, sol, ms, mp)


def test_one_dimensional_mix():
    points = [(Fraction(0), Fraction(4)), (Fraction(2), Fraction(1)), (Fraction(4), Fraction(0))]
    mix = envelope_mix(points, Fraction(1))
    assert mix == [
        (Fraction(0), Fraction(4), Fraction(1, 2)),
        (Fraction(2), Fraction(1), Fraction(1, 2)),
    ]
    assert envelope_mix(points, Fraction(2)) == [(Fraction(2), Fraction(1), Fraction(1))]
    assert envelope_mix(points, Fraction(5)) is None


def test_single_level_envelope_interpolates(net_4users):
    _, assoc = net_4users
    config = NetworkConfig(4, 4, 2, Fraction(1), Fraction(5, 2))
    # feasible corners sit at Mp = 2 (rate 1/4) and Mp = 3 (rate 0)
    corners = scheme1_corners(config, assoc)
    assert [(c.private_mem, c.rate) for c in corners] == [
        (Fraction(2), Fraction(1, 4)), (Fraction(3), Fraction(0)),
    ]
    assert scheme_rate("scheme1", config, assoc)[0] == Fraction(1, 8)
    below = config.with_memories(Fraction(1), Fraction(1))
    assert scheme_rate("scheme1", below, assoc)[0] is None


def test_oblivious_run_off_the_lattice():
    config = NetworkConfig(4, 4, 2, Fraction(3, 4), Fraction(3, 4))
    assoc = build_association(config, [[1, 2, 3], [4]])
    run = unknown_run_segments(config, assoc)
    assert len(run.segments) > 1
    assert sum(seg.weight * seg.config.helper_mem for seg in run.segments) == Fraction(3, 4)
    assert sum(seg.weight * seg.config.private_mem for seg in run.segments) == Fraction(3, 4)
    report = run_end_to_end(config, assoc, (1, 2, 3, 4), scheme=run, seed=8)
    assert report.ok, report.failure
    assert report.measured_rate == rate_unknown_general(config, assoc.profile)
