"""Each mixture corner carries its direct run in ints, so scheme_run places and
delivers every segment without a scheme's direct-run gate and without making a
NetworkConfig; the gates stay the check of a run asked for by memory pair, and
at every corner they return the run the corner carries."""

import json
from fractions import Fraction

import pytest

from dualcache import scheme1, scheme2, scheme_unknown
from dualcache.envelope import SCHEMES, scheme_mixture, scheme_run
from dualcache.model import InfeasibleSchemeError, NetworkConfig, build_association
from dualcache.simulator import build_segment, run_end_to_end
from golden import record
from test_envelope import _half_step_grid
from test_scheme_rate import NETWORKS


def _grid_points():
    """(config, assoc) at every half-step point of the test_scheme_rate networks."""
    return [(config, build_association(config, partition))
            for network in NETWORKS for config, partition in _half_step_grid(*network)]


def test_runs_need_no_gate_and_make_no_config(monkeypatch):
    # the three gates, scheme1's level gate and with_memories raise, and so does
    # making any NetworkConfig; every scheme's run is still built at every grid
    # point a mixture reaches, and the golden decode runs decode as recorded
    points = _grid_points()
    reached = {(i, name): scheme_mixture(name, config, assoc) is not None
               for i, (config, assoc) in enumerate(points) for name in SCHEMES}
    decode_records = [r for r in map(json.loads, record.OUTPUTS.read_text().splitlines())
                      if "decode_at" in r and r["network"] == record.DECODE_NETWORK]
    n, lam, partition = record.DECODE_NETWORK
    decodes = []
    for r in decode_records:
        name, ms, mp, seed = r["decode_at"]
        config = NetworkConfig(n, n, lam, Fraction(ms), Fraction(mp))
        decodes.append((config, build_association(config, partition), name, seed, r["report"]))
    assert len(decodes) == 2 * len(record.DECODE_RUNS)

    def refuse(*args):
        raise AssertionError("a direct-run gate ran, or a NetworkConfig was made")

    for owner, name in ((scheme_unknown, "unknown_params"), (scheme1, "scheme1_params"),
                        (scheme1, "_integer_t"), (scheme2, "scheme2_params"),
                        (NetworkConfig, "with_memories"), (NetworkConfig, "__post_init__")):
        monkeypatch.setattr(owner, name, refuse)
    segments = 0
    for i, (config, assoc) in enumerate(points):
        for name in SCHEMES:
            if reached[i, name]:
                segments += len(scheme_run(name, config, assoc).segments)
            else:
                with pytest.raises(InfeasibleSchemeError, match="no mixture"):
                    scheme_run(name, config, assoc)
    assert segments == 1869
    for config, assoc, name, seed, report in decodes:
        got = run_end_to_end(config, assoc, range(1, n + 1), scheme=name, seed=seed)
        assert {field: record._text(value) for field, value in vars(got).items()} == report


def test_the_gate_at_each_corner_returns_the_corner_run():
    # the gate stays the oracle: at every corner of every mixture on the grids,
    # the segment a memory pair asks for (its gate's run, placed) equals the one
    # scheme_run places from the run the corner carries
    corners = set()
    for config, assoc in _grid_points():
        for name in SCHEMES:
            mixture = scheme_mixture(name, config, assoc)
            if mixture is None:
                continue
            segments = scheme_run(name, config, assoc).segments
            for (corner, weight), segment in zip(mixture, segments, strict=True):
                at = config.with_memories(corner.helper_mem, corner.private_mem)
                assert SCHEMES[corner.scheme_tag].gate(at, assoc) == corner.run, (name, corner)
                assert build_segment(corner.scheme_tag, at, assoc, weight) == segment, \
                    (name, corner)
                corners.add(corner.scheme_tag)
    assert corners == set(SCHEMES)
