"""Differential checks: `rate`, `bounds` and `curve` agree on every scheme's
value, a value keeps the `formula` label exactly where a direct run of the
scheme achieves it, and every value is realized by the segments that
`verify` runs."""

import csv
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from dualcache.cli import main
from dualcache.envelope import SCHEMES, bound_report, scheme_rate, scheme_run
from dualcache.model import InfeasibleSchemeError, NetworkConfig, build_association
from dualcache.scheme1 import rate_scheme1, scheme1_params
from dualcache.scheme2 import rate_scheme2
from dualcache.scheme_unknown import rate_unknown
from dualcache.simulator import run_end_to_end
from layout_bytes import segment_memories
from subfile_delivery import labels

QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)

NETWORKS = [
    (4, 2, [[1, 2, 3], [4]]),
    (4, 2, [[1, 3], [2, 4]]),
    (5, 3, [[1, 2], [3, 4], [5]]),
    (6, 3, [[2], [1, 3, 4, 6], [5]]),
    (6, 3, [[1, 4], [2, 5], [3, 6]]),
]


def _direct_rate(name, config, assoc):
    """The closed-form rate of one direct run, or None where none exists."""
    try:
        if name == "unknown":
            return rate_unknown(config, assoc.profile)
        if name == "scheme1":
            scheme1_params(config, assoc)  # raises where no direct run exists
            return rate_scheme1(config)
        return rate_scheme2(config, assoc)
    except InfeasibleSchemeError:
        return None


def _write_config(tmp_path, n, lam, partition, ms, mp):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"N": n, "K": n, "Lambda": lam, "Ms": str(ms), "Mp": str(mp),
                                "association": partition}))
    return str(path)


def _curve_cells(config_path, tmp_path, ms, top):
    out = tmp_path / "curve.csv"
    result = CliRunner().invoke(main, [
        "curve", "--config", config_path, "--ms", str(ms),
        "--mp-range", f"0:{top}:1/4", "--out", str(out), "--fractions",
    ])
    assert result.exit_code == 0, result.output
    with open(out, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    return {Fraction(row[0]): dict(zip(header[1:], row[1:])) for row in rows}


@pytest.mark.parametrize("n,lam,partition", NETWORKS)
def test_rate_bounds_and_curve_agree(n, lam, partition, tmp_path):
    config_path = _write_config(tmp_path, n, lam, partition, 0, 0)
    ms = Fraction(0)
    while ms <= n:
        cells = _curve_cells(config_path, tmp_path, ms, n - ms)
        assert len(cells) == (n - ms) / QUARTER + 1
        for mp, row in cells.items():
            config = NetworkConfig(n, n, lam, ms, mp)
            assoc = build_association(config, partition)
            report = bound_report(config, assoc)
            for name in SCHEMES:
                value, provenance = scheme_rate(name, config, assoc)
                assert report.scheme_rates[name] == value
                assert row[name] == ("" if value is None else str(value))
                direct = _direct_rate(name, config, assoc)
                if value is None:
                    assert direct is None
                elif direct is not None and value == direct:
                    assert provenance == "formula", (name, ms, mp)
                else:
                    assert provenance == "envelope", (name, ms, mp)
                    assert direct is None or value < direct
        ms += QUARTER


def test_scheme2_mixture_below_its_direct_run(tmp_path):
    config_path = _write_config(tmp_path, 6, 3, [[2], [1, 3, 4, 6], [5]], 2, 2)
    config = NetworkConfig(6, 6, 3, Fraction(2), Fraction(2))
    assoc = build_association(config, [[2], [1, 3, 4, 6], [5]])
    assert rate_scheme2(config, assoc) == Fraction(11, 18)
    result = CliRunner().invoke(main, [
        "rate", "--config", config_path, "--scheme", "scheme2", "--fractions",
    ])
    assert result.exit_code == 0
    assert result.output == "scheme2: 65/108 (envelope)\n"
    result = CliRunner().invoke(main, [
        "verify", "--config", config_path, "--scheme", "scheme2", "--trials", "3",
    ])
    assert result.exit_code == 0, result.output
    assert result.output == "scheme2: 3/3 trials decoded, worst rate 65/108\n"


@pytest.mark.parametrize("n,lam,partition", NETWORKS)
def test_every_rate_is_realized(n, lam, partition):
    demand = tuple(range(n, 0, -1))
    ms = Fraction(0)
    while ms <= n:
        mp = Fraction(0)
        while ms + mp <= n:
            config = NetworkConfig(n, n, lam, ms, mp)
            assoc = build_association(config, partition)
            for name in SCHEMES:
                value, _ = scheme_rate(name, config, assoc)
                if value is None:
                    continue
                run = scheme_run(name, config, assoc)
                memories = [(seg.weight, *segment_memories(seg, n)) for seg in run.segments]
                assert (sum(w * seg_ms for w, seg_ms, _ in memories),
                        sum(w * seg_mp for w, _, seg_mp in memories)) == (ms, mp), (name, ms, mp)
                # no summand is carried twice, so one scan of the payloads decodes; a
                # summand labelled by labels is (file, index among the segment's keys)
                carried = [(i, summand) for i, seg in enumerate(run.segments)
                           for t in seg.transmissions(assoc, labels(seg.placement.parts, demand))
                           for summand in t.summands]
                assert len(set(carried)) == len(carried), (name, ms, mp)
                report = run_end_to_end(config, assoc, demand, scheme=run)
                assert report.ok, (name, ms, mp, report.failure)
                assert report.measured_rate == value, (name, ms, mp)
            mp += HALF
        ms += HALF


def test_scheme1_mixture_with_fractional_quota(tmp_path):
    # t = 7/2 is not an integer, and the t = 4 corner has helper quota 1/4
    config_path = _write_config(tmp_path, 4, 2, [[1, 2, 3], [4]], 1, Fraction(5, 2))
    result = CliRunner().invoke(main, [
        "rate", "--config", config_path, "--scheme", "scheme1", "--fractions",
    ])
    assert result.exit_code == 0
    assert result.output == "scheme1: 1/8 (envelope)\n"
    result = CliRunner().invoke(main, [
        "verify", "--config", config_path, "--scheme", "scheme1", "--trials", "3",
    ])
    assert result.exit_code == 0, result.output
    assert result.output == "scheme1: 3/3 trials decoded, worst rate 1/8\n"
