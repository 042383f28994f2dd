"""Differential checks: `rate`, `bounds` and `curve` agree on every scheme's
value, and a value keeps the `formula` label exactly where a direct run of
the scheme achieves it."""

import csv
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from dualcache.bounds import bound_report
from dualcache.cli import main
from dualcache.envelope import SCHEMES, scheme_rate
from dualcache.model import InfeasibleSchemeError, NetworkConfig, build_association
from dualcache.scheme1 import rate_scheme1, scheme1_feasible
from dualcache.scheme2 import rate_scheme2
from dualcache.scheme_unknown import rate_unknown

QUARTER = Fraction(1, 4)

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
            return rate_scheme1(config) if scheme1_feasible(config, assoc).feasible else None
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
