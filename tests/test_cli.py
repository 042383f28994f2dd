import csv
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from dualcache import simulator
from dualcache.cli import main


@pytest.fixture
def config_path(tmp_path):
    payload = {
        "N": 4, "K": 4, "Lambda": 2, "Ms": 1, "Mp": 1,
        "association": [[1, 2, 3], [4]], "demand": [1, 2, 3, 4], "seed": 3,
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_rate_prints_fraction_and_decimal(config_path):
    result = CliRunner().invoke(main, ["rate", "--config", config_path])
    assert result.exit_code == 0
    assert "13/12" in result.output
    assert "1.08333333333" in result.output


def test_rate_all_reports_every_scheme(config_path):
    result = CliRunner().invoke(main, ["rate", "--config", config_path, "--scheme", "all"])
    assert result.exit_code == 0
    assert "unknown: 13/12" in result.output
    assert "scheme2: 11/12" in result.output
    assert "scheme1: infeasible" in result.output


def test_rate_infeasible_exit_code(config_path):
    result = CliRunner().invoke(main, ["rate", "--config", config_path, "--scheme", "scheme1"])
    assert result.exit_code == 2


def test_rate_bad_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"N": 3, "K": 4, "Lambda": 2, "Ms": 0, "Mp": 0,
                                "association": [[1, 2, 3], [4]]}))
    result = CliRunner().invoke(main, ["rate", "--config", str(path)])
    assert result.exit_code == 1


def test_curve_csv_layout(config_path, tmp_path):
    out = tmp_path / "curve.csv"
    result = CliRunner().invoke(main, [
        "curve", "--config", config_path, "--ms", "1",
        "--mp-range", "0:3:1/2", "--out", str(out), "--fractions",
    ])
    assert result.exit_code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["Mp", "unknown", "scheme1", "scheme2", "man", "pue", "cutset"]
    assert len(rows) == 8
    table = {row[0]: row[1:] for row in rows[1:]}
    assert table["1"][0] == "13/12"
    assert table["1"][2] == "11/12"
    assert table["1"][1] == ""  # single-level scheme undefined here
    assert table["2"][1] == "1/4"
    # achievable columns never increase in Mp
    for col in range(1, 7):
        values = [Fraction(row[col]) for row in rows[1:] if row[col] != ""]
        assert values == sorted(values, reverse=True)


def _assert_rejected(result):
    """Exit 1 with a one-line message and no escaped exception."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    assert len(result.output.strip().splitlines()) == 1, result.output


def test_curve_range_validation(config_path, tmp_path):
    out = tmp_path / "curve.csv"
    result = CliRunner().invoke(main, [
        "curve", "--config", config_path, "--ms", "1",
        "--mp-range", "0:9:1", "--out", str(out),
    ])
    assert result.exit_code == 1
    for bad in ("0:3", "2:1:1", "0:1:0"):
        result = CliRunner().invoke(main, [
            "curve", "--config", config_path, "--ms", "1",
            "--mp-range", bad, "--out", str(out),
        ])
        _assert_rejected(result)


def test_verify_passes(config_path):
    result = CliRunner().invoke(main, [
        "verify", "--config", config_path, "--scheme", "scheme2", "--trials", "4",
    ])
    assert result.exit_code == 0
    assert "4/4 trials decoded" in result.output


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_verify_rejects_too_few_trials(config_path, trials):
    result = CliRunner().invoke(main, ["verify", "--config", config_path, "--trials", trials])
    _assert_rejected(result)


GOOD = {"N": 4, "K": 4, "Lambda": 2, "Ms": 1, "Mp": 1,
        "association": [[1, 2, 3], [4]], "demand": [1, 2, 3, 4], "seed": 3}


MALFORMED = {
    "top-level array": [1, 2],
    "top-level string": "N=4",
    "float N": {**GOOD, "N": 4.7},
    "string K": {**GOOD, "K": "4"},
    "boolean Lambda": {**GOOD, "Lambda": True},
    "float seed": {**GOOD, "seed": 1.5},
    "string association": {**GOOD, "Lambda": 1, "association": "1"},
    "flat association": {**GOOD, "association": [1, 2, 3, 4]},
    "string user id": {**GOOD, "association": [[1, "2", 3], [4]]},
    "string demand": {**GOOD, "demand": [1, 2, 3, "4"]},
    "float demand": {**GOOD, "demand": [1.0, 2, 3, 4]},
    "scalar demand": {**GOOD, "demand": 4},
}


@pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_is_rejected(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    _assert_rejected(CliRunner().invoke(main, ["rate", "--config", str(path)]))


def test_verify_failure_exit_code(config_path, monkeypatch):
    broken = simulator.SweepReport(
        trials=2, failures=1, rates=(Fraction(1), Fraction(1)),
        first_failure="trial 1: user 2 could not recover a subfile",
    )
    monkeypatch.setattr(simulator, "adversarial_sweep", lambda *a, **kw: broken)
    result = CliRunner().invoke(main, ["verify", "--config", config_path])
    assert result.exit_code == 3


def test_bounds_output(config_path):
    result = CliRunner().invoke(main, ["bounds", "--config", config_path, "--fractions"])
    assert result.exit_code == 0
    assert "cutset: 1/2" in result.output
    assert "scheme2: 11/12" in result.output


def test_converse_output(config_path):
    result = CliRunner().invoke(main, ["converse", "--config", config_path])
    assert result.exit_code == 0
    assert "alpha_lower = 13/12" in result.output
    assert "tight = True" in result.output
