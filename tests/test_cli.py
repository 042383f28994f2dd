import csv
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from dualcache import combin, converse, envelope, model, simulator
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


def test_curve_cells_follow_the_header_names(config_path, tmp_path, monkeypatch):
    # each cell is read by its column's scheme name, not by the order of scheme_rates
    def curve_csv(name):
        out = tmp_path / name
        result = CliRunner().invoke(main, [
            "curve", "--config", config_path, "--ms", "1",
            "--mp-range", "0:3:1/2", "--out", str(out), "--fractions",
        ])
        assert result.exit_code == 0, result.output
        return out.read_bytes()

    expected, reports = curve_csv("plain.csv"), envelope.bound_reports

    def reversed_rates(*args):
        for report in reports(*args):
            yield replace(report, scheme_rates=dict(reversed(report.scheme_rates.items())))

    monkeypatch.setattr(envelope, "bound_reports", reversed_rates)
    assert curve_csv("reversed.csv") == expected


def _assert_rejected(result, code=1):
    """Exit with code and a one-line message, and no escaped exception."""
    assert result.exit_code == code, result.output
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
    for ms, bad in (("1", "0:3"), ("1", "2:1:1"), ("1", "0:1:0"),
                    ("-1", "0:1:1"), ("1", "-1:1:1"), ("1", "0:1/3:1/7")):
        result = CliRunner().invoke(main, [
            "curve", "--config", config_path, "--ms", ms,
            "--mp-range", bad, "--out", str(out),
        ])
        _assert_rejected(result)


def test_curve_unwritable_out_fails_before_any_row(config_path, tmp_path, monkeypatch):
    entered = []
    monkeypatch.setattr(envelope, "bound_reports", lambda *args: entered.append(args))
    out = tmp_path / "missing" / "curve.csv"
    result = CliRunner().invoke(main, [
        "curve", "--config", config_path, "--ms", "1", "--mp-range", "0:3:1/2", "--out", str(out),
    ])
    _assert_rejected(result)
    assert "cannot write" in result.output
    assert entered == [] and not out.exists()


def test_curve_failing_part_way_leaves_the_rows_before_the_failure(config_path, tmp_path,
                                                                   monkeypatch):
    argv = ["curve", "--config", config_path, "--ms", "1", "--mp-range", "0:3:1/2", "--fractions"]
    clean = tmp_path / "clean.csv"
    assert CliRunner().invoke(main, [*argv, "--out", str(clean)]).exit_code == 0
    solve, calls = envelope.simplex_solve, []

    def tampered(lp):  # each dual one unit more on the third row, Mp = 1
        value, x, y = solve(lp)
        calls.append(lp)
        return value, x, [v + 1 for v in y] if len(calls) == 3 else y

    monkeypatch.setattr(envelope, "simplex_solve", tampered)
    out = tmp_path / "partial.csv"
    result = CliRunner().invoke(main, [*argv, "--out", str(out)])
    _assert_rejected(result, code=3)
    assert "(1, 1)" in result.output
    # the header and the rows at Mp = 0 and 1/2, as a clean sweep writes them
    assert out.read_bytes().splitlines() == clean.read_bytes().splitlines()[:3]


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
    "infinite Ms": {**GOOD, "Ms": float("inf")},
}


@pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_is_rejected(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    _assert_rejected(CliRunner().invoke(main, ["rate", "--config", str(path)]))


def test_verify_failure_exit_code(config_path, monkeypatch):
    # a real sweep over corrupted payloads: every XOR's last byte zeroed
    xor = simulator._xor
    monkeypatch.setattr(simulator, "_xor", lambda a, b: xor(a, b) & ~0xFF)
    result = _stderr_runner().invoke(main, ["verify", "--config", config_path, "--trials", "2"])
    assert result.exit_code == 3
    assert result.stdout == "unknown: 0/2 trials decoded, worst rate 13/12\n"
    assert result.stderr.startswith("first failure: trial 0: user ")
    assert len(result.stderr.splitlines()) == 1, result.stderr


@pytest.mark.parametrize("flag, expected", [([], 3), (["--seed", "0"], 0), (["--seed", "5"], 5)])
def test_verify_seed_flag_overrides_config(config_path, monkeypatch, flag, expected):
    seeds = []
    sweep = simulator.adversarial_sweep

    def spy(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(simulator, "adversarial_sweep", spy)
    result = CliRunner().invoke(main, ["verify", "--config", config_path, "--trials", "1", *flag])
    assert result.exit_code == 0
    assert seeds == [expected]


@pytest.mark.parametrize("i", [0, 1, 2], ids=["y_ms", "y_mp", "y_const"])
def test_failed_certificate_exits_3(config_path, tmp_path, monkeypatch, i):
    # at Ms = Mp = 1 every rhs entry is 1, so a unit more on any dual moves y.rhs
    solve = envelope.simplex_solve

    def tampered(lp):
        value, x, y = solve(lp)
        return value, x, [v + 1 if r == i else v for r, v in enumerate(y)]

    monkeypatch.setattr(envelope, "simplex_solve", tampered)
    out = str(tmp_path / "curve.csv")
    for argv in (["rate", "--scheme", "scheme2"], ["bounds"],
                 ["curve", "--ms", "1", "--mp-range", "0:1:1", "--out", out],
                 ["verify", "--scheme", "scheme2"]):
        result = CliRunner().invoke(main, [*argv, "--config", config_path])
        _assert_rejected(result, code=3)
        assert "certificate" in result.output


def _extra_weight(x):
    """Half a unit more on the first corner of the support: the weights sum to 3/2."""
    j = next(j for j, w in enumerate(x) if w > 0)
    return [w + Fraction(1, 2) if i == j else w for i, w in enumerate(x)]


def _moved_weight(x):
    """The first support corner's weight moved to the first corner outside the
    support: the weights still sum to 1, but the memories average elsewhere."""
    j = next(j for j, w in enumerate(x) if w > 0)
    k = next(k for k, w in enumerate(x) if w == 0)
    return [x[j] if i == k else 0 if i == j else w for i, w in enumerate(x)]


@pytest.mark.parametrize("tamper", [_extra_weight, _moved_weight])
def test_failed_primal_certificate_exits_3(config_path, tmp_path, monkeypatch, tamper):
    solve = envelope.simplex_solve

    def tampered(lp):
        value, x, duals = solve(lp)
        return value, tamper(x), duals

    monkeypatch.setattr(envelope, "simplex_solve", tampered)
    out = str(tmp_path / "curve.csv")
    for argv in (["rate", "--scheme", "scheme2"], ["bounds"],
                 ["curve", "--ms", "1", "--mp-range", "0:1:1", "--out", out],
                 ["verify", "--scheme", "scheme2"]):
        result = CliRunner().invoke(main, [*argv, "--config", config_path])
        _assert_rejected(result, code=3)
        assert "certificate" in result.output


def test_bounds_output(config_path, tmp_path):
    result = CliRunner().invoke(main, ["bounds", "--config", config_path, "--fractions"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "cutset: 1/2 (u = 1)",
        "dedicated lower: 2/3",
        "shared upper: 3/2",
        "unknown: 13/12",
        "scheme1: -",
        "scheme2: 11/12",
        "scheme1_meets_man: False",
        "unknown_meets_pue: False",
        "high_memory_optimal: False",
    ]

    # the high-memory region: Ms >= N(1 - 1/Lambda), Mp >= N(1 - 1/L1)
    path = tmp_path / "high.json"
    path.write_text(json.dumps({"N": 2, "K": 2, "Lambda": 2, "Ms": "3/2", "Mp": "1/4",
                                "association": [[1], [2]]}))
    result = CliRunner().invoke(main, ["bounds", "--config", str(path), "--fractions"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "cutset: 1/8 (u = 1)",
        "dedicated lower: 1/8",
        "shared upper: 1/8",
        "unknown: 1/8",
        "scheme1: -",
        "scheme2: 1/8",
        "scheme1_meets_man: False",
        "unknown_meets_pue: True",
        "high_memory_optimal: True",
    ]


def test_converse_output(config_path, monkeypatch):
    result = CliRunner().invoke(main, ["converse", "--config", config_path])
    assert result.exit_code == 0
    assert "alpha_lower = 13/12" in result.output
    assert "tight = True" in result.output
    # a rate one above the true 13/12 leaves the acyclic set's bound short of it
    rate = converse.rate_unknown_general
    monkeypatch.setattr(converse, "rate_unknown_general", lambda *a: rate(*a) + 1)
    result = CliRunner().invoke(main, ["converse", "--config", config_path])
    assert result.exit_code == 3
    assert result.output.splitlines() == [
        "|H1| = 3, |H2| = 4", "alpha_lower = 13/12", "kappa_upper = 25/12",
        "acyclic = True, tight = False"]


def test_zero_memory_point(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({**GOOD, "Ms": 0, "Mp": 0}))
    result = CliRunner().invoke(main, ["rate", "--config", str(path), "--fractions"])
    assert result.exit_code == 0
    assert result.output == "unknown: 4 (formula)\n"
    # with no cache memory every wanted file is in H whole, and sending all K is optimal
    result = CliRunner().invoke(main, ["converse", "--config", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output == ("|H1| = 0, |H2| = 4\nalpha_lower = 4\nkappa_upper = 4\n"
                             "acyclic = True, tight = True\n")


HUGE = {"N": 2**63, "K": 4, "Lambda": 2, "association": [[1, 2, 3], [4]]}


def test_verify_point_too_fine_to_simulate(tmp_path):
    # the segment weights need a file longer than the simulator's cap, at fine
    # memories and at N = 2**63 files, whose file length is 2**63 at Ms = Mp = 1
    path = tmp_path / "fine.json"
    for payload in ({**GOOD, "Ms": "1/997", "Mp": "1/991"}, {**HUGE, "Ms": 1, "Mp": 1}):
        path.write_text(json.dumps(payload))
        result = CliRunner().invoke(main, ["verify", "--config", str(path), "--trials", "1"])
        _assert_rejected(result, code=2)
        assert "exceeds the cap" in result.output


def test_verify_past_the_largest_range(tmp_path):
    # N = 2**63 is past the largest range Python can take the len of, so a sweep
    # draws its demands without one; with no cache memory every trial decodes
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**HUGE, "Ms": 0, "Mp": 0}))
    result = CliRunner().invoke(main, ["verify", "--config", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output == "unknown: 10/10 trials decoded, worst rate 4\n"


def _stderr_runner() -> CliRunner:
    """A runner that keeps stderr apart (click < 8.2 needs mix_stderr=False)."""
    try:
        return CliRunner(mix_stderr=False)
    except TypeError:
        return CliRunner()


def _mostly(draw, valid, malformed):
    """valid three times in four, else one of the malformed values."""
    return draw(st.sampled_from(malformed)) if draw(st.integers(0, 3)) == 3 else valid


@st.composite
def _configs(draw):
    k = draw(st.integers(1, 5))
    n = _mostly(draw, draw(st.integers(k, 5)), [k - 1, 0, 2.5, "5", True])
    lam = draw(st.integers(1, k))
    cache_of = draw(st.lists(st.integers(0, lam - 1), min_size=k, max_size=k))
    groups = [[u for u, h in enumerate(cache_of, start=1) if h == g] for g in range(lam)]
    flat = [u for group in groups for u in group]
    association = _mostly(draw, groups, [
        groups[:-1], [flat], flat, [groups], "1", [[str(u) for u in flat]],
        [*groups[:-1], groups[-1] + [k + 1]], [*groups[:-1], groups[-1] + [flat[0]]],
    ])
    memory = st.one_of(
        st.integers(0, 3),
        st.builds(lambda a, b: f"{a}/{b}", st.integers(0, 12), st.integers(1, 4)),
        st.sampled_from([0.5, 1.25, 2.0, 0.1]),
    )
    invalid = [-1, -2.5, "-1/2", 99, "abc", "", "1/0", True, None, [1]]
    payload = {"N": n, "K": k, "Lambda": lam, "Ms": _mostly(draw, draw(memory), invalid),
               "Mp": _mostly(draw, draw(memory), invalid), "association": association}
    if draw(st.booleans()):
        demand = list(draw(st.permutations(range(1, max(n, k) + 1 if type(n) is int else k + 1))))
        payload["demand"] = _mostly(draw, demand[:k], [
            demand[:k - 1], demand[:1] * k, [0] * k, [str(d) for d in demand[:k]],
            [float(d) for d in demand[:k]], 4, [[1]],
        ])
    if draw(st.booleans()):
        payload["seed"] = _mostly(draw, draw(st.integers(0, 9)), ["1", 1.5, -1])
    return payload


_COMMANDS = [["rate", "--scheme", "all"], ["bounds"], ["converse"], ["verify", "--trials", "1"]]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_configs(), command=st.sampled_from(_COMMANDS))
def test_cli_survives_fuzzed_configs(tmp_path, payload, command):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(payload))
    result = _stderr_runner().invoke(main, [*command, "--config", str(path)])
    assert result.exit_code in (0, 1, 2, 3), (payload, command, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        payload, command, result.exception)
    if result.exit_code != 0:
        assert len(result.stderr.strip().splitlines()) == 1, (payload, command, result.stderr)


@pytest.mark.parametrize("argv", [
    ["rate", "--config", "MISSING"],
    ["rate"],
    ["rate", "--config", "CONFIG", "--scheme", "bogus"],
    ["verify", "--config", "CONFIG", "--trials", "x"],
    ["bogus"],
    ["--bogus"],
], ids=["missing config file", "no config", "unknown scheme", "non-integer trials",
        "unknown command", "unknown top-level option"])
def test_usage_errors_exit_1_with_one_line(config_path, tmp_path, argv):
    paths = {"CONFIG": config_path, "MISSING": str(tmp_path / "missing.json")}
    result = _stderr_runner().invoke(main, [paths.get(arg, arg) for arg in argv])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1, (
        result.stderr)
    assert "Traceback" not in result.stderr


def test_no_arguments_prints_the_command_list():
    result = _stderr_runner().invoke(main, [])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    assert "Commands:" in result.stdout
    assert all(name in result.stdout for name in main.commands)


def test_converse_names_the_fractional_parameter(tmp_path):
    # the converse has no memory-sharing path, so the message gives no such advice
    path = tmp_path / "frac.json"
    path.write_text(json.dumps({"N": 5, "K": 4, "Lambda": 4, "Ms": "5/4", "Mp": "1/3",
                                "association": [[1], [2], [3], [4]]}))
    result = _stderr_runner().invoke(main, ["converse", "--config", str(path)])
    assert result.exit_code == 2
    assert result.stderr == "infeasible: t_s = 19/15 is not an integer\n"


# one point per association-known scheme whose split has 252 pieces per file:
# scheme1's user split at t = 5 has C(10, 5), and scheme2's helper split at
# (t_s, t_p) = (5, 0) over singleton groups has C(10, 5) * C(1, 0)
_CAP_POINTS = {
    "scheme1": {"N": 10, "K": 10, "Lambda": 2, "Ms": 0, "Mp": 5,
                "association": [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]},
    "scheme2": {"N": 10, "K": 10, "Lambda": 10, "Ms": 5, "Mp": 0,
                "association": [[user] for user in range(1, 11)]},
}
_CAP_LABELS = {"scheme1": "C(10, 5) = 252", "scheme2": "C(10, 5) * C(1, 0) = 252"}


def _spy_on_listings(monkeypatch) -> list:
    """The length of every combinations() listing the package makes from now on."""
    listed = []

    def spy(real):
        def listing(*args):
            items = list(real(*args))
            listed.append(len(items))
            return iter(items)
        return listing

    monkeypatch.setattr(combin, "combinations", spy(combin.combinations))
    return listed


def test_points_past_the_cap_fail_before_listing_pieces(tmp_path, monkeypatch):
    # N=K=10, Λ=2, Ms=0, Mp=5: the user split has C(10, 5) = 252 pieces per
    # file, past a cap of 100; verify and converse exit 2 before any key or H
    # set is listed, and rate, bounds and curve, which list none, still print
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(_CAP_POINTS["scheme1"]))
    monkeypatch.setattr(model, "FILE_LEN_CAP", 100)
    listed = _spy_on_listings(monkeypatch)
    for command in ("verify", "converse"):
        result = CliRunner().invoke(main, [command, "--config", str(path)])
        _assert_rejected(result, code=2)
        assert "C(10, 5) = 252 pieces per file exceed the file length cap 100" in result.output
    assert max(listed, default=0) <= 100
    out = tmp_path / "curve.csv"
    for command in (["rate", "--scheme", "unknown", "--fractions"], ["bounds"],
                    ["curve", "--ms", "0", "--mp-range", "5:5:1", "--out", str(out)]):
        result = CliRunner().invoke(main, [*command, "--config", str(path)])
        assert result.exit_code == 0, result.output
    assert result.output == f"wrote 1 rows to {out}\n"


@pytest.mark.parametrize("scheme", sorted(_CAP_POINTS))
def test_every_scheme_checks_its_pieces_before_listing(tmp_path, monkeypatch, scheme):
    path = tmp_path / f"{scheme}.json"
    path.write_text(json.dumps(_CAP_POINTS[scheme]))
    monkeypatch.setattr(model, "FILE_LEN_CAP", 100)
    listed = _spy_on_listings(monkeypatch)
    result = _stderr_runner().invoke(main, ["verify", "--scheme", scheme, "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.stderr == (f"infeasible: {_CAP_LABELS[scheme]} pieces per file exceed the "
                             "file length cap 100; pick a coarser grid point\n")
    assert max(listed, default=0) <= 100
    result = CliRunner().invoke(main, ["rate", "--scheme", scheme, "--fractions",
                                       "--config", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output == f"{scheme}: 5/6 (formula)\n"


@pytest.mark.parametrize("scheme", sorted(_CAP_POINTS))
def test_the_piece_gate_is_tight_at_the_cap(tmp_path, monkeypatch, scheme):
    # 252 pieces fit a cap of 252 bytes, one byte each, and not a cap of 251
    path = tmp_path / f"{scheme}.json"
    path.write_text(json.dumps(_CAP_POINTS[scheme]))
    command = ["verify", "--scheme", scheme, "--trials", "1", "--config", str(path)]
    monkeypatch.setattr(model, "FILE_LEN_CAP", 252)
    result = CliRunner().invoke(main, command)
    assert result.exit_code == 0, result.output
    assert result.output == f"{scheme}: 1/1 trials decoded, worst rate 5/6\n"
    monkeypatch.setattr(model, "FILE_LEN_CAP", 251)
    result = CliRunner().invoke(main, command)
    _assert_rejected(result, code=2)
    assert "pieces per file exceed the file length cap 251" in result.output
