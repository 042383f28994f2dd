"""The scheme registry, envelope.SCHEMES, is the only code that maps a scheme
name to its functions: no `src/` module compares a name with a scheme's
string, the simulator imports no scheme module, and a registered scheme's
placement and delivery are looked up by module name at each call."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

from dualcache import envelope, scheme1, scheme2, scheme_unknown, simulator
from dualcache.envelope import SCHEMES, scheme_mixture, scheme_rate, scheme_run
from dualcache.simulator import run_end_to_end

SRC = Path(__file__).resolve().parent.parent / "src" / "dualcache"
NAMES = {"unknown", "scheme1", "scheme2"}
MODULES = {"scheme1", "scheme2", "scheme_unknown"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_no_scheme_name_is_compared_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                operands = [node.left, *node.comparators]
                if any(isinstance(v, ast.Constant) and v.value in NAMES for v in operands):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_segment_types_live_with_the_registry():
    # the simulator runs the very classes envelope builds, not copies of them
    assert simulator.Segment is envelope.Segment
    assert simulator.SegmentedRun is envelope.SegmentedRun
    assert envelope.Segment.__module__ == "dualcache.envelope"


def test_simulator_imports_no_scheme_module():
    imported = set()
    for node in ast.walk(_tree(SRC / "simulator.py")):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert imported & MODULES == set()


def test_registry_calls_place_and_deliver_by_name(monkeypatch, net_4users, net_6users_deep,
                                                  net_6users_two_level):
    # every dualcache.* attribute holding a place_* or deliver_* function gets a
    # counting wrapper, as a tracer rebinds them; a registry that kept the
    # function objects would never call the wrappers
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    functions = {
        "unknown": (scheme_unknown, "place_unknown", "deliver_unknown"),
        "scheme1": (scheme1, "place_scheme1", "deliver_scheme1"),
        "scheme2": (scheme2, "place_scheme2", "deliver_scheme2"),
    }
    modules = [m for name, m in sys.modules.items() if name.startswith("dualcache.")]
    for module, *names in functions.values():
        for name in names:
            original, wrapper = getattr(module, name), counting(name, getattr(module, name))
            for owner in modules:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        monkeypatch.setattr(owner, attr, wrapper)
    networks = {"unknown": net_4users, "scheme1": net_6users_deep,
                "scheme2": net_6users_two_level}
    assert set(networks) == set(SCHEMES)
    for name, (config, assoc) in networks.items():
        assert scheme_rate(name, config, assoc)[1] == "formula"  # one direct run
        calls.clear()
        report = run_end_to_end(config, assoc, range(1, config.num_users + 1), scheme=name)
        assert report.ok, report.failure
        _, place, deliver = functions[name]
        assert calls == {place: 1, deliver: 1}, name


def test_an_unregistered_name_is_a_value_error(net_4users):
    config, assoc = net_4users
    for call in (scheme_mixture, scheme_run):
        with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
            call("bogus", config, assoc)
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        run_end_to_end(config, assoc, (1, 2, 3, 4), scheme="bogus")
