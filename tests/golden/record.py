"""Record the library's outputs on the test_scheme_rate networks into outputs.jsonl.

    PYTHONPATH=src python3 tests/golden/record.py

Over each network's half-step (Ms, Mp) grid it records every scheme_rate value
and label, every bound_report field and the scheme2 envelope_at solution
(value, weighted corners, duals, support), and per network the curve CSV at
Ms = 1, Mp from 0 to N - 1 in quarter steps, one JSON record a line.  Then,
at every grid point where the oblivious scheme has a direct run, the
converse certificate (|H1|, |H2|, alpha, kappa, acyclic, tight) for demand
1..K and for its reverse.
tests/test_golden.py recomputes all of it through `outputs`; re-record only
when an output is meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUTPUTS = HERE / "outputs.jsonl"
sys.path.insert(0, str(HERE.parent))  # test_scheme_rate, when run as a script

from dualcache import cli, converse, envelope  # noqa: E402
from dualcache.model import InfeasibleSchemeError, NetworkConfig, build_association  # noqa: E402
from dualcache.scheme_unknown import unknown_params  # noqa: E402
from test_scheme_rate import NETWORKS  # noqa: E402


def _text(value):
    """Fractions as "a/b", tuples as lists, None, bools and ints as they are."""
    if isinstance(value, (tuple, list)):
        return [_text(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _corner(corner):
    return _text((corner.helper_mem, corner.private_mem, corner.rate, corner.scheme_tag, corner.params))


def _point(network, config, assoc) -> dict:
    rates = {name: _text(envelope.scheme_rate(name, config, assoc)) for name in envelope.SCHEMES}
    report = envelope.bound_report(config, assoc)
    sol = envelope.envelope_at(envelope.scheme2_corners(config, assoc),
                               config.helper_mem, config.private_mem)
    return {
        "network": network,
        "ms": str(config.helper_mem),
        "mp": str(config.private_mem),
        "scheme_rate": rates,
        "bound_report": {
            "cutset": _text(report.cutset),
            "cutset_u": report.cutset_u,
            "man_lower": _text(report.man_lower),
            "pue_upper": _text(report.pue_upper),
            "scheme_rates": {k: _text(v) for k, v in report.scheme_rates.items()},
            "optimality_flags": report.optimality_flags,
        },
        "envelope_at": None if sol is None else {
            "value": _text(sol.achieved_rate),
            "weights": [[_corner(c), _text(w)] for c, w in sol.weights],
            "duals": _text(sol.duals),
            "support": list(sol.support),
        },
    }


def _curve_csv(n: int, lam: int, partition, workdir: Path) -> str:
    """The `curve --fractions` CSV at Ms = 1, Mp = 0 .. N - 1 in quarter steps."""
    config_path, out = workdir / "net.json", workdir / "curve.csv"
    config_path.write_text(json.dumps({"N": n, "K": n, "Lambda": lam, "Ms": 1, "Mp": 0,
                                       "association": partition}))
    cli.curve.callback(str(config_path), "1", f"0:{n - 1}:1/4", str(out), True)
    return out.read_bytes().decode()


def _certificate(config, assoc, demand) -> dict:
    cert = converse.certify(config, assoc, demand)
    return {"h1": len(cert.h1), "h2": len(cert.h2), "alpha": str(cert.alpha_lower),
            "kappa": str(cert.kappa_upper), "acyclic": cert.acyclic, "tight": cert.tight}


def _grid(n: int, lam: int):
    """The half-step (Ms, Mp) configs in grid order."""
    for ms2 in range(2 * n + 1):
        for mp2 in range(2 * n - ms2 + 1):
            yield NetworkConfig(n, n, lam, Fraction(ms2, 2), Fraction(mp2, 2))


def outputs(workdir: Path) -> list[dict]:
    """Per network, one record per grid point in grid order, then its curve CSV;
    after every network, one certificate record per direct oblivious run."""
    recorded = []
    for n, lam, partition in NETWORKS:
        network = [n, lam, partition]
        for config in _grid(n, lam):
            recorded.append(_point(network, config, build_association(config, partition)))
        recorded.append({"network": network, "curve_csv": _curve_csv(n, lam, partition, workdir)})
    for n, lam, partition in NETWORKS:
        for config in _grid(n, lam):
            try:
                unknown_params(config)
            except InfeasibleSchemeError:
                continue
            assoc = build_association(config, partition)
            recorded.append({"network": [n, lam, partition],
                             "certify_at": [str(config.helper_mem), str(config.private_mem)],
                             "forward": _certificate(config, assoc, range(1, n + 1)),
                             "reverse": _certificate(config, assoc, range(n, 0, -1))})
    return recorded


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        OUTPUTS.write_text("".join(json.dumps(r) + "\n" for r in outputs(Path(tmp))))
