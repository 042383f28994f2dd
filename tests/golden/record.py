"""Record the library's outputs on the test_scheme_rate networks into outputs.jsonl.

    PYTHONPATH=src python3 tests/golden/record.py

Over each network's half-step (Ms, Mp) grid it records every scheme_rate value
and label, every bound_report field and the scheme2 envelope_at solution
(value, weighted corners, duals, support), and per network the curve CSV at
Ms = 1, Mp from 0 to N - 1 in quarter steps, one JSON record a line.  Then,
at every grid point where the oblivious scheme has a direct run, the
converse certificate (|H1|, |H2|, alpha, kappa, acyclic, tight) for demand
1..K and for its reverse.  Then, at every grid point, each scheme's mixture
(every corner's Ms, Mp, rate, tag and params, with its weight, or null), and
last every DecodeReport field of a few runs on N=K=4, Lambda=2, [[1, 2, 3], [4]]
for demand 1..4 and seeds 0 and 1, and of three runs on N=K=12, Lambda=4 with
contiguous groups for demand 1..12 and seed 0.
tests/test_golden.py recomputes all of it through `outputs`; re-record only
when an output is meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUTPUTS = HERE / "outputs.jsonl"
sys.path.insert(0, str(HERE.parent))  # test_scheme_rate, when run as a script

from dualcache import cli, converse, envelope  # noqa: E402
from dualcache.model import InfeasibleSchemeError, NetworkConfig, build_association  # noqa: E402
from dualcache.scheme_unknown import unknown_params  # noqa: E402
from dualcache.simulator import run_end_to_end  # noqa: E402
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


def _mixture(name, config, assoc):
    mixture = envelope.scheme_mixture(name, config, assoc)
    return None if mixture is None else [[_corner(c), _text(w)] for c, w in mixture]


# (scheme, Ms, Mp) of the recorded decode runs: the oblivious scheme as one direct
# run, as four corners, with only its private share and with only its helper share;
# scheme1 at two helper quotas; scheme2 as the zero-helper corner plus a grid corner
DECODE_NETWORK = [4, 2, [[1, 2, 3], [4]]]
DECODE_RUNS = [("unknown", "1", "1"), ("unknown", "1/2", "1"), ("unknown", "0", "1/2"),
               ("unknown", "1", "0"), ("scheme1", "1/2", "5/2"), ("scheme2", "1/2", "0")]
# (group sizes, scheme, Ms, Mp) of the N=K=12, Lambda=4 runs at seed 0, thousands of
# pieces per file: the oblivious four-corner mixture and the scheme2 envelope over
# [6, 3, 2, 1], and scheme1 at its helper cap over [3, 3, 3, 3]
DECODE_K12 = [((6, 3, 2, 1), "unknown", "3/2", "5/2"), ((6, 3, 2, 1), "scheme2", "3/2", "5/2"),
              ((3, 3, 3, 3), "scheme1", "12/11", "54/11")]


def _contiguous(sizes) -> list[list[int]]:
    """Groups of these sizes over users 1..K in order."""
    ends = accumulate(sizes)
    return [list(range(end - size + 1, end + 1)) for size, end in zip(sizes, ends)]


def _decode_report(network, name, ms, mp, seed) -> dict:
    n, lam, partition = network
    config = NetworkConfig(n, n, lam, Fraction(ms), Fraction(mp))
    report = run_end_to_end(config, build_association(config, partition), range(1, n + 1),
                            scheme=name, seed=seed)
    return {field: _text(value) for field, value in vars(report).items()}


def _grid(n: int, lam: int):
    """The half-step (Ms, Mp) configs in grid order."""
    for ms2 in range(2 * n + 1):
        for mp2 in range(2 * n - ms2 + 1):
            yield NetworkConfig(n, n, lam, Fraction(ms2, 2), Fraction(mp2, 2))


def outputs(workdir: Path) -> list[dict]:
    """Per network, one record per grid point in grid order, then its curve CSV;
    after every network, one certificate record per direct oblivious run, then
    one mixture record per grid point, then the decode reports."""
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
    for n, lam, partition in NETWORKS:
        for config in _grid(n, lam):
            assoc = build_association(config, partition)
            recorded.append({"network": [n, lam, partition],
                             "mixture_at": [str(config.helper_mem), str(config.private_mem)],
                             "mixtures": {name: _mixture(name, config, assoc)
                                          for name in envelope.SCHEMES}})
    for name, ms, mp in DECODE_RUNS:
        for seed in (0, 1):
            recorded.append({"network": DECODE_NETWORK, "decode_at": [name, ms, mp, seed],
                             "report": _decode_report(DECODE_NETWORK, name, ms, mp, seed)})
    for sizes, name, ms, mp in DECODE_K12:
        network = [12, 4, _contiguous(sizes)]
        recorded.append({"network": network, "decode_at": [name, ms, mp, 0],
                         "report": _decode_report(network, name, ms, mp, 0)})
    return recorded


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        OUTPUTS.write_text("".join(json.dumps(r) + "\n" for r in outputs(Path(tmp))))
