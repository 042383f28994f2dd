"""Workload cases for the dualcache benchmark: what each case runs, how its
inputs are made from the workload seed, and how its outputs are checked.

The benchmark treats dualcache as a black box.  Every call below goes
through a module attribute (``simulator.run_end_to_end``, not a name bound
at import), so the traced run can swap in span recorders by rebinding
module attributes.

The seed selects the demand vector, the file bytes and a relabelling of
the users and helpers.  None of these changes a case's cost or its
checked outputs: demands are always distinct, and every rate, count and
CSV depends only on the group-size profile.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from click.testing import CliRunner

from dualcache import cli, converse, envelope, scheme1, scheme2, scheme_unknown, simulator
from dualcache.model import (
    Association,
    InfeasibleSchemeError,
    NetworkConfig,
    build_association,
    load_config,
)

MiB = 1 << 20


@dataclass(frozen=True)
class Case:
    """One call into dualcache at a fixed network size.

    kind is "sim" (run_end_to_end), "certify" (converse.certify) or
    "curve" (the ``dualcache curve`` command, in process).  For sim cases
    scheme is "unknown", "scheme1", "scheme2" or "mix" (a scheme2
    envelope_at solution materialized into segments).
    """

    name: str
    kind: str
    n: int
    k: int
    lam: int
    ms: Fraction
    mp: Fraction
    sizes: tuple[int, ...]          # helper group sizes
    scheme: str = ""
    min_len: int = 1
    mp_range: str = ""              # curve only: A:B:STEP

    def params(self) -> dict:
        out = {"N": self.n, "K": self.k, "Lambda": self.lam,
               "Ms": str(self.ms), "Mp": str(self.mp), "groups": list(self.sizes)}
        if self.scheme:
            out["scheme"] = self.scheme
        if self.kind == "sim":
            out["min_len"] = self.min_len
        if self.mp_range:
            out["mp_range"] = self.mp_range
        return out


def _sim(name, n, k, lam, ms, mp, sizes, scheme, min_len=1):
    return Case(name, "sim", n, k, lam, Fraction(ms), Fraction(mp), tuple(sizes), scheme, min_len)


def _cert(name, n, k, lam, ms, mp, sizes):
    return Case(name, "certify", n, k, lam, Fraction(ms), Fraction(mp), tuple(sizes))


def _curve(name, n, k, lam, ms, sizes, mp_range):
    return Case(name, "curve", n, k, lam, Fraction(ms), Fraction(0), tuple(sizes),
                mp_range=mp_range)


SKEWED_20 = (10, 5, 3, 2)
UNIFORM_20 = (5, 5, 5, 5)

WORKLOADS: dict[str, tuple[Case, ...]] = {
    # High subpacketization at the smallest file_len: the cost is subfile-id
    # hashing, set-based placement and the decode fixpoint, not bytes.
    "sim_pieces": (
        _sim("unknown_k12", 12, 12, 4, 3, 3, (3, 3, 3, 3), "unknown"),
        _sim("unknown_k14", 14, 14, 7, 2, 2, (2,) * 7, "unknown"),
        _sim("unknown_k12_mixed", 12, 12, 4, Fraction(3, 2), Fraction(5, 2), (6, 3, 2, 1), "unknown"),
        _sim("scheme1_k12", 12, 12, 4, Fraction(12, 11), Fraction(54, 11), (3, 3, 3, 3), "scheme1"),
        _sim("scheme2_k32", 32, 32, 8, 16, 8, (4,) * 8, "scheme2"),
        _sim("scheme2_mix_k12", 12, 12, 4, Fraction(3, 2), Fraction(5, 2), (6, 3, 2, 1), "mix"),
    ),
    # At most 80 pieces per file, 4-8 MiB files: the cost is slicing and
    # big-int XOR, and memory follows file_len.
    "sim_bytes": (
        _sim("unknown_k8_4MiB", 8, 8, 4, 2, 2, (2, 2, 2, 2), "unknown", 4 * MiB),
        _sim("unknown_k4_8MiB", 4, 4, 2, 1, 1, (3, 1), "unknown", 8 * MiB),
        _sim("scheme2_k8_8MiB", 8, 8, 4, 4, 2, (2, 2, 2, 2), "scheme2", 8 * MiB),
        _sim("scheme2_mix_k8_4MiB", 8, 8, 4, 3, 3, (4, 2, 1, 1), "mix", 4 * MiB),
    ),
    # No bytes and no LP: build_h, place_unknown and the acyclicity check.
    "certify": (
        _cert("uniform_k12", 12, 12, 4, 3, 3, (3, 3, 3, 3)),
        _cert("skewed_k12", 12, 12, 4, 3, 3, (6, 3, 2, 1)),
        _cert("uniform_k14", 14, 14, 7, 2, 2, (2,) * 7),
        _cert("uniform_k16", 16, 16, 4, 2, 2, (4, 4, 4, 4)),
    ),
    # Exact-rational LP over scheme2 corners, hulls, reference curves and
    # CSV formatting, with no placement.
    "curve": tuple(
        _curve(f"{label}_k20_ms{ms}", 20, 20, 4, ms, sizes, f"0:{20 - ms}:1")
        for label, sizes in (("skewed", SKEWED_20), ("uniform", UNIFORM_20))
        for ms in (5, 10, 15)
    ) + (
        _curve("skewed_k30_ms7", 30, 30, 6, 7, (12, 7, 5, 3, 2, 1), "0:23:1/4"),
    ),
    # Every case kind and scheme path at K <= 6, for the harness self-check.
    "tiny": (
        _sim("unknown_k4", 4, 4, 2, 1, 1, (3, 1), "unknown"),
        _sim("unknown_k4_mixed", 4, 4, 3, Fraction(1, 2), Fraction(3, 2), (2, 1, 1), "unknown"),
        _sim("scheme1_k6", 6, 6, 3, Fraction(6, 5), Fraction(14, 5), (3, 2, 1), "scheme1"),
        _sim("scheme2_k6", 6, 6, 3, 2, Fraction(4, 3), (3, 2, 1), "scheme2"),
        _sim("scheme2_mix_k4", 4, 4, 2, 1, 1, (3, 1), "mix", 64),
        _cert("skewed_k4", 4, 4, 2, 1, 1, (3, 1)),
        _curve("skewed_k4_ms1", 4, 4, 2, 1, (3, 1), "0:3:1/2"),
    ),
}


@dataclass
class Input:
    """A case's generated inputs, ready for execution."""

    case: Case
    config: NetworkConfig
    assoc: Association
    demand: tuple[int, ...]
    file_seed: int
    config_json: str = ""           # curve only: the config file the CLI reads
    argv: list = field(default_factory=list)


def _partition(case: Case, rng: random.Random) -> list[list[int]]:
    """The case's group sizes over a random relabelling of users and helpers."""
    users = list(range(1, case.k + 1))
    rng.shuffle(users)
    groups, at = [], 0
    for size in case.sizes:
        groups.append(sorted(users[at:at + size]))
        at += size
    rng.shuffle(groups)
    return groups


def build_inputs(workload: str, seed: int) -> list[Input]:
    """Set-up: build every case's config and association from the seed.

    CLI cases go through load_config on the JSON text the command will read.
    """
    out = []
    for index, case in enumerate(WORKLOADS[workload]):
        rng = random.Random(f"{workload}/{index}/{seed}")
        partition = _partition(case, rng)
        demand = tuple(rng.sample(range(1, case.n + 1), case.k))
        file_seed = rng.randrange(2 ** 32)
        if case.kind == "curve":
            text = json.dumps({"N": case.n, "K": case.k, "Lambda": case.lam,
                               "Ms": str(case.ms), "Mp": 0, "association": partition})
            loaded = load_config(text)
            out.append(Input(case, loaded.config, loaded.association, demand, file_seed,
                             config_json=text))
        else:
            config = NetworkConfig(case.n, case.k, case.lam, case.ms, case.mp)
            out.append(Input(case, config, build_association(config, partition),
                             demand, file_seed))
    return out


def prepare_files(inputs: list[Input], workdir: Path, tag: str) -> None:
    """Write each CLI case's config file and set its command line."""
    for inp in inputs:
        if inp.case.kind != "curve":
            continue
        cfg = workdir / f"{inp.case.name}-{tag}.json"
        cfg.write_text(inp.config_json)
        inp.argv = ["curve", "--config", str(cfg), "--ms", str(inp.case.ms),
                    "--mp-range", inp.case.mp_range,
                    "--out", str(workdir / f"{inp.case.name}-{tag}.csv"), "--fractions"]


def _mixture(config: NetworkConfig, assoc: Association):
    """The scheme2 envelope at this point, materialized into segments."""
    sol = envelope.envelope_at(envelope.scheme2_corners(config, assoc),
                               config.helper_mem, config.private_mem)
    return envelope.materialize_shared_placement(sol, config, assoc)


def execute(inp: Input):
    """The timed call: one case, as a user of the package would make it."""
    case = inp.case
    if case.kind == "sim":
        scheme = _mixture(inp.config, inp.assoc) if case.scheme == "mix" else case.scheme
        return simulator.run_end_to_end(inp.config, inp.assoc, inp.demand, scheme=scheme,
                                        seed=inp.file_seed, min_len=case.min_len)
    if case.kind == "certify":
        return converse.certify(inp.config, inp.assoc, inp.demand)
    return CliRunner().invoke(cli.main, inp.argv)


def package_rate(inp: Input) -> Fraction:
    """The rate the package itself reports for a sim case's point."""
    config, assoc = inp.config, inp.assoc
    scheme = inp.case.scheme
    if scheme == "unknown":
        try:
            return scheme_unknown.rate_unknown(config, assoc.profile)
        except InfeasibleSchemeError:
            return scheme_unknown.rate_unknown_general(config, assoc.profile)
    if scheme == "scheme1":
        return scheme1.rate_scheme1(config)
    if scheme == "scheme2":
        return scheme2.rate_scheme2(config, assoc)
    return envelope.scheme2_envelope_rate(config, assoc)


def observe(inp: Input, output) -> dict:
    """The checked outputs of one execution, as JSON-ready values."""
    kind = inp.case.kind
    if kind == "sim":
        return {"ok": output.ok, "measured_rate": str(output.measured_rate),
                "file_len": output.file_len, "total_air_bytes": output.total_air_bytes}
    if kind == "certify":
        return {"h1": len(output.h1), "h2": len(output.h2),
                "alpha": str(output.alpha_lower), "kappa": str(output.kappa_upper),
                "acyclic": output.acyclic, "tight": output.tight}
    if output.exit_code != 0:
        return {"exit_code": output.exit_code, "output": output.output}
    csv_bytes = Path(inp.argv[inp.argv.index("--out") + 1]).read_bytes()
    return {"exit_code": 0, "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
            "rows": csv_bytes.count(b"\n") - 1}


ORACLE_KEYS = {
    "sim": ("measured_rate", "file_len", "total_air_bytes"),
    "certify": ("h1", "h2", "alpha", "kappa"),
    "curve": ("csv_sha256",),
}


def check(inp: Input, seen: dict, expected: Optional[dict]) -> list[str]:
    """Every way this execution differs from the recorded oracle."""
    if expected is None:
        return ["no oracle entry"]
    kind = inp.case.kind
    problems = []
    if kind == "sim":
        if not seen["ok"]:
            problems.append("decode report not ok")
        rate = package_rate(inp)
        if Fraction(seen["measured_rate"]) != rate:
            problems.append(f"measured rate {seen['measured_rate']} != package rate {rate}")
    elif kind == "certify":
        if not (seen["acyclic"] and seen["tight"]):
            problems.append(f"acyclic={seen['acyclic']} tight={seen['tight']}")
    elif seen["exit_code"] != 0:
        return [f"exit code {seen['exit_code']}: {seen['output'].strip()}"]
    for key in ORACLE_KEYS[kind]:
        if seen[key] != expected.get(key):
            problems.append(f"{key} {seen[key]!r} != oracle {expected.get(key)!r}")
    return problems


def row_counts(inp: Input, seen: dict) -> dict:
    """Pieces per file and transmissions of a case, for the run record.

    For sim cases this rebuilds the segments the simulator would use,
    outside any timed region.
    """
    case = inp.case
    if case.kind == "certify":
        return {"pieces": seen["h1"] + seen["h2"], "transmissions": None}
    if case.kind == "curve":
        return {"pieces": None, "transmissions": None, "rows": seen.get("rows")}
    config, assoc = inp.config, inp.assoc
    if case.scheme == "mix":
        segments = _mixture(config, assoc).segments
    elif case.scheme == "unknown":
        segments = envelope.unknown_run_segments(config, assoc).segments
    else:
        segments = (simulator.build_segment(case.scheme, config, assoc, Fraction(1)),)
    return {"pieces": sum(len(seg.extents) for seg in segments),
            "transmissions": sum(len(seg.transmissions(assoc, inp.demand)) for seg in segments)}
