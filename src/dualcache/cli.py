"""Command-line front end: rates, figure-style CSV curves, verification
runs, bound reports, and converse certificates.

Exit codes: 0 success, 1 validation error, 2 infeasible scheme,
3 verification or tightness failure.
"""

from __future__ import annotations

import csv
import sys
from fractions import Fraction
from typing import Optional

import click

from . import bounds as bounds_mod
from . import converse as converse_mod
from . import envelope as envelope_mod
from . import simulator as simulator_mod
from .model import ConfigError, InfeasibleSchemeError, load_config, parse_fraction
from .scheme1 import scheme1_feasible

EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_FAILURE = 3


def fmt(value: Fraction, fractions: bool) -> str:
    if fractions:
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    return f"{float(value):.12g}"


def _load(path: str):
    try:
        return load_config(path)
    except (ConfigError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)


@click.group()
def main() -> None:
    """Coded caching with shared helper caches and private user caches."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--scheme", type=click.Choice([*envelope_mod.SCHEMES, "all"]),
              default="unknown", show_default=True)
@click.option("--fractions", is_flag=True, help="Print exact a/b instead of decimals.")
def rate(config_path: str, scheme: str, fractions: bool) -> None:
    """Worst-case rate of a scheme at the configured memory point."""
    loaded = _load(config_path)
    schemes = envelope_mod.SCHEMES if scheme == "all" else [scheme]
    for name in schemes:
        value, provenance = envelope_mod.scheme_rate(name, loaded.config, loaded.association)
        if value is None:
            click.echo(f"{name}: infeasible ({provenance})", err=True)
            if scheme != "all":
                sys.exit(EXIT_INFEASIBLE)
            continue
        exact = f"{value.numerator}/{value.denominator}"
        click.echo(f"{name}: {exact} = {fmt(value, False)} ({provenance})"
                   if not fractions else f"{name}: {exact} ({provenance})")


def _parse_range(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be A:B:STEP, got {text!r}")
    start, stop, step = (parse_fraction(p) for p in parts)
    if step <= 0 or stop < start:
        raise ConfigError(f"bad sweep range {text!r}: need STEP > 0 and B >= A")
    return start, stop, step


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--ms", "ms_text", required=True, help="Fixed helper memory (fraction).")
@click.option("--mp-range", "mp_range", required=True, help="Private memory sweep A:B:STEP.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--fractions", is_flag=True)
def curve(config_path: str, ms_text: str, mp_range: str, out_path: str, fractions: bool) -> None:
    """Rate-memory CSV at fixed Ms, sweeping Mp: scheme and bound columns."""
    loaded = _load(config_path)
    base, assoc = loaded.config, loaded.association
    try:
        ms = parse_fraction(ms_text)
        start, stop, step = _parse_range(mp_range)
        if ms + stop > base.num_files:
            raise ConfigError(
                f"Ms + max Mp = {ms + stop} exceeds N = {base.num_files}"
            )
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)

    rows = []
    mp = start
    while mp <= stop:
        report = bounds_mod.bound_report(base.with_memories(ms, mp), assoc)
        rows.append((mp, *report.scheme_rates.values(),
                     report.man_lower, report.pue_upper, report.cutset))
        mp += step

    def cell(value: Optional[Fraction]) -> str:
        return "" if value is None else fmt(value, fractions)

    try:
        with open(out_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["Mp", *envelope_mod.SCHEMES, "man", "pue", "cutset"])
            for row in rows:
                writer.writerow([cell(v) for v in row])
    except OSError as exc:
        click.echo(f"error: cannot write {out_path}: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    click.echo(f"wrote {len(rows)} rows to {out_path}")


def _run_for(scheme: str, loaded):
    config, assoc = loaded.config, loaded.association
    if scheme == "unknown":
        return envelope_mod.unknown_run_segments(config, assoc)
    if scheme == "scheme1":
        report = scheme1_feasible(config, assoc)
        if not report.feasible:
            click.echo("scheme1 infeasible: " + "; ".join(report.reasons), err=True)
            sys.exit(EXIT_INFEASIBLE)
        return "scheme1"
    sol = envelope_mod.scheme2_envelope(config, assoc)
    if sol is None:
        click.echo("scheme2 infeasible at this memory point", err=True)
        sys.exit(EXIT_INFEASIBLE)
    return envelope_mod.materialize_shared_placement(sol, config, assoc)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--scheme", type=click.Choice(envelope_mod.SCHEMES),
              default="unknown", show_default=True)
@click.option("--trials", default=10, show_default=True)
@click.option("--seed", default=0, show_default=True)
def verify(config_path: str, scheme: str, trials: int, seed: int) -> None:
    """Bit-exact decode sweep over random distinct demands."""
    if trials < 1:
        click.echo(f"error: --trials must be at least 1, got {trials}", err=True)
        sys.exit(EXIT_VALIDATION)
    loaded = _load(config_path)
    run = _run_for(scheme, loaded)
    report = simulator_mod.adversarial_sweep(
        loaded.config, loaded.association, scheme=run, trials=trials,
        seed=seed if seed else loaded.seed,
    )
    click.echo(
        f"{scheme}: {report.trials - report.failures}/{report.trials} trials decoded, "
        f"worst rate {report.worst_rate}"
    )
    if not report.ok:
        click.echo(f"first failure: {report.first_failure}", err=True)
        sys.exit(EXIT_FAILURE)


@main.command("bounds")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--fractions", is_flag=True)
def bounds_cmd(config_path: str, fractions: bool) -> None:
    """Lower bounds, reference curves, and scheme rates at this point."""
    loaded = _load(config_path)
    report = bounds_mod.bound_report(loaded.config, loaded.association)
    click.echo(f"cutset: {fmt(report.cutset, fractions)} (u = {report.cutset_u})")
    click.echo(f"dedicated lower: {fmt(report.man_lower, fractions)}")
    click.echo(f"shared upper: {fmt(report.pue_upper, fractions)}")
    for name, value in report.scheme_rates.items():
        click.echo(f"{name}: {'-' if value is None else fmt(value, fractions)}")
    for flag, state in report.optimality_flags.items():
        click.echo(f"{flag}: {state}")


@main.command("converse")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def converse_cmd(config_path: str) -> None:
    """Index-coding optimality certificate for the association-oblivious scheme."""
    loaded = _load(config_path)
    demand = loaded.demand or tuple(range(1, loaded.config.num_users + 1))
    try:
        cert = converse_mod.certify(loaded.config, loaded.association, demand)
    except InfeasibleSchemeError as exc:
        click.echo(f"infeasible: {exc}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    click.echo(f"|H1| = {len(cert.h1)}, |H2| = {len(cert.h2)}")
    click.echo(f"alpha_lower = {cert.alpha_lower}")
    click.echo(f"kappa_upper = {cert.kappa_upper}")
    click.echo(f"acyclic = {cert.acyclic}, tight = {cert.tight}")
    if not (cert.acyclic and cert.tight):
        sys.exit(EXIT_FAILURE)


if __name__ == "__main__":
    main()
