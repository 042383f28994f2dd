"""Command-line front end: rates, figure-style CSV curves, verification
runs, bound reports, and converse certificates.

Exit codes: 0 success, 1 validation error, 2 infeasible scheme,
3 verification or tightness failure.  With no arguments it prints the
command list and exits 0.
"""

from __future__ import annotations

import csv
import sys
from fractions import Fraction
from typing import Optional

import click

from . import converse as converse_mod
from . import envelope as envelope_mod
from . import simulator as simulator_mod
from .model import CertificateError, ConfigError, InfeasibleSchemeError, load_config, parse_fraction

EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_FAILURE = 3


def fmt(value: Fraction, fractions: bool) -> str:
    return str(value) if fractions else f"{float(value):.12g}"


def _fail(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


class _Main(click.Group):
    """Turns the package's errors into a one-line message and an exit code."""

    def parse_args(self, ctx, args):
        if not args and not ctx.resilient_parsing:  # the command list, whatever click's version
            click.echo(ctx.get_help())
            ctx.exit()
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:  # an unknown option of the group itself
            _fail(EXIT_VALIDATION, f"error: {exc.format_message()}")

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            _fail(EXIT_VALIDATION, f"error: {exc}")
        except click.UsageError as exc:  # a bad or missing option, or no such command
            _fail(EXIT_VALIDATION, f"error: {exc.format_message()}")
        except InfeasibleSchemeError as exc:
            _fail(EXIT_INFEASIBLE, f"infeasible: {exc}")
        except CertificateError as exc:
            _fail(EXIT_FAILURE, f"certificate failure: {exc}")


@click.group(cls=_Main)
def main() -> None:
    """Coded caching with shared helper caches and private user caches."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--scheme", type=click.Choice([*envelope_mod.SCHEMES, "all"]),
              default="unknown", show_default=True)
@click.option("--fractions", is_flag=True, help="Print exact a/b instead of decimals.")
def rate(config_path: str, scheme: str, fractions: bool) -> None:
    """Worst-case rate of a scheme at the configured memory point."""
    loaded = load_config(config_path)
    schemes = envelope_mod.SCHEMES if scheme == "all" else [scheme]
    for name in schemes:
        value, provenance = envelope_mod.scheme_rate(name, loaded.config, loaded.association)
        if value is None:
            click.echo(f"{name}: infeasible ({provenance})", err=True)
            if scheme != "all":
                sys.exit(EXIT_INFEASIBLE)
            continue
        shown = fmt(value, True) if fractions else f"{fmt(value, True)} = {fmt(value, False)}"
        click.echo(f"{name}: {shown} ({provenance})")


def _parse_range(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be A:B:STEP, got {text!r}")
    start, stop, step = (parse_fraction(p) for p in parts)
    if step <= 0 or stop < start or (stop - start) % step:
        raise ConfigError(f"bad sweep range {text!r}: need STEP > 0 dividing B - A >= 0")
    return start, stop, step


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--ms", "ms_text", required=True, help="Fixed helper memory (fraction).")
@click.option("--mp-range", "mp_range", required=True, help="Private memory sweep A:B:STEP.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--fractions", is_flag=True)
def curve(config_path: str, ms_text: str, mp_range: str, out_path: str, fractions: bool) -> None:
    """Rate-memory CSV at fixed Ms, sweeping Mp: scheme and bound columns."""
    loaded = load_config(config_path)
    base, assoc = loaded.config, loaded.association
    ms = parse_fraction(ms_text)
    start, stop, step = _parse_range(mp_range)
    # both ends of the sweep must be valid memory pairs
    base.with_memories(ms, start)
    base.with_memories(ms, stop)

    mps = [start + i * step for i in range((stop - start) // step + 1)]

    def cell(value: Optional[Fraction]) -> str:
        return "" if value is None else fmt(value, fractions)

    # open --out before solving any row, so a path that cannot be written fails at once
    try:
        with open(out_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["Mp", *envelope_mod.SCHEMES, "man", "pue", "cutset"])
            reports = envelope_mod.bound_reports((base.with_memories(ms, mp) for mp in mps), assoc)
            for mp, report in zip(mps, reports):
                row = (mp, *(report.scheme_rates[name] for name in envelope_mod.SCHEMES),
                       report.man_lower, report.pue_upper, report.cutset)
                writer.writerow([cell(v) for v in row])
    except OSError as exc:
        _fail(EXIT_VALIDATION, f"error: cannot write {out_path}: {exc}")
    click.echo(f"wrote {len(mps)} rows to {out_path}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--scheme", type=click.Choice(envelope_mod.SCHEMES),
              default="unknown", show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--seed", type=int, show_default="the config's seed")
def verify(config_path: str, scheme: str, trials: int, seed: Optional[int]) -> None:
    """Bit-exact decode sweep over random distinct demands, run on the mixture `rate` prints."""
    loaded = load_config(config_path)
    report = simulator_mod.adversarial_sweep(
        loaded.config, loaded.association, scheme=scheme, trials=trials,
        seed=loaded.seed if seed is None else seed,
    )
    click.echo(
        f"{scheme}: {report.trials - report.failures}/{report.trials} trials decoded, "
        f"worst rate {report.worst_rate}"
    )
    if not report.ok:
        _fail(EXIT_FAILURE, f"first failure: {report.first_failure}")


@main.command("bounds")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--fractions", is_flag=True)
def bounds_cmd(config_path: str, fractions: bool) -> None:
    """Lower bounds, reference curves, and scheme rates at this point."""
    loaded = load_config(config_path)
    report = envelope_mod.bound_report(loaded.config, loaded.association)
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
    loaded = load_config(config_path)
    demand = loaded.demand or tuple(range(1, loaded.config.num_users + 1))
    cert = converse_mod.certify(loaded.config, loaded.association, demand)
    click.echo(f"|H1| = {len(cert.h1)}, |H2| = {len(cert.h2)}")
    click.echo(f"alpha_lower = {cert.alpha_lower}")
    click.echo(f"kappa_upper = {cert.kappa_upper}")
    click.echo(f"acyclic = {cert.acyclic}, tight = {cert.tight}")
    if not (cert.acyclic and cert.tight):
        sys.exit(EXIT_FAILURE)


if __name__ == "__main__":
    main()
