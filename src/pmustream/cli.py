"""Command-line entry points for running and validating experiments."""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .errors import ConfigError, InvalidInputError, PmuStreamError, ProfileError
from .estimators import ALGORITHMS
from .metrics import TRE_FORMULAS
from .pipeline import (ExperimentConfig, evaluation_window, list_profiles, load_config,
                       run_experiment)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
INPUT_ERRORS = (ConfigError, ProfileError, InvalidInputError)  # exit 2


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main():
    """Adaptive reporting-rate experiments on synchrophasor streams."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="INI experiment file; CLI flags override its keys.")
@click.option("--profile", default=None, help="Profile CSV path or bundled profile name.")
@click.option("--algo", "algorithms", multiple=True,
              type=click.Choice(ALGORITHMS), help="Algorithm(s) to run.")
@click.option("--delta-tve", type=float, default=None, help="Phasor deviation threshold.")
@click.option("--delta-fe", type=float, default=None, help="Frequency threshold [Hz].")
@click.option("--delta-rfe", type=float, default=None, help="ROCOF threshold [Hz/s].")
@click.option("--fixed", default=None, help="Comma-separated fixed-rate divisors, e.g. 2,10.")
@click.option("--out", "output_dir", type=click.Path(), default=None, help="Output directory.")
@click.option("--tre-formula", type=click.Choice(TRE_FORMULAS), default=None)
@click.option("--emit-decisions", is_flag=True, default=False,
              help="Write the full per-frame decision log.")
@click.option("--emit-traces", is_flag=True, default=False,
              help="Write dense reconstructed-vs-reference traces.")
def run(config_path, profile, algorithms, delta_tve, delta_fe, delta_rfe,
        fixed, output_dir, tre_formula, emit_decisions, emit_traces):
    """Run one experiment and write tables, logs and plot data."""
    overrides = {
        "profile_path": profile,
        "algorithms": tuple(algorithms) or None,
        "output_dir": output_dir,
        "tre_formula": tre_formula,
        "emit_decisions": emit_decisions or None,
        "emit_traces": emit_traces or None,
        "delta_tve": delta_tve,
        "delta_fe": delta_fe,
        "delta_rfe": delta_rfe,
    }
    if fixed is not None:
        try:
            overrides["fixed_baselines"] = tuple(
                int(d) for d in fixed.split(",") if d.strip())
        except ValueError:
            _fail(f"--fixed expects comma-separated integers, got {fixed!r}", EXIT_CONFIG)
    try:
        config = load_config(config_path, **overrides)
    except INPUT_ERRORS as exc:
        _fail(str(exc), EXIT_CONFIG)

    try:
        reports = run_experiment(config)
    except INPUT_ERRORS as exc:
        _fail(str(exc), EXIT_CONFIG)
    except OSError as exc:
        _fail(f"cannot write artifacts to {config.output_dir}: {exc}", EXIT_CONFIG)
    except (PmuStreamError, ArithmeticError) as exc:
        _fail(f"numerical failure: {exc}", EXIT_NUMERICAL)

    table = Path(config.output_dir) / "table.txt"
    click.echo(table.read_text(encoding="utf-8").rstrip())
    click.echo(f"\nartifacts written to {config.output_dir}")
    for (algo, mode), report in reports.items():
        if mode == "adaptive":
            click.echo(f"{algo}: kept {report.kept_count}/{report.total_count} "
                       f"frames (compression ratio {report.compression_ratio:.2f})")


@main.command()
@click.option("--profile", required=True, help="Profile CSV path or bundled profile name.")
def validate(profile):
    """Check that a default run accepts a profile; report its span and reports."""
    config = ExperimentConfig(profile_path=profile)
    try:
        gt, n_first, n_last, _, _ = evaluation_window(config)
    except INPUT_ERRORS as exc:
        _fail(str(exc), EXIT_CONFIG)
    click.echo(f"{profile}: OK")
    click.echo("  common span: [{:g}, {:g}] s".format(*gt.domain))
    click.echo(f"  reports: {(n_last - n_first) // config.estimator_config.r + 1} per "
               f"algorithm, t = {n_first / gt.fs:g} to {n_last / gt.fs:g} s")


@main.command(name="list-profiles")
def list_profiles_cmd():
    """List the bundled event profiles."""
    for name in list_profiles():
        click.echo(name)


if __name__ == "__main__":
    main()
