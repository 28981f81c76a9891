"""Command-line front end. All state flows through the config file and
flags; environment variables are never consulted. On failure, commands
print a machine-readable error JSON to stderr and exit nonzero.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import replace

import click

from .config import ExperimentConfig, load_config
from . import harness


def _resolve_config(config_path, seed, out) -> ExperimentConfig:
    cfg = load_config(config_path) if config_path else ExperimentConfig()
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out is not None:
        cfg = replace(cfg, out_dir=str(out))
    return cfg


def _fail(exc: BaseException) -> None:
    error = {"error": str(exc), "type": type(exc).__name__}
    click.echo(json.dumps(error), err=True)
    sys.exit(1)


config_option = click.option("--config", "config_path", type=click.Path(exists=True),
                             default=None, help="Experiment config JSON.")
seed_option = click.option("--seed", type=int, default=None, help="Master seed override.")
out_option = click.option("--out", type=click.Path(), default=None, help="Output directory override.")
threads_option = click.option("--threads", type=int, default=1, show_default=True,
                              help="Worker processes for the sweep's lockstep groups.")


def stage_command(body):
    """Give a command ``--config/--seed/--out``: the command's body gets
    the config they resolve as its first argument, and any error it
    raises becomes the error JSON and exit code 1."""
    @functools.wraps(body)
    def command(config_path, seed, out, **params):
        try:
            body(_resolve_config(config_path, seed, out), **params)
        except Exception as exc:
            _fail(exc)
    return config_option(seed_option(out_option(command)))


@click.group()
def main():
    """Group-action consistency toolkit for planar world models."""


@main.command("gen-data")
@stage_command
def gen_data(cfg):
    """Generate a synthetic trajectory dataset."""
    click.echo(f"dataset written to {harness.cmd_gen_data(cfg)}")


@main.command()
@stage_command
def train(cfg):
    """Train the latent dynamics model."""
    click.echo(f"checkpoint written to {harness.cmd_train(cfg)}")


@main.command()
@click.argument("model_ref")
@stage_command
def probe(cfg, model_ref):
    """Run the consistency probe grid against MODEL_REF."""
    report = harness.cmd_probe(cfg, model_ref)
    click.echo(
        f"components: id={report.delta_id:.6g} inv={report.delta_inv:.6g} "
        f"comp={report.delta_comp:.6g} aggregate={report.e_gac:.6g}"
    )


@main.command()
@click.argument("model_ref")
@stage_command
def gar(cfg, model_ref):
    """Run the rollout-dispersion evaluation against MODEL_REF."""
    for entry in harness.cmd_gar(cfg, model_ref).entries:
        click.echo(
            f"T={entry.horizon}: aligned={entry.aligned_mean:.6g} "
            f"nonaligned={entry.nonaligned_mean:.6g}"
        )


@main.command()
@click.option("--axis", type=click.Choice(harness.SWEEP_AXES), default="constraints",
              show_default=True, help="Which ablation grid to sweep.")
@stage_command
@threads_option
def ablate(cfg, axis, threads):
    """Train and evaluate every grid point on one ablation axis."""
    for row in harness.cmd_ablate(cfg, axis, threads=threads):
        click.echo(f"{row['label']}: e_gac={row['e_gac']:.6g}")


@main.command()
@out_option
def report(out):
    """Summarize metric files under an output directory."""
    try:
        if out is None:
            raise ValueError("report needs --out pointing at a run directory")
        click.echo(harness.cmd_report(out), nl=False)
    except Exception as exc:
        _fail(exc)


if __name__ == "__main__":
    main()
