"""Command-line front end. All state flows through the config file and
flags; environment variables are never consulted. On failure, commands
print a machine-readable error JSON to stderr and exit nonzero.
"""

from __future__ import annotations

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


@click.group()
def main():
    """Group-action consistency toolkit for planar world models."""


@main.command("gen-data")
@config_option
@seed_option
@out_option
def gen_data(config_path, seed, out):
    """Generate a synthetic trajectory dataset."""
    try:
        cfg = _resolve_config(config_path, seed, out)
        path = harness.cmd_gen_data(cfg)
        click.echo(f"dataset written to {path}")
    except Exception as exc:
        _fail(exc)


@main.command()
@config_option
@seed_option
@out_option
def train(config_path, seed, out):
    """Train the latent dynamics model."""
    try:
        cfg = _resolve_config(config_path, seed, out)
        ckpt = harness.cmd_train(cfg)
        click.echo(f"checkpoint written to {ckpt}")
    except Exception as exc:
        _fail(exc)


@main.command()
@click.argument("model_ref")
@config_option
@seed_option
@out_option
def probe(model_ref, config_path, seed, out):
    """Run the consistency probe grid against MODEL_REF."""
    try:
        cfg = _resolve_config(config_path, seed, out)
        report = harness.cmd_probe(cfg, model_ref)
        click.echo(
            f"components: id={report.delta_id:.6g} inv={report.delta_inv:.6g} "
            f"comp={report.delta_comp:.6g} aggregate={report.e_gac:.6g}"
        )
    except Exception as exc:
        _fail(exc)


@main.command()
@click.argument("model_ref")
@config_option
@seed_option
@out_option
def gar(model_ref, config_path, seed, out):
    """Run the rollout-dispersion evaluation against MODEL_REF."""
    try:
        cfg = _resolve_config(config_path, seed, out)
        report = harness.cmd_gar(cfg, model_ref)
        for entry in report.entries:
            click.echo(
                f"T={entry.horizon}: aligned={entry.aligned_mean:.6g} "
                f"nonaligned={entry.nonaligned_mean:.6g}"
            )
    except Exception as exc:
        _fail(exc)


@main.command()
@click.option("--axis", type=click.Choice(harness.SWEEP_AXES), default="constraints",
              show_default=True, help="Which ablation grid to sweep.")
@config_option
@seed_option
@out_option
@threads_option
def ablate(axis, config_path, seed, out, threads):
    """Train and evaluate every grid point on one ablation axis."""
    try:
        cfg = _resolve_config(config_path, seed, out)
        rows = harness.cmd_ablate(cfg, axis, threads=threads)
        for row in rows:
            click.echo(f"{row['label']}: e_gac={row['e_gac']:.6g}")
    except Exception as exc:
        _fail(exc)


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
