"""Command-line interface.

Exit codes: 0 success, 2 config/schema violation, 3 missing stage input,
4 stage contract failure, 1 unexpected error. The output directory comes
from PRIVMAP_OUT when set, else --out, else the config's io.out.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click

from .das import VARIANTS
from .errors import ConfigError, MissingInputError, PrivmapError
from .pipeline import (
    load_config,
    stage_expect,
    stage_fit,
    stage_geo,
    stage_protect,
    stage_report,
    stage_simulate,
)

EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_CONTRACT = 4


def _resolve_out(cfg: dict, cli_out: str | None) -> Path:
    env = os.environ.get("PRIVMAP_OUT")
    if env:
        return Path(env)
    if cli_out:
        return Path(cli_out)
    return Path(cfg["io"]["out"])


def _run_stage(ctx, fn, **kwargs):
    try:
        cfg = load_config(ctx.obj["config"], ctx.obj["seed"])
        out = _resolve_out(cfg, ctx.obj["out"])
        result = fn(cfg, out, **kwargs)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except MissingInputError as exc:
        click.echo(f"missing input: {exc}", err=True)
        sys.exit(EXIT_MISSING)
    except PrivmapError as exc:
        click.echo(f"stage failure: {exc}", err=True)
        sys.exit(EXIT_CONTRACT)
    for path in result.get("outputs", []):
        click.echo(f"wrote {path}")
    return result


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None, help="Config document (JSON).")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option(
    "--jobs", type=click.IntRange(min=1), default=1, show_default=True, help="Replicate workers for simulate."
)
@click.option("--out", "out_dir", type=click.Path(), default=None, help="Output directory (PRIVMAP_OUT wins).")
@click.pass_context
def main(ctx, config_path, seed, jobs, out_dir):
    """Quantify how privacy-protected denominators distort small-area
    disease-rate and inequity estimates."""
    ctx.ensure_object(dict)
    ctx.obj.update({"config": config_path, "seed": seed, "jobs": jobs, "out": out_dir})


@main.command()
@click.pass_context
def geo(ctx):
    """Synthesize geography, population, events, and covariates."""
    _run_stage(ctx, stage_geo)


@main.command()
@click.option("--variant", type=click.Choice(VARIANTS), default=None)
@click.pass_context
def protect(ctx, variant):
    """Protect the population cube with the top-down mechanism."""
    _run_stage(ctx, stage_protect, variant=variant)


SOURCES = ("truth", *VARIANTS)


@main.command()
@click.option("--source", type=click.Choice(SOURCES), default=None, help="truth or a protected variant name.")
@click.pass_context
def expect(ctx, source):
    """Build age-standardized expected counts for one source."""
    _run_stage(ctx, stage_expect, source=source)


@main.command()
@click.option("--source", type=click.Choice(SOURCES), default=None, help="Denominator source for the offsets.")
@click.pass_context
def fit(ctx, source):
    """Fit the spatial model to the observed event counts."""
    _run_stage(ctx, stage_fit, source=source)


@main.command()
@click.pass_context
def simulate(ctx):
    """Run the replicated multi-source simulation study."""
    _run_stage(ctx, stage_simulate, jobs=ctx.obj["jobs"])


@main.command()
@click.pass_context
def report(ctx):
    """Aggregate denominator and study metrics into report tables."""
    _run_stage(ctx, stage_report)


if __name__ == "__main__":
    main()
