"""Command-line entry points: check-hn, invert, generate, vanishing."""

from __future__ import annotations

import json
import sys

import click

from .poly import format_poly, parse
from .nilpotency import CriterionMismatchError, is_hn
from .generators import GeneratorTheoremError
from .inversion import (
    deg_t,
    first_vanishing_index,
    invert_closed,
    invert_general,
    invert_hn,
    pair_from_fixed_point,
)
from .vanishing import (
    ConfigError,
    ExperimentConfig,
    TheoremCheckError,
    build_member,
    emit_report,
    render_report,
    run_vanishing_full,
)

_INVERTERS = {
    "general": invert_general,
    "hn": invert_hn,
    "closed": invert_closed,
    "fixed-point": pair_from_fixed_point,
}

# doubled-variable constructions print naturally in u/v coordinates
_UV_KINDS = {"pg", "ph"}


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")


def _style_for(text: str) -> str:
    return "uv" if ("u" in text or "v" in text) else "z"


@click.group()
def main() -> None:
    """Exact tools for Hessian-nilpotent polynomials over Gaussian rationals."""


@main.command("check-hn")
@click.argument("poly_file", type=click.Path(exists=True, dir_okay=False))
def check_hn_command(poly_file: str) -> None:
    """Print the nilpotency report for the polynomial in POLY_FILE as JSON."""
    try:
        p = parse(_read_text(poly_file))
        report = is_hn(p)
    except (ValueError, RuntimeError) as exc:
        raise click.ClickException(str(exc))
    click.echo(json.dumps(report.to_json_dict(), indent=2))


@main.command("invert")
@click.option("--method", type=click.Choice(sorted(_INVERTERS)), default="general",
              show_default=True, help="Which inversion algorithm to run.")
@click.option("--t-order", "t_order", type=int, required=True,
              help="Number of t-graded coefficients Q_[1..M] to compute.")
@click.option("--z-degree", "z_degree", type=int, default=None,
              help="Optional truncation degree in z (exact when omitted).")
@click.argument("poly_file", type=click.Path(exists=True, dir_okay=False))
def invert_command(method: str, t_order: int, z_degree, poly_file: str) -> None:
    """Print Q_[1..M] of the deformed inversion pair plus a JSON summary."""
    try:
        text = _read_text(poly_file)
        p = parse(text)
        pair = _INVERTERS[method](p, t_order, z_cap=z_degree)
    except (ValueError, RuntimeError) as exc:
        raise click.ClickException(str(exc))
    style = _style_for(text)
    for m in range(1, pair.t_order + 1):
        click.echo(f"Q_[{m}] = {format_poly(pair.q_slot(m), style=style)}")
    summary = {
        "method": pair.method,
        "t_order": pair.t_order,
        "deg_t": deg_t(pair),
        "first_vanishing_index": first_vanishing_index(pair),
    }
    click.echo(json.dumps(summary, indent=2))


@main.command("generate")
@click.option("--kind", type=click.Choice(["w", "wtilde", "ug", "pg", "ph"]),
              required=True, help="Which construction to sample.")
@click.option("--n", "n", type=int, required=True, help="Number of variables.")
@click.option("--d", "d", type=int, required=True, help="Target degree.")
@click.option("--seed", "seed", type=int, required=True, help="Sampling seed.")
@click.option("--params", "params_text", default="{}", show_default=True,
              help="Generator params as a JSON object, as in a vanishing config.")
def generate_command(kind: str, n: int, d: int, seed: int, params_text: str) -> None:
    """Emit a sampled polynomial in the text grammar plus JSON provenance."""
    try:
        params = json.loads(params_text)
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"--params is not valid JSON: {exc}")
    try:
        p, provenance = build_member(n, d, kind, params, seed)
    except (ValueError, RuntimeError) as exc:
        raise click.ClickException(str(exc))
    style = "uv" if kind in _UV_KINDS else "z"
    click.echo(format_poly(p, style=style))
    click.echo(json.dumps(provenance, indent=2))


@main.command("vanishing")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Path to the experiment config JSON.")
def vanishing_command(config_path: str) -> None:
    """Run the vanishing-window experiment described by the config.

    Exit codes: 0 all theorem-level checks passed; 2 a theorem-level check
    failed (an implementation bug); 3 a conjecture-level vanishing failed
    beyond the bound (recorded, not fatal to the run).
    """
    try:
        data = json.loads(_read_text(config_path))
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"config is not valid JSON: {exc}")
    except ValueError as exc:
        raise click.ClickException(str(exc))
    try:
        cfg = ExperimentConfig.from_dict(data)
        reports, failures = run_vanishing_full(cfg)
    except (ConfigError, ValueError) as exc:
        raise click.ClickException(str(exc))
    except (CriterionMismatchError, TheoremCheckError, GeneratorTheoremError) as exc:
        click.echo(f"theorem check failed: {exc}", err=True)
        sys.exit(2)
    if cfg.out:
        emit_report(reports, cfg.format, cfg.out)
        click.echo(f"wrote {len(reports)} report(s) to {cfg.out}")
    else:
        click.echo(render_report(reports, cfg.format), nl=False)
    for msg in failures:
        click.echo(f"theorem check failed: {msg}", err=True)
    if failures:
        sys.exit(2)
    missed = sum(1 for r in reports if not r.bound_respected)
    if missed:
        click.echo(f"vanishing beyond the bound failed in {missed} trial(s)", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
