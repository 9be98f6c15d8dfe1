"""Command-line verification surface.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import os
import sys

import click

from . import catalog, serialize, verify
from .errors import MalformedFile
from .invariants import DEFAULT_SEED
from .rational import parse_rat, rat_str
from .reports import Report


# Option callbacks: click names the option in the usage error they raise.

def _parse_range(ctx, param, text):
    """'7..12' or '9' -> inclusive integer range; A..B with B < A is an error."""
    try:
        if ".." in text:
            lo, hi = (int(x) for x in text.split("..", 1))
        else:
            lo = hi = int(text)
    except ValueError:
        raise click.BadParameter(f"expected A..B or an integer, got {text!r}")
    if hi < lo:
        raise click.BadParameter(f"empty range {text!r}: B must be at least A")
    return list(range(lo, hi + 1))


def _catalog_dims(ctx, param, text):
    """The dimensions n >= 7 of a range; a range with none of them is an error."""
    dims = [n for n in _parse_range(ctx, param, text) if n >= 7]
    if not dims:
        raise click.BadParameter(f"range {text!r} has no dimension of at least 7")
    return dims


def _parse_alphas(ctx, param, text):
    try:
        alphas = tuple(parse_rat(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):     # 'x', or a zero denominator as in '1/0'
        raise click.BadParameter(f"expected comma-separated rationals, got {text!r}")
    if any(a == 0 for a in alphas):
        raise click.BadParameter("alpha samples must be nonzero")
    return alphas


_DEFAULT_ALPHAS = ",".join(rat_str(a) for a in catalog.DEFAULT_ALPHAS)


def _seed(value):
    if value is not None:
        return value
    env = os.environ.get("NILFORM_SEED")
    try:
        return int(env) if env else DEFAULT_SEED
    except ValueError:
        click.echo(f"Error: NILFORM_SEED must be an integer, got {env!r}", err=True)
        sys.exit(2)


def _emit(report: Report, fmt):
    click.echo(report.render(fmt))
    sys.exit(report.exit_code)


@click.group()
def main():
    """Exact verification toolkit for the (n-5)-filiform classification."""


@main.command()
@click.option("--dims", default="7..13", callback=_catalog_dims,
              help="inclusive dimension range A..B")
@click.option("--alpha", "alphas", default=_DEFAULT_ALPHAS, callback=_parse_alphas,
              help="comma-separated alpha samples")
@click.option("--seed", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
@click.option("--file", "path", type=click.Path(exists=True), default=None,
              help="check a single algebra file instead of the catalog")
def check(dims, alphas, seed, fmt, path):
    """Jacobi, characteristic sequence and nonsplitness over the catalog."""
    seed = _seed(seed)
    if path:
        try:
            g = serialize.load(path)
        except MalformedFile as exc:
            click.echo(f"Error: {path}: {exc}", err=True)
            sys.exit(2)
        _emit(verify.check_algebra_file(g, seed=seed), fmt)
    _emit(verify.check_suite(dims, alphas=alphas, seed=seed), fmt)


@main.command()
@click.option("--id", "table_id", type=int, required=True, help="table number 1..9")
@click.option("--m", "ms", default="4..6", callback=_parse_range, help="m values A..B")
@click.option("--alpha", "alphas", default=_DEFAULT_ALPHAS, callback=_parse_alphas)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
def tables(table_id, ms, alphas, fmt):
    """Recompute a printed table and diff it column by column."""
    if not 1 <= table_id <= 9:
        raise click.BadParameter("table id must be in 1..9", param_hint="'--id'")
    if table_id in (8, 9):
        _emit(verify.weight_rows_suite(table_id, ms), fmt)
    _emit(verify.tables_structural_suite(table_id, ms, alphas=alphas), fmt)


@main.command()
@click.option("--dims", default="7..9", callback=_catalog_dims)
@click.option("--alpha", "alphas", default=_DEFAULT_ALPHAS, callback=_parse_alphas)
@click.option("--sums/--no-sums", default=False,
              help="also verify the nilindex-5 direct sums at n=14")
@click.option("--certificates/--no-certificates", default=False,
              help="emit a per-instance certificate item (witness or Engel flag)")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
def charnilp(dims, alphas, sums, certificates, fmt):
    """Characteristic nilpotency classification over the catalog."""
    report = verify.charnilp_suite(dims, alphas=alphas, certificates=certificates)
    if sums:
        report.items.extend(verify.corollary_sums_suite().items)
    _emit(report, fmt)


@main.command()
@click.option("--family", type=int, required=True)
@click.option("--dim", type=int, required=True)
@click.option("--depth", type=click.IntRange(min=0), default=1)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
def dertower(family, dim, depth, fmt):
    """Derivation tower of one catalog entry."""
    if family not in catalog.FAMILIES:
        raise click.BadParameter(f"no family {family}", param_hint="'--family'")
    fam = catalog.FAMILIES[family]
    m = dim // 2
    if fam.dimension(m) != dim or m < fam.m_min:
        raise click.BadParameter(f"family {family} is not defined at dimension {dim}",
                                 param_hint="'--dim'")
    _emit(verify.dertower_suite(family, dim, depth=depth), fmt)


@main.command()
@click.option("--dim", "n", type=int, required=True)
@click.option("--alpha", "alphas", default="1,2", callback=_parse_alphas)
@click.option("--seed", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
def distinguish(n, alphas, seed, fmt):
    """Fingerprint classes and unresolved pairs at one dimension."""
    if n < 7:
        raise click.BadParameter("dimension must be at least 7", param_hint="'--dim'")
    _emit(verify.distinguish_suite(n, alphas=alphas, seed=_seed(seed)), fmt)


@main.group()
def catalog_cmd():
    """Catalog utilities."""


main.add_command(catalog_cmd, name="catalog")


@catalog_cmd.command("export")
@click.option("--dim", "n", type=int, required=True)
@click.option("--alpha", "alphas", default=_DEFAULT_ALPHAS, callback=_parse_alphas)
@click.option("--out", type=click.Path(file_okay=False), default=".")
def catalog_export(n, alphas, out):
    """Write every instance at a dimension as algebra JSON files."""
    if n < 7:
        raise click.BadParameter("dimension must be at least 7", param_hint="'--dim'")
    if n > serialize.MAX_DIM:
        raise click.BadParameter(f"dimension must be at most {serialize.MAX_DIM}",
                                 param_hint="'--dim'")
    os.makedirs(out, exist_ok=True)
    count = 0
    for inst in catalog.enumerate_instances(n, alphas=alphas):
        path = os.path.join(out, inst.id + ".json")
        serialize.save(inst.algebra, path)
        count += 1
    click.echo(f"wrote {count} files to {out}")


@catalog_cmd.command("errata")
@click.option("--family", type=int, default=None)
def catalog_errata(family):
    """Show documented deviations from the printed listing."""
    if family is not None and family not in catalog.FAMILIES:
        raise click.BadParameter(f"no family {family}", param_hint="'--family'")
    targets = [family] if family is not None else sorted(catalog.ERRATA)
    for i in targets:
        notes = catalog.errata(i)
        if not notes:
            click.echo(f"family {i}: no errata")
        for note in notes:
            click.echo(f"family {i}: {note}")


if __name__ == "__main__":
    main()
