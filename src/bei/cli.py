"""Command-line entry points.

Exit codes: 0 ok, 1 violation found, 2 usage error, 3 resource budget or
tier exceeded.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager

import click

from .census import (
    THEOREMS,
    _ORACLE_CHECKS,
    _oracle_campaign,
    analyze as analyze_graph,
    default_jobs,
    run_census,
    run_verification,
    write_fixtures,
)
from .errors import ResourceBudgetError, RouteDisagreementError, TierExceededError
from .graph6 import parse_edge_list, parse_graph6


@contextmanager
def _exit_codes():
    """Map tier and budget errors to exit 3 and a route disagreement to exit 1."""
    try:
        yield
    except (TierExceededError, ResourceBudgetError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    except RouteDisagreementError as exc:
        click.echo(f"ROUTE DISAGREEMENT: {exc}", err=True)
        sys.exit(1)


def _fail_vacuous(max_n: int) -> None:
    click.echo(f"error: no instances at --max-n {max_n}; nothing was checked", err=True)
    sys.exit(2)


def _jobs(jobs) -> int:
    if jobs:
        return jobs
    try:
        return default_jobs()
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _in_existing_dir(ctx, param, path):
    """Refuse an output path whose directory is missing before any work starts."""
    if path is not None:
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise click.BadParameter(f"directory {parent} does not exist")
    return path


@click.group()
def main() -> None:
    """Exact invariants of binomial edge ideals of small graphs."""


@main.command("analyze")
@click.option("--edges", "edges_text", help="edge list 'n;a-b,c-d,...' (1-based)")
@click.option("--graph6", "graph6_text", help="graph6 string")
@click.option("--json", "as_json", is_flag=True, help="emit one JSON object")
def analyze_cmd(edges_text, graph6_text, as_json) -> None:
    """Full pipeline on a single graph."""
    if bool(edges_text) == bool(graph6_text):
        raise click.UsageError("give exactly one of --edges / --graph6")
    try:
        if edges_text:
            G = parse_edge_list(edges_text)
        else:
            G = parse_graph6(graph6_text.encode("ascii"))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    if not G.edge_count():
        raise click.UsageError("edgeless graph: its binomial edge ideal is zero")
    with _exit_codes():
        record = analyze_graph(G)
    if as_json:
        click.echo(record.to_json())
    else:
        d = json.loads(record.to_json())
        width = max(len(k) for k in d)
        for k, v in d.items():
            click.echo(f"{k:<{width}}  {v}")


@main.command("census")
@click.option("--max-n", type=int, required=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              callback=_in_existing_dir)
@click.option("--jobs", type=click.IntRange(min=1), default=None,
              help="workers (default: BEI_JOBS or all cores)")
def census_cmd(max_n, out_path, jobs) -> None:
    """All connected classes with edges up to --max-n, as sorted JSONL."""
    jobs = _jobs(jobs)
    with _exit_codes():
        records = run_census(max_n, out_path, jobs)
    if not records:
        _fail_vacuous(max_n)
    click.echo(f"wrote {len(records)} records to {out_path}")


@main.command("verify")
@click.option("--theorem", "theorem_id", required=True,
              type=click.Choice(sorted(THEOREMS)))
@click.option("--max-n", type=int, required=True)
@click.option("--jobs", type=click.IntRange(min=1), default=None)
@click.option("--json", "as_json", is_flag=True)
def verify_cmd(theorem_id, max_n, jobs, as_json) -> None:
    """Exhaustive sweep of one statement over its graph class."""
    jobs = _jobs(jobs)
    with _exit_codes():
        report = run_verification(theorem_id, max_n, jobs)
    if as_json:
        click.echo(json.dumps(report.to_json()))
    else:
        click.echo(
            f"{report.theorem:<28} tier n<={report.tier}  "
            f"instances {report.instances:<6} violations {len(report.violations):<3} "
            f"({report.wall_time:.1f}s)"
        )
        for v in report.violations:
            click.echo(f"  VIOLATION {v['graph6']} {v['detail']}")
    if not report.instances:
        _fail_vacuous(max_n)
    sys.exit(0 if report.ok() else 1)


@main.command("oracle")
@click.option("--check", required=True, type=click.Choice(list(_ORACLE_CHECKS)))
@click.option("--max-n", type=int, required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              callback=_in_existing_dir,
              help="write {graph6, labeling, check, ok} JSONL fixtures here")
def oracle_cmd(check, max_n, out_path) -> None:
    """Symbolic certification campaign over all labeled graphs in the tier."""
    with _exit_codes():
        instances, violations, fixtures = _oracle_campaign(check, max_n)
    if not instances:
        _fail_vacuous(max_n)
    if out_path:
        write_fixtures(fixtures, out_path)
    click.echo(f"{check}: {instances} instances, {len(violations)} violations")
    for v in violations:
        click.echo(f"  VIOLATION {v['graph6']} {v['detail']}")
    sys.exit(0 if not violations else 1)


if __name__ == "__main__":
    main()
