"""Command-line surface binding orchestrator, store and analytics into
CI-invocable commands.

Exit codes: 0 success / no regression, 1 regression detected (compare
only), 2 execution error, 3 incomparable inputs. Human-readable output
goes to stdout, diagnostics to stderr; machine formats are written as raw
bytes and never interleaved with logs.
"""

from __future__ import annotations

import os
import sys
import time

import click

from . import analytics as an
from . import orchestrator as om
from .agent import AgentServer
from .errors import IncomparableRuns, NoData, NotFound, WattbenchError
from .mocksut import serve as serve_mock_sut
from .store import RunStore

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2
EXIT_INCOMPARABLE = 3


def _fail(message: str, code: int = EXIT_ERROR) -> "SystemExit":
    click.echo(f"error: {message}", err=True)
    return SystemExit(code)


def _serve_until_interrupted(server) -> None:
    """Run a started server until Ctrl-C, then stop it."""
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
    raise SystemExit(EXIT_OK)


def _parse_address(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    return host or "127.0.0.1", int(port)


@click.group()
def cli():
    """Energy-aware performance regression pipeline."""


@cli.command("run")
@click.argument("plan_path", type=click.Path())
@click.option("--sut", "sut_spec", required=True,
              help="SUT spec: mock:<profile> or docker:<image>.")
@click.option("--commit", "commit_id", default=None,
              help="Commit id; defaults to $CI_COMMIT_SHA.")
@click.option("--store", "store_dir", default="store", show_default=True)
@click.option("--simulate", "simulate_dir", type=click.Path(), default=None,
              help="Directory of scripted power profiles; switches all "
                   "hardware-facing backends to simulation.")
@click.option("--agent", "agent_address", default=None,
              help="host:port of a remote agent; defaults to an embedded one.")
def cmd_run(plan_path, sut_spec, commit_id, store_dir, simulate_dir, agent_address):
    """Execute a test plan against one SUT version and persist the runs."""
    commit_id = commit_id or os.environ.get("CI_COMMIT_SHA")
    if not commit_id:
        raise _fail("no commit id: pass --commit or set CI_COMMIT_SHA")
    try:
        plan = om.load_test_plan(plan_path)
        sut = om.parse_sut_spec(sut_spec, commit_id)
        orchestrator = om.Orchestrator(
            RunStore(store_dir),
            agent_address=_parse_address(agent_address) if agent_address else None,
            simulate_profile_dir=simulate_dir,
        )
        records = orchestrator.execute_plan(plan, sut)
    except WattbenchError as exc:
        raise _fail(str(exc))
    for record in records:
        suffix = "" if record.valid else f"  [invalid: {record.invalid_reason}]"
        click.echo(f"{record.run_id}{suffix}")
    if any(r.valid for r in records):
        raise SystemExit(EXIT_OK)
    raise _fail("no valid runs produced")


def _summaries_for(store: RunStore, commit_id: str, plan_hash: str | None) -> list[an.RunSummary]:
    manifests = [
        m for m in store.list_runs(commit_id, plan_hash) if m.status == "valid"
    ]
    summaries = []
    for manifest in manifests:
        summaries.append(an.aggregate_run(store.load_run(manifest.run_id)))
    return summaries


@cli.command("compare")
@click.argument("baseline_commit")
@click.argument("candidate_commit")
@click.option("--store", "store_dir", default="store", show_default=True)
@click.option("--plan-hash", default=None, help="Restrict both sides to one plan hash.")
@click.option("--threshold", default=5.0, show_default=True,
              help="Practical regression threshold, percent.")
@click.option("--alpha", default=0.05, show_default=True,
              help="Rank-sum significance level (>=3 repetitions per side).")
@click.option("--metrics", "metric_names", default=None,
              help="Comma-separated subset of monitored metrics.")
@click.option("--format", "fmt", type=click.Choice(["json", "markdown"]), default="markdown")
def cmd_compare(baseline_commit, candidate_commit, store_dir, plan_hash, threshold, alpha,
                metric_names, fmt):
    """Compare two commits; exits 1 iff a regression is detected."""
    store = RunStore(store_dir)
    try:
        baseline = _summaries_for(store, baseline_commit, plan_hash)
        candidate = _summaries_for(store, candidate_commit, plan_hash)
        if not baseline:
            raise NoData(f"no valid runs for baseline commit {baseline_commit}")
        if not candidate:
            raise NoData(f"no valid runs for candidate commit {candidate_commit}")
        policy = an.ComparisonPolicy(threshold_percent=threshold, alpha=alpha)
        if metric_names:
            names = tuple(n.strip() for n in metric_names.split(",") if n.strip())
            unknown = [n for n in names if n not in an.HARMFUL_DIRECTION]
            if unknown:
                raise _fail(f"unknown metrics: {', '.join(unknown)}")
            policy = an.ComparisonPolicy(
                threshold_percent=threshold, alpha=alpha, metric_names=names
            )
        report = an.compare(baseline, candidate, policy)
    except IncomparableRuns as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(EXIT_INCOMPARABLE)
    except WattbenchError as exc:
        raise _fail(str(exc))
    sys.stdout.buffer.write(an.render_report(report, fmt))
    sys.stdout.buffer.flush()
    raise SystemExit(EXIT_REGRESSION if report.overall_verdict == "regression" else EXIT_OK)


@cli.command("report")
@click.argument("commits", nargs=-1, required=True)
@click.option("--store", "store_dir", default="store", show_default=True)
@click.option("--plan-hash", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "markdown"]), default="markdown")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the report to a file instead of stdout.")
def cmd_report(commits, store_dir, plan_hash, fmt, out_path):
    """Render the per-version summary table for one or more commits."""
    store = RunStore(store_dir)
    try:
        summaries = []
        for commit in commits:
            commit_summaries = _summaries_for(store, commit, plan_hash)
            if not commit_summaries:
                raise NoData(f"no valid runs for commit {commit}")
            summaries.extend(commit_summaries)
        payload = an.render_report(summaries, fmt)
    except WattbenchError as exc:
        raise _fail(str(exc))
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    raise SystemExit(EXIT_OK)


@cli.command("plot-data")
@click.argument("commits", nargs=-1, required=True)
@click.option("--kind", type=click.Choice(an.PLOT_KINDS), default="power", show_default=True)
@click.option("--store", "store_dir", default="store", show_default=True)
@click.option("--plan-hash", default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_plot_data(commits, kind, store_dir, plan_hash, out_path):
    """Export per-version distributions for external boxplot rendering."""
    store = RunStore(store_dir)
    try:
        runs_by_commit = {}
        for commit in commits:
            manifests = [m for m in store.list_runs(commit, plan_hash) if m.status == "valid"]
            if not manifests:
                raise NoData(f"no valid runs for commit {commit}")
            runs_by_commit[commit] = [store.load_run(m.run_id) for m in manifests]
        payload = an.export_plot_data(runs_by_commit, kind)
    except WattbenchError as exc:
        raise _fail(str(exc))
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    raise SystemExit(EXIT_OK)


@cli.command("list")
@click.option("--commit", "commit_id", default=None)
@click.option("--store", "store_dir", default="store", show_default=True)
def cmd_list(commit_id, store_dir):
    """List stored run manifests in creation order."""
    store = RunStore(store_dir)
    for manifest in store.list_runs(commit_id):
        click.echo(
            f"{manifest.run_id}  commit={manifest.commit_id}  "
            f"plan={manifest.plan_hash[:12]}  status={manifest.status}  "
            f"created={manifest.created_at}"
        )
    raise SystemExit(EXIT_OK)


@cli.command("agent")
@click.option("--host", default="0.0.0.0", show_default=True)
@click.option("--port", default=7420, show_default=True)
@click.option("--spool", "spool_dir", default="agent-spool", show_default=True)
def cmd_agent(host, port, spool_dir):
    """Run the testbed agent daemon (blocks until interrupted)."""
    server = AgentServer(host, port, spool_dir).start()
    click.echo(f"agent listening on {server.address[0]}:{server.address[1]}", err=True)
    _serve_until_interrupted(server)


@cli.command("mock-sut")
@click.option("--profile", default="v1", show_default=True)
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--port", default=8080, show_default=True)
def cmd_mock_sut(profile, host, port):
    """Serve the bundled mock SUT (blocks until interrupted)."""
    sut = serve_mock_sut(profile, host, port)
    click.echo(f"mock SUT profile={profile} on {sut.base_url}", err=True)
    _serve_until_interrupted(sut)


def main() -> None:
    try:
        cli.main(standalone_mode=False)
    except SystemExit:
        raise
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_ERROR)
    except click.exceptions.Abort:
        sys.exit(EXIT_ERROR)
    except WattbenchError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ERROR)
    except Exception as exc:  # crash paths must still yield exit 2
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ERROR)


if __name__ == "__main__":
    main()
