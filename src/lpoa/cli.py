"""Command-line front end: single runs, p-sweeps, and lemma verification.

Commands
    run    one (problem, p, epsilon) run; writes the trace JSON
    sweep  all p values for one problem; writes traces, a summary CSV and
           optionally a combined log-log SVG; prints each run's line in
           increasing p, once that run and all of smaller p have finished
    verify lemma verification of a saved trace

Exit codes: run -> 0 converged, 2 max_iterations, 3 solver_failure;
sweep -> 1 if any run failed; run and sweep -> 64 for an unknown problem key
or an invalid argument; verify -> 1 on violations, 64 for an --eta that is not
positive and finite, 65 on a malformed or unreadable trace; all three -> 64
for a command line that click cannot parse, and 73 when an output file or
directory cannot be written (run and sweep check that the directory of --out
and --svg exists before the first run).
"""

from __future__ import annotations

import concurrent.futures
import errno
import json
import math
import os
import sys
import time
from typing import NoReturn

import click

from .analysis import fit_rate, monotone_envelope, verify_trace
from .driver import RunConfig, RunTrace, hausdorff_series, run
from .plot_svg import render_svg
from .trace_io import (TraceFormatError, atomic_write_text, default_metadata,
                       load_trace, save_trace)

DEFAULT_P_LIST = (1.25, 1.5, 2.0, 3.0, 4.0, 8.0)
DEFAULT_EPSILONS = {
    "example1-q2": 1e-4,
    "example1-q3": 0.01,
    "ellipse": 1e-3,
    "example2": 0.05,
}
CSV_HEADER = "p,p_star,c_hat,r_squared,iterations"

EXIT_MAX_ITERATIONS = 2
EXIT_SOLVER_FAILURE = 3
EXIT_USAGE = 64
EXIT_BAD_TRACE = 65
EXIT_CANT_CREATE = 73


def _usage_error(message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_USAGE)


def _cant_write(path: str, exc: OSError) -> NoReturn:
    click.echo(f"error: cannot write {path}: {exc}", err=True)
    sys.exit(EXIT_CANT_CREATE)


def _write(path: str, write, *args, **kwargs) -> None:
    """write(path, *args, **kwargs); exit 73 if it raises OSError."""
    try:
        write(path, *args, **kwargs)
    except OSError as exc:
        _cant_write(path, exc)


def _check_directory(path: str) -> None:
    """Exit 73 when the directory that will hold `path` is missing or is not
    a directory; run and sweep call this before their first run."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
        _cant_write(path, OSError(code, os.strerror(code), directory))


def _trace_name(problem_key: str, p: float) -> str:
    return f"{problem_key}-p{p:g}.json"


def _trace_curve(trace: RunTrace) -> dict:
    series = monotone_envelope(hausdorff_series(trace))
    fit = fit_rate(series, trace.q, trace.config.epsilon)
    return {"label": f"p = {trace.config.p:g}", "series": series,
            "fit": fit, "q": trace.q}


def _usage_exit(call, *args, **kwargs):
    """call(*args, **kwargs), with a click usage error exiting 64, not 2 (the
    code of max_iterations); the code holds under standalone_mode=False too,
    where the error reaches the caller."""
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = EXIT_USAGE
        raise


class _Group(click.Group):
    """Parses the group's arguments, and each command's, via _usage_exit."""

    def make_context(self, *args, **kwargs):
        return _usage_exit(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_exit(super().invoke, ctx)


@click.group(cls=_Group)
def main() -> None:
    """Outer approximation of convex vector optimization problems by lp
    norm-minimization cuts."""


@main.command("run")
@click.option("--problem", "problem_key", required=True, help="Problem key.")
@click.option("--p", "p_value", type=float, required=True, help="Norm exponent.")
@click.option("--eps", type=float, required=True, help="Stopping tolerance.")
@click.option("--max-iters", type=int, default=500, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              default=None, help="Trace JSON output path.")
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False),
              default=None, help="Optional log-log SVG output path.")
def cmd_run(problem_key, p_value, eps, max_iters, out_path, svg_path):
    """Execute one run and write its trace."""
    try:
        config = RunConfig(problem_key=problem_key, p=p_value, epsilon=eps,
                           max_iterations=max_iters)
    except ValueError as exc:
        _usage_error(str(exc))
    for path in (out_path, svg_path):
        if path:
            _check_directory(path)
    _, trace, wall = _sweep_one(config)
    if out_path:
        _write(out_path, save_trace, trace, default_metadata(wall))
    if svg_path and trace.iterations:
        _write(svg_path, atomic_write_text, render_svg(
            [_trace_curve(trace)], title=f"{problem_key}, p = {p_value:g}"))
    click.echo(f"{problem_key} p={p_value:g} eps={eps:g}: "
               f"{trace.termination} after {len(trace.iterations)} iterations "
               f"({wall:.2f}s)")
    if trace.termination == "max_iterations":
        sys.exit(EXIT_MAX_ITERATIONS)
    if trace.termination == "solver_failure":
        sys.exit(EXIT_SOLVER_FAILURE)


def _sweep_one(config: RunConfig) -> tuple[float, RunTrace, float]:
    t0 = time.perf_counter()
    trace = run(config)
    return config.p, trace, time.perf_counter() - t0


def _sweep_runs(configs, jobs: int):
    """Yield _sweep_one of each configuration in increasing p, each as soon
    as its run and every run of smaller p have finished; the runs share a
    pool of min(jobs, len(configs)) processes when that is more than one."""
    configs = sorted(configs, key=lambda c: c.p)
    workers = min(jobs, len(configs))
    if workers <= 1:
        yield from map(_sweep_one, configs)
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
        yield from ex.map(_sweep_one, configs)


@main.command("sweep")
@click.option("--problem", "problem_key", required=True, help="Problem key.")
@click.option("--p-list", default=None,
              help="Comma-separated p values (default: 1.25,1.5,2,3,4,8).")
@click.option("--eps", type=float, default=None,
              help="Stopping tolerance (default: per-problem matrix value).")
@click.option("--out-dir", type=click.Path(file_okay=False), default=".",
              show_default=True)
@click.option("--max-iters", type=int, default=500, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Parallel runs (at most one per p value).")
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False),
              default=None, help="Combined log-log SVG output path.")
def cmd_sweep(problem_key, p_list, eps, out_dir, max_iters, jobs, svg_path):
    """Run every p value for one problem; write traces and a summary CSV."""
    # an unknown key finds no default epsilon; RunConfig rejects the key
    epsilon = DEFAULT_EPSILONS.get(problem_key) if eps is None else eps
    try:
        p_values = (DEFAULT_P_LIST if p_list is None
                    else tuple(float(s) for s in p_list.split(",")))
        configs = [RunConfig(problem_key=problem_key, p=p, epsilon=epsilon,
                             max_iterations=max_iters)
                   for p in p_values]
    except ValueError as exc:
        _usage_error(str(exc))
    if len({_trace_name(problem_key, p) for p in p_values}) < len(p_values):
        _usage_error(f"--p-list values {p_list} repeat a trace file name")
    if jobs < 1:
        _usage_error(f"--jobs must be at least 1, got {jobs}")
    _write(out_dir, os.makedirs, exist_ok=True)
    if svg_path:
        _check_directory(svg_path)

    rows = []
    curves = []
    for p, trace, wall in _sweep_runs(configs, jobs):
        _write(os.path.join(out_dir, _trace_name(problem_key, p)),
               save_trace, trace, default_metadata(wall))
        n, status = len(trace.iterations), trace.termination
        c_hat = r_squared = float("nan")
        if status == "converged":
            curve = _trace_curve(trace)
            curves.append(curve)
            c_hat, r_squared = curve["fit"].c_hat, curve["fit"].r_squared
            click.echo(f"p={p:g}: {n} iterations, c_hat={c_hat:.3f}, "
                       f"r2={r_squared:.4f} ({wall:.2f}s)")
        else:
            click.echo(f"p={p:g}: {status} after {n} iterations "
                       f"({wall:.2f}s)")
        rows.append((f"{p:g},{p / (p - 1.0)!r},{c_hat!r},{r_squared!r},{n}",
                     status))

    failed = any(status != "converged" for _, status in rows)
    lines = [CSV_HEADER + (",status" if failed else "")]
    lines += [row + (f",{status}" if failed else "") for row, status in rows]
    csv_path = os.path.join(out_dir, f"{problem_key}-summary.csv")
    _write(csv_path, atomic_write_text, "\n".join(lines) + "\n")
    click.echo(f"wrote {csv_path}")

    if svg_path and curves:
        _write(svg_path, atomic_write_text, render_svg(
            curves, title=f"{problem_key}, eps = {epsilon:g}"))
        click.echo(f"wrote {svg_path}")
    if failed:
        sys.exit(1)


@main.command("verify")
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False),
              required=True, help="Trace JSON to verify.")
@click.option("--eta", type=float, default=0.1, show_default=True,
              help="Deviation-vector offset.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              default=None, help="Report JSON output path.")
def cmd_verify(trace_path, eta, out_path):
    """Verify the geometric lemmas on a trace."""
    if not 0.0 < eta < math.inf:
        _usage_error(f"--eta must be positive and finite, got {eta!r}")
    try:
        trace = load_trace(trace_path)
    except (TraceFormatError, OSError) as exc:
        click.echo(f"error: cannot read trace: {exc}", err=True)
        sys.exit(EXIT_BAD_TRACE)
    report = verify_trace(trace, eta=eta)

    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        _write(out_path, atomic_write_text, text)
    else:
        click.echo(text, nl=False)
    if report["total_violations"] > 0:
        click.echo(f"{report['total_violations']} violation(s) found",
                   err=True)
        sys.exit(1)
    click.echo("0 violations", err=True)


if __name__ == "__main__":
    main()
