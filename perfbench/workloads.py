"""The benchmark's workloads and how one repetition of each is executed.

A workload is a batch job: the caller waits for it to finish.  Its inputs
are fixed; lpoa has no randomness, so no seed reaches the program.

    example2-p2        driver.run on example2, p = 2, eps = 0.05
    example1-q3-p1.5   driver.run on example1-q3, p = 1.5, eps = 0.01
    ellipse-sweep      `lpoa sweep --problem ellipse --jobs 2` (six default
                       p, eps = 1e-3), then `lpoa verify --trace` on every
                       trace it wrote

time_to_solution_s covers the call into the program until every trace is
complete (for the sweep: written and verified).  The correctness gate runs
afterwards, outside the timed region.

BENCHMARK.json gates example2-p2 and ellipse-sweep only.  A gated run must
fit about 50 s, and on a shared two-core machine the spread of its median
needs about three repetitions of a 15 s job; three gated workloads would
leave room for two.  example1-q3-p1.5 (the prox-dominated run) stays
available by name and in `--workload all`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import time

WORKLOADS = {
    "example2-p2": {"kind": "single", "problem": "example2", "p": 2.0,
                    "eps": 0.05, "runs": 1},
    "example1-q3-p1.5": {"kind": "single", "problem": "example1-q3",
                         "p": 1.5, "eps": 0.01, "runs": 1},
    # p_list None: the CLI's six default exponents
    "ellipse-sweep": {"kind": "sweep", "problem": "ellipse", "eps": 1e-3,
                      "p_list": None, "jobs": 2, "runs": 6},
}


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _invoke_cli(args: list[str]) -> int:
    """Run one lpoa CLI command in this process; returns its exit code."""
    import lpoa.cli
    try:
        lpoa.cli.main.main(args=args, prog_name="lpoa", standalone_mode=False)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    return 0


def _single(spec: dict):
    import lpoa.driver
    config = lpoa.driver.RunConfig(problem_key=spec["problem"], p=spec["p"],
                                   epsilon=spec["eps"])
    return lpoa.driver.run(config)


def _sweep(spec: dict, workdir: str, wrap):
    """The sweep and the verification of its traces, through the CLI."""
    args = ["sweep", "--problem", spec["problem"], "--eps", repr(spec["eps"]),
            "--jobs", str(spec["jobs"]), "--out-dir", workdir]
    if spec.get("p_list"):
        args += ["--p-list", ",".join(repr(p) for p in spec["p_list"])]
    errors = []
    code = wrap("cli.sweep", _invoke_cli)(args)
    if code != 0:
        errors.append(f"lpoa sweep exited {code}")
    traces = sorted(f for f in os.listdir(workdir)
                    if f.endswith(".json") and not f.endswith(".report.json"))
    for name in traces:
        path = os.path.join(workdir, name)
        code = wrap("cli.verify", _invoke_cli)(
            ["verify", "--trace", path, "--out", path[:-5] + ".report.json"])
        if code not in (0, 1):      # 1 means violations, which the gate counts
            errors.append(f"lpoa verify {name} exited {code}")
    return traces, errors


def execute(spec: dict, workdir: str, wrap=None) -> dict:
    """One repetition: the timed call, then the correctness gate.

    `wrap(span_name, fn)` records a span around fn when tracing; the timed
    region is the same either way.
    """
    import lpoa.analysis
    import lpoa.driver
    import lpoa.trace_io
    from gate import fingerprint, gate_failures

    wrap = wrap or (lambda _name, fn: fn)
    sink = io.StringIO()        # the CLI's progress lines
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if spec["kind"] == "single":
            traces, errors = [_single(spec)], []
        else:
            traces, errors = _sweep(spec, workdir, wrap)
        tts = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        peak = _peak_rss_mb()

        runs = []
        if spec["kind"] == "single":
            # write, read back, verify and fit, as `lpoa run --out` followed
            # by `lpoa verify` would; the read-back must not change the bytes
            trace = traces[0]
            path = os.path.join(workdir, "trace.json")
            lpoa.trace_io.save_trace(path, trace,
                                     lpoa.trace_io.default_metadata(tts))
            loaded = lpoa.trace_io.load_trace(path)
            report = lpoa.analysis.verify_trace(loaded)
            lpoa.analysis.fit_rate(
                lpoa.analysis.monotone_envelope(
                    lpoa.driver.hausdorff_series(loaded)),
                lpoa.driver.by_key(spec["problem"]).q, spec["eps"])
            fp = fingerprint(trace)
            failures = gate_failures(trace, report["total_violations"])
            if fingerprint(loaded) != fp:
                failures.append("trace changed in a save/load round trip")
            runs.append({**fp, "failures": failures})
        else:
            for name in traces:
                path = os.path.join(workdir, name)
                with open(path) as f:
                    trace = lpoa.trace_io.trace_from_dict(json.load(f))
                with open(path[:-5] + ".report.json") as f:
                    violations = json.load(f)["total_violations"]
                runs.append({**fingerprint(trace),
                             "failures": gate_failures(trace, violations)})
            if len(runs) != spec["runs"]:
                errors.append(f"{len(runs)} traces written, "
                              f"expected {spec['runs']}")
    return {"time_to_solution_s": tts, "cpu_s": cpu, "peak_rss_mb": peak,
            "runs": runs, "errors": errors}
