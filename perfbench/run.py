"""lpoa benchmark: time to solution of three batch workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the program is imported from
`src/`.  Every repetition is a fresh worker process, so set-up (interpreter
start, importing lpoa, building the problem and the initial polytope) is
measured apart from the timed call.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 runs enough repetitions to fill --seconds and prints the
end-to-end metrics as medians over them.  --trace 1 runs a traced
repetition between two untraced ones and prints the per-layer metrics of
the traced one, with the tracing overhead (traced minus the mean untraced
time_to_solution_s).
`--workload all` does both for every workload and prints a table.

The workloads have no random input, so --seed is recorded and changes
nothing.  BLAS and OpenMP threads are pinned to 1 in every worker.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from spans import LAYER_UNITS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 4
DEADLINE_S = 170.0      # a run must exit within 180 s

E2E_UNITS = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "runs_ok_frac": "ratio",
}
TRACE_UNITS = {
    **LAYER_UNITS,
    "trace.time_to_solution_s": "s",
    "trace.overhead_s": "s",
    "env.probe_ms": "ms",
}


class BenchmarkError(RuntimeError):
    pass


def env_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def probe_ms() -> float:
    """Median time of a fixed pure-Python and numpy loop: a machine-speed
    reading to tell drift from a regression; it rescales nothing."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i % 7
        a = np.arange(3.0)
        for _ in range(5_000):
            a = np.maximum(a * 1.0001 - 0.5, 0.0) + 0.5
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def spawn(spec: dict, mode: str, workdir: str, deadline: float):
    """Run one worker; returns (set-up seconds, result dict or None)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT,
           json.dumps(spec), mode, workdir]
    t0 = time.perf_counter()
    # its own session, so that a kill also reaches the sweep's pool workers
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchmarkError(f"worker ({mode}) did not finish set-up")
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except (subprocess.TimeoutExpired, BenchmarkError):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchmarkError(f"worker ({mode}) exited {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    with open(os.path.join(workdir, "result.json")) as f:
        return setup_s, json.load(f)


def repetition(spec: dict, mode: str, deadline: float, tag: str):
    workdir = os.path.join(OUT, f"work-{os.getpid()}-{tag}")
    os.makedirs(workdir)
    try:
        setup_s, result = spawn(spec, mode, workdir, deadline)
        if mode == "traced":
            os.replace(os.path.join(workdir, "spans.npz"),
                       os.path.join(OUT, f"spans-{spec['name']}.npz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return setup_s, result


def gate_counts(spec: dict, results: list[dict]) -> tuple[int, int, list[str]]:
    """(runs attempted, runs failed, problems) over the repetitions.

    A repetition with an error counts all its runs as failed.  Every
    repetition of identical code must give identical fingerprints.
    """
    expected = spec["runs"]
    attempted = failed = 0
    problems = []
    for res in results:
        attempted += expected
        ok = sum(1 for r in res["runs"] if not r["failures"])
        failed += expected if res["errors"] else expected - ok
        problems += res["errors"]
        problems += [f"{r['label']}: {f}" for r in res["runs"]
                     for f in r["failures"]]
    prints = [[{k: r[k] for k in ("label", "termination", "iterations", "sha256")}
               for r in res["runs"]] for res in results]
    if any(p != prints[0] for p in prints):
        problems.append("fingerprints differ between repetitions")
    return attempted, failed, problems


def measure(spec: dict, seconds: int, trace: int) -> dict:
    """One benchmark run of a workload spec (see workloads.WORKLOADS)."""
    deadline = time.monotonic() + DEADLINE_S
    probes = [probe_ms()]
    setups, results = [], []
    if trace:
        # plain, traced, plain: the overhead against the mean of the two
        # plain repetitions cancels a linear drift in machine speed
        for tag, mode in (("a", "plain"), ("t", "traced"), ("b", "plain")):
            setup_s, res = repetition(spec, mode, deadline, tag)
            setups.append(setup_s)
            results.append(res)
    else:
        # set-up probes before and after the repetitions, so that their
        # median samples the machine's speed over the whole run
        setups += [spawn(spec, "setup", OUT, deadline)[0]
                   for _ in range(SETUP_PROBES)]
        t0 = time.monotonic()
        reps = 1
        while len(results) < reps:
            r0 = time.monotonic()
            setup_s, res = repetition(spec, "plain", deadline, str(len(results)))
            setups.append(setup_s)
            results.append(res)
            rep_s = time.monotonic() - r0
            if len(results) == 1:
                # the repetition count that brings the measuring time
                # nearest to --seconds, so a slow machine gets fewer
                reps = max(1, round(seconds / rep_s))
            if time.monotonic() + rep_s > deadline - 5.0:
                break
        measured_s = time.monotonic() - t0
        setups += [spawn(spec, "setup", OUT, deadline)[0]
                   for _ in range(SETUP_PROBES)]
    probes.append(probe_ms())

    attempted, failed, problems = gate_counts(spec, results)
    tts = [r["time_to_solution_s"] for r in results]
    if trace:
        values = dict(results[1]["layers"])
        values["trace.time_to_solution_s"] = tts[1]
        values["trace.overhead_s"] = tts[1] - (tts[0] + tts[2]) / 2
        values["env.probe_ms"] = statistics.median(probes)
        units = TRACE_UNITS
    else:
        values = {
            "time_to_solution_s": statistics.median(tts),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(r["cpu_s"] for r in results),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
            "runs_ok_frac": (attempted - failed) / attempted,
        }
        units = E2E_UNITS
    return {
        "workload": spec["name"],
        "trace": trace,
        "env": env_info(),
        "env.probe_ms": probes,
        "repetitions": len(results),
        "measured_s": None if trace else measured_s,
        "samples": {"time_to_solution_s": tts, "setup_s": setups},
        "fingerprints": results[0]["runs"],
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def report(rec: dict, seed: int) -> None:
    path = os.path.join(OUT, f"{rec['workload']}-trace{rec['trace']}-seed{seed}.json")
    with open(path, "w") as f:
        json.dump({**rec, "seed": seed}, f, indent=2)
    print("env " + json.dumps(rec["env"]))
    for fp in rec["fingerprints"]:
        print(f"fingerprint {fp['label']} {fp['termination']} "
              f"{fp['iterations']} {fp['sha256']}")
    for problem in rec["problems"]:
        print(f"gate: {problem}")
    for k, m in rec["metrics"].items():
        print(f"{rec['workload']} {k} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=48)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lpoa", "driver.py")):
        print(f"error: no lpoa source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    try:
        recs = [measure({"name": n, **WORKLOADS[n]}, args.seconds, t)
                for n in names for t in modes]
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in recs:
        report(rec, args.seed)
    if len(recs) == 1:
        rec = recs[0]
        print(result_line(rec["correct"], rec["attempted"], rec["failed"],
                          rec["metrics"]))
    else:
        print(result_line(all(r["correct"] for r in recs),
                          sum(r["attempted"] for r in recs),
                          sum(r["failed"] for r in recs),
                          {f"{r['workload']}:{k}": m for r in recs
                           for k, m in r["metrics"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
