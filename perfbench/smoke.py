"""Smoke test of the benchmark itself, at a loose epsilon and one repetition.

    python3 perfbench/smoke.py          (or: python3 -m pytest perfbench/smoke.py)

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is printed with its unit, and that the correctness gate counts a corrupted
trace as failed.  Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import run

SMOKE_SPECS = (
    {"name": "smoke-single", "kind": "single", "problem": "ellipse", "p": 2.0,
     "eps": 0.05, "runs": 1},
    {"name": "smoke-sweep", "kind": "sweep", "problem": "ellipse", "eps": 0.05,
     "p_list": [1.5, 2.0], "jobs": 2, "runs": 2},
)


def _declared() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}


def test_every_metric_printed_with_its_unit():
    declared = _declared()
    os.makedirs(run.OUT, exist_ok=True)
    for spec in SMOKE_SPECS:
        for trace in (0, 1):
            rec = run.measure(spec, seconds=1, trace=trace)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.report(rec, seed=0)
                print(run.result_line(rec["correct"], rec["attempted"],
                                      rec["failed"], rec["metrics"]))
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, rec["problems"]
            assert result["failed"] == 0
            assert result["attempted"] == spec["runs"] * rec["repetitions"]
            metrics = result["metrics"]
            assert set(metrics) == set(declared[trace]), (
                set(metrics) ^ set(declared[trace]))
            for name, unit in declared[trace].items():
                assert metrics[name]["unit"] == unit, name
                assert isinstance(metrics[name]["value"], (int, float)), name
                assert any(line.startswith(f"{spec['name']} {name} = ")
                           and line.endswith(f" {unit}") for line in lines), name


def test_gate_counts_corrupted_trace_as_failed():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from lpoa.driver import RunConfig, run as lpoa_run
    from lpoa.analysis import verify_trace
    from gate import fingerprint, gate_failures

    trace = lpoa_run(RunConfig(problem_key="ellipse", p=2.0, epsilon=0.05))
    assert gate_failures(trace, verify_trace(trace)["total_violations"]) == []

    # a cut normal scaled by 2 breaks the dual-norm identity
    its = list(trace.iterations)
    its[0] = dataclasses.replace(its[0], cut_normal=2.0 * its[0].cut_normal)
    bad = dataclasses.replace(trace, iterations=tuple(its))
    failures = gate_failures(bad, verify_trace(bad)["total_violations"])
    assert any("dual norm" in f for f in failures), failures

    spec = {"runs": 1}
    results = [{"runs": [{**fingerprint(bad), "failures": failures}],
                "errors": []}]
    attempted, failed, problems = run.gate_counts(spec, results)
    assert (attempted, failed) == (1, 1) and problems


if __name__ == "__main__":
    test_every_metric_printed_with_its_unit()
    test_gate_counts_corrupted_trace_as_failed()
    print("smoke: ok")
