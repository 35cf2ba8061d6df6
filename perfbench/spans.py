"""In-memory span recorder and the patches that trace lpoa from outside.

Every patch wraps a call into one of lpoa's public entry points by replacing
the module attribute the caller looks up; no file of the program changes.
A span records its name, start, end, parent span and run.  Spans stay in
compact arrays until the traced run ends and are then written to one .npz
file.  Runs executed by forked sweep workers write their spans to a spill
directory when they finish; the parent merges those files.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from array import array

import numpy as np

# span name -> layer (the lpoa module that owns the entry point)
SPAN_LAYERS = {
    "driver.run": "driver",
    "scalarization.solve_batch": "scalarization",
    "scalarization.solve_subproblem": "scalarization",
    "scalarization.prox_lp_norm": "scalarization",
    "problems.gamma_eval": "problems",
    "problems.gamma_jacobian": "problems",
    "problems.feasible_project": "problems",
    "problems.upper_project": "problems",
    "polytope.cut": "polytope",
    "polytope.vertices": "polytope",
    "cli.sweep": "cli",
    "cli.verify": "cli",
    "trace_io.save_trace": "trace_io",
    "trace_io.load_trace": "trace_io",
    "analysis.fit_rate": "analysis",
    "analysis.verify_trace": "analysis",
}
SPAN_NAMES = tuple(SPAN_LAYERS)
ORACLES = ("gamma_eval", "gamma_jacobian", "feasible_project", "upper_project")


class SpanRecorder:
    """Spans of one process, kept in arrays until written out."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.parent_pid = os.getpid()
        self._spills = 0
        self.name = array("b")
        self.run = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.admm_steps = array("i")       # one entry per solve_subproblem
        self._stack = [-1]
        self._reset()

    def _reset(self) -> None:
        """Forget every span; the arrays are cleared in place because the
        wrappers hold their bound methods."""
        self.pid = os.getpid()
        for arr in (self.name, self.run, self.parent, self.start, self.end,
                    self.admm_steps):
            del arr[:]
        del self._stack[1:]
        self.trace_bytes = 0
        self.runs: list[dict] = []          # one summary per driver.run
        self.run_labels: list[str] = ["batch"]
        self.current_run = 0

    def wrap(self, span: str, fn):
        """fn wrapped so that each call records one span named `span`."""
        nid = SPAN_NAMES.index(span)
        rec = self
        add_name, add_run = self.name.append, self.run.append
        add_parent, stack = self.parent.append, self._stack
        add_start, add_end = self.start.append, self.end.append
        start, end = self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            add_name(nid)
            add_run(rec.current_run)
            add_parent(stack[-1])
            add_start(0.0)
            add_end(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def begin_run(self, label: str) -> None:
        """Start a run; in a forked sweep worker, first drop the spans
        inherited from the parent."""
        if self.pid != os.getpid():
            self._reset()
        self.run_labels.append(label)
        self.current_run = len(self.run_labels) - 1

    def end_run(self, summary: dict) -> None:
        self.runs.append(summary)
        self.current_run = 0
        if self.pid != self.parent_pid:
            self._spills += 1
            write_spans(os.path.join(self.spill_dir,
                                     f"spans-{self.pid}-{self._spills}.npz"),
                        self.arrays(), self.meta())
            self._reset()

    def arrays(self) -> dict:
        return {"name": np.array(self.name, dtype=np.int8),
                "run": np.array(self.run, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "admm_steps": np.array(self.admm_steps, dtype=np.int32)}

    def meta(self) -> dict:
        return {"run_labels": self.run_labels, "runs": self.runs,
                "trace_bytes": self.trace_bytes}


def write_spans(path: str, arrays: dict, meta: dict) -> None:
    meta = {"span_names": list(SPAN_NAMES), **meta}
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


def load_spans(path: str) -> tuple[dict, dict]:
    with np.load(path, allow_pickle=False) as f:
        arrays = {k: f[k] for k in f.files if k != "meta"}
        meta = json.loads(str(f["meta"]))
    return arrays, meta


def merge_spans(parts: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    """Concatenate span sets, re-basing parent indices and run ids."""
    keys = ("name", "run", "parent", "start", "end", "admm_steps")
    out = {k: [] for k in keys}
    meta = {"run_labels": [], "runs": [], "trace_bytes": 0}
    offset = 0
    for arrays, m in parts:
        run_base = len(meta["run_labels"])
        for k in keys:
            v = arrays[k]
            if k == "parent":
                v = np.where(v >= 0, v + offset, -1)
            elif k == "run":
                v = v + run_base
            out[k].append(v)
        meta["run_labels"] += m["run_labels"]
        meta["runs"] += m["runs"]
        meta["trace_bytes"] += m["trace_bytes"]
        offset += len(arrays["start"])
    return {k: np.concatenate(v) for k, v in out.items()}, meta


def self_times(arrays: dict) -> np.ndarray:
    """Span duration minus the part of it covered by child spans."""
    dur = arrays["end"] - arrays["start"]
    child = np.zeros_like(dur)
    has_parent = arrays["parent"] >= 0
    np.add.at(child, arrays["parent"][has_parent], dur[has_parent])
    return dur - child


# ---------------------------------------------------------------------------
# patching lpoa


def _wrap_instance(rec: SpanRecorder, inst):
    """The problem instance with every oracle the solver calls wrapped."""
    changes = {}
    for attr in ORACLES:
        fn = getattr(inst, attr)
        if fn is not None:
            changes[attr] = rec.wrap(f"problems.{attr}", fn)
    return dataclasses.replace(inst, **changes)


def _run_summary(trace, wall_s: float) -> dict:
    its = trace.iterations
    final = trace.final_polytope
    return {
        "wall_s": wall_s,
        "iterations": len(its),
        "iteration_ms": [rec.wall_ms for rec in its],
        "cache_hits": sum(rec.cache_hits for rec in its),
        "vertex_count": sum(rec.vertex_count for rec in its),
        "vertices_final": 0 if final is None else len(final.vertices_array),
    }


def install(rec: SpanRecorder) -> list[tuple[object, str, object]]:
    """Patch lpoa's entry points; returns what uninstall() needs to undo it."""
    import lpoa.analysis
    import lpoa.cli
    import lpoa.driver
    import lpoa.polytope
    import lpoa.scalarization
    import lpoa.trace_io

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    sc = lpoa.scalarization
    solve = sc.solve_subproblem
    solve_span = rec.wrap("scalarization.solve_subproblem", solve)

    def solve_subproblem(*args, **kwargs):
        res = solve_span(*args, **kwargs)
        rec.admm_steps.append(res.iterations)
        return res

    patch(sc, "solve_subproblem", solve_subproblem)
    patch(sc, "prox_lp_norm", rec.wrap("scalarization.prox_lp_norm",
                                       sc.prox_lp_norm))
    patch(lpoa.driver, "solve_batch", rec.wrap("scalarization.solve_batch",
                                               lpoa.driver.solve_batch))
    patch(lpoa.polytope, "cut", rec.wrap("polytope.cut", lpoa.polytope.cut))
    patch(lpoa.polytope.Polytope, "vertices",
          rec.wrap("polytope.vertices", lpoa.polytope.Polytope.vertices))

    wrapped_instances: dict = {}
    by_key = lpoa.driver.by_key

    def traced_by_key(key):
        if key not in wrapped_instances:
            wrapped_instances[key] = _wrap_instance(rec, by_key(key))
        return wrapped_instances[key]

    patch(lpoa.driver, "by_key", traced_by_key)

    run_span = rec.wrap("driver.run", lpoa.driver.run)

    def run(config):
        rec.begin_run(f"{config.problem_key}:p={config.p:g}")
        t0 = time.perf_counter()
        trace = run_span(config)
        rec.end_run(_run_summary(trace, time.perf_counter() - t0))
        return trace

    patch(lpoa.driver, "run", run)
    patch(lpoa.cli, "run", run)

    save_span = rec.wrap("trace_io.save_trace", lpoa.trace_io.save_trace)

    def save_trace(path, trace, metadata=None):
        save_span(path, trace, metadata)
        rec.trace_bytes += os.path.getsize(path)

    for module in (lpoa.trace_io, lpoa.cli):
        patch(module, "save_trace", save_trace)
    load = rec.wrap("trace_io.load_trace", lpoa.trace_io.load_trace)
    fit = rec.wrap("analysis.fit_rate", lpoa.analysis.fit_rate)
    verify = rec.wrap("analysis.verify_trace", lpoa.analysis.verify_trace)
    for module in (lpoa.trace_io, lpoa.cli):
        patch(module, "load_trace", load)
    for module in (lpoa.analysis, lpoa.cli):
        patch(module, "fit_rate", fit)
        patch(module, "verify_trace", verify)
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> unit of every metric layer_metrics() returns
LAYER_UNITS = {
    "scalarization.solves": "count",
    "scalarization.solve_s": "s",
    "scalarization.solve_ms_p50": "ms",
    "scalarization.solve_ms_p95": "ms",
    "scalarization.admm_steps": "count",
    "scalarization.admm_steps_p50": "count",
    "scalarization.admm_steps_max": "count",
    "scalarization.us_per_step": "us",
    "scalarization.prox_calls": "count",
    "scalarization.prox_s": "s",
    "scalarization.self_s": "s",
    "problems.oracle_calls": "count",
    "problems.oracle_s": "s",
    "polytope.cut_calls": "count",
    "polytope.cut_s": "s",
    "polytope.cut_ms_p95": "ms",
    "polytope.self_s": "s",
    "polytope.vertices_final": "count",
    "driver.iterations": "count",
    "driver.cache_hit_ratio": "ratio",
    "driver.self_s": "s",
    "driver.iteration_ms_p50": "ms",
    "driver.iteration_ms_p95": "ms",
    "trace_io.write_s": "s",
    "trace_io.read_s": "s",
    "trace_io.bytes": "B",
    "analysis.fit_s": "s",
    "analysis.verify_s": "s",
    "cli.sweep_run_s_max": "s",
    "cli.sweep_parallel_efficiency": "ratio",
    "trace.self_sum_frac": "ratio",
    "trace.spans": "count",
}


def layer_metrics(arrays: dict, meta: dict, time_to_solution_s: float,
                  jobs: int) -> dict:
    """Per-layer figures of one traced repetition.

    Counts and times are totals over the repetition's runs, whichever
    process ran them.  trace.self_sum_frac is the summed self time of the
    driver, scalarization, problems and polytope spans over the traced
    time_to_solution_s; runs in parallel workers can push it above 1.  The
    parallel efficiency divides the summed run walls by the sweep's own
    wall (or the time to solution, without a sweep) times `jobs`.
    """
    name = arrays["name"]
    dur = arrays["end"] - arrays["start"]
    own = self_times(arrays)
    names = np.array(SPAN_NAMES)[name]
    layers = np.array([SPAN_LAYERS[n] for n in SPAN_NAMES])[name]

    def spans_of(span):
        return dur[names == span]

    def pct(values, q):
        return float(np.percentile(values, q)) if len(values) else 0.0

    solve = spans_of("scalarization.solve_subproblem")
    steps = arrays["admm_steps"]
    cut = spans_of("polytope.cut")
    runs = meta["runs"]
    iteration_ms = [ms for r in runs for ms in r["iteration_ms"]]
    vertex_count = sum(r["vertex_count"] for r in runs)
    run_walls = [r["wall_s"] for r in runs]
    sweep = spans_of("cli.sweep")
    batch_s = float(sweep.sum()) if len(sweep) else time_to_solution_s
    core = np.isin(layers, ("driver", "scalarization", "problems", "polytope"))
    return {
        "scalarization.solves": int(len(solve)),
        "scalarization.solve_s": float(solve.sum()),
        "scalarization.solve_ms_p50": pct(solve, 50) * 1e3,
        "scalarization.solve_ms_p95": pct(solve, 95) * 1e3,
        "scalarization.admm_steps": int(steps.sum()),
        "scalarization.admm_steps_p50": pct(steps, 50),
        "scalarization.admm_steps_max": int(steps.max()) if len(steps) else 0,
        "scalarization.us_per_step": (float(solve.sum()) / max(1, int(steps.sum()))
                                      * 1e6),
        "scalarization.prox_calls": int(len(spans_of("scalarization.prox_lp_norm"))),
        "scalarization.prox_s": float(spans_of("scalarization.prox_lp_norm").sum()),
        "scalarization.self_s": float(own[layers == "scalarization"].sum()),
        "problems.oracle_calls": int(np.count_nonzero(layers == "problems")),
        "problems.oracle_s": float(dur[layers == "problems"].sum()),
        "polytope.cut_calls": int(len(cut)),
        "polytope.cut_s": float(cut.sum()),
        "polytope.cut_ms_p95": pct(cut, 95) * 1e3,
        "polytope.self_s": float(own[layers == "polytope"].sum()),
        "polytope.vertices_final": sum(r["vertices_final"] for r in runs),
        "driver.iterations": sum(r["iterations"] for r in runs),
        "driver.cache_hit_ratio": (sum(r["cache_hits"] for r in runs)
                                   / max(1, vertex_count)),
        "driver.self_s": float(own[layers == "driver"].sum()),
        "driver.iteration_ms_p50": pct(iteration_ms, 50),
        "driver.iteration_ms_p95": pct(iteration_ms, 95),
        "trace_io.write_s": float(spans_of("trace_io.save_trace").sum()),
        "trace_io.read_s": float(spans_of("trace_io.load_trace").sum()),
        "trace_io.bytes": meta["trace_bytes"],
        "analysis.fit_s": float(spans_of("analysis.fit_rate").sum()),
        "analysis.verify_s": float(spans_of("analysis.verify_trace").sum()),
        "cli.sweep_run_s_max": max(run_walls, default=0.0),
        "cli.sweep_parallel_efficiency": sum(run_walls) / (batch_s * jobs),
        "trace.self_sum_frac": float(own[core].sum()) / time_to_solution_s,
        "trace.spans": int(len(dur)),
    }
