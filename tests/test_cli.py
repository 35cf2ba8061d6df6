import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from lpoa import cli, driver, scalarization
from lpoa import polytope as pt
from lpoa.cli import CSV_HEADER, main
from lpoa.driver import RunConfig, run
from lpoa.problems import by_key
from lpoa.trace_io import (SCHEMA_VERSION, TraceFormatError,
                           atomic_write_text, dumps_trace, load_trace,
                           save_trace, trace_from_dict, trace_to_dict)

from test_driver import _fault_call, _oracle_with_fault

# example1-q2, p = 2, eps = 0.01, written by `lpoa run --out` at schema
# version 1, which also wrote config.tolerances and new_vertex_count
V1_TRACE = Path(__file__).parent / "data" / "trace_v1_example1-q2.json"


def _no_run(config):
    raise AssertionError(f"a run started: {config}")


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def small_trace():
    return run(RunConfig(problem_key="ellipse", p=2.0, epsilon=0.05))


# a JSON integer too large for a float
HUGE = 10 ** 400


def malformed_documents(trace):
    """Trace documents whose config or an iteration entry is not a JSON
    object, whose problem key is unknown, whose p or epsilon is not a real
    number or max_iterations not an integer, whose initial halfspace count
    is not the integer q + 1, whose iterations are out of order, or whose
    iteration entry has a k other than its position, a residual norm that
    is not a finite non-negative number, a point or cut normal that is not
    q finite numbers, a null cut normal with a positive residual or a cut
    normal with a zero residual, a vertex count or cache hit count that is
    not a non-negative integer, or more cache hits than vertices; or whose
    final polytope has a halfspace offset that is not a finite number, or
    an incidence that is not one strictly increasing list of halfspace
    indices per vertex.  An integer too large for a float stands in for p,
    epsilon, a residual norm, a point coordinate and an offset."""
    def doc():
        return json.loads(dumps_trace(trace))
    bad_config, bad_entry, bad_entries, bad_key = doc(), doc(), doc(), doc()
    bad_config["config"] = [bad_config["config"]]
    bad_entry["iterations"][0] = [1, 2]
    bad_entries["iterations"] = {"0": bad_entries["iterations"][0]}
    bad_key["config"]["problem_key"] = "nope"
    docs = [bad_config, bad_entry, bad_entries, bad_key]
    for field, value in (("p", "2"), ("p", None), ("p", True),
                         ("p", HUGE), ("epsilon", "0.05"),
                         ("epsilon", [0.05]), ("epsilon", HUGE),
                         ("max_iterations", 500.0),
                         ("max_iterations", "500")):
        d = doc()
        d["config"][field] = value
        docs.append(d)
    q = len(trace.iterations[0].support_point)
    for value in ("three", None, float(q + 1), q, q + 2):
        d = doc()
        d["initial_halfspace_count"] = value
        docs.append(d)
    mid = len(trace.iterations) // 2
    swapped = doc()
    its = swapped["iterations"]
    its[mid], its[mid + 1] = its[mid + 1], its[mid]
    docs.append(swapped)
    edits = [("k", "3"), ("k", 2.0), ("k", True), ("k", -1),
             ("k", len(trace.iterations)), ("k", mid - 1), ("k", mid + 1),
             ("residual_norm", "0.1"), ("residual_norm", None),
             ("residual_norm", float("nan")), ("residual_norm", float("inf")),
             ("residual_norm", -0.1), ("residual_norm", HUGE)]
    for field in ("vertex_count", "cache_hits"):
        edits += [(field, "x"), (field, None), (field, -1), (field, 2.0),
                  (field, True)]
    for field in ("farthest_vertex", "support_point", "cut_normal"):
        edits += [(field, [0.5] * (q + 1)), (field, [0.5] * (q - 1)),
                  (field, [0.5] + [float("nan")] * (q - 1)),
                  (field, [float("inf")] * q), (field, ["a"] * q),
                  (field, [HUGE] + [0.5] * (q - 1))]
    for field, value in edits:
        d = doc()
        d["iterations"][mid][field] = value
        docs.append(d)
    no_normal, no_residual, hits = doc(), doc(), doc()
    no_normal["iterations"][mid]["cut_normal"] = None
    no_residual["iterations"][mid]["residual_norm"] = 0.0
    entry = hits["iterations"][mid]
    entry["cache_hits"] = entry["vertex_count"] + 1
    docs += [no_normal, no_residual, hits]
    both = doc()
    both["iterations"][mid]["farthest_vertex"] = [0.5] * (q + 1)
    both["iterations"][mid]["support_point"] = [0.5] * (q + 1)
    docs.append(both)
    m = len(trace.final_polytope.halfspaces)
    for offset in (float("nan"), float("inf"), True, "1.0", None, HUGE):
        d = doc()
        d["final_polytope"]["halfspaces"][0]["offset"] = offset
        docs.append(d)
    for incidence in (["0", "1"], [0, m], [-1, 0], [0.0, 1], [1, 0], [0, 0],
                      3, None):
        d = doc()
        d["final_polytope"]["incidence"][0] = incidence
        docs.append(d)
    short = doc()
    short["final_polytope"]["incidence"].pop()
    docs.append(short)
    return docs


class TestTraceIO:
    def test_roundtrip(self, small_trace, tmp_path):
        path = tmp_path / "t.json"
        save_trace(str(path), small_trace, {"created_at": "x"})
        loaded = load_trace(str(path))
        assert loaded.config == small_trace.config
        assert loaded.termination == small_trace.termination
        assert len(loaded.iterations) == len(small_trace.iterations)
        for a, b in zip(loaded.iterations, small_trace.iterations):
            assert np.array_equal(a.farthest_vertex, b.farthest_vertex)
            assert a.residual_norm == b.residual_norm
            assert np.array_equal(a.cut_normal, b.cut_normal)
        assert np.allclose(loaded.final_polytope.vertices(),
                           small_trace.final_polytope.vertices())

    def test_schema_keys(self, small_trace):
        doc = trace_to_dict(small_trace)
        assert set(doc) == {"schema_version", "config",
                            "initial_halfspace_count", "iterations",
                            "termination", "final_polytope", "metadata"}
        assert doc["schema_version"] == SCHEMA_VERSION

    def test_missing_key_rejected(self, small_trace):
        doc = trace_to_dict(small_trace)
        doc.pop("termination")
        with pytest.raises(TraceFormatError):
            trace_from_dict(doc)

    def test_bad_schema_version(self, small_trace):
        doc = trace_to_dict(small_trace)
        doc["schema_version"] = 99
        with pytest.raises(TraceFormatError):
            trace_from_dict(doc)

    def test_bad_termination(self, small_trace):
        doc = trace_to_dict(small_trace)
        doc["termination"] = "exploded"
        with pytest.raises(TraceFormatError):
            trace_from_dict(doc)

    def test_malformed_documents_rejected(self, small_trace):
        for doc in malformed_documents(small_trace):
            with pytest.raises(TraceFormatError):
                trace_from_dict(doc)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        for data in (b"{not json", b"\xff\xfe"):
            path.write_bytes(data)
            with pytest.raises(TraceFormatError):
                load_trace(str(path))

    def test_loads_removed_config_keys(self, small_trace):
        # version 1 traces carry tolerances and new_vertex_count, older ones
        # also seed, record_pairs and tolerances.objective, which nothing
        # read; they load, and are not written back
        doc = json.loads(dumps_trace(small_trace))
        doc["schema_version"] = 1
        doc["config"].update(seed=42, record_pairs=True, tolerances={
            "primal": 1e-8, "dual": 1e-8, "vi": 1e-6, "tol_zero": 1e-10,
            "max_iterations": 50000, "objective": 1e-7})
        for i, entry in enumerate(doc["iterations"]):
            entry["new_vertex_count"] = i
        loaded = trace_from_dict(doc)
        assert loaded.config == small_trace.config
        text = dumps_trace(loaded)
        for key in ("seed", "record_pairs", "tolerances", "new_vertex_count"):
            assert f'"{key}"' not in text
        assert text == dumps_trace(small_trace)

    def test_version_1_file_loads_as_current_run(self):
        # a trace file written at schema version 1 re-dumps to the bytes of
        # the same run today
        doc = json.loads(V1_TRACE.read_text())
        assert doc["schema_version"] == 1
        loaded = load_trace(str(V1_TRACE))
        assert dumps_trace(loaded) == dumps_trace(run(loaded.config))

    @pytest.mark.parametrize("umask", [0o022, 0o027])
    def test_written_file_mode_follows_umask(self, tmp_path, umask):
        path = tmp_path / "out.txt"
        old = os.umask(umask)
        try:
            atomic_write_text(str(path), "x\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        assert path.read_text() == "x\n"

    def test_deterministic_bytes_excluding_metadata(self, small_trace):
        again = run(small_trace.config)
        assert dumps_trace(small_trace, None) == dumps_trace(again, None)


class TestRunCommand:
    def test_converged_exit_zero(self, runner, tmp_path):
        out = tmp_path / "trace.json"
        res = runner.invoke(main, ["run", "--problem", "ellipse", "--p", "2",
                                   "--eps", "0.05", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "converged" in res.output
        trace = load_trace(str(out))
        assert trace.termination == "converged"
        md = json.loads(out.read_text())["metadata"]
        assert "created_at" in md and "wall_seconds" in md

    def test_max_iterations_exit_two(self, runner, tmp_path):
        res = runner.invoke(main, ["run", "--problem", "ellipse", "--p", "2",
                                   "--eps", "1e-6", "--max-iters", "3"])
        assert res.exit_code == 2

    @staticmethod
    def _run_with_failing_cut(runner, monkeypatch, error):
        def failing(P, h):
            raise error

        monkeypatch.setattr(driver.pt, "cut", failing)
        res = runner.invoke(main, ["run", "--problem", "example1-q2",
                                   "--p", "2", "--eps", "1e-3"])
        assert res.exit_code == 3, res.output
        assert "solver_failure" in res.output

    def test_infeasible_cut_exit_three(self, runner, monkeypatch):
        self._run_with_failing_cut(runner, monkeypatch, pt.InfeasibleError(
            "cut removes every vertex"))

    def test_null_cut_exit_three(self, runner, monkeypatch):
        self._run_with_failing_cut(
            runner, monkeypatch, pt.NullCutError("cut removes no vertex"))

    def test_oracle_error_exit_three(self, runner, monkeypatch):
        # a ValueError from gamma_eval inside a subproblem solve is a
        # solver failure, not a traceback
        config = RunConfig(problem_key="example2", p=2.0, epsilon=0.3)
        fail_at = _fault_call("example2", config, "solve_subproblem")
        inst, callers = _oracle_with_fault(by_key("example2"), fail_at)
        monkeypatch.setattr(driver, "by_key", lambda _key: inst)
        res = runner.invoke(main, ["run", "--problem", "example2",
                                   "--p", "2", "--eps", "0.3"])
        assert len(callers) == fail_at
        assert res.exit_code == 3, res.output
        assert "solver_failure" in res.output
        assert "Traceback" not in res.output

    def test_nonconvergence_exit_three(self, runner, monkeypatch):
        # no initial vertex of example2 is solved in one Newton step
        monkeypatch.setattr(scalarization, "MAX_STEPS", 1)
        res = runner.invoke(main, ["run", "--problem", "example2",
                                   "--p", "2", "--eps", "0.05"])
        assert res.exit_code == 3, res.output
        assert "solver_failure" in res.output

    def test_unknown_problem_exit_64(self, runner):
        res = runner.invoke(main, ["run", "--problem", "nope", "--p", "2",
                                   "--eps", "0.1"])
        assert res.exit_code == 64
        assert "unknown problem key" in res.output

    def test_svg_written(self, runner, tmp_path):
        svg = tmp_path / "plot.svg"
        res = runner.invoke(main, ["run", "--problem", "ellipse", "--p", "2",
                                   "--eps", "0.05", "--svg", str(svg)])
        assert res.exit_code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    @pytest.mark.parametrize("option", ["--out", "--svg"])
    def test_unwritable_output_exit_73(self, runner, tmp_path, monkeypatch,
                                       option):
        # the directory is checked before the run starts
        monkeypatch.setattr(cli, "run", _no_run)
        path = tmp_path / "missing" / "out"
        res = runner.invoke(main, ["run", "--problem", "ellipse", "--p", "2",
                                   "--eps", "0.05", option, str(path)])
        assert res.exit_code == 73, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("args", [
        ["run", "--problem", "ellipse", "--p", "1", "--eps", "0.1"],
        ["run", "--problem", "ellipse", "--p", "2", "--eps", "-1"],
        ["sweep", "--problem", "ellipse", "--p-list", "2,abc"],
        ["run", "--problem", "ellipse", "--p", "2", "--eps", "nan"],
        ["sweep", "--problem", "ellipse", "--p-list", "2", "--eps", "nan"],
        ["sweep", "--problem", "ellipse", "--p-list", "2", "--jobs", "0"],
        ["sweep", "--problem", "ellipse", "--p-list", "2", "--jobs", "-2"],
        ["sweep", "--problem", "ellipse", "--p-list", "2,2"],
        ["sweep", "--problem", "ellipse", "--p-list", "2,2.0000001"],
        ["sweep", "--problem", "nope"],
        ["run", "--problem", "ellipse", "--p", "1e308", "--eps", "0.1"],
    ])
    def test_invalid_argument_exit_64(self, runner, tmp_path, args):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            res = runner.invoke(main, args)
        assert res.exit_code == 64, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("error: ")
        assert "Traceback" not in res.output


class TestSweepCommand:
    def test_sweep_csv_and_traces(self, runner, tmp_path):
        res = runner.invoke(main, ["sweep", "--problem", "ellipse",
                                   "--p-list", "2,1.25", "--eps", "0.02",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        csv_path = tmp_path / "ellipse-summary.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        # rows sorted by p
        assert lines[1].startswith("1.25,") and lines[2].startswith("2,")
        p_star = float(lines[1].split(",")[1])
        assert p_star == pytest.approx(5.0)
        for name in ("ellipse-p1.25.json", "ellipse-p2.json"):
            assert (tmp_path / name).exists()
            load_trace(str(tmp_path / name))

    def test_sweep_failure_status_column(self, runner, tmp_path):
        res = runner.invoke(main, ["sweep", "--problem", "ellipse",
                                   "--p-list", "2", "--eps", "1e-7",
                                   "--max-iters", "3",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 1
        lines = (tmp_path / "ellipse-summary.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER + ",status"
        assert lines[1].endswith(",max_iterations")
        # the failed run gets run's summary line
        assert re.search(r"^p=2: max_iterations after 3 iterations "
                         r"\(\d+\.\d\ds\)$", res.output, re.M), res.output

    def test_sweep_parallel_matches_serial(self, runner, tmp_path):
        d1, d2 = tmp_path / "serial", tmp_path / "par"
        for d, jobs in ((d1, "1"), (d2, "2")):
            res = runner.invoke(main, ["sweep", "--problem", "ellipse",
                                       "--p-list", "2,3", "--eps", "0.02",
                                       "--out-dir", str(d), "--jobs", jobs])
            assert res.exit_code == 0, res.output
        assert ((d1 / "ellipse-summary.csv").read_text()
                == (d2 / "ellipse-summary.csv").read_text())

    def test_jobs_capped_at_run_count(self, runner, tmp_path, monkeypatch):
        # a serial stand-in records the pool size it is asked for; no
        # worker processes are started
        sizes = []

        class SerialExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                            SerialExecutor)
        for jobs, p_list in (("500", "2,3"), ("4", "2")):
            res = runner.invoke(main, ["sweep", "--problem", "ellipse",
                                       "--p-list", p_list, "--eps", "0.05",
                                       "--out-dir", str(tmp_path),
                                       "--jobs", jobs])
            assert res.exit_code == 0, res.output
        assert sizes == [2]

    def test_unwritable_output_exit_73(self, runner, tmp_path, monkeypatch):
        # an --out-dir inside a file, then an --svg in a missing directory
        # and an --svg under a file; all are found before the first run
        monkeypatch.setattr(cli, "run", _no_run)
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "traces"
        cases = [(out_dir, ["--out-dir", str(out_dir)])]
        for svg in (tmp_path / "missing" / "sweep.svg",
                    tmp_path / "file" / "sweep.svg"):
            cases.append((svg, ["--out-dir", str(tmp_path), "--svg", str(svg)]))
        for path, args in cases:
            res = runner.invoke(main, ["sweep", "--problem", "ellipse",
                                       "--p-list", "2", "--eps", "0.05",
                                       *args])
            assert res.exit_code == 73, res.output
            assert res.output.startswith(f"error: cannot write {path}: ")
            assert "Traceback" not in res.output
            assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_sweep_svg(self, runner, tmp_path):
        svg = tmp_path / "sweep.svg"
        res = runner.invoke(main, ["sweep", "--problem", "ellipse",
                                   "--p-list", "2", "--eps", "0.02",
                                   "--out-dir", str(tmp_path),
                                   "--svg", str(svg)])
        assert res.exit_code == 0
        assert "</svg>" in svg.read_text()


class TestVerifyCommand:
    def test_clean_trace(self, runner, tmp_path, small_trace):
        path = tmp_path / "t.json"
        save_trace(str(path), small_trace)
        res = runner.invoke(main, ["verify", "--trace", str(path)])
        assert res.exit_code == 0, res.output
        assert "0 violations" in res.output
        report = json.loads(res.output[: res.output.rfind("}") + 1])
        assert report["total_violations"] == 0

    def test_report_out_file(self, runner, tmp_path, small_trace):
        path = tmp_path / "t.json"
        out = tmp_path / "report.json"
        save_trace(str(path), small_trace)
        res = runner.invoke(main, ["verify", "--trace", str(path),
                                   "--out", str(out)])
        assert res.exit_code == 0
        report = json.loads(out.read_text())
        assert report["pairs"] > 0

    def test_unwritable_report_exit_73(self, runner, tmp_path, small_trace):
        # exit 1 would mean violations found
        path = tmp_path / "t.json"
        out = tmp_path / "missing" / "report.json"
        save_trace(str(path), small_trace)
        res = runner.invoke(main, ["verify", "--trace", str(path),
                                   "--out", str(out)])
        assert res.exit_code == 73, res.output
        assert res.output.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in res.output

    def test_corrupted_trace_flagged(self, runner, tmp_path, small_trace):
        # flip one cut normal: support conditions break, exit code 1
        doc = trace_to_dict(small_trace)
        mid = len(doc["iterations"]) // 2
        doc["iterations"][mid]["cut_normal"] = [
            -v for v in doc["iterations"][mid]["cut_normal"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--trace", str(path)])
        assert res.exit_code == 1
        assert "violation" in res.output

    @pytest.mark.parametrize("eta", ["-1", "0", "inf", "nan"])
    def test_nonpositive_eta_exit_64(self, runner, tmp_path, small_trace, eta):
        path = tmp_path / "t.json"
        save_trace(str(path), small_trace)
        res = runner.invoke(main, ["verify", "--trace", str(path),
                                   "--eta", eta])
        assert res.exit_code == 64, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("error: ")
        assert "Traceback" not in res.output

    def test_malformed_trace_exit_65(self, runner, tmp_path, small_trace):
        path = tmp_path / "junk.json"
        path.write_text("{\"schema_version\": 1}")
        res = runner.invoke(main, ["verify", "--trace", str(path)])
        assert res.exit_code == 65
        res2 = runner.invoke(main, ["verify", "--trace",
                                    str(tmp_path / "missing.json")])
        assert res2.exit_code == 65
        path.write_bytes(b"\xff\xfe")  # not UTF-8
        res3 = runner.invoke(main, ["verify", "--trace", str(path)])
        assert res3.exit_code == 65, res3.output
        assert res3.output.startswith("error: cannot read trace")
        for doc in malformed_documents(small_trace):
            path.write_text(json.dumps(doc))
            res = runner.invoke(main, ["verify", "--trace", str(path)])
            assert res.exit_code == 65, res.output
            assert "Traceback" not in res.output

    @pytest.mark.parametrize("edit", [
        # a p whose conjugate rounds to 1
        lambda doc: doc["config"].update(p=1e308),
        # a halfspace normal and a vertex row that are not q numbers
        lambda doc: doc["final_polytope"]["halfspaces"][0].update(
            normal=[1.0]),
        lambda doc: doc["final_polytope"]["vertices"][0].append(0.0),
        lambda doc: doc.update(metadata=5),
    ], ids=["huge_p", "short_normal", "long_vertex", "metadata"])
    def test_edited_version_1_trace_exit_65(self, runner, tmp_path, edit):
        doc = json.loads(V1_TRACE.read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TraceFormatError):
            load_trace(str(path))
        res = runner.invoke(main, ["verify", "--trace", str(path)])
        assert res.exit_code == 65, res.output
        assert "Traceback" not in res.output

    def test_version_1_trace_verifies(self, runner):
        res = runner.invoke(main, ["verify", "--trace", str(V1_TRACE)])
        assert res.exit_code == 0, res.output
        assert "0 violations" in res.output

    def test_usage_error_without_args(self, runner):
        res = runner.invoke(main, ["verify"])
        assert res.exit_code == 64
        assert "--trace" in res.output

    def test_self_test_is_unknown_option(self, runner):
        res = runner.invoke(main, ["verify", "--self-test"])
        assert res.exit_code == 64
        assert "No such option '--self-test'" in res.output


@pytest.mark.parametrize("args, message", [
    (["run", "--problem", "ellipse", "--p", "abc", "--eps", "0.1"],
     "Invalid value for '--p'"),
    (["run", "--problem", "ellipse", "--eps", "0.1"], "Missing option '--p'"),
    (["run", "--bogus"], "No such option '--bogus'"),
    (["run", "--problem", "ellipse", "--p", "2", "--eps", "0.1", "--out",
      "."], "is a directory"),
    (["verify", "--trace", "."], "is a directory"),
    (["nosuch"], "No such command 'nosuch'"),
    (["--bogus"], "No such option '--bogus'"),
], ids=["run-p-abc", "run-no-p", "run-unknown-option", "run-out-directory",
        "verify-trace-directory", "unknown-command", "unknown-group-option"])
def test_usage_error_exits_64(runner, args, message):
    # click's own code, 2, would read as run's max_iterations
    res = runner.invoke(main, args)
    assert res.exit_code == 64, res.output
    assert message in res.output


def test_usage_error_code_without_standalone_mode():
    with pytest.raises(click.UsageError) as err:
        main.main(args=["run", "--p", "abc"], prog_name="lpoa",
                  standalone_mode=False)
    assert err.value.exit_code == 64


def test_cli_import_leaves_scipy_unloaded():
    """The library is numpy-only: importing the CLI loads no scipy."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, lpoa.cli; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
