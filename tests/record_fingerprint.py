"""Re-record tests/data/matrix_fingerprint.json from the acceptance matrix.

    PYTHONPATH=src python tests/record_fingerprint.py [--against REV]

Runs every (problem, p) entry of the committed file at its epsilon through
cli._sweep_runs, as the acceptance suite's matrix fixture does, and rewrites
the entries that test_matrix_fingerprint compares by hash: termination,
iteration count, residual series and SHA-256 of dumps_trace.  The ellipse
entries are compared by rule (termination and iteration count equal,
residuals within 1e-8 relative, farthest vertices within 1e-9 up to the
y1 <-> y2 swap), never by hash; they are kept as they are, and the script
reports any run that no longer matches its entry under that rule.

For every run it prints the first iteration where the farthest vertex
differs from the same run at the git revision REV (default HEAD, the
committed code) by more than 1e-9 in a coordinate, the relative gap between
the two revisions' residuals there, and the largest such gap before it: a
near-tie between two vertices shows as a gap at the rounding level.  REV's
src/ is taken with `git archive` into a temporary directory and run in a
subprocess.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINT = ROOT / "tests" / "data" / "matrix_fingerprint.json"
RULE_COMPARED = ("ellipse",)


def _runs(doc):
    """(key, p, trace) of every run of the fingerprint document."""
    from lpoa.cli import _sweep_runs
    from lpoa.driver import RunConfig

    for key, entries in doc["runs"].items():
        configs = [RunConfig(problem_key=key, p=float(p),
                             epsilon=doc["epsilon"][key]) for p in entries]
        for p, trace, _ in _sweep_runs(configs, 2):
            yield key, repr(p), trace


def _series(trace):
    """The farthest vertices and the residuals of a trace."""
    return ([rec.farthest_vertex.tolist() for rec in trace.iterations],
            [rec.residual_norm for rec in trace.iterations])


def _series_at(rev, doc):
    """key -> p -> _series of every run of doc at the git revision rev, in a
    subprocess on its src/."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src")}
        out = subprocess.run([sys.executable, __file__, "--series"],
                             input=json.dumps(doc), env=env, check=True,
                             capture_output=True, text=True).stdout
    return json.loads(out)


def _matches_rule(entry, trace):
    if (trace.termination != entry["termination"]
            or len(trace.iterations) != entry["iterations"]):
        return False
    got = np.array([rec.residual_norm for rec in trace.iterations])
    expected = np.array(entry["residual_norm"])
    if np.any(np.abs(got - expected) > 1e-8 * expected):
        return False
    return all(min(np.max(np.abs(rec.farthest_vertex - v)),
                   np.max(np.abs(rec.farthest_vertex - v[::-1]))) <= 1e-9
               for rec, v in zip(trace.iterations,
                                 map(np.array, entry["farthest_vertex"])))


def _first_difference(new, old):
    """(k, largest relative residual gap before k, relative residual gap at
    k) for the first iteration k where the farthest vertices differ by more
    than 1e-9 in a coordinate (more than the rounding of one vertex); k and
    the gap at k are None where no vertex differs."""
    (v_new, r_new), (v_old, r_old) = new, old
    gaps = [abs(a - b) / abs(b) if b else abs(a)
            for a, b in zip(r_new, r_old)]
    k = next((k for k, (a, b) in enumerate(zip(v_new, v_old))
              if np.max(np.abs(np.subtract(a, b))) > 1e-9), None)
    return k, max(gaps[:k], default=0.0), None if k is None else gaps[k]


def main():
    from lpoa.trace_io import dumps_trace

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", default="HEAD", metavar="REV")
    parser.add_argument("--series", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.series:
        series = {}
        for key, p, trace in _runs(json.load(sys.stdin)):
            series.setdefault(key, {})[p] = _series(trace)
        json.dump(series, sys.stdout)
        return

    doc = json.loads(FINGERPRINT.read_text())
    counts, series = [], {}
    for key, p, trace in _runs(doc):
        entry = doc["runs"][key][p]
        series.setdefault(key, {})[p] = _series(trace)
        counts.append((key, p, entry["iterations"], len(trace.iterations)))
        if key in RULE_COMPARED:
            if not _matches_rule(entry, trace):
                print(f"{key} p={p}: does not match its recorded entry; "
                      "kept, and test_matrix_fingerprint fails")
            continue
        doc["runs"][key][p] = {
            "termination": trace.termination,
            "iterations": len(trace.iterations),
            "residual_norm": [rec.residual_norm for rec in trace.iterations],
            "sha256": hashlib.sha256(
                dumps_trace(trace).encode()).hexdigest()}
    FINGERPRINT.write_text(json.dumps(doc, indent=1) + "\n")

    old = _series_at(args.against, doc)
    for key, p, was, now in counts:
        k, before, there = _first_difference(series[key][p], old[key][p])
        where = (f"same farthest vertices, residuals within {before:.1e} "
                 "relative" if k is None else f"residuals within "
                 f"{before:.1e} relative before the first differing vertex "
                 f"at k = {k}, gap {there:.1e} relative there")
        print(f"{key} p={p}: {was} -> {now} iterations; {where}")


if __name__ == "__main__":
    main()
