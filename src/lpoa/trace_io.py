"""Trace JSON, the one module that writes and reads it, and atomic file output.

A trace (schema version 2) is a JSON object with the keys
    schema_version           2
    config                   problem_key, p, epsilon, max_iterations
    initial_halfspace_count  J + 1 = q + 1
    iterations               a list of k, farthest_vertex, residual_norm,
                             support_point, cut_normal, vertex_count,
                             cache_hits
    termination              converged, max_iterations or solver_failure
    final_polytope           halfspaces (normal, offset), vertices and
                             incidence, or null
    metadata                 wall-clock information
Everything except metadata serializes to byte-identical JSON for identical
runs.  The loader reads versions 1 and 2 and ignores what older writers
added and nothing reads: the config's solver tolerances, seed and
record_pairs, and each iteration's net change in vertex count.  It checks
each field as it parses it, and raises TraceFormatError for a file that is
not UTF-8 JSON or a malformed document.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import polytope as pt
from .driver import IterationRecord, RunConfig, RunTrace
from .problems import by_key

__all__ = [
    "SCHEMA_VERSION",
    "TraceFormatError",
    "trace_to_dict",
    "trace_from_dict",
    "dumps_trace",
    "save_trace",
    "load_trace",
    "atomic_write_text",
]

SCHEMA_VERSION = 2

_TERMINATIONS = ("converged", "max_iterations", "solver_failure")


class TraceFormatError(ValueError):
    """Raised when a trace file is missing keys or structurally invalid."""


def trace_to_dict(trace: RunTrace, metadata: dict | None = None) -> dict:
    c = trace.config
    P = trace.final_polytope
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {"problem_key": c.problem_key, "p": c.p,
                   "epsilon": c.epsilon, "max_iterations": c.max_iterations},
        "initial_halfspace_count": trace.initial_halfspace_count,
        "iterations": [{
            "k": rec.k,
            "farthest_vertex": rec.farthest_vertex.tolist(),
            "residual_norm": rec.residual_norm,
            "support_point": rec.support_point.tolist(),
            "cut_normal": (None if rec.cut_normal is None
                           else rec.cut_normal.tolist()),
            "vertex_count": rec.vertex_count,
            "cache_hits": rec.cache_hits,
        } for rec in trace.iterations],
        "termination": trace.termination,
        "final_polytope": None if P is None else {
            "halfspaces": [{"normal": h.normal.tolist(), "offset": h.offset}
                           for h in P.halfspaces],
            "vertices": P.vertices_array.tolist(),
            "incidence": [np.flatnonzero(row).tolist()
                          for row in P.incidence],
        },
        "metadata": metadata if metadata is not None else {},
    }


def _vector(value, name: str, q: int) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.shape != (q,) or not np.isfinite(v).all():
        raise ValueError(f"{name} must be {q} finite numbers, got {value!r}")
    return v


def _point(d: dict, name: str, q: int) -> np.ndarray:
    return _vector(d[name], f"{name} of iteration {d['k']}", q)


def _count(d: dict, name: str) -> int:
    n = d[name]
    if type(n) is not int or n < 0:
        raise ValueError(f"{name} of iteration {d['k']} must be a "
                         f"non-negative integer, got {n!r}")
    return n


def _iteration_from_dict(d: dict, q: int, position: int) -> IterationRecord:
    """k equal to the entry's position, a finite non-negative residual that
    is zero exactly when the cut normal is null, finite points and normal in
    R^q, non-negative integer counts with no more cache hits than
    vertices."""
    k, res = d["k"], d["residual_norm"]
    if type(k) is not int or k != position:
        raise ValueError(f"iteration {position} must have k = {position}, "
                         f"got {k!r}")
    if type(res) not in (int, float) or not 0 <= res < math.inf:
        raise ValueError("residual_norm must be a finite non-negative "
                         f"number, got {res!r}")
    if (d["cut_normal"] is None) != (res == 0):
        raise ValueError(f"iteration {k}: cut_normal must be null exactly "
                         f"when residual_norm is 0, got {res!r}")
    vertices, hits = _count(d, "vertex_count"), _count(d, "cache_hits")
    if hits > vertices:
        raise ValueError(f"iteration {k} has {hits} cache hits among "
                         f"{vertices} vertices")
    return IterationRecord(
        k=k, farthest_vertex=_point(d, "farthest_vertex", q),
        residual_norm=float(res), support_point=_point(d, "support_point", q),
        cut_normal=(None if d["cut_normal"] is None
                    else _point(d, "cut_normal", q)),
        vertex_count=vertices, cache_hits=hits,
        wall_ms=0.0)  # wall time is not part of the trace


def _polytope_from_dict(poly: dict, q: int) -> pt.Polytope:
    """Normals and vertices in R^q, finite offsets, and for each vertex one
    strictly increasing list of indices into the halfspaces."""
    hs, inc = poly["halfspaces"], poly["incidence"]
    for b in (h["offset"] for h in hs):
        if type(b) not in (int, float) or not math.isfinite(b):
            raise ValueError("halfspace offset must be a finite number, "
                             f"got {b!r}")
    vertices = [_vector(y, "vertex", q) for y in poly["vertices"]]
    if len(inc) != len(vertices) or not all(
            isinstance(s, list) and all(type(i) is int for i in s)
            and all(0 <= i < j for i, j in zip(s, s[1:] + [len(hs)]))
            for s in inc):
        raise ValueError(f"incidence must be {len(vertices)} strictly "
                         f"increasing lists of indices in [0, {len(hs)})")
    incidence = np.zeros((len(vertices), len(hs)), dtype=bool)
    for row, s in zip(incidence, inc):
        row[s] = True
    return pt.Polytope(
        tuple(pt.Halfspace(_vector(h["normal"], "halfspace normal", q),
                           h["offset"]) for h in hs),
        np.array(vertices), incidence)


def trace_from_dict(doc: dict) -> RunTrace:
    try:
        if doc["schema_version"] not in (1, 2):
            raise ValueError(
                f"unsupported schema version {doc['schema_version']!r}")
        if doc["termination"] not in _TERMINATIONS:
            raise ValueError(f"unknown termination {doc['termination']!r}")
        entries = doc["iterations"]
        if not isinstance(entries, list):
            raise ValueError("iterations must be a JSON list")
        c = doc["config"]
        config = RunConfig(problem_key=c["problem_key"], p=c["p"],
                           epsilon=c["epsilon"],
                           max_iterations=c["max_iterations"])
        q = by_key(config.problem_key).q
        h0 = doc["initial_halfspace_count"]
        if type(h0) is not int or h0 != q + 1:
            raise ValueError(f"initial_halfspace_count must be q + 1 = "
                             f"{q + 1}, got {h0!r}")
        iterations = tuple(_iteration_from_dict(d, q, i)
                           for i, d in enumerate(entries))
        if not isinstance(doc.get("metadata", {}), dict):
            raise ValueError("metadata must be a JSON object")
        poly = doc["final_polytope"]
        final = None if poly is None else _polytope_from_dict(poly, q)
        return RunTrace(config=config, iterations=iterations,
                        final_polytope=final, termination=doc["termination"])
    except KeyError as exc:
        raise TraceFormatError(f"trace is missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceFormatError(f"malformed trace: {exc}") from exc


def dumps_trace(trace: RunTrace, metadata: dict | None = None) -> str:
    return json.dumps(trace_to_dict(trace, metadata), indent=2,
                      sort_keys=True) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory plus rename; the file
    gets the mode open(path, "w") would give it."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    # mkstemp creates the file 0600 and the rename keeps that; reading the
    # umask means setting it, so it is set back at once
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as f:
            os.fchmod(fd, 0o666 & ~umask)
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def default_metadata(wall_seconds: float | None = None) -> dict:
    md = {"created_at": datetime.now(timezone.utc).isoformat()}
    if wall_seconds is not None:
        md["wall_seconds"] = wall_seconds
    return md


def save_trace(path: str, trace: RunTrace, metadata: dict | None = None) -> None:
    atomic_write_text(path, dumps_trace(trace, metadata))


def load_trace(path: str) -> RunTrace:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"not valid UTF-8 JSON: {exc}") from exc
    return trace_from_dict(doc)
