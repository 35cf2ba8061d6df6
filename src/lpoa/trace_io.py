"""Trace JSON serialization (schema version 1) and atomic file output.

The deterministic part of a trace (config, iterations, termination, final
polytope) serializes to byte-identical JSON for identical runs; wall-clock
information lives in the separate top-level "metadata" object so consumers
can compare traces with metadata stripped.
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
from .problems import PROBLEM_KEYS, by_key

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

SCHEMA_VERSION = 1

_REQUIRED_KEYS = ("schema_version", "config", "initial_halfspace_count",
                  "iterations", "termination")
_TERMINATIONS = ("converged", "max_iterations", "solver_failure")


class TraceFormatError(ValueError):
    """Raised when a trace file is missing keys or structurally invalid."""


def trace_to_dict(trace: RunTrace, metadata: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": trace.config.to_dict(),
        "initial_halfspace_count": trace.initial_halfspace_count,
        "iterations": [rec.to_dict() for rec in trace.iterations],
        "termination": trace.termination,
        "final_polytope": (None if trace.final_polytope is None
                           else trace.final_polytope.to_dict()),
        "metadata": metadata if metadata is not None else {},
    }
    return doc


def _polytope_from_dict(d: dict) -> pt.Polytope:
    hs = tuple(pt.Halfspace.from_dict(h) for h in d["halfspaces"])
    verts = np.asarray(d["vertices"], dtype=float)
    incidence = tuple(frozenset(s) for s in d["incidence"])
    return pt.Polytope(hs, verts, incidence)


def _check_iteration(rec: IterationRecord, q: int, count: int) -> None:
    """An integer k in [0, count), a finite residual norm and finite points
    and cut normal in R^q."""
    if type(rec.k) is not int or not 0 <= rec.k < count:
        raise TraceFormatError(
            f"iteration k must be an integer in [0, {count}), got {rec.k!r}")
    res = rec.residual_norm
    if type(res) not in (int, float) or not math.isfinite(res):
        raise TraceFormatError(
            f"residual_norm must be a finite number, got {res!r}")
    for name in ("farthest_vertex", "support_point", "cut_normal"):
        v = getattr(rec, name)
        if v is not None and (v.shape != (q,) or not np.isfinite(v).all()):
            raise TraceFormatError(
                f"{name} of iteration {rec.k} must be {q} finite numbers")


def trace_from_dict(doc: dict) -> RunTrace:
    if not isinstance(doc, dict):
        raise TraceFormatError("trace document must be a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise TraceFormatError(f"trace is missing keys: {missing}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise TraceFormatError(
            f"unsupported schema version {doc['schema_version']!r}")
    if doc["termination"] not in _TERMINATIONS:
        raise TraceFormatError(f"unknown termination {doc['termination']!r}")
    if not (isinstance(doc["config"], dict)
            and isinstance(doc["iterations"], list)
            and all(isinstance(d, dict) for d in doc["iterations"])):
        raise TraceFormatError(
            "config and every iteration entry must be JSON objects")
    try:
        config = RunConfig.from_dict(doc["config"])
        iterations = tuple(IterationRecord.from_dict(d)
                           for d in doc["iterations"])
        poly = doc.get("final_polytope")
        final = None if poly is None else _polytope_from_dict(poly)
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"malformed trace: {exc}") from exc
    if config.problem_key not in PROBLEM_KEYS:
        raise TraceFormatError(f"unknown problem key {config.problem_key!r}")
    q = by_key(config.problem_key).q
    for rec in iterations:
        _check_iteration(rec, q, len(iterations))
    return RunTrace(config=config,
                    initial_halfspace_count=doc["initial_halfspace_count"],
                    iterations=iterations, final_polytope=final,
                    termination=doc["termination"])


def dumps_trace(trace: RunTrace, metadata: dict | None = None) -> str:
    return json.dumps(trace_to_dict(trace, metadata), indent=2,
                      sort_keys=True) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
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
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON: {exc}") from exc
    return trace_from_dict(doc)
