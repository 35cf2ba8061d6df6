"""Correctness gate and behaviour fingerprint of one lpoa run.

A run passes the gate when it converged, its last residual is at most
epsilon, lemma verification finds no violation, every cut normal has unit
dual norm, and the final polytope has one halfspace per cut on top of the
initial ones.  The fingerprint is the termination, the iteration count and
the SHA-256 of the deterministic trace bytes (the trace with empty
metadata); identical code gives identical fingerprints.
"""

from __future__ import annotations

import hashlib

from lpoa.lp_geometry import NormExponent, lp_norm
from lpoa.trace_io import dumps_trace

DUAL_NORM_TOL = 1e-6


def fingerprint(trace) -> dict:
    digest = hashlib.sha256(dumps_trace(trace).encode()).hexdigest()
    return {"label": f"{trace.config.problem_key}:p={trace.config.p:g}",
            "termination": trace.termination,
            "iterations": len(trace.iterations),
            "sha256": digest}


def gate_failures(trace, violations: int) -> list[str]:
    """Reasons the run fails the gate; empty when it passes.

    `violations` is the total that lemma verification reported for the trace.
    """
    failures = []
    eps = trace.config.epsilon
    if trace.termination != "converged":
        failures.append(f"termination {trace.termination}")
    if not trace.iterations:
        failures.append("no iterations recorded")
    elif not trace.iterations[-1].residual_norm <= eps:
        failures.append(f"last residual {trace.iterations[-1].residual_norm!r} "
                        f"> epsilon {eps!r}")
    if violations != 0:
        failures.append(f"{violations} lemma violation(s)")
    dual = NormExponent(NormExponent(trace.config.p).p_star)
    cuts = 0
    for rec in trace.iterations:
        if rec.cut_normal is None:
            continue
        cuts += 1
        dn = lp_norm(rec.cut_normal, dual)
        if not abs(dn - 1.0) <= DUAL_NORM_TOL:
            failures.append(f"cut normal at k={rec.k} has dual norm {dn!r}")
    if trace.final_polytope is None:
        failures.append("no final polytope")
    else:
        count = len(trace.final_polytope.halfspaces)
        if count != trace.initial_halfspace_count + cuts:
            failures.append(f"{count} halfspaces, expected "
                            f"{trace.initial_halfspace_count} + {cuts} cuts")
    return failures
