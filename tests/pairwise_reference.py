"""Reference lemma verifier: one DeviationPair object per pair of recorded
cuts, checked in a Python loop.

This is the per-pair implementation that lpoa.analysis.verify_trace
replaced with an array pass, kept without its 200,000-pair sampling cap.
Tests compare the two reports byte for byte.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from lpoa.analysis import VERIFY_TOL
from lpoa.driver import RunTrace, hausdorff_series
from lpoa.lp_geometry import LemmaConstants, NormExponent, lp_norm


@dataclass(frozen=True)
class DeviationPair:
    """One ordered pair of recorded cuts with its deviation-vector geometry.

    alpha = y - eta * w is the support point pushed inward along its normal;
    d_ij = <w_j, y_i - y_j> is the distance of y_i above the j-th supporting
    hyperplane (nonnegative by the support conditions).
    """

    i: int
    j: int
    y_i: np.ndarray
    y_j: np.ndarray
    w_i: np.ndarray
    w_j: np.ndarray
    alpha_i: np.ndarray
    alpha_j: np.ndarray
    d_ij: float
    d_ji: float
    dist_p: float       # ||alpha_i - alpha_j||_p
    w_dot: float        # <w_i, w_j>
    h: float            # error level of the later cut (series[max(i,j) - 1])


def build_pairs(trace: RunTrace, eta: float = 0.1) -> list[DeviationPair]:
    """All unordered index pairs of recorded cuts as DeviationPair objects.

    Iterations without a cut normal (zero-residual terminal step) are
    excluded.
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    recs = [r for r in trace.iterations if r.cut_normal is not None]
    if len(recs) < 2:
        return []
    ne = NormExponent(trace.config.p)
    series = hausdorff_series(trace)
    Y = np.array([r.support_point for r in recs])
    W = np.array([r.cut_normal for r in recs])
    ks = [r.k for r in recs]
    A = Y - eta * W
    # d[i, j] = <w_j, y_i - y_j>
    D = Y @ W.T - np.sum(Y * W, axis=1)[None, :]
    G = W @ W.T

    n = len(recs)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            later = max(ks[i], ks[j])
            pairs.append(DeviationPair(
                i=ks[i], j=ks[j], y_i=Y[i], y_j=Y[j], w_i=W[i], w_j=W[j],
                alpha_i=A[i], alpha_j=A[j],
                d_ij=float(D[i, j]), d_ji=float(D[j, i]),
                dist_p=lp_norm(A[i] - A[j], ne),
                w_dot=float(G[i, j]),
                h=series[later - 1] if later >= 1 else series[0],
            ))
    return pairs


def verify_hyperplane_lemma(pairs, lc: LemmaConstants,
                            tol: float = VERIFY_TOL) -> dict:
    """Check d <= C_pq ||alpha_i - alpha_j||_p^2 / eta for every ordered pair,
    plus the support conditions d_ij, d_ji >= -tol."""
    violations = []
    max_ratio = 0.0
    for pr in pairs:
        bound = lc.C_pq * pr.dist_p ** 2 / lc.eta
        for label, d in (("d_ij", pr.d_ij), ("d_ji", pr.d_ji)):
            if d < -tol:
                violations.append({"pair": [pr.i, pr.j], "kind": "support",
                                   "which": label, "d": d})
            if d > bound + tol:
                violations.append({"pair": [pr.i, pr.j], "kind": "hyperplane",
                                   "which": label, "d": d, "bound": bound})
            if bound > 0.0:
                max_ratio = max(max_ratio, d / bound)
    return {
        "checked": 2 * len(pairs),
        "violations": violations,
        "max_slack_ratio": max_ratio,
    }


def verify_separation(pairs, lc: LemmaConstants,
                      tol: float = VERIFY_TOL) -> dict:
    """Check the two separation lower bounds on ||alpha_i - alpha_j||_p.

    Part (i): pairs whose hyperplane distance reaches the error level h of
    the later cut must be C3 sqrt(eta h) apart.  Part (ii): pairs with
    non-acute normals must be C2 eta apart.
    """
    violations = []
    checked_i = checked_ii = 0
    for pr in pairs:
        if max(pr.d_ij, pr.d_ji) >= pr.h:
            checked_i += 1
            bound = lc.C3 * math.sqrt(lc.eta * pr.h)
            if pr.dist_p < bound - tol:
                violations.append({"pair": [pr.i, pr.j], "kind": "part_i",
                                   "dist": pr.dist_p, "bound": bound})
        if pr.w_dot <= 0.0:
            checked_ii += 1
            bound = lc.C2 * lc.eta
            if pr.dist_p < bound - tol:
                violations.append({"pair": [pr.i, pr.j], "kind": "part_ii",
                                   "dist": pr.dist_p, "bound": bound})
    return {
        "checked_part_i": checked_i,
        "checked_part_ii": checked_ii,
        "violations": violations,
    }


def reference_report(trace: RunTrace, eta: float = 0.1) -> dict:
    """The report verify_trace gives, built from the per-pair loop."""
    ne = NormExponent(trace.config.p)
    ne_dual = NormExponent(ne.p_star)
    lc = LemmaConstants.for_exponent(ne, trace.q, eta=eta)
    pairs = build_pairs(trace, eta=eta)

    hyper = verify_hyperplane_lemma(pairs, lc)
    sep = verify_separation(pairs, lc)
    dual_violations = []
    for rec in trace.iterations:
        if rec.cut_normal is None:
            continue
        dn = lp_norm(rec.cut_normal, ne_dual)
        if abs(dn - 1.0) > VERIFY_TOL:
            dual_violations.append({"k": rec.k, "dual_norm": dn})

    n_viol = (len(hyper["violations"]) + len(sep["violations"])
              + len(dual_violations))
    return {
        "problem": trace.config.problem_key,
        "p": trace.config.p,
        "eta": eta,
        "pairs": len(pairs),
        "hyperplane": hyper,
        "separation": sep,
        "dual_norm_violations": dual_violations,
        "total_violations": n_viol,
    }


def negate_every_third_normal(trace: RunTrace) -> RunTrace:
    """The trace with the cut normal of every iteration k = 0 mod 3 negated,
    which breaks the support conditions."""
    its = tuple(dataclasses.replace(r, cut_normal=-r.cut_normal)
                if r.cut_normal is not None and r.k % 3 == 0 else r
                for r in trace.iterations)
    return dataclasses.replace(trace, iterations=its)
