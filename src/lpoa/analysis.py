"""Rate fitting and empirical lemma verification on recorded run traces.

The rate fitter performs ordinary least squares in log-log coordinates on
the monotone envelope of the Hausdorff error series, reporting the exponent
c_hat with the dimension factor q - 1 absorbed.  The verifier re-checks the
geometric inequalities behind the convergence proof (support conditions,
hyperplane distance bound, deviation-vector separation) on every pair of
recorded cuts of a run, however long the run; packing growth is a test
diagnostic (tests/test_analysis.py), not part of the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import RunTrace, hausdorff_series
from .lp_geometry import LemmaConstants, NormExponent

__all__ = [
    "RateFit",
    "monotone_envelope",
    "fit_rate",
    "verify_trace",
]

VERIFY_TOL = 1e-6


def monotone_envelope(series) -> list[float]:
    """Running minimum of the series (element k = min of the prefix)."""
    series = list(series)
    if not series:
        raise ValueError("series must be nonempty")
    return np.minimum.accumulate(np.asarray(series, dtype=float)).tolist()


@dataclass(frozen=True)
class RateFit:
    """Power-law fit delta_k ~ lambda * k^(-c/(q-1)) on a log-log window."""

    c_hat: float
    lambda_hat: float
    r_squared: float
    points_used: int
    window: tuple[int, int]
    reliable: bool


def fit_rate(series, q: int, epsilon: float) -> RateFit:
    """OLS of log delta against log k over the stable window of the envelope.

    Element i of the series is iteration k = i + 1.  The window drops the
    first max(3, ceil(0.08 K)) iterations (initial transient) and all points
    with delta <= 2 epsilon (terminal plateau); if fewer than 5 points remain
    the plateau cutoff is widened to 1.2 epsilon, and if that still leaves
    fewer than 5 the fit is flagged unreliable.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    delta = np.asarray(list(series), dtype=float)
    K = len(delta)
    if K == 0:
        raise ValueError("series must be nonempty")
    k = np.arange(1, K + 1, dtype=float)

    skip = max(3, math.ceil(0.08 * K))
    base = (np.arange(K) >= skip) & (delta > 0.0)
    mask = base & (delta > 2.0 * epsilon)
    if np.count_nonzero(mask) < 5:
        mask = base & (delta > 1.2 * epsilon)
    reliable = bool(np.count_nonzero(mask) >= 5)
    if np.count_nonzero(mask) < 2:
        return RateFit(c_hat=float("nan"), lambda_hat=float("nan"),
                       r_squared=float("nan"),
                       points_used=int(np.count_nonzero(mask)),
                       window=(0, 0), reliable=False)

    x = np.log(k[mask])
    y = np.log(delta[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    idx = np.nonzero(mask)[0]
    return RateFit(
        c_hat=float(-slope * (q - 1)),
        lambda_hat=float(np.exp(intercept)),
        r_squared=float(r2),
        points_used=int(len(idx)),
        window=(int(idx[0] + 1), int(idx[-1] + 1)),
        reliable=reliable,
    )


# ---------------------------------------------------------------------------
# lemma verification over every pair of recorded cuts


def _lp_distances(rows: np.ndarray, ne: NormExponent) -> list[float]:
    """||row||_p for every row, equal to lp_norm's value to the bit.  It
    uses lp_norm's max-scaled form and takes the root in Python floats, as
    the caller takes the square: numpy's vectorised pow can differ from the
    scalar pow in the last place."""
    a = np.abs(rows)
    m = a.max(axis=1)
    s = np.sum((a / np.where(m > 0.0, m, 1.0)[:, None]) ** ne.p, axis=1)
    inv_p = 1.0 / ne.p
    return [mi * si ** inv_p for mi, si in zip(m.tolist(), s.tolist())]


def verify_trace(trace: RunTrace, eta: float = 0.1) -> dict:
    """Full lemma verification report for one trace (used by the CLI).

    For every pair i < j of recorded cuts, with alpha = y - eta w and
    d_ij = <w_j, y_i - y_j> the distance of y_i above the j-th supporting
    hyperplane, it checks the support conditions d_ij, d_ji >= -tol, the
    hyperplane bound d <= C_pq ||alpha_i - alpha_j||_p^2 / eta for both
    orders, and the two separation lower bounds on ||alpha_i - alpha_j||_p:
    C3 sqrt(eta h) when max(d_ij, d_ji) reaches the error level h of the
    later cut (part i), C2 eta when <w_i, w_j> <= 0 (part ii).  Iterations
    without a cut normal (zero-residual terminal step) are excluded.
    """
    ne = NormExponent(trace.config.p)
    lc = LemmaConstants.for_exponent(ne, trace.q, eta=eta)
    tol = VERIFY_TOL
    recs = [r for r in trace.iterations if r.cut_normal is not None]
    n = len(recs)
    series = np.asarray(hausdorff_series(trace), dtype=float)
    Y = np.array([r.support_point for r in recs]).reshape(n, trace.q)
    W = np.array([r.cut_normal for r in recs]).reshape(n, trace.q)
    ks = np.array([r.k for r in recs], dtype=np.int64)
    A = Y - eta * W
    # D[i, j] = d_ij = <w_j, y_i - y_j>
    D = Y @ W.T - np.sum(Y * W, axis=1)[None, :]
    I, J = np.triu_indices(n, 1)  # every pair i < j, in pair order

    dist = _lp_distances(A[I] - A[J], ne)
    bound = [lc.C_pq * d ** 2 / lc.eta for d in dist]
    dist_a, bound_a = np.array(dist), np.array(bound)
    d_ij, d_ji = D[I, J], D[J, I]
    d_max = np.maximum(d_ij, d_ji)
    pos = bound_a > 0.0
    max_ratio = float(np.max(d_max[pos] / bound_a[pos], initial=0.0))
    # error level of the later cut
    h = series[np.maximum(np.maximum(ks[I], ks[J]) - 1, 0)]
    bound_i = lc.C3 * np.sqrt(lc.eta * h)
    bound_ii = lc.C2 * lc.eta
    reached = d_max >= h
    non_acute = (W @ W.T)[I, J] <= 0.0
    flagged = ((np.minimum(d_ij, d_ji) < -tol) | (d_max > bound_a + tol)
               | (reached & (dist_a < bound_i - tol))
               | (non_acute & (dist_a < bound_ii - tol)))

    hyper: list[dict] = []
    sep: list[dict] = []
    # every pair is screened above in one array pass; the few flagged ones
    # are re-checked here in pair order, each pair's entries in a fixed order
    for t in np.flatnonzero(flagged).tolist():
        pair = [int(ks[I[t]]), int(ks[J[t]])]
        for label, d in (("d_ij", float(d_ij[t])), ("d_ji", float(d_ji[t]))):
            if d < -tol:
                hyper.append({"pair": pair, "kind": "support",
                              "which": label, "d": d})
            if d > bound[t] + tol:
                hyper.append({"pair": pair, "kind": "hyperplane",
                              "which": label, "d": d, "bound": bound[t]})
        if reached[t] and dist[t] < bound_i[t] - tol:
            sep.append({"pair": pair, "kind": "part_i", "dist": dist[t],
                        "bound": float(bound_i[t])})
        if non_acute[t] and dist[t] < bound_ii - tol:
            sep.append({"pair": pair, "kind": "part_ii", "dist": dist[t],
                        "bound": bound_ii})

    dual = _lp_distances(W, NormExponent(ne.p_star))
    dual_violations = [{"k": rec.k, "dual_norm": dn}
                       for rec, dn in zip(recs, dual) if abs(dn - 1.0) > tol]

    pairs = n * (n - 1) // 2
    return {
        "problem": trace.config.problem_key,
        "p": trace.config.p,
        "eta": eta,
        "pairs": pairs,
        "hyperplane": {"checked": 2 * pairs, "violations": hyper,
                       "max_slack_ratio": max_ratio},
        "separation": {"checked_part_i": int(np.count_nonzero(reached)),
                       "checked_part_ii": int(np.count_nonzero(non_acute)),
                       "violations": sep},
        "dual_norm_violations": dual_violations,
        "total_violations": len(hyper) + len(sep) + len(dual_violations),
    }
