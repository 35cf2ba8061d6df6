"""Acceptance suite: one test per criterion, executed on the full
(problem, p) experiment matrix.  The matrix fixture runs each problem's six
p values through the sweep's runner, in three worker processes, and records
the sweep wall time."""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from lpoa.analysis import (VERIFY_TOL, fit_rate, monotone_envelope,
                           verify_trace)
from lpoa.cli import _sweep_runs
from lpoa.driver import RunConfig
from lpoa.lp_geometry import NormExponent, lp_norm
from lpoa.problems import by_key
from lpoa.scalarization import solve_subproblem
from lpoa.trace_io import dumps_trace

from oracles import in_A, oracle_distance
from pairwise_reference import negate_every_third_normal, reference_report
from cut_reference import from_halfspaces
from test_polytope import (assert_vertex_sets_equal, box,
                           brute_force_vertices, cut_in_turn)
from lpoa.polytope import Halfspace, InfeasibleError

P_LIST = (1.25, 1.5, 2.0, 3.0, 4.0, 8.0)

MATRIX_EPS = {
    "example1-q3": 0.01,
    "example1-q2": 1e-4,
    "ellipse": 1e-3,
    "example2": 0.05,
}

REFERENCE_C_HAT = {
    "example1-q3": (2.46, 2.38, 2.40, 2.40, 2.45, 2.51),
    "example2": (2.74, 2.69, 2.66, 2.75, 2.72, 2.72),
}

# termination, iteration count, residual series and SHA-256 of the trace
# bytes (empty metadata) of every matrix run; ellipse also records its
# farthest vertices.  `PYTHONPATH=src python tests/record_fingerprint.py`
# re-records the hash-compared entries after a rounding change and reports
# where each moved run first picks another vertex.
MATRIX_FINGERPRINT = json.loads(
    (Path(__file__).parent / "data" / "matrix_fingerprint.json").read_text())

REFERENCE_ITERATIONS = {
    "example1-q3": (89, 82, 74, 59, 57, 50),
    "example1-q2": (38, 45, 53, 49, 43, 51),
    "ellipse": (42, 40, 45, 44, 35, 44),
    "example2": (72, 61, 56, 49, 45, 41),
}


@pytest.fixture(scope="session")
def matrix():
    out = {}
    for key, eps in MATRIX_EPS.items():
        configs = [RunConfig(problem_key=key, p=p, epsilon=eps)
                   for p in P_LIST]
        t0 = time.perf_counter()
        traces = {p: tr for p, tr, _ in _sweep_runs(configs, 3)}
        out[key] = {"wall": time.perf_counter() - t0, "traces": traces}
    return out


def _fits(entry, key):
    q = by_key(key).q
    eps = MATRIX_EPS[key]
    fits = {}
    for p, trace in entry["traces"].items():
        env = monotone_envelope([r.residual_norm for r in trace.iterations])
        fits[p] = fit_rate(env, q, eps)
    return fits


def _check_rates(entry, key, c_lo, c_hi, spread_max, r2_min, wall_max,
                 reference=None, r2_min_at=None):
    problems = []
    for p, trace in entry["traces"].items():
        if trace.termination != "converged":
            problems.append(f"p={p:g}: termination={trace.termination}")
    fits = _fits(entry, key)
    c_hats = []
    for i, p in enumerate(P_LIST):
        fit = fits[p]
        c_hats.append(fit.c_hat)
        lo, hi = ((reference[i] - 0.5, reference[i] + 0.5)
                  if reference is not None else (c_lo, c_hi))
        if not lo <= fit.c_hat <= hi:
            problems.append(
                f"p={p:g}: c_hat={fit.c_hat:.3f} outside [{lo:.2f}, {hi:.2f}]")
        floor = (r2_min_at or {}).get(p, r2_min)
        if fit.r_squared < floor:
            problems.append(
                f"p={p:g}: r2={fit.r_squared:.4f} < {floor:g}")
    spread = max(c_hats) - min(c_hats)
    if spread > spread_max:
        problems.append(f"spread={spread:.3f} > {spread_max}")
    if entry["wall"] > wall_max:
        problems.append(f"wall={entry['wall']:.1f}s > {wall_max}s")
    detail = (f"{key}: c_hat=" + "/".join(f"{c:.2f}" for c in c_hats)
              + f", spread={spread:.2f}, wall={entry['wall']:.0f}s")
    assert not problems, detail + "; " + "; ".join(problems)


def test_criterion_01_rates_example1_q3(matrix):
    _check_rates(matrix["example1-q3"], "example1-q3", None, None,
                 spread_max=0.5, r2_min=0.85, wall_max=300.0,
                 reference=REFERENCE_C_HAT["example1-q3"])


def _example1_q2_p2_series(epsilon):
    """Hausdorff series of example1-q2 at p = 2, derived from the geometry,
    up to and including the first entry <= epsilon.

    The frontier is the unit quarter arc about (1, 1) and the Euclidean
    projection onto it is radial, so farthest-vertex selection cuts at dyadic
    angles one generation at a time: iterations 2^g ... 2^(g+1) - 1 remove
    the vertices between tangents pi / 2^(g+1) apart, each of which lies
    sec(pi / 2^(g+2)) - 1 from the arc.
    """
    series = []
    while not series or series[-1] > epsilon:
        k = len(series) + 1
        series.append(1.0 / math.cos(math.pi / 2 ** (k.bit_length() + 1))
                      - 1.0)
    return series


def test_criterion_02_rates_example1_q2(matrix):
    # The closed form's own log-log r2 is 0.88068: its dyadic staircase keeps
    # every correct run below the 0.90 floor at p = 2.  There the run must
    # instead match the closed form entry by entry and reach the closed
    # form's r2, less 1e-4 (entry errors within 1e-7 shift r2 by up to
    # 9.4e-5).
    eps = MATRIX_EPS["example1-q2"]
    closed = _example1_q2_p2_series(eps)
    traced = [r.residual_norm
              for r in matrix["example1-q2"]["traces"][2.0].iterations]
    assert len(traced) == len(closed) == 64
    worst = max(abs(a - b) for a, b in zip(traced, closed))
    assert worst <= 1e-7, f"p=2: max |traced - closed form| = {worst:.2e}"
    r2_closed = fit_rate(monotone_envelope(closed), 2, eps).r_squared
    assert r2_closed == pytest.approx(0.88068, abs=1e-5)
    _check_rates(matrix["example1-q2"], "example1-q2", 1.2, 2.2,
                 spread_max=0.5, r2_min=0.90, wall_max=180.0,
                 r2_min_at={2.0: r2_closed - 1e-4})


def test_criterion_03_rates_ellipse(matrix):
    # Fails on the documented instance (r2 0.8775 at p = 1.5, 0.8974 at
    # p = 2) with exact residuals: the instance is mirror-symmetric about
    # y1 = y2, every p runs 32 iterations and the envelope is a dyadic
    # staircase, but the ellipse has no closed form from which to derive
    # the reachable r2.  CHANGES.md records the measurements.
    _check_rates(matrix["ellipse"], "ellipse", 1.2, 2.2,
                 spread_max=0.6, r2_min=0.90, wall_max=180.0)


def test_criterion_04_rates_example2(matrix):
    _check_rates(matrix["example2"], "example2", None, None,
                 spread_max=0.4, r2_min=0.88, wall_max=300.0,
                 reference=REFERENCE_C_HAT["example2"])


def test_criterion_05_iteration_counts(matrix):
    # Fails on the documented instances: example1-q2 at p = 1.25 needs at
    # least 56 iterations (tangent-arc bound) against the 53.2 allowed, and
    # example2 runs 1.5-1.9 times its reference counts with exact residuals
    # (test_driver.py::TestRunBehaviour::test_example2_residuals_exact).
    # CHANGES.md records the measurements.
    problems = []
    for key, ref in REFERENCE_ITERATIONS.items():
        counts = [len(matrix[key]["traces"][p].iterations) for p in P_LIST]
        for p, got, want in zip(P_LIST, counts, ref):
            if not 0.6 * want <= got <= 1.4 * want:
                problems.append(f"{key} p={p:g}: {got} outside "
                                f"+/-40% of {want}")
        if key in ("example1-q3", "example2"):
            if any(b > a for a, b in zip(counts, counts[1:])):
                problems.append(f"{key}: counts {counts} not decreasing in p")
    assert not problems, "; ".join(problems)


def test_criterion_06_lemma_suite(matrix):
    problems = []
    for key, entry in matrix.items():
        for p, trace in entry["traces"].items():
            if trace.termination != "converged":
                continue
            # hyperplane and support violations share one list; every
            # check uses VERIFY_TOL = 1e-6
            report = verify_trace(trace, eta=0.1)
            n = (len(report["hyperplane"]["violations"])
                 + len(report["separation"]["violations"]))
            if n:
                problems.append(f"{key} p={p:g}: {n} violations")
    assert VERIFY_TOL == 1e-6
    assert not problems, "; ".join(problems)


def test_verify_matches_pairwise_reference(matrix):
    """The array verifier's report equals the per-pair loop's byte for byte
    on every matrix trace, clean and with every third cut normal negated."""
    problems = []
    for key, entry in matrix.items():
        for p, trace in entry["traces"].items():
            for variant, tr in (("clean", trace),
                                ("negated", negate_every_third_normal(trace))):
                got = json.dumps(verify_trace(tr, eta=0.1), sort_keys=True)
                want = json.dumps(reference_report(tr, eta=0.1),
                                  sort_keys=True)
                if got != want:
                    problems.append(f"{key} p={p:g} {variant}")
    assert not problems, "reports differ: " + "; ".join(problems)


def test_criterion_07_dual_norm_identity(matrix):
    problems = []
    for key, entry in matrix.items():
        for p, trace in entry["traces"].items():
            dual = NormExponent(NormExponent(p).p_star)
            worst = max((abs(lp_norm(r.cut_normal, dual) - 1.0)
                         for r in trace.iterations
                         if r.cut_normal is not None), default=0.0)
            if worst > 1e-6:
                problems.append(f"{key} p={p:g}: max |dual norm - 1| = "
                                f"{worst:.2e}")
    assert not problems, "; ".join(problems)


def test_criterion_08_oracle_equivalence():
    problems = []
    for key in ("example1-q2", "ellipse"):
        prob = by_key(key)
        rng = np.random.default_rng(2024)
        points = []
        while len(points) < 50:
            v = np.array([rng.uniform(-0.8, 0.6), rng.uniform(-0.8, 0.6)])
            if key == "ellipse":
                v = v * 2.0 + np.array([-1.0, -2.0])
            if not in_A(prob, v):
                points.append(v)
        for p in P_LIST:
            ne = NormExponent(p)
            worst = 0.0
            for v in points:
                res = solve_subproblem(prob, v, ne)
                d = oracle_distance(prob, v, ne, samples=8000)
                worst = max(worst, abs(res.residual_norm - d))
            if worst > 1e-3:
                problems.append(f"{key} p={p:g}: max deviation {worst:.2e}")
    assert not problems, "; ".join(problems)


def test_criterion_09_polytope_fuzz():
    for q in (2, 3):
        rng = np.random.default_rng(500 + q)
        built = 0
        trials = 0
        while built < 250 and trials < 4000:
            trials += 1
            m = int(rng.integers(q + 1, q + 7))
            normals = rng.normal(size=(m, q))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            offsets = rng.uniform(0.2, 2.0, size=m)
            hs = [Halfspace(n, o) for n, o in zip(normals, offsets)]
            hs += box(q, lo=-3.0, hi=3.0)
            try:
                P = cut_in_turn(from_halfspaces(hs[m:]), hs[:m])
            except InfeasibleError:
                continue
            built += 1
            assert_vertex_sets_equal(P.vertices(), brute_force_vertices(hs))
        assert built == 250


def test_criterion_10_fit_exactness():
    for q, c, lam in ((2, 1.0, 0.3), (2, 2.0, 1.0), (3, 2.0, 0.7),
                      (3, 3.0, 2.0), (4, 2.5, 0.5)):
        k = np.arange(1, 121, dtype=float)
        series = lam * k ** (-c / (q - 1))
        fit = fit_rate(series, q=q, epsilon=series[-1] / 10.0)
        assert abs(fit.c_hat - c) <= 1e-9 * max(1.0, c)
        assert abs(fit.lambda_hat - lam) <= 1e-9 * lam
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_criterion_11_cut_accounting(matrix):
    problems = []
    for key, entry in matrix.items():
        for p, trace in entry["traces"].items():
            cuts = [r for r in trace.iterations if r.cut_normal is not None]
            expected = trace.initial_halfspace_count + len(cuts)
            if len(trace.final_polytope.halfspaces) != expected:
                problems.append(f"{key} p={p:g}: halfspace count "
                                f"{len(trace.final_polytope.halfspaces)} != "
                                f"{expected}")
            W = np.array([r.cut_normal for r in cuts])
            for i in range(len(W)):
                for j in range(i + 1, len(W)):
                    if np.max(np.abs(W[i] - W[j])) <= 1e-8:
                        problems.append(f"{key} p={p:g}: cuts {i},{j} "
                                        "coincide")
            for r in cuts:
                margin = float(r.cut_normal
                               @ (r.farthest_vertex - r.support_point))
                if margin >= 0.0:
                    problems.append(f"{key} p={p:g} k={r.k}: cut does not "
                                    "remove farthest vertex")
    assert not problems, "; ".join(problems)


def test_matrix_fingerprint(matrix):
    # example1 and example2 traces are byte-identical to the recorded ones.
    # ellipse is mirror-symmetric about y1 = y2, so mirror vertices tie to
    # within rounding and a last-bit change can select either: it is
    # compared by termination, iteration count, residuals within 1e-8
    # relative and farthest vertices up to the coordinate swap.
    assert MATRIX_FINGERPRINT["epsilon"] == MATRIX_EPS
    problems = []
    for key, entry in matrix.items():
        for p, trace in entry["traces"].items():
            ref = MATRIX_FINGERPRINT["runs"][key][repr(p)]
            label = f"{key} p={p:g}"
            if key != "ellipse":
                digest = hashlib.sha256(
                    dumps_trace(trace).encode()).hexdigest()
                if digest != ref["sha256"]:
                    problems.append(f"{label}: trace hash {digest[:12]} != "
                                    f"recorded {ref['sha256'][:12]}")
                continue
            if (trace.termination != ref["termination"]
                    or len(trace.iterations) != ref["iterations"]):
                problems.append(f"{label}: {trace.termination} after "
                                f"{len(trace.iterations)} iterations")
                continue
            got = np.array([r.residual_norm for r in trace.iterations])
            expected = np.array(ref["residual_norm"])
            if np.any(np.abs(got - expected) > 1e-8 * expected):
                problems.append(f"{label}: residual series moved")
            for rec, v in zip(trace.iterations, ref["farthest_vertex"]):
                v = np.array(v)
                err = min(np.max(np.abs(rec.farthest_vertex - v)),
                          np.max(np.abs(rec.farthest_vertex - v[::-1])))
                if err > 1e-9:
                    problems.append(f"{label} k={rec.k}: farthest vertex "
                                    f"{rec.farthest_vertex} != recorded {v}")
    assert not problems, "; ".join(problems)
