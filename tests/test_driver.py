import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from lpoa import driver
from lpoa import polytope as pt
from lpoa.driver import (RunConfig, RunTrace, hausdorff_series, initialize,
                         run)
from lpoa.lp_geometry import NormExponent, lp_norm
from lpoa.problems import _POLY_A, _POLY_B, by_key

# ellipse at eps = 1e-3: residual series and farthest vertices recorded with
# the numpy ellipse oracles that the scalar ones replaced
ELLIPSE_RECORDED = json.loads(
    (Path(__file__).parent / "data" / "ellipse_eps1e-3.json").read_text())


@pytest.fixture(scope="module")
def trace_q2():
    return run(RunConfig(problem_key="example1-q2", p=2.0, epsilon=1e-3))


@pytest.fixture(scope="module")
def trace_q3():
    return run(RunConfig(problem_key="example1-q3", p=3.0, epsilon=0.05))


class TestConfig:
    def test_roundtrip(self):
        cfg = RunConfig(problem_key="ellipse", p=1.25, epsilon=1e-3,
                        max_iterations=77, seed=7)
        cfg2 = RunConfig.from_dict(cfg.to_dict())
        assert cfg2 == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(problem_key="ellipse", p=2.0, epsilon=0.0)
        with pytest.raises(ValueError):
            RunConfig(problem_key="ellipse", p=2.0, epsilon=1e-3,
                      max_iterations=0)


class TestInitialize:
    @pytest.mark.parametrize("key", ["example1-q2", "example1-q3",
                                     "ellipse", "example2"])
    def test_shape(self, key):
        prob = by_key(key)
        P0, j_plus_1 = initialize(prob)
        assert j_plus_1 == prob.q + 1
        assert len(P0.halfspaces) == prob.q + 1
        assert len(P0.vertices()) >= prob.q + 1
        # the slice halfspace is active: some vertex attains it
        offs = [float(prob.w_bar @ v) for v in P0.vertices()]
        assert max(offs) == pytest.approx(prob.gamma_slice, abs=1e-9)

    def test_simplex_q2(self):
        # q coordinate supports + slice give a triangle for q = 2
        P0, _ = initialize(by_key("example1-q2"))
        assert len(P0.vertices()) == 3


class TestTraceInvariants:
    def test_converged(self, trace_q2):
        assert trace_q2.termination == "converged"
        assert trace_q2.iterations[-1].residual_norm <= 1e-3

    def test_cut_every_iteration(self, trace_q2):
        # each recorded iteration carries a cut (unless the residual was
        # exactly zero), so |Z_k| = J + 1 + k
        cuts = [r for r in trace_q2.iterations if r.cut_normal is not None]
        assert len(cuts) == len(trace_q2.iterations)
        assert len(trace_q2.final_polytope.halfspaces) == (
            trace_q2.initial_halfspace_count + len(cuts))

    def test_cut_normals_distinct(self, trace_q2):
        W = np.array([r.cut_normal for r in trace_q2.iterations])
        for i in range(len(W)):
            for j in range(i + 1, len(W)):
                assert np.max(np.abs(W[i] - W[j])) > 1e-8

    def test_cut_normal_unit_dual_norm(self, trace_q2):
        dual = NormExponent(NormExponent(trace_q2.config.p).p_star)
        for rec in trace_q2.iterations:
            assert lp_norm(rec.cut_normal, dual) == pytest.approx(1.0,
                                                                  abs=1e-6)

    def test_cut_removes_farthest_vertex(self, trace_q2):
        # the cut halfspace w . y >= w . y_support excludes the vertex it
        # was generated from
        for rec in trace_q2.iterations:
            margin = float(rec.cut_normal
                           @ (rec.farthest_vertex - rec.support_point))
            assert margin < -1e-12

    def test_iteration_indices(self, trace_q2):
        assert [r.k for r in trace_q2.iterations] == list(
            range(len(trace_q2.iterations)))

    def test_outer_approximation(self, trace_q2):
        # the final polytope still contains the region it approximates
        prob = by_key(trace_q2.config.problem_key)
        for y in prob.boundary_sampler(500):
            assert trace_q2.final_polytope.contains(y, tol=1e-6)

    def test_support_points_in_A(self, trace_q2):
        prob = by_key(trace_q2.config.problem_key)
        for rec in trace_q2.iterations[:: max(1, len(trace_q2.iterations) // 10)]:
            assert prob.in_A(rec.support_point, tol=1e-6)

    def test_series_near_monotone(self, trace_q2):
        # the error series need not be strictly monotone, but mostly is
        s = hausdorff_series(trace_q2)
        drops = sum(1 for a, b in zip(s, s[1:]) if b <= a + 1e-12)
        assert drops >= 0.95 * (len(s) - 1)
        assert s[-1] <= s[0]

    def test_q3_invariants(self, trace_q3):
        assert trace_q3.termination == "converged"
        cuts = [r for r in trace_q3.iterations if r.cut_normal is not None]
        assert len(trace_q3.final_polytope.halfspaces) == (
            trace_q3.initial_halfspace_count + len(cuts))
        for rec in trace_q3.iterations:
            if rec.cut_normal is None:
                continue
            margin = float(rec.cut_normal
                           @ (rec.farthest_vertex - rec.support_point))
            assert margin < -1e-12


class TestRunBehaviour:
    def test_deterministic(self):
        cfg = RunConfig(problem_key="ellipse", p=2.0, epsilon=0.05)
        t1, t2 = run(cfg), run(cfg)
        assert len(t1.iterations) == len(t2.iterations)
        for r1, r2 in zip(t1.iterations, t2.iterations):
            assert np.array_equal(r1.farthest_vertex, r2.farthest_vertex)
            assert r1.residual_norm == r2.residual_norm
            assert np.array_equal(r1.cut_normal, r2.cut_normal)

    def test_loose_epsilon_single_iteration(self):
        trace = run(RunConfig(problem_key="example1-q2", p=2.0, epsilon=1.0))
        assert trace.termination == "converged"
        assert len(trace.iterations) == 1

    def test_max_iterations(self):
        trace = run(RunConfig(problem_key="example1-q2", p=2.0,
                              epsilon=1e-6, max_iterations=5))
        assert trace.termination == "max_iterations"
        assert len(trace.iterations) == 5

    def test_infeasible_cut_is_solver_failure(self, monkeypatch):
        # a cut that removes every vertex ends the run with a recorded
        # termination instead of escaping as a traceback
        def infeasible(P, h):
            raise pt.InfeasibleError("cut removes every vertex")

        monkeypatch.setattr(driver.pt, "cut", infeasible)
        cfg = RunConfig(problem_key="example1-q2", p=2.0, epsilon=1e-3)
        trace = run(cfg)
        assert trace.termination == "solver_failure"
        assert trace.iterations == ()
        P0, _ = initialize(by_key("example1-q2"))
        assert len(trace.final_polytope.halfspaces) == len(P0.halfspaces)
        assert np.array_equal(trace.final_polytope.vertices_array,
                              P0.vertices_array)

    def test_hausdorff_series(self, trace_q2):
        s = hausdorff_series(trace_q2)
        assert len(s) == len(trace_q2.iterations)
        assert s == [r.residual_norm for r in trace_q2.iterations]

    def test_example2_residuals_exact(self, trace_example2_eps03):
        # every recorded farthest-vertex residual is the Euclidean distance
        # to A, re-solved independently as min ||y - v||^2 over
        # y >= gamma(x), x in X, w_bar . y <= gamma_slice (worst measured
        # relative gap 6.2e-7)
        prob = by_key("example2")
        trace = trace_example2_eps03
        assert trace.termination == "converged"
        n, q = prob.n, prob.q
        constraints = [
            {"type": "ineq",
             "fun": lambda z: z[n:] - prob.gamma_eval(z[:n]),
             "jac": lambda z: np.hstack([-prob.gamma_jacobian(z[:n]),
                                         np.eye(q)])},
            {"type": "ineq",
             "fun": lambda z: _POLY_B - _POLY_A @ z[:n],
             "jac": lambda z: np.hstack([-_POLY_A,
                                         np.zeros((len(_POLY_A), q))])},
            {"type": "ineq",
             "fun": lambda z: np.array([prob.gamma_slice
                                        - prob.w_bar @ z[n:]]),
             "jac": lambda z: np.concatenate([np.zeros(n),
                                              -prob.w_bar])[None, :]},
        ]
        x0 = prob.x_init
        worst = 0.0
        for rec in trace.iterations:
            v = rec.farthest_vertex
            res = minimize(
                lambda z: float((z[n:] - v) @ (z[n:] - v)),
                np.concatenate([x0, np.maximum(v, prob.gamma_eval(x0))]),
                jac=lambda z: np.concatenate([np.zeros(n), 2.0 * (z[n:] - v)]),
                constraints=constraints, method="SLSQP",
                options={"ftol": 1e-15, "maxiter": 1000})
            d = float(np.linalg.norm(res.x[n:] - v))
            worst = max(worst, abs(d - rec.residual_norm) / rec.residual_norm)
        assert worst <= 1e-5


class TestEllipseRecorded:
    """ellipse runs against the recorded ones.  The instance is mirror-
    symmetric about y1 = y2, so mirror vertices tie to within rounding and a
    last-bit change in a projection can select either: a farthest vertex
    matches the recorded one or its coordinate swap."""

    @pytest.mark.parametrize("p", sorted(ELLIPSE_RECORDED["runs"], key=float))
    def test_matches_recorded_run(self, p):
        ref = ELLIPSE_RECORDED["runs"][p]
        trace = run(RunConfig(problem_key="ellipse", p=float(p),
                              epsilon=ELLIPSE_RECORDED["epsilon"]))
        assert trace.termination == ref["termination"] == "converged"
        assert len(trace.iterations) == len(ref["residual_norm"]) == 32
        got = np.array(hausdorff_series(trace))
        expected = np.array(ref["residual_norm"])
        assert np.all(np.abs(got - expected) <= 1e-8 * expected)
        for rec, v in zip(trace.iterations, ref["farthest_vertex"]):
            v = np.array(v)
            err = min(np.max(np.abs(rec.farthest_vertex - v)),
                      np.max(np.abs(rec.farthest_vertex - v[::-1])))
            assert err <= 1e-9, (rec.k, rec.farthest_vertex, v)
