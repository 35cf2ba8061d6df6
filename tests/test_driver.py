import dataclasses
import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpoa import driver, scalarization
from lpoa import polytope as pt
from lpoa.driver import (_ROUNDING, _ROUNDS, RunConfig, RunTrace,
                         _point_bounds, _search_advance, _search_start,
                         hausdorff_series, initialize, run)
from lpoa.lp_geometry import NormExponent, lp_norm
from lpoa.problems import PROBLEM_KEYS, by_key
from lpoa.scalarization import SubproblemError
from lpoa.trace_io import dumps_trace, trace_from_dict, trace_to_dict

from oracles import boundary_samples, in_A, reference_distance, support_value
from test_polytope import contains

# the acceptance-matrix fingerprint holds the residual series and farthest
# vertices of the ellipse runs at eps = 1e-3
MATRIX_FINGERPRINT = json.loads(
    (Path(__file__).parent / "data" / "matrix_fingerprint.json").read_text())


@pytest.fixture(scope="module")
def trace_q2():
    return run(RunConfig(problem_key="example1-q2", p=2.0, epsilon=1e-3))


@pytest.fixture(scope="module")
def trace_q3():
    return run(RunConfig(problem_key="example1-q3", p=3.0, epsilon=0.05))


@pytest.fixture(scope="module")
def trace_example2_p125():
    return run(RunConfig(problem_key="example2", p=1.25, epsilon=0.05))


class TestConfig:
    def test_roundtrip(self):
        cfg = RunConfig(problem_key="ellipse", p=1.25, epsilon=1e-3,
                        max_iterations=77)
        trace = RunTrace(config=cfg, iterations=(), final_polytope=None,
                         termination="max_iterations")
        assert trace_from_dict(trace_to_dict(trace)).config == cfg

    def test_validation(self):
        good = dict(problem_key="ellipse", p=2.0, epsilon=1e-3,
                    max_iterations=5)
        RunConfig(**good)
        for fields in ({"epsilon": 0.0}, {"max_iterations": 0},
                       {"p": "2"}, {"p": True}, {"epsilon": "0.1"},
                       {"epsilon": None}, {"max_iterations": 2.5},
                       {"max_iterations": True}, {"max_iterations": "5"}):
            with pytest.raises(ValueError):
                RunConfig(**{**good, **fields})
        with pytest.raises(ValueError, match="unknown problem key 'nope'; "
                           "choose from " + ", ".join(PROBLEM_KEYS)):
            RunConfig(**{**good, "problem_key": "nope"})


class TestInitialize:
    @pytest.mark.parametrize("key", ["example1-q2", "example1-q3",
                                     "ellipse", "example2"])
    def test_shape(self, key):
        prob = by_key(key)
        P0 = initialize(prob)
        assert len(P0.halfspaces) == prob.q + 1
        assert len(P0.vertices()) >= prob.q + 1
        # the slice halfspace is active: some vertex attains it
        offs = [float(prob.w_bar @ v) for v in P0.vertices()]
        assert max(offs) == pytest.approx(prob.gamma_slice, abs=1e-9)

    def test_simplex_q2(self):
        # q coordinate supports + slice give a triangle for q = 2
        P0 = initialize(by_key("example1-q2"))
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
        for y in boundary_samples(prob, 500):
            assert contains(trace_q2.final_polytope, y, tol=1e-6)

    def test_outer_approximation_q3(self, trace_example2_p125):
        # every cut contains A: its offset is at most inf over A of n . y,
        # the support value of an independent SLSQP solve over x
        prob = by_key("example2")
        trace = trace_example2_p125
        assert trace.termination == "converged"
        excess = [float(r.cut_normal @ r.support_point)
                  - support_value(prob, r.cut_normal)
                  for r in trace.iterations]
        assert max(excess) <= 1e-9

    def test_support_points_in_A(self, trace_q2):
        prob = by_key(trace_q2.config.problem_key)
        for rec in trace_q2.iterations[:: max(1, len(trace_q2.iterations) // 10)]:
            assert in_A(prob, rec.support_point, tol=1e-6)

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

    def test_nonconvergence_is_solver_failure(self, monkeypatch):
        # one Newton step does not reach the maximum of the dual at any
        # initial vertex of example2, so the first solve raises
        # SubproblemError and the run ends with a recorded termination
        monkeypatch.setattr(scalarization, "MAX_STEPS", 1)
        prob = by_key("example2")
        P0 = initialize(prob)
        with pytest.raises(SubproblemError) as err:
            scalarization.solve_subproblem(prob, P0.vertices()[0],
                                           NormExponent(2.0))
        assert np.array_equal(err.value.vertex, P0.vertices()[0])
        trace = run(RunConfig(problem_key="example2", p=2.0, epsilon=0.05))
        assert trace.termination == "solver_failure"
        assert trace.iterations == ()
        assert len(trace.final_polytope.halfspaces) == len(P0.halfspaces)

    @staticmethod
    def _run_with_failing_cut(monkeypatch, error):
        # the failing cut ends the run with a recorded termination instead
        # of escaping as a traceback, and the initial polytope is kept
        def failing(P, h):
            raise error

        monkeypatch.setattr(driver.pt, "cut", failing)
        cfg = RunConfig(problem_key="example1-q2", p=2.0, epsilon=1e-3)
        trace = run(cfg)
        assert trace.termination == "solver_failure"
        assert trace.iterations == ()
        P0 = initialize(by_key("example1-q2"))
        assert len(trace.final_polytope.halfspaces) == len(P0.halfspaces)
        assert np.array_equal(trace.final_polytope.vertices_array,
                              P0.vertices_array)

    def test_infeasible_cut_is_solver_failure(self, monkeypatch):
        # a cut that removes every vertex
        self._run_with_failing_cut(
            monkeypatch, pt.InfeasibleError("cut removes every vertex"))

    def test_null_cut_is_solver_failure(self, monkeypatch):
        # a cut that removes no vertex: the solver's supporting halfspace
        # and the polytope's tolerance disagree
        self._run_with_failing_cut(
            monkeypatch, pt.NullCutError("cut removes no vertex"))

    def test_hausdorff_series(self, trace_q2):
        s = hausdorff_series(trace_q2)
        assert len(s) == len(trace_q2.iterations)
        assert s == [r.residual_norm for r in trace_q2.iterations]

    def test_example2_residuals_exact(self, trace_example2_eps03):
        # every recorded farthest-vertex residual is the Euclidean distance
        # to A, re-solved independently by the SLSQP reference over
        # y >= gamma(x), x in X, w_bar . y <= gamma_slice (worst measured
        # relative gap 1.1e-14)
        prob = by_key("example2")
        trace = trace_example2_eps03
        assert trace.termination == "converged"
        worst = 0.0
        for rec in trace.iterations:
            d = reference_distance(prob, rec.farthest_vertex, NormExponent(2))
            worst = max(worst, abs(d - rec.residual_norm) / rec.residual_norm)
        assert worst <= 1e-5


class TestEllipseRecorded:
    """ellipse runs against the recorded ones.  The instance is mirror-
    symmetric about y1 = y2, so mirror vertices tie to within rounding and a
    last-bit change in a projection can select either: a farthest vertex
    matches the recorded one or its coordinate swap."""

    @pytest.mark.parametrize("p", ["1.25", "2", "8"])
    def test_matches_recorded_run(self, p):
        ref = MATRIX_FINGERPRINT["runs"]["ellipse"][repr(float(p))]
        trace = run(RunConfig(problem_key="ellipse", p=float(p),
                              epsilon=MATRIX_FINGERPRINT["epsilon"]["ellipse"]))
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


@lru_cache(maxsize=None)
def _bound_setup(key, p):
    """Initial polytope, the residuals of its vertices and known points of
    U: the coordinate minimizers and the support points solved at the
    vertices and edge midpoints of the polytope (points of A)."""
    prob = by_key(key)
    ne = NormExponent(p)
    P0 = initialize(prob)
    V = P0.vertices()
    known = [prob.gamma_eval(prob.ws_closed_form(e)) for e in np.eye(prob.q)]
    points = list(V) + [0.5 * (a + b)
                        for i, a in enumerate(V) for b in V[i + 1:]]
    solved = [scalarization.solve_subproblem(prob, v, ne) for v in points]
    residuals = [res.residual_norm for res in solved[:len(V)]]
    known += [res.y_support for res in solved]
    return P0, np.array(residuals), np.array(known)


def _outward_normals(P):
    """Halfspace normals of P, outward from the upper image."""
    return -np.array([h.normal for h in P.halfspaces])


def _full_bounds(prob, p, V, incident, normals):
    """The bounds of a frontier search at V advanced to _ROUNDS rounds."""
    state = _search_start(prob, p, V, incident, normals)
    _search_advance(prob, p, V, state, -math.inf)
    return state[0]


def _solved_vertices(monkeypatch, config):
    """The run of config and the vertices it solves, in order."""
    solved = []
    real_solve = scalarization.solve_subproblem

    def solve(prob, v, *args, **kwargs):
        solved.append(tuple(np.asarray(v, dtype=float).tolist()))
        return real_solve(prob, v, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(scalarization, "solve_subproblem", solve)
        return run(config), solved


_UNIT = st.floats(0.0, 1.0)


class TestLazySelection:
    @pytest.mark.parametrize("key", PROBLEM_KEYS)
    @settings(max_examples=25, deadline=None)
    @given(p=st.sampled_from([1.25, 2.0, 8.0]),
           weights=st.lists(_UNIT, min_size=4, max_size=4),
           toward=_UNIT, support=st.integers(0, 100), on_face=st.booleans(),
           active=st.lists(st.booleans(), min_size=4, max_size=4))
    def test_bounds_cover_residual(self, key, p, weights, toward, support,
                                   on_face, active):
        # v is a point of the initial polytope: a convex combination of its
        # vertices, moved toward a known point of U and, if on_face, along
        # w_bar onto the slice face, searched in one batch with the
        # vertices; every row's bound lies at or above the residual the
        # subproblem solver returns there, up to rounding
        prob = by_key(key)
        P0, vertex_residuals, known = _bound_setup(key, p)
        V = P0.vertices()
        lam = np.array(weights[:len(V)]) + 1e-12
        v = (1.0 - toward) * (lam @ V) / lam.sum() + toward * known[
            support % len(known)]
        if on_face:
            w = prob.w_bar
            v = v + (prob.gamma_slice - w @ v) / (w @ w) * w
        incident = np.vstack([active[:len(P0.halfspaces)], P0.incidence])
        residual = scalarization.solve_subproblem(
            prob, v, NormExponent(p)).residual_norm
        residuals = np.append(residual, vertex_residuals)
        found = _full_bounds(prob, p, np.vstack([v, V]), incident,
                             _outward_normals(P0))
        assert np.all(residuals * (1.0 - _ROUNDING) <= found)

    def test_point_outside_slice_gives_no_bound(self):
        # a point of U beyond the slice is not in A: it bounds nothing,
        # while the same point moved onto the slice face gives max(v, y)
        prob = by_key("example1-q2")
        v = np.array([0.0, 0.0])
        w = prob.w_bar
        g = prob.gamma_slice
        y = np.array([3.0, 3.0])
        assert w @ y > g
        y_face = y - (w @ y - g) / (w @ w) * w
        found = _point_bounds(v, np.array([y, y_face]), w, g, 2.0)
        assert found[0] == math.inf
        assert found[1] == pytest.approx(np.linalg.norm(y_face))

    def test_search_without_bound_solves(self, monkeypatch):
        # a frontier search that finds no point of A leaves the bound at
        # +inf, and the loop solves the vertex instead: the run ends and
        # its trace is the one the real search gives
        config = RunConfig(problem_key="example2", p=2.0, epsilon=0.3)
        expected = dumps_trace(run(config))
        monkeypatch.setattr(driver, "_frontier",
                            lambda prob, p, V, u:
                            (u, np.full(u.shape[:-1], math.inf)))
        trace = run(config)
        assert trace.termination == "converged"
        assert dumps_trace(trace) == expected

    @pytest.mark.parametrize("key", PROBLEM_KEYS)
    def test_bounds_independent_of_batch(self, key):
        # a vertex's bound is the same searched alone or in a mixed batch:
        # no row reads another row's radius or state
        prob = by_key(key)
        P = run(RunConfig(problem_key=key, p=2.0, epsilon=1e-6,
                          max_iterations=6)).final_polytope
        V, normals = P.vertices(), _outward_normals(P)
        order = np.random.default_rng(7).permutation(len(V))
        mixed = _full_bounds(prob, 2.0, V[order], P.incidence[order],
                             normals)
        alone = np.array([_full_bounds(prob, 2.0, V[i:i + 1],
                                       P.incidence[i:i + 1], normals)[0]
                          for i in order])
        assert np.all(np.isfinite(alone))
        np.testing.assert_allclose(mixed, alone, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("key", PROBLEM_KEYS)
    def test_search_resumes(self, key):
        # a search advanced against a threshold and later against -inf ends
        # with the bounds of one advance against -inf, and no row runs past
        # _ROUNDS rounds
        prob = by_key(key)
        P = run(RunConfig(problem_key=key, p=2.0, epsilon=1e-6,
                          max_iterations=6)).final_polytope
        V, normals = P.vertices(), _outward_normals(P)
        state = _search_start(prob, 2.0, V, P.incidence, normals)
        _search_advance(prob, 2.0, V, state, float(np.median(state[0])))
        assert np.any(state[3] < _ROUNDS) and np.any(state[3] > 0)
        _search_advance(prob, 2.0, V, state, -math.inf)
        assert np.all(state[3] == _ROUNDS)
        np.testing.assert_allclose(
            state[0], _full_bounds(prob, 2.0, V, P.incidence, normals),
            rtol=1e-12, atol=0.0)

    def test_need_driven_search_solves_same_vertices(self, monkeypatch):
        # example2 at eps = 0.3 solves the same vertices in the same order
        # as a run whose search advances every row to _ROUNDS rounds
        config = RunConfig(problem_key="example2", p=2.0, epsilon=0.3)
        trace, solved = _solved_vertices(monkeypatch, config)
        real_advance = driver._search_advance
        monkeypatch.setattr(driver, "_search_advance",
                            lambda *args: real_advance(*args[:-1], -math.inf))
        full_trace, full_solved = _solved_vertices(monkeypatch, config)
        assert trace.termination == "converged"
        assert solved == full_solved
        assert dumps_trace(trace) == dumps_trace(full_trace)

    def test_search_work_bounded(self, monkeypatch):
        # the search advances only the rows that can reach the largest
        # residual: ellipse at p = 2 makes at most half the oracle calls of
        # one start and _ROUNDS rounds per iteration
        inst, callers = _oracle_with_fault(by_key("ellipse"))
        monkeypatch.setattr(driver, "by_key", lambda _key: inst)
        trace = run(RunConfig(problem_key="ellipse", p=2.0, epsilon=1e-3))
        assert trace.termination == "converged"
        search_calls = callers.count("_frontier")
        assert 0 < search_calls <= (1 + _ROUNDS) * len(trace.iterations) / 2

    def test_skipped_vertices_below_selected(self, monkeypatch):
        # example2 at eps = 0.3: every vertex the lazy loop left unsolved in
        # an iteration, re-solved, lies strictly below the selected residual,
        # and the selected vertex is the first maximum over all vertices
        events = []
        real_solve = scalarization.solve_subproblem
        real_cut = pt.cut

        def solve(prob, v, *args, **kwargs):
            events.append(tuple(np.asarray(v, dtype=float).tolist()))
            return real_solve(prob, v, *args, **kwargs)

        def cut(P, h):
            events.append(None)
            return real_cut(P, h)

        monkeypatch.setattr(scalarization, "solve_subproblem", solve)
        monkeypatch.setattr(pt, "cut", cut)
        config = RunConfig(problem_key="example2", p=2.0, epsilon=0.3)
        trace = run(config)
        monkeypatch.undo()
        assert trace.termination == "converged"

        prob = by_key("example2")
        ne = NormExponent(config.p)
        P = initialize(prob)
        eager: dict = {}
        solved: set = set()
        pending = iter(events)
        skipped = 0
        seen: set = set()
        for rec in trace.iterations:
            for key in pending:
                if key is None:
                    break
                solved.add(key)
            verts = P.vertices()
            # cache_hits counts the vertices of earlier polytopes
            keys = {tuple(v) for v in verts.tolist()}
            assert rec.cache_hits == len(keys & seen)
            seen |= keys
            for v in verts:
                if tuple(v) not in eager:
                    eager[tuple(v)] = scalarization.solve_subproblem(
                        prob, v, ne)
            residuals = [eager[tuple(v)].residual_norm for v in verts]
            idx = int(np.argmax(residuals))
            assert np.array_equal(verts[idx], rec.farthest_vertex)
            assert residuals[idx] == rec.residual_norm
            for v, r in zip(verts.tolist(), residuals):
                if tuple(v) not in solved:
                    skipped += 1
                    assert r < rec.residual_norm, (rec.k, v, r)
            P = pt.cut(P, pt.Halfspace(
                -rec.cut_normal, -float(rec.cut_normal @ rec.support_point)))
        lazy_solves = sum(key is not None for key in events)
        assert lazy_solves == len(solved)
        assert skipped > 0
        assert lazy_solves < len(eager)


def _oracle_with_fault(prob, fail_at=None):
    """The instance with a gamma_eval that records the function calling it
    and raises ValueError at call number `fail_at` (never if None)."""
    callers = []

    def gamma_eval(x):
        callers.append(sys._getframe(1).f_code.co_name)
        if len(callers) == fail_at:
            raise ValueError("injected oracle failure")
        return prob.gamma_eval(x)

    return dataclasses.replace(prob, gamma_eval=gamma_eval), callers


def _fault_call(key, config, site):
    """The first gamma_eval call past the middle of a clean run of config
    that comes from the function `site`."""
    inst, callers = _oracle_with_fault(by_key(key))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "by_key", lambda _key: inst)
        run(config)
    return next(n for n in range(len(callers) // 2, len(callers))
                if callers[n] == site) + 1


class TestOracleFailure:
    @pytest.mark.parametrize("key, site", [
        ("example2", "solve_subproblem"),  # inside a subproblem solve
        ("ellipse", "_frontier"),         # inside a bound search
    ])
    def test_oracle_error_is_solver_failure(self, monkeypatch, key, site):
        # a ValueError from a problem oracle ends the run with a recorded
        # termination; the iterations before it are those of a clean run
        config = RunConfig(problem_key=key, p=2.0, epsilon=0.05)
        clean = run(config)
        fail_at = _fault_call(key, config, site)
        inst, callers = _oracle_with_fault(by_key(key), fail_at)
        monkeypatch.setattr(driver, "by_key", lambda _key: inst)
        trace = run(config)
        assert len(callers) == fail_at and callers[-1] == site
        assert trace.termination == "solver_failure"
        assert 0 < len(trace.iterations) < len(clean.iterations)
        assert (hausdorff_series(trace)
                == hausdorff_series(clean)[:len(trace.iterations)])
        assert len(trace.final_polytope.halfspaces) == (
            trace.initial_halfspace_count + len(trace.iterations))

    def test_oracle_error_before_first_iteration(self, monkeypatch):
        inst, callers = _oracle_with_fault(by_key("ellipse"), 1)
        monkeypatch.setattr(driver, "by_key", lambda _key: inst)
        trace = run(RunConfig(problem_key="ellipse", p=2.0, epsilon=0.05))
        assert callers == ["weighted_sum"]
        assert trace.termination == "solver_failure"
        assert trace.iterations == () and trace.final_polytope is None

    def test_failure_without_polytope_counts_q_plus_1(self, monkeypatch):
        # with no polytope to count, J + 1 = q + 1 still holds, and the
        # written trace loads back
        inst, _ = _oracle_with_fault(by_key("example2"), 1)
        monkeypatch.setattr(driver, "by_key", lambda _key: inst)
        trace = run(RunConfig(problem_key="example2", p=2.0, epsilon=0.05))
        monkeypatch.undo()
        assert trace.final_polytope is None
        assert trace.initial_halfspace_count == 4 == trace.q + 1
        doc = trace_to_dict(trace)
        assert doc["initial_halfspace_count"] == 4
        assert trace_from_dict(doc).initial_halfspace_count == 4


def test_version_1_trace_counts_q_plus_1():
    doc = json.loads((Path(__file__).parent / "data"
                      / "trace_v1_example1-q2.json").read_text())
    assert doc["initial_halfspace_count"] == 3
    trace = trace_from_dict(doc)
    assert trace.initial_halfspace_count == 3 == trace.q + 1
