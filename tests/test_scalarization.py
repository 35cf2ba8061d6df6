import math

import numpy as np
import pytest

from lpoa import scalarization
from lpoa.lp_geometry import NormExponent, lp_norm
from lpoa.problems import PROBLEM_KEYS, by_key
from lpoa.scalarization import SubproblemError, solve_batch, solve_subproblem

import ascent_reference
from oracles import (boundary_samples, in_A, oracle_distance,
                     reference_distance, support_value)

P_VALUES = [1.25, 1.5, 2.0, 3.0, 4.0, 8.0]


class TestSubproblem:
    def test_example1_q2_origin_p2(self):
        # distance from the origin to the unit-circle frontier is sqrt(2) - 1
        prob = by_key("example1-q2")
        res = solve_subproblem(prob, np.zeros(2), NormExponent(2))
        assert res.residual_norm == pytest.approx(math.sqrt(2.0) - 1.0,
                                                  abs=1e-6)
        assert np.allclose(res.y_support, 1.0 - 1.0 / math.sqrt(2.0),
                           atol=1e-6)

    def test_example1_q2_origin_p3(self):
        # by symmetry the lp projection stays on the diagonal
        prob = by_key("example1-q2")
        res = solve_subproblem(prob, np.zeros(2), NormExponent(3))
        t = 1.0 - 1.0 / math.sqrt(2.0)
        assert res.residual_norm == pytest.approx(t * 2.0 ** (1.0 / 3.0),
                                                  abs=1e-6)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_cut_normal_dual_norm(self, p):
        prob = by_key("example1-q2")
        ne = NormExponent(p)
        dual = NormExponent(ne.p_star)
        rng = np.random.default_rng(4)
        for _ in range(5):
            v = -np.abs(rng.normal(size=2)) * 0.3
            res = solve_subproblem(prob, v, ne)
            assert res.cut_normal is not None
            assert lp_norm(res.cut_normal, dual) == pytest.approx(1.0,
                                                                  abs=1e-6)

    def test_support_point_in_A(self):
        prob = by_key("example1-q2")
        res = solve_subproblem(prob, np.zeros(2), NormExponent(2))
        assert in_A(prob, res.y_support, tol=1e-6)

    def test_interior_vertex_zero_residual(self):
        prob = by_key("example1-q2")
        y_in = np.array([0.3, 0.35])  # inside A
        assert in_A(prob, y_in, tol=1e-9)
        res = solve_subproblem(prob, y_in, NormExponent(2))
        assert res.residual_norm == 0.0
        assert res.cut_normal is None

    def test_supporting_halfspace_separates(self):
        # the cut halfspace {w.y >= w.y_support} must contain all of A
        prob = by_key("example1-q2")
        ne = NormExponent(2)
        res = solve_subproblem(prob, np.zeros(2), ne)
        w, ys = res.cut_normal, res.y_support
        for y in boundary_samples(prob, 400):
            assert float(w @ (y - ys)) >= -1e-6

    @pytest.mark.parametrize("key", ["example1-q2", "ellipse"])
    @pytest.mark.parametrize("p", [1.25, 2.0, 8.0])
    def test_oracle_equivalence(self, key, p):
        # residual matches the boundary-sampling distance oracle
        prob = by_key(key)
        ne = NormExponent(p)
        rng = np.random.default_rng(6)
        tested = 0
        while tested < 8:
            v = np.array([rng.uniform(-0.8, 0.6), rng.uniform(-0.8, 0.6)])
            if key == "ellipse":
                v = v * 2.0 + np.array([-1.0, -2.0])
            if in_A(prob, v):
                continue
            res = solve_subproblem(prob, v, ne)
            d_oracle = oracle_distance(prob, v, ne, samples=4000)
            assert res.residual_norm == pytest.approx(d_oracle, abs=2e-3)
            tested += 1


class TestBatch:
    def test_one_solve_per_vertex(self, monkeypatch):
        # no cache: a repeated vertex is solved again, results in order
        prob = by_key("example1-q2")
        ne = NormExponent(2)
        verts = np.array([[0.0, 0.0], [-0.2, 0.1], [0.0, 0.0]])
        calls = []

        def counting(prob, v, ne):
            calls.append(tuple(v))
            return solve_subproblem(prob, v, ne)

        monkeypatch.setattr(scalarization, "solve_subproblem", counting)
        results = solve_batch(prob, verts, ne)
        assert calls == [tuple(v) for v in verts]
        assert [r.residual_norm for r in results] == [
            solve_subproblem(prob, v, ne).residual_norm for v in verts]

    def test_rejects_non_finite_vertex(self):
        prob = by_key("example1-q2")
        with pytest.raises(ValueError):
            solve_subproblem(prob, np.array([np.nan, 0.0]), NormExponent(2))

    @pytest.mark.parametrize("v", [[0.0, 0.0, 0.0], [0.0], [[0.0, 0.0]]])
    def test_rejects_vertex_of_wrong_shape(self, v):
        prob = by_key("example1-q2")
        with pytest.raises(ValueError, match="q = 2"):
            solve_subproblem(prob, np.array(v), NormExponent(2))


# ---------------------------------------------------------------------------
# the dual solver

# example2 vertices at p = 8 whose optimal cut normal has a component
# between 1e-12 and 1e-5 of its largest (-2.5e-10 at (0, 11.25, 5)), where
# ||.||_{p*} is sharply curved: (0, 11.25, 5) and four vertices met by the
# p = 8 acceptance-matrix run
EXAMPLE2_P8_VERTICES = [
    (0.0, 11.25, 5.0),
    (1.7671936, 11.25000067, 3.23280573),
    (0.38824639278870365, 2.5967776834184173, 13.264975923792882),
    (0.5667184390708304, 2.171672851218343, 13.51160870971083),
    (0.7734757745729786, 1.8390422911866047, 13.63748193424042),
]


class TestDualSolver:
    @pytest.mark.parametrize("v", EXAMPLE2_P8_VERTICES)
    def test_p8_matches_reference(self, v):
        prob = by_key("example2")
        ne = NormExponent(8.0)
        res = solve_subproblem(prob, np.array(v), ne)
        ref = reference_distance(prob, v, ne)
        assert abs(res.residual_norm - ref) <= 1e-8 * ref

    @pytest.mark.parametrize("p", P_VALUES)
    def test_certificate(self, p):
        # the cut plane through the support point supports A from below (to
        # rounding), the residual is the distance from v to that plane, and
        # the support point lies in A
        prob = by_key("example2")
        ne = NormExponent(p)
        rng = np.random.default_rng(8)
        for i in range(3):
            v = rng.uniform(0.0, 4.0, size=3)
            v[i] = -0.5                 # gamma >= 0, so v is not in A
            res = solve_subproblem(prob, v, ne)
            u = res.cut_normal
            offset = float(u @ res.y_support)
            assert offset <= support_value(prob, u) + 1e-9
            assert offset - float(u @ v) == pytest.approx(res.residual_norm,
                                                          rel=1e-12)
            assert in_A(prob, res.y_support, tol=1e-9)


# ---------------------------------------------------------------------------
# the solver against the reference solver of the general formulas

REFERENCE_P = [1.25, 2.0, 3.0, 8.0]

# (p, example1-q3 vertex) whose ascent does not converge within MAX_STEPS
# Newton steps: at p = 8 the second ascent crawls along a face; at p = 1.25
# (residual 6.8e-10, just above ZERO_TOL) the single e = 1 ascent needs 203
NONCONVERGING_VERTICES = (
    (8.0, (0.644574175825538, 2.6373626373329603e-12, 1.3554258241691874)),
    (1.25, (1.2514992271876575, 0.04495200884976551, 0.703548763962577)),
)


def _seeded_vertices(prob, seed, count=12):
    """Frontier points gamma(x*(omega)) at random weights, lowered by random
    nonnegative shifts at three scales: most lie outside A, some inside."""
    rng = np.random.default_rng(seed)
    vertices = []
    for i in range(count):
        omega = rng.dirichlet(np.ones(prob.q))
        y = prob.gamma_eval(prob.ws_closed_form(omega))
        shift = rng.uniform(-0.2, 1.0, prob.q) * (0.05, 0.5, 2.0)[i % 3]
        vertices.append(y - shift)
    return vertices


def _outcome(solve, prob, v, ne):
    """The result's bytes, or the error it raises."""
    try:
        res = solve(prob, v, ne)
    except SubproblemError as exc:
        return type(exc), str(exc)
    normal = None if res.cut_normal is None else res.cut_normal.tobytes()
    return (res.y_support.tobytes(), np.float64(res.residual_norm).tobytes(),
            normal, res.iterations)


def _objective_bytes(objective, theta):
    """The bytes of R, its gradient, c and lam at theta."""
    R, G, (c, lam) = objective(theta)
    return (np.float64(R).tobytes(), G.tobytes(), c.tobytes(),
            np.float64(lam).tobytes())


class TestAgainstReference:
    """solve_subproblem and its objective are bit for bit the reference
    solver.  Reassociating (g - v) - R dD in the e = 1 gradient, for one,
    changes the last bits of some support points and fails both
    comparisons."""

    @pytest.mark.parametrize("p", REFERENCE_P)
    @pytest.mark.parametrize("key", PROBLEM_KEYS)
    def test_objective_byte_identical(self, key, p):
        # random points of the simplex with about 30 % of the coordinates
        # zero, most of which no ascent visits, at both exponents
        prob = by_key(key)
        ne = NormExponent(p)
        rng = np.random.default_rng(PROBLEM_KEYS.index(key))
        exponents = (1.0, 2.0 / ne.p_star) if p > 2.0 else (1.0,)
        vertices = _seeded_vertices(prob, PROBLEM_KEYS.index(key))
        for e in exponents:
            for i in range(200):
                v = vertices[i % len(vertices)]
                theta = rng.dirichlet(np.ones(prob.q + 1))
                theta[rng.random(prob.q + 1) < 0.3] = 0.0
                if theta.any():
                    theta /= theta.sum()
                ours = scalarization._dual_objective(prob, v, ne, e)
                ref = ascent_reference._dual_objective(prob, v, ne, e)
                assert (_objective_bytes(ours, theta)
                        == _objective_bytes(ref, theta)), (e, v, theta)

    @pytest.mark.parametrize("p", REFERENCE_P)
    @pytest.mark.parametrize("key", PROBLEM_KEYS)
    def test_byte_identical(self, key, p):
        prob = by_key(key)
        ne = NormExponent(p)
        for v in _seeded_vertices(prob, PROBLEM_KEYS.index(key)):
            assert (_outcome(solve_subproblem, prob, v, ne)
                    == _outcome(ascent_reference.solve_subproblem, prob, v,
                                ne)), v

    def test_seeds_cover_tangent_dimensions_and_ascents(self, monkeypatch):
        # one, two and three free directions, and the ascent at e = 1 and
        # the second one at e = 2 / p*
        directions, exponents = set(), set()
        qr, objective = scalarization._qr_q, scalarization._dual_objective

        def recording_qr(M):
            directions.add(M.shape[0] - 1)
            return qr(M)

        def recording_objective(prob, v, ne, e):
            exponents.add(e == 1.0)
            return objective(prob, v, ne, e)

        monkeypatch.setattr(scalarization, "_qr_q", recording_qr)
        monkeypatch.setattr(scalarization, "_dual_objective",
                            recording_objective)
        for key in PROBLEM_KEYS:
            prob = by_key(key)
            for p in REFERENCE_P:
                for v in _seeded_vertices(prob, PROBLEM_KEYS.index(key)):
                    _outcome(solve_subproblem, prob, v, NormExponent(p))
        assert directions == {1, 2, 3}
        assert exponents == {True, False}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_qr_q_is_numpy_qr(self, k):
        # the ascent's Q factor, of [theta | I] and of wide random matrices,
        # is np.linalg.qr's bit for bit
        rng = np.random.default_rng(k)
        for i in range(200):
            M = np.eye(k, k + 1, 1)
            M[:, 0] = rng.dirichlet(np.ones(k))
            if i % 2:
                M = rng.normal(size=(k, k + 1 + i % 3))
            expected = np.linalg.qr(M)[0]
            assert scalarization._qr_q(M.copy()).tobytes() == expected.tobytes()

    def test_nonconverging_vertex_raises_on_both_sides(self):
        prob = by_key("example1-q3")
        for p, vertex in NONCONVERGING_VERTICES:
            for solve in (solve_subproblem,
                          ascent_reference.solve_subproblem):
                with pytest.raises(SubproblemError):
                    solve(prob, np.array(vertex), NormExponent(p))
