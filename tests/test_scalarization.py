import math

import numpy as np
import pytest

from lpoa import scalarization
from lpoa.lp_geometry import NormExponent, lp_norm
from lpoa.problems import by_key
from lpoa.scalarization import solve_batch, solve_subproblem

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
