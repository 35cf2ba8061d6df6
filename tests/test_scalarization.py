import math

import numpy as np
import pytest

from lpoa import problems, scalarization
from lpoa.lp_geometry import NormExponent, lp_norm
from lpoa.problems import PROBLEM_KEYS, by_key
from lpoa.scalarization import SubproblemError, solve_batch, solve_subproblem

import ascent_reference
from oracles import (boundary_samples, frontier, in_A, oracle_distance,
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

    def test_q4_ball(self, monkeypatch):
        # the unit ball at (1, 1, 1, 1) with w_bar = 1/4 (not a built-in):
        # at v = a (1, 1, 1, 1) the nearest point of A is (1/2, ..., 1/2), by
        # symmetry and convexity, so R = (1/2 - a) 4^(1/p); the q = 4 vertex
        # where the run at p = 8, eps = 0.02 once failed converges (29
        # steps, R = 0.15724947043903); and the point (0.4, 0.5, 0.6, 0.7)
        # of A meets a 4 x 4 Hessian on its way to R = 0
        prob = problems._instance("example1-q4", tuple, np.ones(4) / 4,
                                  problems._ball_minimizer)
        sizes, eigh = set(), scalarization._eigh

        def recording_eigh(S):
            sizes.add(len(S))
            return eigh(S)

        monkeypatch.setattr(scalarization, "_eigh", recording_eigh)
        for a in (0.0, 0.3):
            for p in (1.25, 2.0, 8.0):
                res = solve_subproblem(prob, np.full(4, a), NormExponent(p))
                exact = (0.5 - a) * 4.0 ** (1.0 / p)
                assert abs(res.residual_norm - exact) <= 1e-12 * exact
        res = solve_subproblem(prob, np.array([0.6419608206566959,
                                               1.7320508075635008,
                                               0.6259883717798032, 0.0]),
                               NormExponent(8.0))
        assert res.iterations <= 40
        assert (abs(res.residual_norm - 0.15724947043903)
                <= 1e-12 * 0.15724947043903)
        res = solve_subproblem(prob, np.array([0.4, 0.5, 0.6, 0.7]),
                               NormExponent(8.0))
        assert res.residual_norm == 0.0 and 4 in sizes


# ---------------------------------------------------------------------------
# the solver against the reference solver of the general formulas

REFERENCE_P = [1.25, 2.0, 3.0, 8.0]

# (p, example1-q3 vertex) whose ascent in the reference solver does not
# converge within MAX_STEPS Newton steps: at p = 8 the second ascent crawls
# along a face (309 steps); at p = 1.25 (residual 6.8e-10, just above
# ZERO_TOL) the single e = 1 ascent needs 203
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
        y = frontier(prob, omega)
        shift = rng.uniform(-0.2, 1.0, prob.q) * (0.05, 0.5, 2.0)[i % 3]
        vertices.append(y - shift)
    return vertices


def _outcome(solve, prob, v, ne):
    """The result, or the error it raises as (type, message)."""
    try:
        return solve(prob, v, ne)
    except SubproblemError as exc:
        return type(exc), str(exc)


class TestAgainstReference:
    """solve_subproblem and its objective against the reference solver of
    the general formulas in numpy.  The objective runs in Python floats, so
    the two agree in value, not in bits: the tolerances below are 5 to 100
    times the gaps measured on random points and solves."""

    @pytest.mark.parametrize("p", REFERENCE_P)
    @pytest.mark.parametrize("key", PROBLEM_KEYS)
    def test_objective_byte_identical(self, key, p):
        # random points of the simplex with about 30 % of the coordinates
        # zero, most of which no ascent visits, at both exponents: R within
        # 1e-12 relative, the gradient within 1e-12 of its largest entry
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
                R, G, _ = scalarization._dual_objective(prob, v, ne, e)(
                    theta.tolist())
                R_ref, G_ref, _ = ascent_reference._dual_objective(
                    prob, v, ne, e)(theta)
                if R_ref == -math.inf:
                    assert R == R_ref and not any(G), (e, v, theta)
                    continue
                assert abs(R - R_ref) <= 1e-12 * abs(R_ref), (e, v, theta)
                assert (np.max(np.abs(G - G_ref))
                        <= 1e-12 * np.max(np.abs(G_ref))), (e, v, theta)

    @pytest.mark.parametrize("p", REFERENCE_P)
    @pytest.mark.parametrize("key", PROBLEM_KEYS)
    def test_byte_identical(self, key, p):
        # the same error, or the same zero-residual outcome with R within
        # 1e-10 relative and the cut normal within 1e-6
        prob = by_key(key)
        ne = NormExponent(p)
        for v in _seeded_vertices(prob, PROBLEM_KEYS.index(key)):
            res = _outcome(solve_subproblem, prob, v, ne)
            ref = _outcome(ascent_reference.solve_subproblem, prob, v, ne)
            if isinstance(ref, tuple) or isinstance(res, tuple):
                assert res == ref, v
                continue
            assert (res.cut_normal is None) == (ref.cut_normal is None), v
            assert (abs(res.residual_norm - ref.residual_norm)
                    <= 1e-10 * ref.residual_norm), v
            if ref.cut_normal is not None:
                assert np.max(np.abs(res.cut_normal - ref.cut_normal)) <= 1e-6

    def test_seeds_cover_tangent_dimensions_and_ascents(self, monkeypatch):
        # Hessians of one, two and three tangent directions (none, one and
        # several Jacobi rotations), and the ascent at e = 1 and the second
        # one at e = 2 / p*
        sizes, exponents = set(), set()
        eigh, objective = scalarization._eigh, scalarization._dual_objective

        def recording_eigh(S):
            sizes.add(len(S))
            return eigh(S)

        def recording_objective(prob, v, ne, e):
            exponents.add(e == 1.0)
            return objective(prob, v, ne, e)

        monkeypatch.setattr(scalarization, "_eigh", recording_eigh)
        monkeypatch.setattr(scalarization, "_dual_objective",
                            recording_objective)
        for key in PROBLEM_KEYS:
            prob = by_key(key)
            for p in REFERENCE_P:
                for v in _seeded_vertices(prob, PROBLEM_KEYS.index(key)):
                    _outcome(solve_subproblem, prob, v, NormExponent(p))
        assert sizes == {1, 2, 3}
        assert exponents == {True, False}

    def test_tangent_basis_is_orthonormal_complement(self):
        # on random t >= 0 of 2 to 5 entries at scales 1e-12 to 1, some of
        # them zero: orthonormal rows, orthogonal to t, and at k = 2 the
        # closed-form tangent (-t_1, t_0) / |t| up to sign, all within 1e-15
        rng = np.random.default_rng(2)
        for i in range(2000):
            k = 2 + i % 4
            t = rng.dirichlet(np.ones(k)) * 10.0 ** rng.integers(-12, 1)
            t[rng.random(k) < 0.3] = 0.0
            if not t.any():
                t[rng.integers(k)] = 1.0
            rows = np.array(scalarization._tangent_basis(t.tolist()))
            assert rows.shape == (k - 1, k)
            assert np.max(np.abs(rows @ rows.T - np.eye(k - 1))) <= 1e-15, t
            assert (np.max(np.abs(rows @ t))
                    <= 1e-15 * np.linalg.norm(t)), t
            if k == 2:
                tangent = np.array([-t[1], t[0]]) / np.linalg.norm(t)
                assert min(np.max(np.abs(rows[0] - tangent)),
                           np.max(np.abs(rows[0] + tangent))) <= 1e-15, t

    def test_eigh_eigenpairs(self):
        # random symmetric 1 x 1 to 4 x 4 matrices with entries at scales
        # 1e-8 to 1e8: S U = U diag(curv) within 1e-14 of the largest entry
        # of S, and U orthogonal within 1e-14 (measured: 1.3e-15 and 1.8e-15
        # over 20,000 such matrices)
        rng = np.random.default_rng(11)
        for i in range(4000):
            k = 1 + i % 4
            H = rng.normal(size=(k, k)) * 10.0 ** rng.integers(-8, 9, (k, k))
            S = 0.5 * (H + H.T)
            curv, U = map(np.array, scalarization._eigh(S.tolist()))
            assert (np.max(np.abs(S @ U - U * curv))
                    <= 1e-14 * np.max(np.abs(S))), S
            assert np.max(np.abs(U.T @ U - np.eye(k))) <= 1e-14, S

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_eigh_rejects_non_finite(self, k, bad):
        # a non-finite Hessian raises before any rotation, 1 x 1 included
        S = np.eye(k)
        S[k - 1, 0] = S[0, k - 1] = bad
        with pytest.raises(np.linalg.LinAlgError):
            scalarization._eigh(S.tolist())

    @pytest.mark.parametrize("key, theta, v, directions", [
        # mu held at 0: one tangent direction, a 1 x 1 Hessian
        ("example1-q2", (0.5, 0.5, 0.0), (-0.3, -0.2), 1),
        # every coordinate free: a 3 x 3 Hessian
        ("example2", (0.25, 0.25, 0.25, 0.25), (0.0, 0.0, 0.0), 3)])
    def test_nan_at_hessian_probe_raises(self, key, theta, v, directions):
        # a NaN in the gradient at a Hessian probe makes the Hessian
        # non-finite, and _eigh raises, for a 1 x 1 as for a 3 x 3, instead
        # of the ascent taking a step from it
        objective = scalarization._dual_objective(by_key(key), np.array(v),
                                                  NormExponent(2.0), 1.0)
        calls = []

        def value(theta):
            R, G, point = objective(theta)
            calls.append(theta)
            if len(calls) == 2:     # the first probe of the first step
                G[0] = math.nan
            return R, G, point

        with pytest.raises(np.linalg.LinAlgError):
            scalarization._ascend(value, list(theta),
                                  scalarization._GAIN_TOL)
        # the start and one probe per tangent direction
        assert len(calls) == 1 + directions

    def test_hard_vertices_converge(self, monkeypatch):
        # the reference's non-converging vertices; an example2 vertex at
        # p = 8 where the first ascent can creep toward a face, gaining
        # about 1e-11 of R per step; and a point of the initial polytope of
        # example1-q3 just outside the ball (drawn by
        # test_bounds_cover_residual), where the first free coordinate
        # settles near 4e-6 next to two near 0.5 and the ascent crawls to
        # MAX_STEPS if the basis reflects onto that coordinate's axis.  Each
        # converges in at most 40 Newton steps (33, 16, 38 and 10; 42 and 44
        # at p = 8 without the realized-gain stop), with R as the
        # reference's run to 2,000 steps, within 1e-12 relative or 5e-15
        # absolute (the residual of 6.8e-10 lies 1.4e-15 above the
        # reference's; scaling its theta by 3 moves R by 5.4e-16)
        prob = by_key("example1-q3")
        for p, vertex in NONCONVERGING_VERTICES:
            with pytest.raises(SubproblemError):
                ascent_reference.solve_subproblem(prob, np.array(vertex),
                                                  NormExponent(p))
        monkeypatch.setattr(ascent_reference, "MAX_STEPS", 2000)
        cases = [("example1-q3", p, v) for p, v in NONCONVERGING_VERTICES]
        cases += [
            ("example2", 8.0, (13.749999999974786, 0.0, 2.500000000025217)),
            ("example1-q3", 1.25,
             (1.0000099999999998, 0.99999, 1.999999999982898e-17))]
        for key, p, vertex in cases:
            prob, ne, v = by_key(key), NormExponent(p), np.array(vertex)
            res = solve_subproblem(prob, v, ne)
            assert res.iterations <= 40, (key, p)
            ref = ascent_reference.solve_subproblem(prob, v, ne)
            gap = abs(res.residual_norm - ref.residual_norm)
            assert gap <= max(1e-12 * ref.residual_norm, 5e-15), (key, p)
