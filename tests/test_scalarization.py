import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from lpoa import scalarization
from lpoa.driver import initialize
from lpoa.lp_geometry import NormExponent, lp_norm
from lpoa.problems import by_key
from lpoa.scalarization import (_project_upper, prox_lp_norm, solve_batch,
                                solve_subproblem)

from oracles import boundary_samples, in_A, oracle_distance

P_VALUES = [1.25, 1.5, 2.0, 3.0, 4.0, 8.0]


class TestProx:
    @pytest.mark.parametrize("p", P_VALUES)
    def test_against_nelder_mead(self, p):
        rng = np.random.default_rng(1)
        ne = NormExponent(p)
        for _ in range(10):
            c = rng.normal(size=3) * 2.0
            tau = abs(rng.normal()) * 1.5 + 0.01
            z = prox_lp_norm(c, tau, ne)

            def f(w):
                return (tau * np.sum(np.abs(w) ** p) ** (1.0 / p)
                        + 0.5 * np.sum((w - c) ** 2))

            res = minimize(f, z + 1e-3 * rng.normal(size=3),
                           method="Nelder-Mead",
                           options={"xatol": 1e-13, "fatol": 1e-15,
                                    "maxiter": 30000})
            assert f(z) <= res.fun + 1e-10

    @pytest.mark.parametrize("p", P_VALUES)
    def test_zero_iff_dual_ball(self, p):
        # Moreau: prox is zero exactly when ||c||_{p*} <= tau
        ne = NormExponent(p)
        dual = NormExponent(ne.p_star)
        rng = np.random.default_rng(2)
        for _ in range(50):
            c = rng.normal(size=3)
            dn = lp_norm(c, dual)
            assert np.all(prox_lp_norm(c, dn * 1.0001, ne) == 0.0)
            if dn > 0:
                z = prox_lp_norm(c, dn * 0.99, ne)
                assert lp_norm(z, ne) > 0.0

    def test_p2_closed_form(self):
        ne = NormExponent(2)
        c = np.array([3.0, 4.0])
        z = prox_lp_norm(c, 1.0, ne)
        assert np.allclose(z, c * (1.0 - 1.0 / 5.0))

    @pytest.mark.parametrize("p", P_VALUES)
    def test_warm_state_consistent(self, p):
        ne = NormExponent(p)
        rng = np.random.default_rng(3)
        state = {}
        for _ in range(30):
            c = rng.normal(size=3)
            cold = prox_lp_norm(c, 0.3, ne)
            warm = prox_lp_norm(c, 0.3, ne, state=state)
            assert np.allclose(cold, warm, atol=1e-11)


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


class TestCacheAndBatch:
    def test_cache_hit(self, monkeypatch):
        # a second batch over the same vertices solves nothing again
        prob = by_key("example1-q2")
        ne = NormExponent(2)
        cache = {}
        verts = np.array([[0.0, 0.0], [-0.2, 0.1]])
        r1 = solve_batch(prob, verts, ne, cache=cache)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_subproblem(*args, **kwargs)

        monkeypatch.setattr(scalarization, "solve_subproblem", counting)
        r2 = solve_batch(prob, verts, ne, cache=cache)
        assert calls == []
        assert len(cache) == 2
        assert all(a is b for a, b in zip(r1, r2))

    def test_rejects_non_finite_vertex(self):
        prob = by_key("example1-q2")
        with pytest.raises(ValueError):
            solve_subproblem(prob, np.array([np.nan, 0.0]), NormExponent(2))


# ---------------------------------------------------------------------------
# first-order upper-image projection


def project_upper_reference(prob, a, x_warm, inner_tol, step=1.0):
    """The original first-order loop, which evaluates gamma again at every
    accepted point and once more on return."""
    x = x_warm
    for _ in range(300):
        r = np.maximum(prob.gamma_eval(x) - a, 0.0)
        if not np.any(r > 0.0):
            break
        g = 2.0 * (prob.gamma_jacobian(x).T @ r)
        fx = float(r @ r)
        x_new = x
        while step > 1e-16:
            x_new = prob.feasible_project(x - step * g)
            d = x_new - x
            r_new = np.maximum(prob.gamma_eval(x_new) - a, 0.0)
            if float(r_new @ r_new) <= fx + g @ d + 0.5 / step * (d @ d) + 1e-18:
                break
            step *= 0.5
        done = np.max(np.abs(x_new - x)) <= inner_tol
        x = x_new
        step = min(step * 1.2, 1e4)
        if done:
            break
    gx = prob.gamma_eval(x)
    return np.maximum(gx, a), x, step


def counting_gamma(prob):
    """prob with gamma_eval wrapped by a call counter; (instance, counter)."""
    calls = [0]

    def gamma_eval(x):
        calls[0] += 1
        return prob.gamma_eval(x)

    return dataclasses.replace(prob, gamma_eval=gamma_eval), calls


@pytest.fixture(scope="module")
def example2_projection_inputs():
    """(a, x_warm, inner_tol, step) of every projection made in one example2
    subproblem at p = 2: the initial vertex (0, 16.25, 0), 481 ADMM steps."""
    prob = by_key("example2")
    recorded = []

    def recording(prob_, a, x_warm, inner_tol, step=1.0):
        recorded.append((a.copy(), np.array(x_warm), inner_tol, step))
        return _project_upper(prob_, a, x_warm, inner_tol, step)

    mp = pytest.MonkeyPatch()
    mp.setattr(scalarization, "_project_upper", recording)
    try:
        verts = initialize(prob)[0].vertices()
        solve_subproblem(prob, verts[np.argmax(verts[:, 1])], NormExponent(2.0))
    finally:
        mp.undo()
    return recorded


def test_project_upper_matches_reference(example2_projection_inputs):
    prob = by_key("example2")
    assert prob.upper_project is None  # the first-order branch is exercised
    inputs = example2_projection_inputs
    assert len(inputs) >= 300
    new_prob, new_calls = counting_gamma(prob)
    ref_prob, ref_calls = counting_gamma(prob)
    for a, x_warm, inner_tol, step in inputs:
        new_calls[0] = ref_calls[0] = 0
        y, x, s = _project_upper(new_prob, a, x_warm, inner_tol, step)
        y_ref, x_ref, s_ref = project_upper_reference(ref_prob, a, x_warm,
                                                      inner_tol, step)
        assert y.tobytes() == y_ref.tobytes()
        assert x.tobytes() == x_ref.tobytes()
        assert s == s_ref
        assert new_calls[0] < ref_calls[0]
