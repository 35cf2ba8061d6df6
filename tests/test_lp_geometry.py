import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpoa.lp_geometry import (LemmaConstants, NormExponent,
                              dual_ball_min_euclidean, lp_gradient, lp_norm,
                              norm_equivalence_constant)

P_VALUES = [1.25, 1.5, 2.0, 3.0, 4.0, 8.0]
TOL = 1e-9


class TestNormExponent:
    @pytest.mark.parametrize("p,p_star", [(2.0, 2.0), (4.0, 4.0 / 3.0),
                                          (1.25, 5.0), (8.0, 8.0 / 7.0)])
    def test_conjugate(self, p, p_star):
        assert NormExponent(p).p_star == pytest.approx(p_star, rel=1e-15)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_conjugate_identity(self, p):
        ne = NormExponent(p)
        assert 1.0 / ne.p + 1.0 / ne.p_star == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [1.0, 0.5, -2.0, float("inf"),
                                     float("nan"), 1e308])
    def test_invalid_exponent(self, bad):
        with pytest.raises(ValueError):
            NormExponent(bad)


class TestLpNorm:
    @pytest.mark.parametrize("p", P_VALUES)
    def test_against_numpy(self, p):
        rng = np.random.default_rng(7)
        ne = NormExponent(p)
        for _ in range(200):
            z = rng.normal(size=rng.integers(1, 6)) * 10.0 ** rng.uniform(-6, 6)
            assert lp_norm(z, ne) == pytest.approx(
                np.linalg.norm(z, ord=p), rel=1e-12)

    def test_simple_values(self):
        assert lp_norm([3.0, 4.0], NormExponent(2)) == pytest.approx(5.0)
        assert lp_norm([1.0, 1.0], NormExponent(4)) == pytest.approx(2.0 ** 0.25)
        assert lp_norm([0.0, 0.0], NormExponent(3)) == 0.0

    def test_extreme_scales(self):
        ne = NormExponent(8)
        assert lp_norm([1e-200, 1e-200], ne) == pytest.approx(
            2.0 ** 0.125 * 1e-200, rel=1e-12)
        assert lp_norm([1e200, 0.0], ne) == pytest.approx(1e200)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            lp_norm([1.0, np.inf], NormExponent(2))
        with pytest.raises(ValueError):
            lp_norm([[1.0, 2.0]], NormExponent(2))


class TestLpGradient:
    @pytest.mark.parametrize("p", P_VALUES)
    def test_finite_difference(self, p):
        rng = np.random.default_rng(11)
        ne = NormExponent(p)
        for _ in range(50):
            z = rng.normal(size=3)
            if np.min(np.abs(z)) < 1e-2:
                continue
            g = lp_gradient(z, ne)
            h = 1e-6
            for i in range(3):
                dz = np.zeros(3)
                dz[i] = h
                fd = (lp_norm(z + dz, ne) - lp_norm(z - dz, ne)) / (2 * h)
                assert g[i] == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_dual_norm_one(self, p):
        rng = np.random.default_rng(13)
        ne = NormExponent(p)
        dual = NormExponent(ne.p_star)
        for _ in range(200):
            z = rng.normal(size=rng.integers(2, 5)) * 10.0 ** rng.uniform(-3, 3)
            g = lp_gradient(z, ne)
            assert lp_norm(g, dual) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p", P_VALUES)
    def test_euler_identity(self, p):
        # <grad ||z||, z> = ||z|| (the norm is 1-homogeneous)
        ne = NormExponent(p)
        rng = np.random.default_rng(17)
        for _ in range(100):
            z = rng.normal(size=3)
            g = lp_gradient(z, ne)
            assert float(g @ z) == pytest.approx(lp_norm(z, ne), rel=1e-10)

    def test_zero_component(self):
        g = lp_gradient([1.0, 0.0], NormExponent(1.5))
        assert g[1] == 0.0 and g[0] == pytest.approx(1.0)

    def test_undefined_at_zero(self):
        with pytest.raises(ValueError):
            lp_gradient([0.0, 0.0], NormExponent(3))


class TestConstants:
    def test_norm_equivalence_values(self):
        assert norm_equivalence_constant(NormExponent(2), 5) == 1.0
        assert norm_equivalence_constant(NormExponent(1.25), 3) == 1.0
        assert norm_equivalence_constant(NormExponent(4), 2) == pytest.approx(
            2.0 ** 0.25)
        assert norm_equivalence_constant(NormExponent(8), 3) == pytest.approx(
            3.0 ** (0.5 - 0.125))

    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_norm_equivalence_sharp(self, p, q):
        # constant is valid and attained (sampled + extremal witnesses)
        ne = NormExponent(p)
        n2p = norm_equivalence_constant(ne, q)
        rng = np.random.default_rng(23)
        best = 0.0
        for _ in range(500):
            x = rng.normal(size=q)
            ratio = np.linalg.norm(x) / lp_norm(x, ne)
            assert ratio <= n2p + 1e-12
            best = max(best, ratio)
        for x in (np.ones(q), np.eye(q)[0]):
            best = max(best, np.linalg.norm(x) / lp_norm(x, ne))
        assert best == pytest.approx(n2p, rel=1e-12)

    @pytest.mark.parametrize("p", P_VALUES)
    @pytest.mark.parametrize("q", [2, 3])
    def test_dual_ball_min_euclidean(self, p, q):
        # minimize ||x||_2 over the dual-norm unit sphere by dense sampling
        ne = NormExponent(p)
        dual = NormExponent(ne.p_star)
        c = dual_ball_min_euclidean(ne, q)
        rng = np.random.default_rng(29)
        best = np.inf
        for _ in range(4000):
            x = rng.normal(size=q)
            x = x / lp_norm(x, dual)
            assert np.linalg.norm(x) >= c - 1e-12
            best = min(best, np.linalg.norm(x))
        for x in (np.ones(q), np.eye(q)[0]):
            best = min(best, np.linalg.norm(x / lp_norm(x, dual)))
        assert best == pytest.approx(c, rel=1e-12)

    def test_lemma_constants(self):
        ne = NormExponent(2)
        lc = LemmaConstants.for_exponent(ne, 2, eta=0.1)
        assert lc.N2p == 1.0
        assert lc.C_pq == pytest.approx(0.5)
        assert lc.c_pq == 1.0
        assert lc.C2 == pytest.approx(math.sqrt(2.0))
        assert lc.C3 == pytest.approx(math.sqrt(2.0))
        lc8 = LemmaConstants.for_exponent(NormExponent(8), 3)
        assert lc8.N2p == pytest.approx(3.0 ** 0.375)
        assert lc8.C_pq == pytest.approx(3.0 ** 0.75 / 2.0)

    def test_lemma_constants_validation(self):
        with pytest.raises(ValueError):
            LemmaConstants.for_exponent(NormExponent(2), 1)
        for eta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                LemmaConstants.for_exponent(NormExponent(2), 2, eta=eta)


def moduli(p: float) -> tuple[float, float, float, float]:
    """(S_p, s_p, K_p, r_p) of the sharp moduli bounds on lp: the modulus of
    smoothness rho_p(tau) <= S_p tau^s_p and the modulus of convexity
    delta_p(eps) >= K_p eps^r_p, with power types s_p = min(p, 2) and
    r_p = max(p, 2)."""
    if p <= 2.0:
        return 1.0 / p, p, (p - 1.0) / 8.0, 2.0
    return (p - 1.0) / 2.0, 2.0, 1.0 / (p * 2.0**p), p


# drawn in R^3; the q = 2 cases use the first two entries
VECTORS = st.lists(st.floats(-10.0, 10.0, allow_subnormal=False),
                   min_size=3, max_size=3).map(np.array)


def cases(*vectors):
    """(p, q, ne, the vectors cut to R^q) for every p in P_VALUES and
    q in {2, 3}."""
    for p in P_VALUES:
        ne = NormExponent(p)
        for q in (2, 3):
            yield p, q, ne, [v[:q] for v in vectors]


def unit(x: np.ndarray, ne: NormExponent) -> np.ndarray:
    return x / lp_norm(x, ne)


def assume_nonzero(*vectors):
    # every lp norm of the first two entries is then at least 1e-12
    for v in vectors:
        assume(np.abs(v[:2]).max() >= 1e-12)


class TestUniformGeometry:
    """Textbook inequalities of the lp unit ball on drawn vectors, to an
    absolute (for Hanner, scaled) tolerance of 1e-9."""

    @settings(derandomize=True, deadline=None)
    @given(u=VECTORS, v=VECTORS, log_tau=st.floats(-3.0, 0.5))
    def test_smoothness_modulus(self, u, v, log_tau):
        # rho_p(tau) = (||x + tau y|| + ||x - tau y||) / 2 - 1 on unit x, y
        assume_nonzero(u, v)
        tau = 10.0 ** log_tau
        for p, q, ne, (x, y) in cases(u, v):
            S_p, s_p, _, _ = moduli(p)
            x, y = unit(x, ne), unit(y, ne)
            rho = 0.5 * (lp_norm(x + tau * y, ne)
                         + lp_norm(x - tau * y, ne)) - 1.0
            assert rho - S_p * tau ** s_p <= TOL, (p, q)

    @settings(derandomize=True, deadline=None)
    @given(u=VECTORS, v=VECTORS)
    def test_convexity_modulus(self, u, v):
        # 1 - ||x + y|| / 2 >= K_p eps^r_p for unit x, y at distance eps
        assume_nonzero(u, v)
        for p, q, ne, (x, y) in cases(u, v):
            _, _, K_p, r_p = moduli(p)
            x, y = unit(x, ne), unit(y, ne)
            eps = lp_norm(x - y, ne)
            if 1e-9 <= eps <= 2.0:
                margin = K_p * eps ** r_p - (1.0 - 0.5 * lp_norm(x + y, ne))
                assert margin <= TOL, (p, q)

    @settings(derandomize=True, deadline=None)
    @given(u=VECTORS, v=VECTORS)
    def test_hanner(self, u, v):
        # ||x + y||^p + ||x - y||^p against (||x|| + ||y||)^p
        # + | ||x|| - ||y|| |^p: >= for p <= 2, <= for p >= 2
        for p, q, ne, (x, y) in cases(u, v):
            nx, ny = lp_norm(x, ne), lp_norm(y, ne)
            lhs = lp_norm(x + y, ne) ** p + lp_norm(x - y, ne) ** p
            rhs = (nx + ny) ** p + abs(nx - ny) ** p
            diff = rhs - lhs if p <= 2.0 else lhs - rhs
            assert diff <= TOL * max(1.0, abs(rhs)), (p, q)

    @settings(derandomize=True, deadline=None)
    @given(u=VECTORS, v=VECTORS)
    def test_strict_convexity(self, u, v):
        # ||x + y|| < 2 for distinct unit x, y.  In double precision the gap
        # shows only where the convexity modulus K_p eps^r_p exceeds the
        # tolerance: at p = 8, unit vectors 1.7e-3 apart have ||x + y||
        # == 2.0 exactly.
        assume_nonzero(u, v)
        for p, q, ne, (x, y) in cases(u, v):
            _, _, K_p, r_p = moduli(p)
            x, y = unit(x, ne), unit(y, ne)
            if K_p * lp_norm(x - y, ne) ** r_p > TOL:
                assert lp_norm(x + y, ne) < 2.0, (p, q)
