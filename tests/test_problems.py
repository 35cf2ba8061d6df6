import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpoa import problems, scalarization
from lpoa.lp_geometry import NormExponent, lp_norm
from lpoa.problems import (_ELLIPSE_AXES_SQ, _ELLIPSE_M, _ELLIPSE_X0,
                           PROBLEM_KEYS, ProblemInstance, by_key,
                           weighted_sum)

from oracles import (DECISION, X_INIT, boundary_samples, in_A,
                     oracle_distance, slice_contains, upper_contains)


@pytest.fixture(params=PROBLEM_KEYS)
def prob(request):
    return by_key(request.param)


class TestRegistry:
    def test_keys(self):
        assert PROBLEM_KEYS == ("example1-q2", "example1-q3", "ellipse",
                                "example2")

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            by_key("nope")

    def test_dimensions(self):
        assert by_key("example1-q2").q == 2
        assert by_key("example1-q3").q == 3
        assert by_key("ellipse").q == 2
        assert by_key("example2").q == 3


class TestInstanceFields:
    """An instance holds what the dual solver reads.  The four names below
    are bound to None for perfbench/spans.py, which looks them up and skips
    an oracle that is None; no lpoa code may read or implement them."""

    NAMES = re.compile(r"\b(prox_lp_norm|gamma_jacobian|feasible_project"
                       r"|upper_project)\b")

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(ProblemInstance)] == [
            "key", "q", "gamma_eval", "w_bar", "gamma_slice", "ws_closed_form"]

    def test_benchmark_names_are_none(self, prob):
        assert scalarization.prox_lp_norm is None
        for name in ("gamma_jacobian", "feasible_project", "upper_project"):
            assert getattr(prob, name) is None

    def test_benchmark_names_only_bound(self):
        found = {}
        for path in sorted(Path(problems.__file__).parent.glob("*.py")):
            for line in path.read_text().splitlines():
                if self.NAMES.search(line):
                    code = line.split("#")[0].strip()
                    found.setdefault(path.name, []).append(code)
        assert found == {
            "problems.py": [
                "gamma_jacobian = feasible_project = upper_project = None"],
            "scalarization.py": ["prox_lp_norm = None"]}


class TestSliceParameters:
    def test_gamma_values(self):
        # gamma = max_i w_bar . Gamma(x*_i) + 0.25 * spread of the ideal points
        assert by_key("example1-q2").gamma_slice == pytest.approx(0.5)
        assert by_key("example1-q3").gamma_slice == pytest.approx(2.0 / 3.0)
        assert by_key("ellipse").gamma_slice == pytest.approx(1.25)
        assert by_key("example2").gamma_slice == pytest.approx(5.41666667,
                                                               rel=1e-6)

    def test_w_bar_uniform(self, prob):
        assert np.allclose(prob.w_bar, np.ones(prob.q) / prob.q)


class TestGammaAndJacobian:
    def test_jacobian_finite_difference(self, prob):
        space = DECISION[prob.key]
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(20):
            x = space.project(X_INIT[prob.key] + rng.normal(size=space.n))
            J = space.jacobian(x)
            assert J.shape == (prob.q, space.n)
            for j in range(space.n):
                dx = np.zeros(space.n)
                dx[j] = h
                fd = (prob.gamma_eval(x + dx) - prob.gamma_eval(x - dx)) / (2 * h)
                assert np.allclose(J[:, j], fd, atol=1e-5)

    def test_feasible_project_idempotent(self, prob):
        space = DECISION[prob.key]
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = space.project(rng.normal(size=space.n) * 5.0)
            x2 = space.project(x)
            assert np.allclose(x, x2, atol=1e-10)


class TestWeightedSum:
    def test_support_property(self, prob):
        # offset is a valid supporting value: omega . Gamma(x) >= offset on X
        space = DECISION[prob.key]
        rng = np.random.default_rng(21)
        for i in range(prob.q):
            omega = np.eye(prob.q)[i]
            x_star, offset = weighted_sum(prob, omega)
            assert float(omega @ prob.gamma_eval(x_star)) == pytest.approx(
                offset, abs=1e-8)
            for _ in range(200):
                x = space.project(rng.normal(size=space.n) * 4.0)
                assert float(omega @ prob.gamma_eval(x)) >= offset - 1e-7

    def test_example1_closed_form(self):
        prob = by_key("example1-q2")
        x, offset = weighted_sum(prob, np.array([1.0, 0.0]))
        assert offset == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(x, [0.0, 1.0], atol=1e-12)

    def test_example2_anchor_offsets(self):
        prob = by_key("example2")
        for i in range(3):
            _, offset = weighted_sum(prob, np.eye(3)[i])
            assert offset == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("key", PROBLEM_KEYS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_oracles_map_rows(self, key, data):
        # a stack of weight rows gives, row for row, the bits of the 1-D
        # calls the dual solver makes
        prob = by_key(key)
        weight = st.one_of(st.just(0.0), st.floats(1e-6, 1e3))
        row = st.lists(weight, min_size=prob.q, max_size=prob.q).filter(any)
        W = np.array(data.draw(st.lists(row, min_size=1, max_size=40)))
        rows = prob.gamma_eval(prob.ws_closed_form(W))
        assert rows.shape == W.shape
        for w, got in zip(W, rows):
            one = prob.gamma_eval(prob.ws_closed_form(w))
            assert got.tobytes() == one.tobytes(), (w, got, one)


class TestMembership:
    def test_ideal_point_not_in_upper_image(self, prob):
        # the component-wise minimum over weighted sums is strictly infeasible
        offsets = np.array([weighted_sum(prob, np.eye(prob.q)[i])[1]
                            for i in range(prob.q)])
        assert not in_A(prob, offsets - 0.1)

    def test_gamma_values_in_A(self, prob):
        space = DECISION[prob.key]
        rng = np.random.default_rng(31)
        hits = 0
        for _ in range(100):
            x = space.project(rng.normal(size=space.n) * 2.0)
            y = prob.gamma_eval(x)
            if slice_contains(prob, y, 1e-9):
                assert in_A(prob, y, tol=1e-7)
                hits += 1
        assert hits > 0

    def test_dominated_points_in_upper_image(self, prob):
        y = prob.gamma_eval(X_INIT[prob.key])
        assert upper_contains(prob, y + 0.5, tol=1e-7)


class TestExample2Membership:
    """example2 membership against the decisions of the projected-gradient
    hinge solver it replaced, recorded on the 900- and 289-point slice-face
    grid candidates and the points of the membership and distance tests."""

    RECORDED = json.loads((Path(__file__).parent / "data"
                           / "example2_membership.json").read_text())

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_matches_recorded_decisions(self, tol):
        prob = by_key("example2")
        got = "".join("1" if upper_contains(prob, y, tol) else "0"
                      for y in self.RECORDED["points"])
        assert got == self.RECORDED["inside"]


class TestBoundarySampler:
    def test_samples_in_A(self, prob):
        pts = boundary_samples(prob, 300)
        assert len(pts) >= 100
        for y in pts[:: max(1, len(pts) // 50)]:
            assert slice_contains(prob, y, 1e-6)
            assert upper_contains(prob, y, tol=1e-6)

    def test_oracle_distance_zero_inside(self, prob):
        y = prob.gamma_eval(X_INIT[prob.key])
        if slice_contains(prob, y, 1e-9):
            assert oracle_distance(prob, y, NormExponent(2)) == 0.0

    def test_oracle_distance_positive_outside(self, prob):
        below = np.array([weighted_sum(prob, np.eye(prob.q)[i])[1]
                          for i in range(prob.q)]) - 1.0
        d = oracle_distance(prob, below, NormExponent(2), samples=2000)
        assert d > 0.1

    @pytest.mark.parametrize("p", [1.25, 2.0, 8.0])
    def test_oracle_distance_matches_lp_norm_loop(self, prob, p):
        # the vectorized minimum against lp_norm row by row; the two sum
        # at most three terms in possibly different order, so a few ulps
        below = np.array([weighted_sum(prob, np.eye(prob.q)[i])[1]
                          for i in range(prob.q)]) - 1.0
        ne = NormExponent(p)
        diffs = boundary_samples(prob, 2000) - below
        ref = min(lp_norm(d, ne) for d in diffs)
        assert oracle_distance(prob, below, ne, samples=2000) == pytest.approx(
            ref, rel=1e-14)


class TestEllipseProjection:
    def test_projection_is_closest_boundary_point(self):
        # oracle: dense parameter sweep of the ellipse boundary
        project = DECISION["ellipse"].project
        rng = np.random.default_rng(41)
        phi = np.linspace(0.0, 2.0 * np.pi, 20001)
        bd = np.column_stack([np.sqrt(_ELLIPSE_AXES_SQ[0]) * np.cos(phi),
                              np.sqrt(_ELLIPSE_AXES_SQ[1]) * np.sin(phi)])
        bd = bd @ _ELLIPSE_M.T + _ELLIPSE_X0
        for _ in range(20):
            x = rng.normal(size=2) * 4.0 + np.array([2.0, 2.0])
            xp = project(x)
            d_proj = np.linalg.norm(xp - x)
            d_oracle = np.min(np.linalg.norm(bd - x, axis=1))
            assert d_proj <= d_oracle + 1e-6


# ---------------------------------------------------------------------------
# reference: the numpy ellipse oracles that the scalar ones in oracles.py
# replaced, kept verbatim (membership and frontier rules included)

_REF_B = np.array([[-1.0, 1.0], [1.0, 1.0]])       # t = B x + (0, -4)
_REF_C = np.array([0.0, -4.0])


def _ref_project_axis_ellipse(u, axes_sq, tol=1e-14):
    val = float(np.sum(u * u / axes_sq))
    if val <= 1.0:
        return u
    lam = 0.0
    for _ in range(200):
        denom = axes_sq + lam
        f = float(np.sum(axes_sq * u * u / denom**2)) - 1.0
        if abs(f) <= tol:
            break
        df = -2.0 * float(np.sum(axes_sq * u * u / denom**3))
        lam -= f / df
    return axes_sq * u / (axes_sq + lam)


def _ref_project(x):
    t = _REF_B @ np.asarray(x, dtype=float) + _REF_C
    return (_ELLIPSE_M @ _ref_project_axis_ellipse(t, _ELLIPSE_AXES_SQ)
            + _ELLIPSE_X0)


def _ref_frontier_height(c):
    d = 2.0 * (c - 2.0)
    qa = 1.0 / _ELLIPSE_AXES_SQ[0] + 1.0 / _ELLIPSE_AXES_SQ[1]
    qb = 2.0 * d / _ELLIPSE_AXES_SQ[1]
    qc = d * d / _ELLIPSE_AXES_SQ[1] - 1.0
    disc = max(qb * qb - 4.0 * qa * qc, 0.0)
    t1 = (-qb - math.sqrt(disc)) / (2.0 * qa)
    return t1 + 0.5 * d + 2.0


def _ref_membership(y, tol, a1_pt, a2_pt):
    y = np.asarray(y, dtype=float)
    if y[0] < a1_pt[0] - tol:
        return False
    c = min(max(y[0], a1_pt[0]), a2_pt[0])
    return y[1] >= _ref_frontier_height(c) - tol


_ELLIPSE = by_key("ellipse")
_PROJECT = DECISION["ellipse"].project
_A1_PT = _ELLIPSE.ws_closed_form(np.array([1.0, 0.0]))   # x1-minimizer
_A2_PT = _ELLIPSE.ws_closed_form(np.array([0.0, 1.0]))   # x2-minimizer


def _polar_to_x(r, phi):
    """The point at ellipse radius r and angle phi of the axis frame."""
    unit = np.array([math.cos(phi), math.sin(phi)])
    t = r * np.sqrt(_ELLIPSE_AXES_SQ) * unit
    return _ELLIPSE_M @ t + _ELLIPSE_X0


def _radial(lo, hi):
    """Points at lo <= (ellipse radius) <= hi."""
    return st.builds(_polar_to_x, st.floats(lo, hi),
                     st.floats(0.0, 2.0 * math.pi))


def _near(center, scale):
    off = st.floats(-scale, scale)
    return st.builds(lambda d1, d2: center + np.array([d1, d2]), off, off)


_OUTSIDE = st.one_of(_radial(1.001, 4.0), st.builds(
    lambda x1, x2: np.array([x1, x2]),
    st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)).filter(
        lambda x: np.linalg.norm(x - _ELLIPSE_X0) > 10.0))
_POINTS = st.one_of(
    _radial(0.0, 0.999),                      # inside
    _radial(1.0, 1.0),                        # on the boundary (to rounding)
    _radial(0.999, 1.001),                    # straddling it
    _OUTSIDE,                                 # outside, and far away
    _near(_A1_PT, 1e-3), _near(_A1_PT, 1e-9),
    _near(_A2_PT, 1e-3), _near(_A2_PT, 1e-9),
)


class TestEllipseScalarOracles:
    @settings(max_examples=400, deadline=None)
    @given(x=_POINTS)
    def test_project_matches_reference(self, x):
        got = _PROJECT(x)
        assert isinstance(got, np.ndarray) and got.shape == (2,)
        assert np.max(np.abs(got - _ref_project(x))) <= 1e-13

    @settings(max_examples=400, deadline=None)
    @given(y=_POINTS)
    def test_membership_matches_reference(self, y):
        assert (upper_contains(_ELLIPSE, y, tol=1e-9)
                == _ref_membership(y, 1e-9, _A1_PT, _A2_PT))

    @settings(max_examples=300, deadline=None)
    @given(x=_OUTSIDE)
    def test_project_kkt_outside(self, x):
        p = _PROJECT(x)
        t = _REF_B @ p + _REF_C
        # on the boundary
        assert abs(float(np.sum(t * t / _ELLIPSE_AXES_SQ)) - 1.0) <= 1e-12
        # x - p is a positive multiple of the outer normal at p
        normal = _REF_B.T @ (t / _ELLIPSE_AXES_SQ)
        r = x - p
        scale = np.linalg.norm(r) * np.linalg.norm(normal)
        assert abs(r[0] * normal[1] - r[1] * normal[0]) <= 1e-12 * scale
        assert float(r @ normal) > 0.0
