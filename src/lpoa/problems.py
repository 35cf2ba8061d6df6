"""Test problems: generic instance container plus the three built-in CVOPs.

Each instance bundles the objective map, its Jacobian, an exact Euclidean
projection onto the feasible set, a closed-form weighted-sum minimizer and
the slice parameters bounding the region to approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ProblemInstance",
    "example1",
    "rotated_ellipse",
    "example2",
    "by_key",
    "PROBLEM_KEYS",
    "weighted_sum",
]


@dataclass(frozen=True)
class ProblemInstance:
    """A convex vector optimization problem with orthant ordering cone.

    The upper image is gamma(X) + R^q_+ and the approximated region A is its
    intersection with the slice {y : w_bar . y <= gamma_slice}.
    """

    key: str
    q: int
    n: int
    gamma_eval: Callable[[np.ndarray], np.ndarray]
    gamma_jacobian: Callable[[np.ndarray], np.ndarray]
    feasible_project: Callable[[np.ndarray], np.ndarray]
    w_bar: np.ndarray
    gamma_slice: float
    # closed-form minimizer of omega . gamma(x) over X
    ws_closed_form: Callable[[np.ndarray], np.ndarray]
    # optional closed-form Euclidean projection onto gamma(X) + R^q_+,
    # returning (projected point, witness decision x with gamma(x) <= point)
    upper_project: Optional[Callable[[np.ndarray], tuple]] = None


def weighted_sum(prob: ProblemInstance, omega):
    """Minimize omega . gamma(x) over X.

    Returns (x_star, support_offset) with support_offset = omega.gamma(x*),
    defining the supporting halfspace {y : omega . y >= support_offset} of
    the upper image.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (prob.q,) or np.any(omega < 0) or np.all(omega == 0.0):
        raise ValueError("omega must be a nonzero nonnegative q-vector")
    x = prob.ws_closed_form(omega)
    return x, float(omega @ prob.gamma_eval(x))


# ---------------------------------------------------------------------------
# slice construction


def _attach_slice(build):
    """Finalize an instance: compute slice offset from coordinate supports."""
    inst = build(gamma_slice=np.inf)
    offsets = []
    for i in range(inst.q):
        e_i = np.zeros(inst.q)
        e_i[i] = 1.0
        x_star, _ = weighted_sum(inst, e_i)
        offsets.append(float(inst.w_bar @ inst.gamma_eval(x_star)))
    spread = max(offsets) - min(offsets)
    return build(gamma_slice=max(offsets) + 0.25 * spread)


# ---------------------------------------------------------------------------
# Example 1: identity objective over a unit ball


def example1(q: int) -> ProblemInstance:
    """Identity objective on the unit Euclidean ball centered at (1, ..., 1)."""
    if q not in (2, 3):
        raise ValueError("example1 supports q in {2, 3}")
    e = np.ones(q)

    def project(x):
        d = x - e
        r = np.linalg.norm(d)
        return x if r <= 1.0 else e + d / r

    def ws_closed_form(omega):
        return e - omega / np.linalg.norm(omega)

    def upper_project(a):
        # upper image is {y : ||(e - y)_+||_2 <= 1}
        d = np.maximum(e - a, 0.0)
        r = float(np.linalg.norm(d))
        if r <= 1.0:
            return a, np.minimum(e, a)
        return a + (r - 1.0) / r * d, e - d / r

    eye = np.eye(q)

    def build(gamma_slice):
        return ProblemInstance(
            key=f"example1-q{q}",
            q=q,
            n=q,
            gamma_eval=lambda x: np.asarray(x, dtype=float),
            gamma_jacobian=lambda x: eye,
            upper_project=upper_project,
            feasible_project=project,
            w_bar=e / q,
            gamma_slice=gamma_slice,
            ws_closed_form=ws_closed_form,
        )

    return _attach_slice(build)


# ---------------------------------------------------------------------------
# Rotated ellipse: identity objective over a rotated ellipse in R^2

_ELLIPSE_AXES_SQ = np.array([10.0, 6.0])
_ELLIPSE_M = np.array([[-0.5, 0.5], [0.5, 0.5]])       # x = M t + (2, 2)
_ELLIPSE_X0 = np.array([2.0, 2.0])
# the hot oracles work on floats (numpy calls on 2-vectors cost more than the
# arithmetic); t = (x2 - x1, x1 + x2 - 4) and x = M t + (2, 2) are exact
_EA1, _EA2 = 10.0, 6.0                                  # axes squared
_EQA2 = 2.0 * (1.0 / _EA1 + 1.0 / _EA2)                 # frontier quadratic


def _ellipse_project(x1, x2):
    """Euclidean projection of (x1, x2) onto the ellipse, as floats."""
    t1, t2 = x2 - x1, (x1 + x2) - 4.0
    if t1 * t1 / _EA1 + t2 * t2 / _EA2 > 1.0:
        # Newton on the Lagrange multiplier; f is convex decreasing in lam > 0
        w1, w2 = _EA1 * t1 * t1, _EA2 * t2 * t2
        lam = 0.0
        for _ in range(200):
            d1, d2 = _EA1 + lam, _EA2 + lam
            f = (w1 / (d1 * d1) + w2 / (d2 * d2)) - 1.0
            if abs(f) <= 1e-14:
                break
            lam -= f / (-2.0 * (w1 / (d1 * d1 * d1) + w2 / (d2 * d2 * d2)))
        t1, t2 = _EA1 * t1 / (_EA1 + lam), _EA2 * t2 / (_EA2 + lam)
    return (0.5 * t2 - 0.5 * t1) + 2.0, (0.5 * t1 + 0.5 * t2) + 2.0


def _ellipse_frontier_height(c):
    """Smallest x2 over the ellipse at first coordinate x1 = c."""
    # in the t-frame x1 = c fixes t2 = t1 + d; minimizing x2 = t1 + d/2 + 2
    # means taking the smaller root of the induced quadratic in t1
    d = 2.0 * (c - 2.0)
    qb = 2.0 * d / _EA2
    qc = d * d / _EA2 - 1.0
    disc = max(qb * qb - 2.0 * _EQA2 * qc, 0.0)
    return (-qb - math.sqrt(disc)) / _EQA2 + 0.5 * d + 2.0


def rotated_ellipse() -> ProblemInstance:
    """Identity objective over the 45-degree-rotated ellipse centered at (2,2)."""

    def project(x):
        return np.array(_ellipse_project(*np.asarray(x, dtype=float).tolist()))

    def ws_closed_form(omega):
        c = _ELLIPSE_M.T @ omega
        scale = math.sqrt(float(np.sum(_ELLIPSE_AXES_SQ * c * c)))
        return _ELLIPSE_M @ (-_ELLIPSE_AXES_SQ * c / scale) + _ELLIPSE_X0

    # endpoints of the minimal frontier arc (coordinate-wise minimizers)
    a1_pt = ws_closed_form(np.array([1.0, 0.0]))
    a2_pt = ws_closed_form(np.array([0.0, 1.0]))
    a1x, a1y = a1_pt.tolist()
    a2x, a2y = a2_pt.tolist()

    def upper_project(a):
        a = np.asarray(a, dtype=float)
        y1, y2 = a.tolist()
        if y1 >= a1x:               # a already in the upper image?
            c = min(y1, a2x)
            h = _ellipse_frontier_height(c)
            if y2 >= h:
                return a, np.array([c, h])
        # candidates (point, witness); a witness of None is the point itself
        candidates = []
        p1, p2 = _ellipse_project(y1, y2)
        if y1 - p1 <= 1e-12 and y2 - p2 <= 1e-12:  # p lies on the minimal arc
            candidates.append((p1, p2, None))
        if y1 <= a1x:               # vertical ray above the x1-minimizer
            candidates.append((a1x, max(y2, a1y), a1_pt))
        if y2 <= a2y:               # horizontal ray right of the x2-minimizer
            candidates.append((max(y1, a2x), a2y, a2_pt))
        if not candidates:          # tolerance edge: fall back to the arc
            candidates.append((p1, p2, None))
        # min keeps the first of equally near candidates
        b1, b2, witness = min(candidates, key=lambda cw: (
            (cw[0] - y1) * (cw[0] - y1) + (cw[1] - y2) * (cw[1] - y2)))
        y = np.array([b1, b2])
        return y, y if witness is None else witness

    def build(gamma_slice):
        return ProblemInstance(
            key="ellipse",
            q=2,
            n=2,
            gamma_eval=lambda x: np.asarray(x, dtype=float),
            gamma_jacobian=lambda x, _eye=np.eye(2): _eye,
            feasible_project=project,
            w_bar=np.array([0.5, 0.5]),
            gamma_slice=gamma_slice,
            ws_closed_form=ws_closed_form,
            upper_project=upper_project,
        )

    return _attach_slice(build)


# ---------------------------------------------------------------------------
# Example 2: squared distances to three anchors over a polygon

_ANCHORS = np.array([[1.0, 1.0], [2.0, 3.0], [4.0, 2.0]])
# X = {x : x1 + 2 x2 <= 10, 0 <= x1 <= 10, 0 <= x2 <= 4}, vertices CCW
_POLY_VERTS = np.array([[0.0, 0.0], [10.0, 0.0], [2.0, 4.0], [0.0, 4.0]])
_POLY_A = np.array([[1.0, 2.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
_POLY_B = np.array([10.0, 10.0, 0.0, 4.0, 0.0])
_POLY_B_TOL = _POLY_B + 1e-12
# (start, direction, squared length) of each polygon edge
_POLY_EDGES = [(a, b - a, (b - a) @ (b - a))
               for a, b in zip(_POLY_VERTS, np.roll(_POLY_VERTS, -1, axis=0))]


def _project_polygon(x):
    x = np.asarray(x, dtype=float)
    if (_POLY_A @ x <= _POLY_B_TOL).all():
        return x
    nearest, nearest_d = None, np.inf
    for a, d, dd in _POLY_EDGES:
        t = (x - a) @ d / dd
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else float(t)
        cand = a + t * d
        dist = float(np.sum((cand - x) ** 2))
        if dist < nearest_d:
            nearest, nearest_d = cand, dist
    return nearest


def example2() -> ProblemInstance:
    """Three squared-distance objectives over a polygonal feasible set."""

    def ws_closed_form(omega):
        # unconstrained minimizer of sum omega_i ||x - a_i||^2 is the weighted
        # centroid, which lies in the anchor hull and hence in the polygon
        return (omega @ _ANCHORS) / float(np.sum(omega))

    def gamma(x):
        d = _ANCHORS - np.asarray(x, dtype=float)
        return np.add.reduce(d * d, axis=1)

    def jacobian(x):
        return 2.0 * (np.asarray(x, dtype=float)[None, :] - _ANCHORS)

    def build(gamma_slice):
        return ProblemInstance(
            key="example2",
            q=3,
            n=2,
            gamma_eval=gamma,
            gamma_jacobian=jacobian,
            feasible_project=_project_polygon,
            w_bar=np.ones(3) / 3.0,
            gamma_slice=gamma_slice,
            ws_closed_form=ws_closed_form,
        )

    return _attach_slice(build)


# ---------------------------------------------------------------------------
# registry

PROBLEM_KEYS = ("example1-q2", "example1-q3", "ellipse", "example2")


@lru_cache(maxsize=None)
def by_key(key: str) -> ProblemInstance:
    """Problem instances are cached: repeated lookups return one instance."""
    if key == "example1-q2":
        return example1(2)
    if key == "example1-q3":
        return example1(3)
    if key == "ellipse":
        return rotated_ellipse()
    if key == "example2":
        return example2()
    raise KeyError(f"unknown problem key {key!r}; expected one of {PROBLEM_KEYS}")

