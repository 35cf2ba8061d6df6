"""Test problems: generic instance container plus the three built-in CVOPs.

Each instance bundles the objective map, its Jacobian, an exact Euclidean
projection onto the feasible set, the slice parameters bounding the region to
approximate, and sampling oracles used only by tests (boundary sampling and
upper-image membership).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .lp_geometry import NormExponent, lp_norm

__all__ = [
    "ProblemInstance",
    "SolverFailure",
    "example1",
    "rotated_ellipse",
    "example2",
    "by_key",
    "PROBLEM_KEYS",
    "weighted_sum",
    "oracle_distance",
]


class SolverFailure(RuntimeError):
    """An iterative solve failed to reach its tolerance."""

    def __init__(self, msg, residual=None, iterate=None):
        super().__init__(msg)
        self.residual = residual
        self.iterate = iterate


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
    cone: str
    w_bar: np.ndarray
    gamma_slice: float
    diameter_hint: float
    x_init: np.ndarray
    # optional closed-form weighted-sum minimizer
    ws_closed_form: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # optional closed-form membership test for gamma(X) + R^q_+
    upper_membership: Optional[Callable[[np.ndarray, float], bool]] = None
    # optional closed-form Euclidean projection onto gamma(X) + R^q_+,
    # returning (projected point, witness decision x with gamma(x) <= point)
    upper_project: Optional[Callable[[np.ndarray], tuple]] = None
    # test-only boundary sampler for the slice A; returns an (m, q) array
    boundary_sampler: Optional[Callable[[int], np.ndarray]] = field(
        default=None, repr=False)

    def upper_contains(self, y, tol: float = 1e-9) -> bool:
        """Whether y is in gamma(X) + R^q_+ (within tol)."""
        y = np.asarray(y, dtype=float)
        if self.upper_membership is not None:
            return self.upper_membership(y, tol)
        x, val = _min_hinge_sq(self, y)
        return val <= max(tol * tol, 1e-18)

    def slice_contains(self, y, tol: float = 1e-9) -> bool:
        return float(self.w_bar @ np.asarray(y, dtype=float)) <= self.gamma_slice + tol

    def in_A(self, y, tol: float = 1e-9) -> bool:
        return self.slice_contains(y, tol) and self.upper_contains(y, tol)


# ---------------------------------------------------------------------------
# small solvers shared by the instances


def _projected_gradient(f_grad, project, x0, tol=1e-9, max_iter=10000):
    """Minimize a smooth convex function over a set with cheap projection.

    f_grad(x) -> (value, gradient); Armijo backtracking on the projected
    step.  Returns the final iterate; raises SolverFailure if the projected
    gradient does not reach tol.
    """
    x = project(np.asarray(x0, dtype=float))
    step = 1.0
    fx, g = f_grad(x)
    for _ in range(max_iter):
        moved = False
        while step > 1e-18:
            x_new = project(x - step * g)
            d = x_new - x
            f_new, g_new = f_grad(x_new)
            if f_new <= fx + g @ d + 0.5 / step * (d @ d) + 1e-16:
                moved = True
                break
            step *= 0.5
        if not moved:
            break
        x, fx, g = x_new, f_new, g_new
        step = min(step * 2.0, 1e6)
        # projected-gradient residual at unit step
        resid = np.max(np.abs(x - project(x - g)))
        if resid <= tol:
            return x
    resid = np.max(np.abs(x - project(x - g)))
    if resid <= 10 * tol:
        return x
    raise SolverFailure("projected gradient did not converge",
                        residual=resid, iterate=x)


def _min_hinge_sq(prob: "ProblemInstance", y: np.ndarray, x0=None,
                  tol=1e-10, max_iter=2000):
    """min_x ||(gamma(x) - y)_+||^2 over X; (argmin, min value)."""

    def f_grad(x):
        r = np.maximum(prob.gamma_eval(x) - y, 0.0)
        return float(r @ r), 2.0 * (prob.gamma_jacobian(x).T @ r)

    x0 = prob.x_init if x0 is None else x0
    try:
        x = _projected_gradient(f_grad, prob.feasible_project, x0,
                                tol=tol, max_iter=max_iter)
    except SolverFailure as exc:
        x = exc.iterate
    val, _ = f_grad(x)
    # Gauss-Newton refinement: quadratic convergence on zero-residual fits,
    # where the plain gradient flattens out
    for _ in range(30):
        r = np.maximum(prob.gamma_eval(x) - y, 0.0)
        act = r > 0.0
        if not np.any(act) or val <= 1e-28:
            break
        J = prob.gamma_jacobian(x)[act]
        d = np.linalg.lstsq(J, -r[act], rcond=None)[0]
        t = 1.0
        improved = False
        while t > 1e-12:
            x_new = prob.feasible_project(x + t * d)
            v_new, _ = f_grad(x_new)
            if v_new < val:
                x, val = x_new, v_new
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return x, val


def weighted_sum(prob: ProblemInstance, omega, tol=1e-8, max_iter=10000):
    """Minimize omega . gamma(x) over X.

    Returns (x_star, support_offset) with support_offset = omega.gamma(x*),
    defining the supporting halfspace {y : omega . y >= support_offset} of
    the upper image.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (prob.q,) or np.any(omega < 0) or np.all(omega == 0.0):
        raise ValueError("omega must be a nonzero nonnegative q-vector")
    if prob.ws_closed_form is not None:
        x = prob.ws_closed_form(omega)
    else:
        def f_grad(x):
            return float(omega @ prob.gamma_eval(x)), prob.gamma_jacobian(x).T @ omega

        x = _projected_gradient(f_grad, prob.feasible_project, prob.x_init,
                                tol=1e-9, max_iter=max_iter)
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

    def membership(y, tol):
        return float(np.linalg.norm(np.maximum(e - y, 0.0))) <= 1.0 + tol

    def upper_project(a):
        # upper image is {y : ||(e - y)_+||_2 <= 1}
        d = np.maximum(e - a, 0.0)
        r = float(np.linalg.norm(d))
        if r <= 1.0:
            return a, np.minimum(e, a)
        return a + (r - 1.0) / r * d, e - d / r

    eye = np.eye(q)

    def build(gamma_slice):
        inst = ProblemInstance(
            key=f"example1-q{q}",
            q=q,
            n=q,
            gamma_eval=lambda x: np.asarray(x, dtype=float),
            gamma_jacobian=lambda x: eye,
            upper_project=upper_project,
            feasible_project=project,
            cone="orthant",
            w_bar=e / q,
            gamma_slice=gamma_slice,
            diameter_hint=2.0 * math.sqrt(q),
            x_init=e.copy(),
            ws_closed_form=ws_closed_form,
            upper_membership=membership,
        )
        return _with_sampler(inst, _example1_sampler(inst))

    return _attach_slice(build)


def _example1_sampler(inst: ProblemInstance):
    e = np.ones(inst.q)

    def sampler(samples: int) -> np.ndarray:
        pts = []
        if inst.q == 2:
            theta = np.linspace(0.0, math.pi / 2.0, samples)
            arc = e[None, :] - np.column_stack([np.cos(theta), np.sin(theta)])
            pts.append(arc[[inst.slice_contains(y, 1e-12) for y in arc]])
        else:
            n = max(4, int(math.sqrt(samples)))
            th, ph = np.meshgrid(np.linspace(0, math.pi / 2, n),
                                 np.linspace(0, math.pi / 2, n))
            u = np.column_stack([
                (np.sin(ph) * np.cos(th)).ravel(),
                (np.sin(ph) * np.sin(th)).ravel(),
                np.cos(ph).ravel(),
            ])
            cap = e[None, :] - u
            pts.append(cap[[inst.slice_contains(y, 1e-12) for y in cap]])
        pts.append(_slice_face_grid(inst, samples))
        return np.vstack([p for p in pts if len(p)])

    return sampler


def _slice_face_grid(inst: ProblemInstance, samples: int) -> np.ndarray:
    """Grid over the slice face {w_bar . y = gamma_slice} of A."""
    w = inst.w_bar / np.linalg.norm(inst.w_bar)
    y0 = inst.gamma_slice / float(inst.w_bar @ w) * w
    # orthonormal basis of the plane
    basis = []
    for i in range(inst.q):
        v = np.zeros(inst.q)
        v[i] = 1.0
        v = v - (v @ w) * w
        for b in basis:
            v = v - (v @ b) * b
        if np.linalg.norm(v) > 1e-9:
            basis.append(v / np.linalg.norm(v))
        if len(basis) == inst.q - 1:
            break
    R = inst.diameter_hint
    if inst.q == 2:
        n = max(8, samples)
        t = np.linspace(-R, R, n)
        cand = y0[None, :] + t[:, None] * basis[0][None, :]
    else:
        n = max(8, int(math.sqrt(samples)))
        t1, t2 = np.meshgrid(np.linspace(-R, R, n), np.linspace(-R, R, n))
        cand = (y0[None, :] + t1.ravel()[:, None] * basis[0][None, :]
                + t2.ravel()[:, None] * basis[1][None, :])
    keep = [y for y in cand if inst.upper_contains(y, 1e-9)]
    return np.array(keep) if keep else np.empty((0, inst.q))


def _with_sampler(inst: ProblemInstance, sampler) -> ProblemInstance:
    cache: dict[int, np.ndarray] = {}

    def cached(samples: int) -> np.ndarray:
        if samples not in cache:
            cache[samples] = sampler(samples)
        return cache[samples]

    object.__setattr__(inst, "boundary_sampler", cached)
    return inst


# ---------------------------------------------------------------------------
# Rotated ellipse: identity objective over a rotated ellipse in R^2

_ELLIPSE_AXES_SQ = np.array([10.0, 6.0])
_ELLIPSE_B = np.array([[-1.0, 1.0], [1.0, 1.0]])       # t = B x + (0, -4)
_ELLIPSE_C = np.array([0.0, -4.0])
_ELLIPSE_M = np.array([[-0.5, 0.5], [0.5, 0.5]])       # x = M t + (2, 2)
_ELLIPSE_X0 = np.array([2.0, 2.0])


def _ellipse_to_t(x):
    return _ELLIPSE_B @ x + _ELLIPSE_C


def _ellipse_from_t(t):
    return _ELLIPSE_M @ t + _ELLIPSE_X0


def _project_axis_ellipse(u, axes_sq, tol=1e-14):
    """Euclidean projection onto {t : sum t_i^2 / a_i^2 <= 1}."""
    val = float(np.sum(u * u / axes_sq))
    if val <= 1.0:
        return u
    # Newton on the Lagrange multiplier; f is convex decreasing in lam > 0
    lam = 0.0
    for _ in range(200):
        denom = axes_sq + lam
        f = float(np.sum(axes_sq * u * u / denom**2)) - 1.0
        if abs(f) <= tol:
            break
        df = -2.0 * float(np.sum(axes_sq * u * u / denom**3))
        lam -= f / df
    return axes_sq * u / (axes_sq + lam)


def rotated_ellipse() -> ProblemInstance:
    """Identity objective over the 45-degree-rotated ellipse centered at (2,2)."""

    def project(x):
        t = _ellipse_to_t(np.asarray(x, dtype=float))
        return _ellipse_from_t(_project_axis_ellipse(t, _ELLIPSE_AXES_SQ))

    def ws_closed_form(omega):
        c = _ELLIPSE_M.T @ omega
        scale = math.sqrt(float(np.sum(_ELLIPSE_AXES_SQ * c * c)))
        return _ellipse_from_t(-_ELLIPSE_AXES_SQ * c / scale)

    # endpoints of the minimal frontier arc (coordinate-wise minimizers)
    a1_pt = ws_closed_form(np.array([1.0, 0.0]))
    a2_pt = ws_closed_form(np.array([0.0, 1.0]))

    def frontier_height(c):
        """Smallest x2 over the ellipse at first coordinate x1 = c."""
        # in the t-frame x1 = c fixes t2 = t1 + d; minimizing x2 = t1 + d/2 + 2
        # means taking the smaller root of the induced quadratic in t1
        d = 2.0 * (c - 2.0)
        qa = 1.0 / _ELLIPSE_AXES_SQ[0] + 1.0 / _ELLIPSE_AXES_SQ[1]
        qb = 2.0 * d / _ELLIPSE_AXES_SQ[1]
        qc = d * d / _ELLIPSE_AXES_SQ[1] - 1.0
        disc = max(qb * qb - 4.0 * qa * qc, 0.0)
        t1 = (-qb - math.sqrt(disc)) / (2.0 * qa)
        return t1 + 0.5 * d + 2.0

    def membership(y, tol):
        y = np.asarray(y, dtype=float)
        if y[0] < a1_pt[0] - tol:
            return False
        c = min(max(y[0], a1_pt[0]), a2_pt[0])
        return y[1] >= frontier_height(c) - tol

    def upper_project(a):
        a = np.asarray(a, dtype=float)
        if membership(a, 0.0):
            c = min(max(a[0], a1_pt[0]), a2_pt[0])
            return a, np.array([c, frontier_height(c)])
        candidates = []
        p = project(a)
        if np.all(a - p <= 1e-12):  # p lies on the minimal arc
            candidates.append((p, p))
        if a[0] <= a1_pt[0]:        # vertical ray above the x1-minimizer
            qy = np.array([a1_pt[0], max(a[1], a1_pt[1])])
            candidates.append((qy, a1_pt))
        if a[1] <= a2_pt[1]:        # horizontal ray right of the x2-minimizer
            qx = np.array([max(a[0], a2_pt[0]), a2_pt[1]])
            candidates.append((qx, a2_pt))
        if not candidates:          # tolerance edge: fall back to the arc
            candidates.append((p, p))
        y_best, x_best = min(candidates,
                             key=lambda cw: float(np.sum((cw[0] - a) ** 2)))
        return y_best, x_best

    def build(gamma_slice):
        inst = ProblemInstance(
            key="ellipse",
            q=2,
            n=2,
            gamma_eval=lambda x: np.asarray(x, dtype=float),
            gamma_jacobian=lambda x, _eye=np.eye(2): _eye,
            feasible_project=project,
            cone="orthant",
            w_bar=np.array([0.5, 0.5]),
            gamma_slice=gamma_slice,
            diameter_hint=2.0 * math.sqrt(10.0),
            x_init=_ELLIPSE_X0.copy(),
            ws_closed_form=ws_closed_form,
            upper_membership=membership,
            upper_project=upper_project,
        )
        return _with_sampler(inst, _ellipse_sampler(inst))

    return _attach_slice(build)


def _ellipse_sampler(inst: ProblemInstance):
    def sampler(samples: int) -> np.ndarray:
        phi = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
        t = np.column_stack([math.sqrt(_ELLIPSE_AXES_SQ[0]) * np.cos(phi),
                             math.sqrt(_ELLIPSE_AXES_SQ[1]) * np.sin(phi)])
        bd = t @ _ELLIPSE_M.T + _ELLIPSE_X0
        arc = bd[[inst.slice_contains(y, 1e-12) for y in bd]]
        face = _slice_face_grid(inst, samples)
        return np.vstack([p for p in (arc, face) if len(p)])

    return sampler


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
    best, best_d = None, np.inf
    for a, d, dd in _POLY_EDGES:
        t = (x - a) @ d / dd
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else float(t)
        cand = a + t * d
        dist = float(np.sum((cand - x) ** 2))
        if dist < best_d:
            best, best_d = cand, dist
    return best


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
        inst = ProblemInstance(
            key="example2",
            q=3,
            n=2,
            gamma_eval=gamma,
            gamma_jacobian=jacobian,
            feasible_project=_project_polygon,
            cone="orthant",
            w_bar=np.ones(3) / 3.0,
            gamma_slice=gamma_slice,
            diameter_hint=25.0,
            x_init=np.mean(_ANCHORS, axis=0),
            ws_closed_form=ws_closed_form,
        )
        return _with_sampler(inst, _example2_sampler(inst))

    return _attach_slice(build)


def _example2_sampler(inst: ProblemInstance):
    def sampler(samples: int) -> np.ndarray:
        # frontier via weighted-sum minimizers on a simplex grid; the
        # unconstrained weighted centroid is always feasible here
        n = max(6, int(math.sqrt(samples)))
        pts = []
        for w1 in np.linspace(0.0, 1.0, n):
            for w2 in np.linspace(0.0, 1.0 - w1, max(2, int(n * (1.0 - w1)) + 1)):
                w = np.array([w1, w2, 1.0 - w1 - w2])
                x = w @ _ANCHORS
                y = inst.gamma_eval(x)
                if inst.slice_contains(y, 1e-12):
                    pts.append(y)
        frontier = np.array(pts)
        face = _slice_face_grid(inst, min(samples, 900))
        return np.vstack([p for p in (frontier, face) if len(p)])

    return sampler


# ---------------------------------------------------------------------------
# registry and the brute-force distance oracle

PROBLEM_KEYS = ("example1-q2", "example1-q3", "ellipse", "example2")


@lru_cache(maxsize=None)
def by_key(key: str) -> ProblemInstance:
    """Problem instances are cached: repeated lookups share samplers."""
    if key == "example1-q2":
        return example1(2)
    if key == "example1-q3":
        return example1(3)
    if key == "ellipse":
        return rotated_ellipse()
    if key == "example2":
        return example2()
    raise KeyError(f"unknown problem key {key!r}; expected one of {PROBLEM_KEYS}")


def oracle_distance(prob: ProblemInstance, v, ne: NormExponent,
                    samples: int = 2000) -> float:
    """Brute-force lp distance from v to A via dense boundary sampling.

    Test-only oracle: guaranteed >= the true distance minus a mesh-dependent
    error.  Returns 0 for points already in A.
    """
    v = np.asarray(v, dtype=float)
    if prob.in_A(v, tol=1e-9):
        return 0.0
    pts = prob.boundary_sampler(samples)
    diffs = pts - v[None, :]
    return min(lp_norm(d, ne) for d in diffs)
