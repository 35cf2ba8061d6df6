"""Norm-minimization subproblem: lp distance from a vertex v to the slice A.

The distance is solved through its dual (the cut of Ararat, Ulus & Umer
2022, JOTA, from the dual side).  For weights c >= 0 of the upper image and
a multiplier lam >= 0 of the slice, every y in A has n . y >= ws(c) -
lam gamma_slice with n = c - lam w_bar, so

    R(c, lam) = [ws(c) - c . v + lam (w_bar . v - gamma_slice)] / ||n||_{p*}

bounds dist_p(v, A) from below, with equality at the maximizer.  One
weighted sum gives R and its gradient (by Danskin's theorem the gradient of
ws at c is the frontier point gamma(x*(c))).  R is 0-homogeneous and is
maximized by projected Newton ascent over an orthant, in coordinates
theta = (r, mu) >= 0 with an exponent e:

    s = r - mu w_bar^(1/e),  n = sgn(s)|s|^e,  lam = mu^e,  c = n + lam w_bar.

e = 1 gives theta = (c, lam).  For p > 2 the optimal n can have components
near 1e-10 of its largest, where ||.||_{p*} is too sharply curved for Newton
steps, so the result is polished by a second ascent at e = 2 / p*, where
||n||_{p*} = ||s||_2^e is smooth.  The first ascent settles which weights
are zero: at e > 1 the gradient in s_j vanishes with n_j.

Every feasible (c, lam) certifies its cut: the halfspace with normal
u = n / ||n||_{p*} and offset (ws(c) - lam gamma_slice) / ||n||_{p*}
contains A, and the support point y = v + R grad||u||_{p*} lies on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lp_geometry import NormExponent, lp_gradient, lp_norm
from .problems import ProblemInstance

__all__ = [
    "ScalarizationResult",
    "SubproblemError",
    "solve_subproblem",
    "solve_batch",
]


ZERO_TOL = 1e-10    # residual norm at or below which v counts as in A
MAX_STEPS = 200     # Newton steps per ascent before SubproblemError
_FD_STEP = 1e-7     # finite-difference step of the Hessian (theta sums to 1)
_RADIUS = 0.3       # longest step along one curvature direction
_GAIN_TOL = 1e-13   # stop when the predicted gain is below this times R
_COARSE_GAIN_TOL = 1e-8  # the same for the first ascent when p > 2

prox_lp_norm = None  # not an operator: a name perfbench/spans.py looks up


@dataclass(frozen=True)
class ScalarizationResult:
    y_support: np.ndarray
    residual_norm: float
    cut_normal: Optional[np.ndarray]
    iterations: int               # Newton steps, both ascents together


class SubproblemError(RuntimeError):
    def __init__(self, msg, vertex=None):
        super().__init__(msg)
        self.vertex = vertex


# ---------------------------------------------------------------------------
# the dual solver


def _theta(prob: ProblemInstance, c: np.ndarray, lam: float, e: float):
    """(r, mu) of the weights (c, lam) at exponent e, on the simplex."""
    mu = lam ** (1.0 / e)
    n = c - lam * prob.w_bar
    s = np.sign(n) * np.abs(n) ** (1.0 / e)
    theta = np.append(np.maximum(s + mu * prob.w_bar ** (1.0 / e), 0.0), mu)
    return theta / theta.sum()


def _dual_objective(prob: ProblemInstance, v: np.ndarray, ne: NormExponent,
                    e: float):
    """theta -> (R, gradient of R in theta, (c, lam)) at exponent e."""
    w, q = prob.w_bar, prob.q
    om = w ** (1.0 / e)
    m = e * ne.p_star           # ||n||_{p*} = ||s||_m^e, m = 2 when e > 1

    def value(theta):
        r, mu = theta[:q], theta[q]
        s = r - mu * om
        a = np.abs(s)
        lam = mu ** e
        n = np.sign(s) * a ** e
        c = n + lam * w
        top = a.max()
        if top == 0.0 or not (c > 0.0).any():
            return -math.inf, np.zeros(q + 1), (c, lam)
        g = prob.gamma_eval(prob.ws_closed_form(c))
        nrm = top * float(np.sum((a / top) ** m)) ** (1.0 / m)
        D = nrm ** e
        R = (float(c @ g - n @ v) - lam * prob.gamma_slice) / D
        dD = e * D / nrm * np.sign(s) * (a / nrm) ** (m - 1.0)
        # floors keep the gradient's sign where |s|^(e-1) vanishes
        dR = (e * (g - v) * np.maximum(a, 1e-300) ** (e - 1.0) - R * dD) / D
        dmu = ((float(w @ g) - prob.gamma_slice) / D * e
               * max(mu, 1e-300) ** (e - 1.0))
        return R, np.append(dR, dmu - float(om @ dR)), (c, lam)

    return value


def _ascend(value, theta: np.ndarray, tol: float):
    """Projected Newton ascent of a 0-homogeneous function over the orthant.

    Coordinates on the bound with an outward gradient are held; the others
    move in the tangent space of theta, and each trial point of the
    backtracking line search is projected back onto the orthant.  Stops when
    the predicted gain is below tol times R or no trial point increases R;
    returns (R, point, steps), or None at MAX_STEPS.
    """
    R, G, point = value(theta)
    for step in range(1, MAX_STEPS + 1):
        free = np.flatnonzero((theta > 1e-12) | (G > 0.0))
        if len(free) < 2:
            return R, point, step
        Q = np.linalg.qr(np.column_stack([theta[free], np.eye(len(free))]))[0]
        B = np.zeros((len(theta), len(free) - 1))
        B[free] = Q[:, 1:len(free)]
        g = B.T @ G
        H = np.column_stack([B.T @ value(theta + _FD_STEP * b)[1] - g
                             for b in B.T]) / _FD_STEP
        curv, U = np.linalg.eigh(0.5 * (H + H.T))
        gu = U.T @ g
        # the Newton step along directions of negative curvature, at most
        # _RADIUS long; a step of _RADIUS up the gradient along the others
        move = np.where(curv < 0.0,
                        gu / np.maximum(-curv, np.abs(gu) / _RADIUS),
                        np.sign(gu) * _RADIUS)
        gain = float(gu @ move)
        if not gain > tol * abs(R):
            return R, point, step
        d = B @ (U @ move)
        alpha = 1.0
        while True:
            trial = np.maximum(theta + alpha * d, 0.0)
            trial /= trial.sum()
            R_t, G_t, point_t = value(trial)
            if R_t > R and R_t >= R + 1e-4 * alpha * gain:
                break
            alpha *= 0.5
            if alpha < 1e-10:
                return R, point, step
        theta, R, G, point = trial, R_t, G_t, point_t
    return None


def solve_subproblem(prob: ProblemInstance, v,
                     ne: NormExponent) -> ScalarizationResult:
    """lp distance from vertex v to A (R at the dual maximizer), with support
    point and cut normal.  If v is (numerically) in A the residual is zero
    and no cut normal is produced.  Raises SubproblemError if an ascent does
    not converge within MAX_STEPS Newton steps.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("vertex has non-finite coordinates")

    # start: lam = 0, c toward the positive part of gamma(x*(w_bar)) - v
    c = np.maximum(prob.gamma_eval(prob.ws_closed_form(prob.w_bar)) - v, 0.0)
    c, lam = (c / c.max()) ** (ne.p - 1.0) if c.any() else prob.w_bar, 0.0
    steps = 0
    phases = ((1.0, _COARSE_GAIN_TOL), (2.0 / ne.p_star, _GAIN_TOL)) \
        if ne.p > 2.0 else ((1.0, _GAIN_TOL),)
    for e, tol in phases:
        out = _ascend(_dual_objective(prob, v, ne, e),
                      _theta(prob, c, lam, e), tol)
        if out is None:
            raise SubproblemError("dual ascent did not converge", vertex=v)
        _, (c, lam), used = out
        steps += used

    # the certificate, recomputed at the final weights
    c = np.maximum(c, 0.0)
    g = prob.gamma_eval(prob.ws_closed_form(c))
    n = c - lam * prob.w_bar
    dual = NormExponent(ne.p_star)
    D = lp_norm(n, dual)
    R = float((c @ g - n @ v) - lam * prob.gamma_slice) / D
    if R <= ZERO_TOL:
        y, normal, R = v.copy(), None, 0.0
    else:
        normal = n / D
        y = v + R * lp_gradient(normal, dual)
    return ScalarizationResult(y_support=y, residual_norm=R,
                               cut_normal=normal, iterations=steps)


def solve_batch(prob: ProblemInstance, vertices,
                ne: NormExponent) -> list[ScalarizationResult]:
    """The subproblem's result at each vertex, in order."""
    return [solve_subproblem(prob, v, ne) for v in vertices]
