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

Two shortcuts make a Newton step cheaper and leave every floating-point
value as the general formulas give it.  The one objective, built for either
exponent, skips at e = 1 the operations whose result is exactly known:
x^1 = x, x^0 = 1, and the factors e and e D / ||n||_{p*} are 1.  With two
free coordinates the tangent space is one-dimensional and the step is taken
in Python floats: the Hessian is 1 x 1, its eigendecomposition is exactly
(H, [[1]]), and every product with the eigenvectors is a single exact
product.
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
    """theta -> (R, gradient of R in theta, (c, lam)) at exponent e.

    D = ||n||_{p*} = nrm^e.  At e = 1 (unit) lam = mu and D = nrm, and the
    powers x^1 and x^0 and the gradient's factors e and e D / nrm, all
    exactly 1, are left out.
    """
    w, q, gs = prob.w_bar, prob.q, prob.gamma_slice
    m = e * ne.p_star           # ||n||_{p*} = ||s||_m^e, m = 2 when e > 1
    om = w ** (1.0 / e)
    unit = e == 1.0

    def objective(theta):
        r, mu = theta[:q], theta[q]
        mw = mu * om            # lam w_bar at e = 1
        s = r - mw
        a = np.abs(s)
        sgn = np.sign(s)
        lam = mu if unit else mu ** e
        n = sgn * a if unit else sgn * a ** e
        c = n + (mw if unit else lam * w)
        top = a.max()
        if top == 0.0 or not (c > 0.0).any():
            return -math.inf, np.zeros(q + 1), (c, lam)
        g = prob.gamma_eval(prob.ws_closed_form(c))
        nrm = top * float(((a / top) ** m).sum()) ** (1.0 / m)
        D = nrm if unit else nrm ** e
        R = (float(c @ g - n @ v) - lam * gs) / D
        dD = sgn * (a / nrm) ** (m - 1.0)     # d nrm / ds; D = nrm at e = 1
        gv = g - v
        dmu = (float(w @ g) - gs) / D
        if not unit:
            dD *= e * D / nrm
            # floors keep the gradient's sign where |s|^(e-1) vanishes
            gv = e * gv * np.maximum(a, 1e-300) ** (e - 1.0)
            dmu = dmu * e * max(mu, 1e-300) ** (e - 1.0)
        G = np.empty(q + 1)
        dR = G[:q]
        np.subtract(gv, R * dD, out=dR)
        dR /= D
        G[q] = dmu - float(om @ dR)
        return R, G, (c, lam)

    return objective


def _ascend(value, theta: np.ndarray, tol: float):
    """Projected Newton ascent of a 0-homogeneous function over the orthant.

    Coordinates on the bound with an outward gradient are held; the others
    move in the tangent space of theta, and each trial point of the
    backtracking line search is projected back onto the orthant.  Stops when
    the predicted gain is below tol times R or no trial point increases R;
    returns (R, point, steps), or None at MAX_STEPS.

    With two free coordinates the step is taken in floats, bit for bit the
    matrix step: eigh of the 1 x 1 Hessian H returns exactly (H, [[1]]).
    """
    R, G, point = value(theta)
    for step in range(1, MAX_STEPS + 1):
        free = np.flatnonzero((theta > 1e-12) | (G > 0.0))
        k = len(free)
        if k < 2:
            return R, point, step
        M = np.eye(k, k + 1, 1)
        M[:, 0] = theta[free]
        Q = np.linalg.qr(M)[0]
        B = np.zeros((len(theta), k - 1))
        B[free] = Q[:, 1:]
        g = B.T @ G
        # the Newton step along directions of negative curvature, at most
        # _RADIUS long; a step of _RADIUS up the gradient along the others
        if k == 2:
            b = B[:, 0]
            G_b = value(theta + _FD_STEP * b)[1]
            curv = float((B.T @ G_b - g)[0]) / _FD_STEP
            gu = float(g[0])
            move = (gu / max(-curv, abs(gu) / _RADIUS) if curv < 0.0
                    else math.copysign(_RADIUS, gu))
            gain = gu * move
            d = b * move
        else:
            H = np.column_stack([B.T @ value(theta + _FD_STEP * b)[1] - g
                                 for b in B.T]) / _FD_STEP
            curv, U = np.linalg.eigh(0.5 * (H + H.T))
            gu = U.T @ g
            move = np.where(curv < 0.0,
                            gu / np.maximum(-curv, np.abs(gu) / _RADIUS),
                            np.sign(gu) * _RADIUS)
            gain = float(gu @ move)
            d = B @ (U @ move)
        if not gain > tol * abs(R):
            return R, point, step
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
    if v.shape != (prob.q,):
        raise ValueError(f"vertex must be a vector of q = {prob.q} "
                         f"coordinates, got shape {v.shape}")
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
