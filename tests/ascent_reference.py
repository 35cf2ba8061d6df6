"""Reference dual solver for the tests.

_dual_objective, _ascend and solve_subproblem evaluate the general formulas
in numpy at every exponent and take every Newton step with eigh and the QR
factor of the tangent basis, on the reference's own numpy forms of the
built-in oracles (_frontier).  lpoa.scalarization evaluates the objective
in Python floats on the instance's float oracles, leaves out operations
whose result is exactly known (the identities at exponent e = 1), steps in
the closed-form Householder basis instead of the QR factor, and also stops
when an accepted step gained no more than the tolerance.  So the two agree
in value, not in bits: tests compare the objectives and the solves within
stated tolerances, and require the same error where either does not
converge.
"""

import math

import numpy as np

from lpoa.lp_geometry import NormExponent, lp_gradient, lp_norm
from lpoa.problems import ProblemInstance
from oracles import _ANCHORS, _ELLIPSE_AXES_SQ, _ELLIPSE_M, _ELLIPSE_X0
from lpoa.scalarization import (_COARSE_GAIN_TOL, _FD_STEP, _GAIN_TOL,
                                _RADIUS, MAX_STEPS, ZERO_TOL,
                                ScalarizationResult, SubproblemError, _theta)


def _frontier(prob: ProblemInstance, c) -> np.ndarray:
    """gamma(x*(c)) of a built-in problem, by the reference's own numpy
    forms of its two oracles (square roots by np.sqrt, sums by numpy's
    reductions and products)."""
    c = np.asarray(c, dtype=float)
    if prob.key in ("example1-q2", "example1-q3"):
        return 1.0 - c / np.sqrt(np.vecdot(c, c))
    if prob.key == "ellipse":
        t = c @ _ELLIPSE_M
        scale = np.sqrt((_ELLIPSE_AXES_SQ * t * t).sum())
        return (-_ELLIPSE_AXES_SQ * t / scale) @ _ELLIPSE_M.T + _ELLIPSE_X0
    d = _ANCHORS - (c @ _ANCHORS) / np.add.reduce(c)
    d *= d
    return d[:, 0] + d[:, 1]


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
        g = _frontier(prob, c)
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
    point, cut normal and the frontier point at the final weights.  If v is
    (numerically) in A the residual is zero and no cut normal is produced.
    Raises SubproblemError if an ascent does not converge within MAX_STEPS
    Newton steps.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("vertex has non-finite coordinates")

    # start: lam = 0, c toward the positive part of gamma(x*(w_bar)) - v
    c = np.maximum(_frontier(prob, prob.w_bar) - v, 0.0)
    c, lam = (c / c.max()) ** (ne.p - 1.0) if c.any() else prob.w_bar, 0.0
    steps = 0
    phases = ((1.0, _COARSE_GAIN_TOL), (2.0 / ne.p_star, _GAIN_TOL)) \
        if ne.p > 2.0 else ((1.0, _GAIN_TOL),)
    for e, tol in phases:
        out = _ascend(_dual_objective(prob, v, ne, e),
                      np.array(_theta(prob, c, lam, e)), tol)
        if out is None:
            raise SubproblemError("dual ascent did not converge", vertex=v)
        _, (c, lam), used = out
        steps += used

    # the certificate, recomputed at the final weights
    c = np.maximum(c, 0.0)
    g = _frontier(prob, c)
    n = c - lam * prob.w_bar
    dual = NormExponent(ne.p_star)
    D = lp_norm(n, dual)
    R = float((c @ g - n @ v) - lam * prob.gamma_slice) / D
    if R <= ZERO_TOL:
        y, normal, R = v.copy(), None, 0.0
    else:
        normal = n / D
        y = v + R * lp_gradient(normal, dual)
    omega = c / c.sum()
    return ScalarizationResult(y_support=y, residual_norm=R,
                               cut_normal=normal, iterations=steps,
                               frontier=(omega, _frontier(prob, omega)))
