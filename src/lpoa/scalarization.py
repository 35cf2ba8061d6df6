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
contains A, and the support point y = v + R grad||u||_{p*} lies on it.  The
result also carries the frontier point gamma(x*(omega)) at the final weights
on the simplex, omega = c / sum(c): a point of the upper image from which
the driver starts the bound searches of later vertices.

The objective (on the problem's float oracles) and the Newton step run in
Python floats, where numpy's per-call cost would dominate arrays of three or
four entries.  Each step moves along the eigenvectors (_eigh, by Jacobi
rotations) of the Hessian in the tangent space of the free coordinates t,
spanned by the closed-form columns of a Householder reflection of t
(_tangent_basis).  An ascent stops when the Newton model predicts a gain
below its tolerance times R, or when its last step gained no more than that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from operator import mul

import numpy as np
from numpy.linalg import LinAlgError

from .lp_geometry import NormExponent, lp_gradient, lp_norm
from .problems import ProblemInstance, sum_left

__all__ = ["ScalarizationResult", "SubproblemError", "solve_subproblem",
           "solve_batch"]


ZERO_TOL = 1e-10    # residual norm at or below which v counts as in A
MAX_STEPS = 200     # Newton steps per ascent before SubproblemError
_FD_STEP = 1e-7     # finite-difference step of the Hessian (theta sums to 1)
_RADIUS = 0.3       # longest step along one curvature direction
_GAIN_TOL = 1e-13   # stop when the predicted gain is below this times R
_COARSE_GAIN_TOL = 1e-8  # the same for the first ascent when p > 2
_SWEEPS = 30        # Jacobi sweeps per eigendecomposition before LinAlgError

prox_lp_norm = None  # not an operator: a name perfbench/spans.py looks up


@dataclass(frozen=True)
class ScalarizationResult:
    y_support: np.ndarray
    residual_norm: float
    cut_normal: np.ndarray | None
    iterations: int               # Newton steps, both ascents together
    # (omega, gamma(ws(omega))) at the final weights omega = c / sum(c)
    frontier: tuple[np.ndarray, np.ndarray]


class SubproblemError(RuntimeError):
    def __init__(self, msg, vertex=None):
        super().__init__(msg)
        self.vertex = vertex


# ---------------------------------------------------------------------------
# the dual solver


def _theta(prob: ProblemInstance, c: np.ndarray, lam: float, e: float):
    """(r, mu) of the weights (c, lam) at exponent e on the simplex, a list."""
    mu = lam ** (1.0 / e)
    n = c - lam * prob.w_bar
    s = np.sign(n) * np.abs(n) ** (1.0 / e)
    theta = np.append(np.maximum(s + mu * prob.w_bar ** (1.0 / e), 0.0), mu)
    return (theta / theta.sum()).tolist()


def _dual_objective(prob: ProblemInstance, v: np.ndarray, ne: NormExponent,
                    e: float):
    """theta -> (R, gradient of R in theta, (c, lam)) at exponent e, in
    Python floats with sums left to right; theta, the gradient and c are
    lists.  D = ||n||_{p*} = nrm^e.  At e = 1 (unit) lam = mu, n = s
    and D = nrm: the powers x^1 and x^0 and the factors e and e D / nrm,
    all exactly 1, are left out."""
    w, vs, gs = prob.w_bar.tolist(), v.tolist(), prob.gamma_slice
    gamma, ws = prob.gamma_eval, prob.ws_closed_form
    m = e * ne.p_star           # ||n||_{p*} = ||s||_m^e, m = 2 when e > 1
    om = (prob.w_bar ** (1.0 / e)).tolist()
    unit = e == 1.0

    def objective(theta):
        *r, mu = theta
        s = [ri - mu * oi for ri, oi in zip(r, om)]
        a = list(map(abs, s))
        # math.pow raises where ** would return a complex number: at a
        # Hessian probe with mu < 0
        lam = mu if unit else math.pow(mu, e)
        n = s if unit else [math.copysign(x ** e, y) for x, y in zip(a, s)]
        c = [ni + lam * wi for ni, wi in zip(n, w)]
        top = max(a)
        if top == 0.0 or not max(c) > 0.0:
            return -math.inf, [0.0] * len(theta), (c, lam)
        g = gamma(ws(c))
        nrm = top * sum_left([(x / top) ** m for x in a]) ** (1.0 / m)
        D = nrm if unit else nrm ** e
        R = ((sum_left(map(mul, c, g)) - sum_left(map(mul, n, vs)))
             - lam * gs) / D
        dmu = (sum_left(map(mul, w, g)) - gs) / D
        # d nrm / ds, and d D / d nrm = e D / nrm (1 at e = 1)
        dD = [math.copysign((x / nrm) ** (m - 1.0), y) for x, y in zip(a, s)]
        gv = [gi - vi for gi, vi in zip(g, vs)]
        if not unit:
            f = e * D / nrm
            dD = [x * f for x in dD]
            # floors keep the gradient's sign where |s|^(e-1) vanishes
            gv = [e * x * max(y, 1e-300) ** (e - 1.0) for x, y in zip(gv, a)]
            dmu = dmu * e * max(mu, 1e-300) ** (e - 1.0)
        dR = [(x - R * y) / D for x, y in zip(gv, dD)]
        dR.append(dmu - sum_left(map(mul, om, dR)))
        return R, dR, (c, lam)

    return objective


def _eigh(S: list[list[float]]):
    """(eigenvalues, U) of a symmetric matrix S of rows of floats, with unit
    eigenvectors as the columns of U: cyclic Jacobi rotations (Golub & Van
    Loan, Matrix Computations, 8.5), each zeroing one off-diagonal pair,
    until every off-diagonal entry is below the rounding of its diagonal
    pair.  A 1 x 1 takes no rotation and a 2 x 2 one.  Raises LinAlgError
    on a NaN or infinite entry."""
    if not all(map(math.isfinite, chain.from_iterable(S))):
        raise LinAlgError("Hessian must not contain infs or NaNs")
    k = len(S)
    A = [row[:] for row in S]
    U = [[float(i == j) for j in range(k)] for i in range(k)]
    for _ in range(_SWEEPS):
        rotated = False
        for p, q in combinations(range(k), 2):
            apq, app, aqq = A[p][q], A[p][p], A[q][q]
            if app + apq == app and aqq + apq == aqq:
                continue
            # t = tan of the angle that zeroes A[p][q], the smaller root
            tau = (aqq - app) / (2.0 * apq)
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
            c, s = 1.0 / math.hypot(1.0, t), t / math.hypot(1.0, t)
            for row in chain(A, U):     # A J and U J: columns p and q
                x, y = row[p], row[q]
                row[p], row[q] = c * x - s * y, s * x + c * y
            # J^T (A J): by symmetry its rows p and q are columns p and q
            A[p], A[q] = [r[p] for r in A], [r[q] for r in A]
            A[p][p], A[q][q] = app - t * apq, aqq + t * apq
            A[p][q] = A[q][p] = 0.0
            rotated = True
        if not rotated:
            return [A[i][i] for i in range(k)], U
    raise LinAlgError("Jacobi sweeps did not converge")


def _tangent_basis(t: list[float]) -> list[list[float]]:
    """An orthonormal basis of the complement of t >= 0, t != 0, in floats:
    the columns other than the m-th of the Householder reflection that maps
    t / |t| to -e_m.  Row j has -t_j / h at m and delta_ij - t_i t_j / f at
    every other i, with h = |t| and f = h (h + t_m).

    With two entries m = 0 and the row is (-t_1, t_0) / |t|.  With more, t_m
    is the largest entry: the row of a small t_j is then close to e_j, so a
    Hessian probe along another row barely moves that coordinate, along
    which the dual can be curved many orders of magnitude more sharply."""
    h = math.hypot(*t)
    m = max(range(len(t)), key=t.__getitem__) if len(t) > 2 else 0
    f = h * (h + t[m])
    return [[-tj / h if i == m else (i == j) - ti * tj / f
             for i, ti in enumerate(t)]
            for j, tj in enumerate(t) if j != m]


def _ascend(value, theta: list[float], tol: float):
    """Projected Newton ascent of a 0-homogeneous function over the orthant,
    in Python floats.  Coordinates on the bound with an outward gradient are
    held; the others move in the tangent space of theta, spanned by
    _tangent_basis, along the eigenvectors of the finite-difference Hessian
    there.  Each trial point of the backtracking line search is projected
    back onto the orthant.  Stops when the predicted gain is below tol times
    R, when no trial point increases R, or when the accepted step gained at
    most tol times R; returns (R, point, steps), or None at MAX_STEPS.
    Raises LinAlgError when a Hessian has a non-finite entry.
    """
    R, G, point = value(theta)
    for step in range(1, MAX_STEPS + 1):
        free = [i for i, (t, g) in enumerate(zip(theta, G))
                if t > 1e-12 or g > 0.0]
        if len(free) < 2:
            return R, point, step
        B = [[0.0] * len(theta) for _ in free[1:]]  # the basis, 0 if held
        for b, row in zip(B, _tangent_basis([theta[i] for i in free])):
            for i, x in zip(free, row):
                b[i] = x
        g = [sum_left(map(mul, b, G)) for b in B]
        H = []      # the Hessian in the basis: g's change along each row
        for row in B:
            G_p = value([t + _FD_STEP * x for t, x in zip(theta, row)])[1]
            H.append([(sum_left(map(mul, b, G_p)) - y) / _FD_STEP
                      for b, y in zip(B, g)])
        curv, U = _eigh([[0.5 * (x + y) for x, y in zip(row, col)]
                         for row, col in zip(H, zip(*H))])
        gu = [sum_left(map(mul, u, g)) for u in zip(*U)]
        # the Newton step along directions of negative curvature, at most
        # _RADIUS long; _RADIUS up a nonzero gradient along the others
        move = [u / max(-c, abs(u) / _RADIUS) if c < 0.0
                else math.copysign(_RADIUS, u) if u else 0.0
                for c, u in zip(curv, gu)]
        gain = sum_left(map(mul, gu, move))
        if not gain > tol * abs(R):
            return R, point, step
        coef = [sum_left(map(mul, row, move)) for row in U]
        d = [sum_left(map(mul, col, coef)) for col in zip(*B)]
        alpha = 1.0
        while True:
            trial = [max(0.0, t + alpha * x) for t, x in zip(theta, d)]
            total = sum_left(trial)
            trial = [x / total for x in trial]
            R_t, G_t, point_t = value(trial)
            if R_t > R and R_t >= R + 1e-4 * alpha * gain:
                break
            alpha *= 0.5
            if alpha < 1e-10:
                return R, point, step
        if R_t - R <= tol * abs(R):
            return R_t, point_t, step
        theta, R, G, point = trial, R_t, G_t, point_t
    return None


def solve_subproblem(prob: ProblemInstance, v,
                     ne: NormExponent) -> ScalarizationResult:
    """lp distance from vertex v to A (R at the dual maximizer), with support
    point, cut normal and the frontier point at the final weights.  If v is
    (numerically) in A the residual is zero and no cut normal is produced.
    Raises SubproblemError if an ascent does not converge within MAX_STEPS
    Newton steps, and LinAlgError if a Newton step meets a non-finite
    Hessian.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (prob.q,):
        raise ValueError(f"vertex must be a vector of q = {prob.q} "
                         f"coordinates, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vertex has non-finite coordinates")

    # start: lam = 0, c toward the positive part of gamma(x*(w_bar)) - v
    gamma, ws = prob.gamma_eval, prob.ws_closed_form
    c = np.maximum(np.array(gamma(ws(prob.w_bar.tolist()))) - v, 0.0)
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
    g = np.array(gamma(ws(c.tolist())))
    n = c - lam * prob.w_bar
    dual = NormExponent(ne.p_star)
    D = lp_norm(n, dual)
    R = float((c @ g - n @ v) - lam * prob.gamma_slice) / D
    if R <= ZERO_TOL:
        y, normal, R = v.copy(), None, 0.0
    else:
        normal = n / D
        y = v + R * lp_gradient(normal, dual)
    omega = c / np.add.reduce(c)
    return ScalarizationResult(
        y_support=y, residual_norm=R, cut_normal=normal, iterations=steps,
        frontier=(omega, np.array(gamma(ws(omega.tolist())))))


def solve_batch(prob: ProblemInstance, vertices,
                ne: NormExponent) -> list[ScalarizationResult]:
    """The subproblem's result at each vertex, in order."""
    return [solve_subproblem(prob, v, ne) for v in vertices]
