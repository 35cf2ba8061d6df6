"""Test-only oracles for the built-in problems.

Weighted sums, membership in the upper image gamma(X) + R^q_+ and in the
approximated set A, boundary samplers of A, and a brute-force lp distance to
A built on them.
The solver never calls these; tests use them as independent references.
The decision space X of each problem (its dimension, the Jacobian of gamma
and the Euclidean projection onto X) lives here too, in DECISION: the
solver never works in x, only these references and their tests do.
"""

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import minimize

from lpoa import problems
from lpoa.lp_geometry import NormExponent
from lpoa.problems import by_key

# the built-ins' constants as arrays: the ellipse x = M t + X0 with squared
# semi-axes AXES_SQ, and the anchors of example2
_ELLIPSE_AXES_SQ = np.array(problems._ELLIPSE_AXES_SQ)
_ELLIPSE_M = np.array([[-0.5, 0.5], [0.5, 0.5]])
_ELLIPSE_X0 = np.array([2.0, 2.0])
_ANCHORS = np.array(problems._ANCHORS)

# an interior point of X, per problem
X_INIT = {
    "example1-q2": np.ones(2),
    "example1-q3": np.ones(3),
    "ellipse": _ELLIPSE_X0.copy(),
    "example2": np.mean(_ANCHORS, axis=0),
}


# ---------------------------------------------------------------------------
# the instance oracles on arrays


def minimizer(prob, omega):
    """x*(omega) as an array: the instance's ws_closed_form on floats."""
    return np.array(prob.ws_closed_form(
        np.asarray(omega, dtype=float).tolist()))


def gamma(prob, x):
    """gamma(x) as an array: the instance's gamma_eval on floats."""
    return np.array(prob.gamma_eval(np.asarray(x, dtype=float).tolist()))


def frontier(prob, omega):
    """The frontier point gamma(x*(omega)) as an array."""
    return gamma(prob, minimizer(prob, omega))


# ---------------------------------------------------------------------------
# decision spaces


def _ball_project(x):
    """Euclidean projection onto the unit ball centered at (1, ..., 1)."""
    d = x - 1.0
    r = np.linalg.norm(d)
    return x if r <= 1.0 else 1.0 + d / r


# the ellipse oracles work on floats; t = (x2 - x1, x1 + x2 - 4) and
# x = M t + (2, 2) are exact
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


# example2's polygon X = {x : _POLY_A x <= _POLY_B}, vertices CCW
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


class DecisionSpace(NamedTuple):
    """X of one problem: its dimension n, the q x n Jacobian of gamma at x,
    and the Euclidean projection onto X."""
    n: int
    jacobian: Callable[[np.ndarray], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray]


DECISION = {
    "example1-q2": DecisionSpace(2, lambda x: np.eye(2), _ball_project),
    "example1-q3": DecisionSpace(3, lambda x: np.eye(3), _ball_project),
    "ellipse": DecisionSpace(2, lambda x: np.eye(2), lambda x: np.array(
        _ellipse_project(*np.asarray(x, dtype=float).tolist()))),
    "example2": DecisionSpace(
        2, lambda x: 2.0 * (np.asarray(x, dtype=float)[None, :] - _ANCHORS),
        _project_polygon),
}

# half-width of the slice-face grid, per problem
DIAMETER_HINT = {
    "example1-q2": 2.0 * math.sqrt(2),
    "example1-q3": 2.0 * math.sqrt(3),
    "ellipse": 2.0 * math.sqrt(10.0),
    "example2": 25.0,
}


# ---------------------------------------------------------------------------
# weighted sums


def weighted_sum(prob, omega):
    """Minimize omega . gamma(x) over X.

    Returns (x_star, support_offset) with support_offset = omega.gamma(x*),
    defining the supporting halfspace {y : omega . y >= support_offset} of
    the upper image.
    """
    omega = np.asarray(omega, dtype=float)
    if (omega.shape != (prob.q,) or not np.all(np.isfinite(omega))
            or np.any(omega < 0) or np.all(omega == 0.0)):
        raise ValueError("omega must be a finite nonzero nonnegative "
                         "q-vector")
    x = minimizer(prob, omega)
    return x, float(omega @ gamma(prob, x))


# ---------------------------------------------------------------------------
# membership


def _example1_membership(prob, y, tol):
    e = np.ones(prob.q)
    return float(np.linalg.norm(np.maximum(e - y, 0.0))) <= 1.0 + tol


# first coordinates of the coordinate-wise minimizers: the ends of the
# minimal frontier arc
_A1X = by_key("ellipse").ws_closed_form((1.0, 0.0))[0]
_A2X = by_key("ellipse").ws_closed_form((0.0, 1.0))[0]


def _ellipse_membership(prob, y, tol):
    y1, y2 = np.asarray(y, dtype=float).tolist()
    if y1 < _A1X - tol:
        return False
    return y2 >= _ellipse_frontier_height(min(max(y1, _A1X), _A2X)) - tol


def _example2_membership(prob, y, tol):
    """Decided by a certificate from min s s.t. gamma_i(x) - y_i <= s, x in X:
    a point x of X with max(gamma(x) - y) <= tol proves y inside, a simplex
    weight w with min_X w . gamma > w . y proves it outside."""
    space, q = DECISION[prob.key], prob.q
    n, x0 = space.n, X_INIT[prob.key]
    res = minimize(
        lambda z: z[n], np.append(x0, np.max(gamma(prob, x0) - y)),
        jac=lambda z: np.eye(n + 1)[n], method="SLSQP",
        constraints=[
            {"type": "ineq",
             "fun": lambda z: z[n] - (gamma(prob, z[:n]) - y),
             "jac": lambda z: np.hstack([-space.jacobian(z[:n]),
                                         np.ones((q, 1))])},
            {"type": "ineq",
             "fun": lambda z: _POLY_B - _POLY_A @ z[:n],
             "jac": lambda z: np.hstack([-_POLY_A,
                                         np.zeros((len(_POLY_A), 1))])}],
        options={"ftol": 1e-15, "maxiter": 200})
    # SLSQP may stop early (status 8) without harm: only a certificate counts
    x = space.project(res.x[:n])
    if np.max(gamma(prob, x) - y) <= tol:
        return True
    # the minimax point of squared anchor distances lies in the anchor hull,
    # and its barycentric coordinates are the multipliers of the gamma rows
    w = np.linalg.solve(np.vstack([_ANCHORS.T, np.ones(q)]), np.append(x, 1.0))
    w = np.maximum(w, 0.0)
    w /= w.sum()
    if weighted_sum(prob, w)[1] > float(w @ y):
        return False
    raise RuntimeError(f"example2 membership of {y!r} has no certificate")


_MEMBERSHIP = {
    "example1-q2": _example1_membership,
    "example1-q3": _example1_membership,
    "ellipse": _ellipse_membership,
    "example2": _example2_membership,
}


def upper_contains(prob, y, tol=1e-9):
    """Whether y is in gamma(X) + R^q_+ (within tol)."""
    return _MEMBERSHIP[prob.key](prob, np.asarray(y, dtype=float), tol)


def slice_contains(prob, y, tol=1e-9):
    return float(prob.w_bar @ np.asarray(y, dtype=float)) <= prob.gamma_slice + tol


def in_A(prob, y, tol=1e-9):
    return slice_contains(prob, y, tol) and upper_contains(prob, y, tol)


# ---------------------------------------------------------------------------
# boundary samplers of A


def _slice_face_grid(prob, samples):
    """Grid over the slice face {w_bar . y = gamma_slice} of A."""
    w = prob.w_bar / np.linalg.norm(prob.w_bar)
    y0 = prob.gamma_slice / float(prob.w_bar @ w) * w
    # orthonormal basis of the plane
    basis = []
    for i in range(prob.q):
        v = np.zeros(prob.q)
        v[i] = 1.0
        v = v - (v @ w) * w
        for b in basis:
            v = v - (v @ b) * b
        if np.linalg.norm(v) > 1e-9:
            basis.append(v / np.linalg.norm(v))
        if len(basis) == prob.q - 1:
            break
    R = DIAMETER_HINT[prob.key]
    if prob.q == 2:
        n = max(8, samples)
        t = np.linspace(-R, R, n)
        cand = y0[None, :] + t[:, None] * basis[0][None, :]
    else:
        n = max(8, int(math.sqrt(samples)))
        t1, t2 = np.meshgrid(np.linspace(-R, R, n), np.linspace(-R, R, n))
        cand = (y0[None, :] + t1.ravel()[:, None] * basis[0][None, :]
                + t2.ravel()[:, None] * basis[1][None, :])
    keep = [y for y in cand if upper_contains(prob, y, 1e-9)]
    return np.array(keep) if keep else np.empty((0, prob.q))


def _example1_samples(prob, samples):
    e = np.ones(prob.q)
    pts = []
    if prob.q == 2:
        theta = np.linspace(0.0, math.pi / 2.0, samples)
        arc = e[None, :] - np.column_stack([np.cos(theta), np.sin(theta)])
        pts.append(arc[[slice_contains(prob, y, 1e-12) for y in arc]])
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
        pts.append(cap[[slice_contains(prob, y, 1e-12) for y in cap]])
    pts.append(_slice_face_grid(prob, samples))
    return np.vstack([p for p in pts if len(p)])


def _ellipse_samples(prob, samples):
    phi = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    t = np.column_stack([math.sqrt(_ELLIPSE_AXES_SQ[0]) * np.cos(phi),
                         math.sqrt(_ELLIPSE_AXES_SQ[1]) * np.sin(phi)])
    bd = t @ _ELLIPSE_M.T + _ELLIPSE_X0
    arc = bd[[slice_contains(prob, y, 1e-12) for y in bd]]
    face = _slice_face_grid(prob, samples)
    return np.vstack([p for p in (arc, face) if len(p)])


def _example2_samples(prob, samples):
    # frontier via weighted-sum minimizers on a simplex grid; the
    # unconstrained weighted centroid is always feasible here
    n = max(6, int(math.sqrt(samples)))
    pts = []
    for w1 in np.linspace(0.0, 1.0, n):
        for w2 in np.linspace(0.0, 1.0 - w1, max(2, int(n * (1.0 - w1)) + 1)):
            w = np.array([w1, w2, 1.0 - w1 - w2])
            x = w @ _ANCHORS
            y = gamma(prob, x)
            if slice_contains(prob, y, 1e-12):
                pts.append(y)
    frontier = np.array(pts)
    face = _slice_face_grid(prob, min(samples, 900))
    return np.vstack([p for p in (frontier, face) if len(p)])


_SAMPLERS = {
    "example1-q2": _example1_samples,
    "example1-q3": _example1_samples,
    "ellipse": _ellipse_samples,
    "example2": _example2_samples,
}


@lru_cache(maxsize=None)
def _cached_samples(key, samples):
    return _SAMPLERS[key](by_key(key), samples)


def boundary_samples(prob, samples):
    """Points of A, mostly on its boundary, as an (m, q) array (cached per
    problem and sample count)."""
    return _cached_samples(prob.key, samples)


def oracle_distance(prob, v, ne: NormExponent, samples=2000):
    """Brute-force lp distance from v to A via dense boundary sampling.

    Guaranteed >= the true distance minus a mesh-dependent error.  Returns 0
    for points already in A.
    """
    v = np.asarray(v, dtype=float)
    if in_A(prob, v, tol=1e-9):
        return 0.0
    a = np.abs(boundary_samples(prob, samples) - v[None, :])
    # lp_norm row by row: scaled by each row's max entry
    m = a.max(axis=1)
    scaled = a / np.where(m > 0.0, m, 1.0)[:, None]
    return float(np.min(m * np.sum(scaled ** ne.p, axis=1) ** (1.0 / ne.p)))


# ---------------------------------------------------------------------------
# SLSQP references, independent of the weighted-sum closed forms and of the
# dual solver


def _x_constraint(prob):
    """X as one vector inequality f(x) >= 0, with its Jacobian."""
    if prob.key == "example2":
        return (lambda x: _POLY_B - _POLY_A @ x, lambda x: -_POLY_A)
    if prob.key == "ellipse":
        m_inv = np.linalg.inv(_ELLIPSE_M)
        quad = m_inv.T @ np.diag(1.0 / _ELLIPSE_AXES_SQ) @ m_inv
        center = _ELLIPSE_X0
    else:
        n = DECISION[prob.key].n
        quad, center = np.eye(n), np.ones(n)
    return (lambda x: np.array([1.0 - (x - center) @ quad @ (x - center)]),
            lambda x: -2.0 * (quad @ (x - center))[None, :])


def _slsqp(prob, objective, gradient, z0, upper=True):
    """SLSQP over z = (x, y) with y >= gamma(x) when `upper`, else over
    z = x; always x in X and w_bar . gamma(x) <= w_bar . y <= gamma_slice."""
    space, q = DECISION[prob.key], prob.q
    n, jacobian = space.n, space.jacobian
    fx, jx = _x_constraint(prob)
    m = len(z0) - n
    pad = np.zeros((1, m))
    constraints = [
        {"type": "ineq", "fun": lambda z: fx(z[:n]),
         "jac": lambda z: np.hstack([jx(z[:n]),
                                     np.zeros((len(fx(z[:n])), m))])}]
    if upper:
        constraints += [
            {"type": "ineq", "fun": lambda z: z[n:] - gamma(prob, z[:n]),
             "jac": lambda z: np.hstack([-jacobian(z[:n]), np.eye(q)])},
            {"type": "ineq",
             "fun": lambda z: np.array([prob.gamma_slice
                                        - prob.w_bar @ z[n:]]),
             "jac": lambda z: np.concatenate([np.zeros(n),
                                              -prob.w_bar])[None, :]}]
    else:
        constraints.append(
            {"type": "ineq",
             "fun": lambda z: np.array([prob.gamma_slice
                                        - prob.w_bar @ gamma(prob, z)]),
             "jac": lambda z: np.hstack([-(prob.w_bar @ jacobian(z))[None, :],
                                         pad])})
    return minimize(objective, z0, jac=gradient, constraints=constraints,
                    method="SLSQP",
                    options={"ftol": 1e-16, "maxiter": 1000}).x


def support_value(prob, normal):
    """inf over A of normal . y, as a problem over x alone: for fixed x the
    slack y - gamma(x) >= 0 goes where normal_j / w_bar_j is least, up to
    the slice, so inf = min over x of (normal - k w_bar) . gamma(x)
    + k gamma_slice with k = min(0, min_j normal_j / w_bar_j)."""
    normal = np.asarray(normal, dtype=float)
    k = min(0.0, float(np.min(normal / prob.w_bar)))
    weights = normal - k * prob.w_bar
    x = _slsqp(prob, lambda x: float(weights @ gamma(prob, x)),
               lambda x: weights @ DECISION[prob.key].jacobian(x),
               X_INIT[prob.key], upper=False)
    return float(weights @ gamma(prob, x)) + k * prob.gamma_slice


def reference_distance(prob, v, ne: NormExponent):
    """lp distance from v to A, from above: SLSQP on sum_i |(y_i - v_i) /
    s|^p, with the scale s re-set to max |y - v| after each pass, and the
    distance of its point moved into A."""
    space, p = DECISION[prob.key], ne.p
    n, v = space.n, np.asarray(v, dtype=float)
    z = np.concatenate([X_INIT[prob.key],
                        np.maximum(v, gamma(prob, X_INIT[prob.key]))])
    for _ in range(3):
        s = float(np.max(np.abs(z[n:] - v)))
        z = _slsqp(
            prob, lambda z: float(np.sum(np.abs((z[n:] - v) / s) ** p)),
            lambda z: np.concatenate([np.zeros(n), p / s * np.sign(z[n:] - v)
                                      * np.abs((z[n:] - v) / s) ** (p - 1)]),
            z)
    # move the point into A: x into X, y up to gamma(x), then y along the
    # segment toward gamma(x) into the slice; its distance bounds the true
    # one from above
    x = space.project(z[:n])
    g = gamma(prob, x)
    y = np.maximum(z[n:], g)
    over = float(prob.w_bar @ y) - prob.gamma_slice
    if over > 0.0:
        y = y - over / float(prob.w_bar @ (y - g)) * (y - g)
    return float(np.sum(np.abs(y - v) ** p)) ** (1.0 / p)
