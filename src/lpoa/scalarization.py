"""Norm-minimization subproblem: lp projection of a vertex onto the slice A.

Solves  min ||z||_p  s.t.  gamma(x) - z - v <= 0 (componentwise),
                           w_bar . (v + z) <= gamma_slice,  x in X,
by an augmented-Lagrangian (consensus ADMM) splitting.  The support point
y = v + z is duplicated into two copies, one constrained to the upper image
gamma(X) + R^q_+ (handled by projected gradient over X with the orthant
slack eliminated) and one to the slice halfspace (exact projection); the
y-update is the proximal step of the lp norm, computed through the Moreau
identity with a safeguarded 1-D Newton solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lp_geometry import NormExponent, lp_gradient, lp_norm
from .problems import ProblemInstance, weighted_sum

__all__ = [
    "ScalarizationResult",
    "SubproblemError",
    "solve_subproblem",
    "solve_batch",
    "prox_lp_norm",
]


KKT_TOL = 1e-8      # converged: both ADMM residuals below this, times scale
STALL_TOL = 1e-6    # a stalled iterate within this, times scale, is accepted
ZERO_TOL = 1e-10    # residual norm at or below which v counts as in A
MAX_STEPS = 50_000  # ADMM steps before SubproblemError


@dataclass(frozen=True)
class ScalarizationResult:
    y_support: np.ndarray
    residual_norm: float
    cut_normal: Optional[np.ndarray]
    iterations: int
    kkt_residual: float
    wall_time: float


class SubproblemError(RuntimeError):
    def __init__(self, msg, kkt_residual=None, vertex=None):
        super().__init__(msg)
        self.kkt_residual = kkt_residual
        self.vertex = vertex


# ---------------------------------------------------------------------------
# lp norm proximal operator


def _refine_components(z, a, beta, p, tol):
    """Newton-refine each z_i toward the root of z + beta * z^(p-1) = a_i."""
    pm1 = p - 1.0
    for i, ci in enumerate(a):
        if ci < 1e-300:
            z[i] = 0.0
            continue
        zi = z[i]
        if not 0.0 < zi <= ci:
            zi = min(ci, (ci / beta) ** (1.0 / pm1))
            if zi == 0.0:
                # (c_i / beta)^(1/(p-1)) underflowed: the root is numerically 0
                z[i] = 0.0
                continue
        zlo, zhi = 0.0, ci
        for _ in range(100):
            if zi == 0.0:
                break
            zp = zi ** pm1
            val = zi + beta * zp - ci
            if val > 0.0:
                zhi = zi
            else:
                zlo = zi
            zn = zi - val / (1.0 + beta * pm1 * zp / zi)
            # strict lower bound keeps the iterate away from the zi = 0 pole
            if not zlo < zn <= zhi:
                zn = 0.5 * (zlo + zhi)
            if abs(zn - zi) <= tol * max(1e-300, zi):
                zi = zn
                break
            zi = zn
        z[i] = zi
    return z


def prox_lp_norm(c, tau: float, ne: NormExponent, tol: float = 1e-15,
                 state: Optional[dict] = None) -> np.ndarray:
    """prox of tau * ||.||_p at c, i.e. argmin_z tau||z||_p + 0.5||z - c||^2.

    Zero iff ||c||_{p*} <= tau (Moreau: identity minus projection onto the
    tau-scaled dual-norm ball).  Otherwise solved via a scalar fixed-point
    equation on t = ||z||_p with componentwise 1-D Newton solves.  A state
    dict (keys "t", "z") warm-starts repeated calls with nearby arguments.
    """
    c = np.asarray(c, dtype=float)
    a = np.abs(c)
    m = float(a.max())
    if m == 0.0:
        return np.zeros_like(c)
    p, ps = ne.p, ne.p_star
    if m * float(np.sum((a / m) ** ps)) ** (1.0 / ps) <= tau:
        return np.zeros_like(c)
    if p == 2.0:
        n2 = float(np.linalg.norm(c))
        return c * (1.0 - tau / n2)

    sgn = np.sign(c)
    al = a.tolist()
    pm1 = p - 1.0
    norm_p = m * float(np.sum((a / m) ** p)) ** (1.0 / p)
    tlo, thi = 0.0, norm_p
    t = norm_p * 0.5
    z = None
    if state is not None:
        t_prev = state.get("t")
        if t_prev is not None and 0.0 < t_prev < norm_p:
            t = t_prev
            z = state.get("z")
    if z is None or len(z) != len(al):
        beta = tau / t ** pm1
        z = [min(ci, (ci / beta) ** (1.0 / pm1)) for ci in al]

    # root of F(t) = ||z(t)||_p - t in (0, ||c||_p): positive near 0 because
    # ||c||_{p*} > tau, negative at ||c||_p; Newton via implicit differentiation
    for _ in range(200):
        z = _refine_components(z, al, tau / t ** pm1, p, tol)
        nrm = sum(zi ** p for zi in z) ** (1.0 / p)
        val = nrm - t
        if val > 0.0:
            tlo = t
        else:
            thi = t
        s1 = 0.0
        for zi in z:
            if zi > 0.0:
                zp1 = zi ** pm1
                num = tau * pm1 * t ** -p * zp1
                den = 1.0 + tau * pm1 * t ** (1.0 - p) * zi ** (p - 2.0)
                s1 += zp1 * (num / den)
        dF = nrm ** (1.0 - p) * s1 - 1.0
        t_new = t - val / dF if dF < 0.0 else 0.5 * (tlo + thi)
        if not tlo <= t_new <= thi:
            t_new = 0.5 * (tlo + thi)
        done = abs(t_new - t) <= tol * max(1e-300, t)
        t = t_new
        if done:
            break
    z = _refine_components(z, al, tau / t ** pm1, p, tol)
    if state is not None:
        state["t"] = t
        state["z"] = list(z)
    return sgn * np.array(z)


# ---------------------------------------------------------------------------
# projections used by the splitting


def _project_upper(prob: ProblemInstance, a: np.ndarray, x_warm: np.ndarray,
                   inner_tol: float, step: float = 1.0):
    """Euclidean projection of a onto gamma(X) + R^q_+ (inexact, warm-started).

    Minimizes ||(gamma(x) - a)_+||^2 over X; the optimal orthant slack gives
    the projected point max(gamma(x), a).  Returns (point, x, step) so the
    caller can keep the Armijo step across invocations.
    """
    if prob.upper_project is not None:
        y, x = prob.upper_project(a)
        return y, x, step
    x = x_warm
    # gx = gamma(x) is carried along: the last Armijo trial point becomes the
    # next iterate, so its objective value is never evaluated twice
    gx = prob.gamma_eval(x)
    for _ in range(300):
        r = np.maximum(gx - a, 0.0)
        if not (r > 0.0).any():
            break
        g = 2.0 * (prob.gamma_jacobian(x).T @ r)
        fx = float(r @ r)
        x_new, gx_new = x, gx
        while step > 1e-16:
            x_new = prob.feasible_project(x - step * g)
            d = x_new - x
            gx_new = prob.gamma_eval(x_new)
            r_new = np.maximum(gx_new - a, 0.0)
            if float(r_new @ r_new) <= fx + g @ d + 0.5 / step * (d @ d) + 1e-18:
                break
            step *= 0.5
        done = abs(x_new - x).max() <= inner_tol
        x, gx = x_new, gx_new
        step = min(step * 1.2, 1e4)
        if done:
            break
    return np.maximum(gx, a), x, step


def _project_slice(prob: ProblemInstance, a: np.ndarray) -> np.ndarray:
    w = prob.w_bar
    excess = float(w @ a) - prob.gamma_slice
    if excess <= 0.0:
        return a
    return a - excess * w / float(w @ w)


# ---------------------------------------------------------------------------
# the subproblem solver


def solve_subproblem(prob: ProblemInstance, v,
                     ne: NormExponent) -> ScalarizationResult:
    """lp projection of vertex v onto A, with support point and cut normal.

    Returns residual_norm = lp distance from v to A.  If v is (numerically)
    in A the residual is zero and no cut normal is produced.
    """
    t_start = time.perf_counter()
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("vertex has non-finite coordinates")

    rho = 1.0
    relax = 1.7
    x = prob.feasible_project(prob.x_init)
    y = v.copy()
    y1 = y.copy()
    y2 = y.copy()
    u1 = np.zeros_like(y)
    u2 = np.zeros_like(y)
    scale = max(1.0, float(np.max(np.abs(v))), abs(prob.gamma_slice))
    kkt = np.inf
    kkt_500_ago = np.inf
    prox_state: dict = {}
    it = 0
    inner_step = 1.0

    for it in range(1, MAX_STEPS + 1):
        # inner projection accuracy tracks the outer residual
        inner_tol = min(1e-4, max(1e-13, 1e-3 * kkt)) if np.isfinite(kkt) else 1e-4
        y1, x, inner_step = _project_upper(prob, y - u1, x, inner_tol, inner_step)
        y2 = _project_slice(prob, y - u2)
        y1r = relax * y1 + (1.0 - relax) * y
        y2r = relax * y2 + (1.0 - relax) * y
        m = 0.5 * (y1r + u1 + y2r + u2)
        y_old = y
        prox_tol = min(1e-10, max(1e-15, kkt * 1e-5)) if np.isfinite(kkt) else 1e-10
        y = v + prox_lp_norm(m - v, 1.0 / (2.0 * rho), ne, prox_tol, prox_state)
        u1 = u1 + y1r - y
        u2 = u2 + y2r - y

        r_pri = max(abs(y1 - y).max(), abs(y2 - y).max())
        r_dual = rho * abs(y - y_old).max()
        kkt = max(r_pri, r_dual)
        if kkt <= KKT_TOL * scale:
            break
        if it % 250 == 0:
            # accept a stalled but feasible-enough iterate: when the optimal
            # residual has an exact-zero component the lp prox is maximally
            # flat there and the splitting decays only sublinearly, while the
            # cut is insensitive to that component
            if kkt <= STALL_TOL * scale and kkt > 0.6 * kkt_500_ago:
                break
            kkt_500_ago = kkt
        if it % 50 == 0:
            # residual balancing keeps the two ADMM residuals comparable
            if r_pri > 10.0 * r_dual and rho < 1e6:
                rho *= 2.0
                u1 *= 0.5
                u2 *= 0.5
            elif r_dual > 10.0 * r_pri and rho > 1e-6:
                rho *= 0.5
                u1 *= 2.0
                u2 *= 2.0
    else:
        raise SubproblemError(
            "subproblem solver did not converge",
            kkt_residual=kkt, vertex=v)

    z = y - v
    nrm = lp_norm(z, ne)
    if nrm <= ZERO_TOL:
        y = v.copy()
        normal = None
        nrm = 0.0
    else:
        normal = lp_gradient(z, ne)
        # polish against the exact support function: an offset even slightly
        # above it cuts into the approximated set, so when the normal is
        # nonnegative and the contact point is strictly inside the slice,
        # snap the support point onto the exact supporting hyperplane
        if (np.all(normal >= 0.0)
                and float(prob.w_bar @ y) < prob.gamma_slice - 1e-6):
            _, exact = weighted_sum(prob, normal)
            gap = float(normal @ y) - exact
            if 0.0 < gap < 1e-4:
                y = y - gap * normal / float(normal @ normal)
    return ScalarizationResult(
        y_support=y, residual_norm=nrm,
        cut_normal=normal, iterations=it, kkt_residual=float(kkt),
        wall_time=time.perf_counter() - t_start)


# ---------------------------------------------------------------------------
# batching with a cache


def solve_batch(prob: ProblemInstance, vertices, ne: NormExponent,
                cache: Optional[dict] = None) -> list[ScalarizationResult]:
    """Solve the subproblem for each vertex, reusing the results in cache.

    The cache maps a vertex's exact coordinates to its result; polytope.cut
    keeps surviving vertices bit for bit, so they hit it in later batches.
    """
    if cache is None:
        cache = {}
    results = []
    for v in vertices:
        key = tuple(np.asarray(v, dtype=float).tolist())
        if key not in cache:
            cache[key] = solve_subproblem(prob, v, ne)
        results.append(cache[key])
    return results
