"""Outer-approximation loop: initialize, enumerate vertices, cut, record.

Each iteration selects the farthest vertex of the current polytope (its
residual norm, the lp distance to the approximated set A, equals the
Hausdorff error of the polytope) and adds the supporting halfspace through
its support point with the lp-gradient normal.  The full per-iteration
history is kept in a RunTrace for the analysis layer.

Selection is lazy.  Each vertex carries an upper bound on its distance to
A, kept by its exact coordinates (polytope.cut keeps surviving rows bit for
bit): +inf until a search over the frontier of the upper image U lowers it.
Each iteration solves the first open vertex if no vertex is solved yet,
then searches every vertex without a bound in one batch, then solves the
open vertices in decreasing bound order until every remaining bound falls
below the largest residual.  A residual is at most the distance, which is
at most the bound, so the first maximum over the solved vertices in
lexicographic order is the vertex that solving every vertex would select.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import polytope as pt
from .lp_geometry import NormExponent
from .problems import PROBLEM_KEYS, ProblemInstance, by_key, weighted_sum
from .scalarization import ZERO_TOL, SubproblemError, solve_batch

__all__ = ["RunConfig", "IterationRecord", "RunTrace", "initialize", "run",
           "hausdorff_series"]


@dataclass(frozen=True)
class RunConfig:
    problem_key: str
    p: float
    epsilon: float
    max_iterations: int = 500

    def __post_init__(self):
        """The one check of a configuration, from the CLI or a trace."""
        if self.problem_key not in PROBLEM_KEYS:
            raise ValueError(f"unknown problem key {self.problem_key!r}; "
                             f"choose from {', '.join(PROBLEM_KEYS)}")
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                   for x in (self.p, self.epsilon)):
            raise ValueError("p and epsilon must be real numbers, got "
                             f"{self.p!r} and {self.epsilon!r}")
        NormExponent(self.p)  # raises ValueError unless 1 < p < inf
        if not (math.isfinite(self.epsilon) and self.epsilon > ZERO_TOL):
            raise ValueError("epsilon must be finite and exceed the "
                             "zero-residual threshold")
        m = self.max_iterations
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ValueError("max_iterations must be an integer >= 1, got "
                             f"{self.max_iterations!r}")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    farthest_vertex: np.ndarray
    residual_norm: float
    support_point: np.ndarray
    cut_normal: Optional[np.ndarray]
    vertex_count: int
    cache_hits: int
    wall_ms: float


@dataclass(frozen=True)
class RunTrace:
    config: RunConfig
    initial_halfspace_count: int
    iterations: tuple[IterationRecord, ...]
    final_polytope: Optional[pt.Polytope]
    termination: str  # converged | max_iterations | solver_failure

    @property
    def q(self) -> int:
        return by_key(self.config.problem_key).q


def initialize(prob: ProblemInstance) -> tuple[pt.Polytope, int]:
    """Initial bounded polytope from the q coordinate-direction supporting
    halfspaces plus the slice halfspace (J + 1 = q + 1 in total)."""
    halfspaces = []
    for i in range(prob.q):
        e_i = np.zeros(prob.q)
        e_i[i] = 1.0
        _, offset = weighted_sum(prob, e_i)
        # supporting halfspace {y : y_i >= offset} in <= form
        halfspaces.append(pt.Halfspace(-e_i, -offset))
    halfspaces.append(pt.Halfspace(prob.w_bar.copy(), prob.gamma_slice))
    P0 = pt.from_halfspaces(halfspaces)
    return P0, len(halfspaces)


# relative rounding margin: a vertex tied with the largest residual to within
# rounding is still solved, so ties resolve as if every vertex were solved
_ROUNDING = 1e-12
_ROUNDS = 12  # stencil evaluations per bound search

# q -> (steps, shrink): the trial steps of the frontier search around a row's
# point, (scale, direction, q - 1) in units of its radius, and the factor on
# the radius after a round whose best trial is not a full step.  In q = 2 the
# steps and the point form a line of 13 with spacing 1/6.
_STENCIL = {
    2: (np.array([[[k / 6], [-k / 6]] for k in range(6, 0, -1)]), 1.0 / 6.0),
    3: (np.array([[[s * math.cos(k * math.pi / 6.0),
                    s * math.sin(k * math.pi / 6.0)] for k in range(12)]
                  for s in (1.0, 1.0 / 3.0, 1.0 / 9.0)]), 0.5)}


def _point_bounds(V: np.ndarray, Y: np.ndarray, w: np.ndarray, g: float,
                  p: float) -> np.ndarray:
    """Upper bounds on dist_p(v, A) from points y of the upper image U, one
    per row of V - Y, with w = w_bar and g = gamma_slice: the distance from
    v to the point y + t (v - y)_+ of A, with t the largest value in [0, 1]
    that keeps it in the slice (t = 1 gives max(v, y)).  A point outside the
    slice is not in A and gives +inf.
    """
    room = np.maximum(g - Y @ w, 0.0)
    d = V - Y
    need = np.maximum(d, 0.0) @ w
    t = np.divide(room, need, out=np.ones_like(need), where=need > room)
    z = np.where(d > 0.0, (1.0 - t)[..., None] * d, -d)
    dist = np.sum(z ** p, axis=-1) ** (1.0 / p)
    return np.where(Y @ w <= g, dist, math.inf)


def _frontier_bounds(prob: ProblemInstance, p: float, V: np.ndarray,
                     incident: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Bounds at the vertices V (rows) from the exact frontier points
    y(omega) = gamma(x*(omega)) of U: a stencil search over simplex weights
    omega, all rows at once, one weighted sum per row and trial point.

    Row i starts at the mean of the nonnegative rows of `normals` (outward
    from U) that `incident[i]` marks, scaled to the simplex, with their
    spread as its radius.  Each round moves a row to its best trial point
    and shrinks its radius unless that point lies a full step away.  Trial
    weights are clipped back onto the simplex.  A frontier point outside the
    slice gives no bound, and a row that meets only such points returns
    +inf.  No row reads another row's state.
    """
    q = prob.q
    w, g = prob.w_bar, prob.gamma_slice
    stencil, shrink = _STENCIL[q]
    steps = stencil.reshape(-1, q - 1)

    def frontier(u):
        # u holds the first q - 1 weights; the last one makes the sum 1
        omega = np.maximum(
            np.concatenate([u, 1.0 - u.sum(axis=-1, keepdims=True)], -1), 0.0)
        omega /= omega.sum(axis=-1, keepdims=True)
        y = prob.gamma_eval(prob.ws_closed_form(omega.reshape(-1, q)))
        return omega[..., :-1], _point_bounds(V[:, None, :],
                                              y.reshape(omega.shape), w, g, p)

    pos = (normals.min(axis=1) >= 0.0) & (normals.max(axis=1) > 0.0)
    starts = normals[pos] / normals[pos].sum(axis=1, keepdims=True)
    inc = incident[:, pos]
    count = inc.sum(axis=1, keepdims=True)
    om = np.where(count > 0, (inc @ starts) / np.maximum(count, 1), 1.0 / q)
    spread = np.abs(starts - om[:, None, :]).max(axis=-1)
    size = np.where(inc, spread, 0.0).max(axis=1, initial=0.0)
    radius = np.where(size > 1e-9, size, 0.05)

    u = om[:, :q - 1]
    best = frontier(u[:, None, :])[1][:, 0]
    rows = np.arange(len(V))
    for _ in range(_ROUNDS):
        trial, vals = frontier(u[:, None, :] + radius[:, None, None] * steps)
        j = vals.argmin(axis=1)
        better = vals[rows, j] < best
        u = np.where(better[:, None], trial[rows, j], u)
        best = np.minimum(best, vals[rows, j])
        radius = np.where(better & (j < stencil.shape[1]), radius,
                          shrink * radius)
    return best


def run(config: RunConfig) -> RunTrace:
    """Execute the outer-approximation loop until the Hausdorff error drops
    below epsilon or the iteration budget is exhausted.

    Every recorded iteration applies its cut (including the terminal one, so
    the trace invariants cuts == iterations and |Z_k| = J + 1 + k hold); the
    stopping test uses the residual of the selected farthest vertex.
    """
    prob = by_key(config.problem_key)
    ne = NormExponent(config.p)
    try:
        P, j_plus_1 = initialize(prob)
    except ValueError:
        # an exception from a problem oracle before the first iteration
        return RunTrace(config=config, initial_halfspace_count=prob.q + 1,
                        iterations=(), final_polytope=None,
                        termination="solver_failure")
    exact: dict = {}   # vertex key -> ScalarizationResult
    bounds: dict = {}  # vertex key -> upper bound on its residual
    records: list[IterationRecord] = []
    termination = "max_iterations"

    for k in range(config.max_iterations):
        t0 = time.perf_counter()
        verts = P.vertices()
        keys = [tuple(row) for row in verts.tolist()]
        hits = sum(key in bounds for key in keys)
        for key in keys:
            bounds.setdefault(key, math.inf)
        open_rows = [i for i, key in enumerate(keys) if key not in exact]
        best = max((exact[key].residual_norm for key in keys if key in exact),
                   default=-math.inf)
        try:
            if best == -math.inf:
                # nothing to compare a bound with: solve the first vertex
                i = open_rows.pop(0)
                res, = solve_batch(prob, verts[i:i + 1], ne, exact)
                best = res.residual_norm
            new = [i for i in open_rows if bounds[keys[i]] == math.inf]
            if new:
                normals = -np.array([h.normal for h in P.halfspaces])
                found = _frontier_bounds(prob, ne.p, verts[new],
                                         P.incidence[new], normals)
                bounds.update(zip((keys[i] for i in new), found.tolist()))
            # solve in decreasing bound order until no bound can reach the
            # largest exact residual
            for i in sorted(open_rows, key=lambda j: -bounds[keys[j]]):
                if bounds[keys[i]] < best * (1.0 - _ROUNDING):
                    break
                res, = solve_batch(prob, verts[i:i + 1], ne, exact)
                best = max(best, res.residual_norm)
        except (SubproblemError, ValueError):
            # solver non-convergence, or an exception from a problem oracle
            termination = "solver_failure"
            break
        # every open vertex is certified strictly below best, so the first
        # maximum over the solved rows (lex order) is the farthest vertex
        idx = max((i for i, key in enumerate(keys) if key in exact),
                  key=lambda i: exact[keys[i]].residual_norm)
        far = exact[keys[idx]]

        # no cut normal: the farthest vertex is already in A, the polytope
        # equals A numerically, and the zero residual ends the run below
        if far.cut_normal is not None:
            h = pt.Halfspace(-far.cut_normal,
                             -float(far.cut_normal @ far.y_support))
            try:
                P = pt.cut(P, h)
            except pt.PolytopeError:
                # the cut removed every vertex (inconsistent with the
                # polytope) or none (a tolerance mismatch between solver and
                # polytope layers): surface it instead of masking it
                termination = "solver_failure"
                break
        records.append(IterationRecord(
            k=k, farthest_vertex=verts[idx], residual_norm=far.residual_norm,
            support_point=far.y_support, cut_normal=far.cut_normal,
            vertex_count=len(verts), cache_hits=hits,
            wall_ms=(time.perf_counter() - t0) * 1e3))
        if far.residual_norm <= config.epsilon:
            termination = "converged"
            break

    return RunTrace(config=config, initial_halfspace_count=j_plus_1,
                    iterations=tuple(records), final_polytope=P,
                    termination=termination)


def hausdorff_series(trace: RunTrace) -> list[float]:
    """Per-iteration Hausdorff error: the farthest-vertex residual norms."""
    return [rec.residual_norm for rec in trace.iterations]
