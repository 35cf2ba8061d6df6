"""Outer-approximation loop: initialize, enumerate vertices, cut, record.

Each iteration selects the farthest vertex of the current polytope (its
residual norm, the lp distance to the approximated set A, equals the
Hausdorff error of the polytope) and adds the supporting halfspace through
its support point with the lp-gradient normal.  The full per-iteration
history is kept in a RunTrace for the analysis layer.

Selection is lazy.  Each vertex carries an upper bound on its distance to
A and the state of a search over the frontier of the upper image U that
lowers it, kept by its exact coordinates (polytope.cut keeps surviving rows
bit for bit).  Each iteration solves the first open vertex if no vertex is
solved yet, then starts the search at every new vertex and advances the
open ones in one batch: at most twelve rounds per vertex, run only while
its bound reaches the largest residual.  Then it solves the open vertices
in decreasing bound order until every remaining bound falls below the
largest residual.  A residual is at most the distance, which is at most the
bound, so the first maximum over the solved vertices in lexicographic order
is the vertex that solving every vertex would select.  A bound is never
below the one that all twelve rounds give, so stopping a search early never
changes which vertices are solved.
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
        try:
            float(self.p), float(self.epsilon)
        except OverflowError:
            raise ValueError("p and epsilon must fit a float") from None
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
    iterations: tuple[IterationRecord, ...]
    final_polytope: Optional[pt.Polytope]
    termination: str  # converged | max_iterations | solver_failure

    @property
    def q(self) -> int:
        return by_key(self.config.problem_key).q

    @property
    def initial_halfspace_count(self) -> int:
        """J + 1 = q + 1: the halfspaces of the initial polytope."""
        return self.q + 1


def initialize(prob: ProblemInstance) -> pt.Polytope:
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
    return pt.from_halfspaces(halfspaces)


# relative rounding margin: a vertex tied with the largest residual to within
# rounding is still solved, so ties resolve as if every vertex were solved
_ROUNDING = 1e-12
_ROUNDS = 12  # most stencil rounds of the bound search at one vertex

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


def _frontier(prob: ProblemInstance, p: float, V: np.ndarray,
              u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds at the vertices V (rows) from the exact frontier points
    y(omega) = gamma(x*(omega)) of U, one weighted sum per row and trial
    point: u holds the first q - 1 simplex weights of each row's trial
    points, the last one makes the sum 1, and weights are clipped back onto
    the simplex.  Returns the clipped u and the bounds."""
    omega = np.maximum(
        np.concatenate([u, 1.0 - u.sum(axis=-1, keepdims=True)], -1), 0.0)
    omega /= omega.sum(axis=-1, keepdims=True)
    y = prob.gamma_eval(prob.ws_closed_form(omega.reshape(-1, prob.q)))
    return omega[..., :-1], _point_bounds(
        V[:, None, :], y.reshape(omega.shape), prob.w_bar, prob.gamma_slice, p)


def _search_start(prob: ProblemInstance, p: float, V: np.ndarray,
                  incident: np.ndarray, normals: np.ndarray) -> list:
    """State (bound, u, radius, rounds) of a frontier search at the vertices
    V (rows), before its first round: row i starts at the mean of the
    nonnegative rows of `normals` (outward from U) that `incident[i]` marks,
    scaled to the simplex, with their spread as its radius."""
    q = prob.q
    pos = (normals.min(axis=1) >= 0.0) & (normals.max(axis=1) > 0.0)
    starts = normals[pos] / normals[pos].sum(axis=1, keepdims=True)
    inc = incident[:, pos]
    count = inc.sum(axis=1, keepdims=True)
    om = np.where(count > 0, (inc @ starts) / np.maximum(count, 1), 1.0 / q)
    spread = np.abs(starts - om[:, None, :]).max(axis=-1)
    size = np.where(inc, spread, 0.0).max(axis=1, initial=0.0)
    u = om[:, :q - 1]
    return [_frontier(prob, p, V, u[:, None, :])[1][:, 0], u,
            np.where(size > 1e-9, size, 0.05), np.zeros(len(V), dtype=int)]


def _search_advance(prob: ProblemInstance, p: float, V: np.ndarray,
                    state: list, threshold: float) -> None:
    """Advance the frontier search at the vertices V (rows) in place, all
    rows at once, while a row's bound is at least `threshold` and it has had
    fewer than _ROUNDS rounds.  Each round moves a row to its best trial
    point and shrinks its radius unless that point lies a full step away.  A
    frontier point outside the slice gives no bound, and a row that meets
    only such points keeps +inf.  No row reads another row's state, so a
    search resumed later ends where one uninterrupted search would."""
    bound, u, radius, rounds = state
    stencil, shrink = _STENCIL[prob.q]
    steps = stencil.reshape(-1, prob.q - 1)
    while True:
        a = np.flatnonzero((bound >= threshold) & (rounds < _ROUNDS))
        if not len(a):
            return
        trial, vals = _frontier(prob, p, V[a], u[a, None, :]
                                + radius[a, None, None] * steps)
        r, j = np.arange(len(a)), vals.argmin(axis=1)
        better = vals[r, j] < bound[a]
        u[a] = np.where(better[:, None], trial[r, j], u[a])
        bound[a] = np.minimum(bound[a], vals[r, j])
        radius[a] = np.where(better & (j < stencil.shape[1]), radius[a],
                             shrink * radius[a])
        rounds[a] += 1


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
        P = initialize(prob)
    except ValueError:
        # an exception from a problem oracle before the first iteration
        return RunTrace(config=config, iterations=(), final_polytope=None,
                        termination="solver_failure")
    exact: dict = {}   # vertex key -> ScalarizationResult
    search: dict = {}  # vertex key -> (residual bound, u, radius, rounds)
    records: list[IterationRecord] = []
    termination = "max_iterations"

    for k in range(config.max_iterations):
        t0 = time.perf_counter()
        verts = P.vertices()
        keys = [tuple(row) for row in verts.tolist()]
        # every vertex of an earlier polytope was solved or searched there
        hits = sum(key in exact or key in search for key in keys)
        open_rows = [i for i, key in enumerate(keys) if key not in exact]
        best = max((exact[key].residual_norm for key in keys if key in exact),
                   default=-math.inf)
        try:
            if best == -math.inf:
                # nothing to compare a bound with: solve the first vertex
                i = open_rows.pop(0)
                exact[keys[i]], = solve_batch(prob, verts[i:i + 1], ne)
                best = exact[keys[i]].residual_norm
            new = [i for i in open_rows if keys[i] not in search]
            if new:
                normals = -np.array([h.normal for h in P.halfspaces])
                state = _search_start(prob, ne.p, verts[new], P.incidence[new],
                                      normals)
                search.update(zip((keys[i] for i in new), zip(*state)))
            if open_rows:
                # advance the rows whose bound still reaches best; the solves
                # below only raise best, so none needs more rounds after them
                state = [np.array(s) for s in
                         zip(*(search[keys[i]] for i in open_rows))]
                _search_advance(prob, ne.p, verts[open_rows], state,
                                best * (1.0 - _ROUNDING))
                search.update(zip((keys[i] for i in open_rows), zip(*state)))
            # solve in decreasing bound order until no bound can reach the
            # largest exact residual
            for i in sorted(open_rows, key=lambda j: -search[keys[j]][0]):
                if search[keys[i]][0] < best * (1.0 - _ROUNDING):
                    break
                exact[keys[i]], = solve_batch(prob, verts[i:i + 1], ne)
                best = max(best, exact[keys[i]].residual_norm)
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

    return RunTrace(config=config, iterations=tuple(records),
                    final_polytope=P, termination=termination)


def hausdorff_series(trace: RunTrace) -> list[float]:
    """Per-iteration Hausdorff error: the farthest-vertex residual norms."""
    return [rec.residual_norm for rec in trace.iterations]
