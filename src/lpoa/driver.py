"""Outer-approximation loop: initialize, enumerate vertices, cut, record.

Each iteration selects the farthest vertex of the current polytope (its
residual norm, the lp distance to the approximated set A, equals the
Hausdorff error of the polytope) and adds the supporting halfspace through
its support point with the lp-gradient normal.  The full per-iteration
history is kept in a RunTrace for the analysis layer.

Selection is lazy.  Each vertex row carries an upper bound on its distance
to A and the state of a search over the frontier of the upper image U that
lowers it, in arrays aligned with the polytope's rows and re-indexed by each
cut's row map.  Every solve also returns a frontier point gamma(x*(omega))
with its simplex weights omega, and the run pools them.  A new row's search
starts at the pooled point of least bound, with that bound, and at w_bar
with no bound before the first solve.  A row is open while it is unsolved
and its bound reaches the largest residual.  Each iteration repeats one
best-first step while some row is open: take the open row of largest bound
(row 0 while no row is solved) and solve it if no row is solved yet or its
search has had all twelve rounds; otherwise advance every open row that has
rounds left by one round, in one batch.  A bound is never below the one
that all twelve rounds give, so rows are solved in decreasing order of that
full bound, and a row that closes early would never have been solved.  A
residual is at most the distance, which is at most the bound, so the first
maximum over the solved vertices in lexicographic order is the vertex that
solving every vertex would select.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import polytope as pt
from .lp_geometry import NormExponent
from .problems import PROBLEM_KEYS, ProblemInstance, by_key
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
    """Initial polytope: the simplex bounded by the q coordinate halfspaces
    {y : y_i >= ideal_i}, which support the upper image at its ideal point,
    plus the slice halfspace (J + 1 = q + 1 in total).  It calls no oracle:
    the instance holds the ideal point.  Each problem's slice lies strictly
    above its ideal point, so the simplex is never degenerate."""
    halfspaces = [pt.Halfspace(-e_i, -y_i)
                  for e_i, y_i in zip(np.eye(prob.q), prob.ideal)]
    halfspaces.append(pt.Halfspace(prob.w_bar.copy(), prob.gamma_slice))
    return pt.simplex(halfspaces)


_ROUNDS = 12  # most stencil rounds of the bound search at one vertex

# q -> (steps, full, shrink): the trial steps of the frontier search around a
# row's point, (trial, q - 1) in units of its radius, scale by scale, the
# number of full steps (those of scale 1, which come first), and the factor
# on the radius after a round whose best trial is not a full step.  In q = 2
# the steps and the point form a line of 13 with spacing 1/6.  Its keys,
# q = 2 and 3, are the supported dimensions: those of the four built-in
# problems.
_STENCIL = {
    2: (np.array([[s / 6] for k in range(6, 0, -1) for s in (k, -k)]), 2,
        1.0 / 6.0),
    3: (np.array([[s * math.cos(k * math.pi / 6.0),
                   s * math.sin(k * math.pi / 6.0)]
                  for s in (1.0, 1.0 / 3.0, 1.0 / 9.0) for k in range(12)]),
        12, 0.5)}


def _reach(best, verts: np.ndarray):
    """The least bound that can still reach the largest residual `best` at
    the vertices `verts` (rows), to within rounding, so that a vertex tied
    with `best` is still solved and ties resolve as if every vertex were
    solved: a relative margin, and an absolute one for a residual near zero,
    whose rounding is that of terms of the size of the coordinates."""
    top = np.maximum.reduce(np.abs(verts), axis=None)
    return best * (1.0 - 1e-12) - 1e-15 * top


def _sum_last(x: np.ndarray) -> np.ndarray:
    """The sums over the short last axis of x, left to right in column
    adds: bit for bit np.add.reduce over that axis, at a fraction of its
    cost."""
    total = x[..., 0]
    for k in range(1, x.shape[-1]):
        total = total + x[..., k]
    return total


def _point_bounds(V: np.ndarray, Y: np.ndarray, w: np.ndarray, g: float,
                  p: float) -> np.ndarray:
    """Upper bounds on dist_p(v, A) from points y of the upper image U, one
    per row of V - Y, with w = w_bar and g = gamma_slice: the distance from
    v to the point y + t (v - y)_+ of A, with t the largest value in [0, 1]
    that keeps it in the slice (t = 1 gives max(v, y)).  A point outside the
    slice is not in A and gives +inf.
    """
    yw = Y @ w
    room = np.maximum(g - yw, 0.0)
    d = V - Y
    need = np.maximum(d, 0.0) @ w
    t = np.divide(room, need, out=np.ones_like(need), where=need > room)
    z = np.negative(d)
    np.multiply((1.0 - t)[..., None], d, out=z, where=d > 0.0)
    dist = _sum_last(z ** p) ** (1.0 / p)
    return np.where(yw <= g, dist, math.inf)


def _frontier(prob: ProblemInstance, p: float, V: np.ndarray,
              u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds at the vertices V (rows) from the exact frontier points
    y(omega) = gamma(x*(omega)) of U, one weighted sum per row and trial
    point: u holds the first q - 1 simplex weights of each row's trial
    points, the last one makes the sum 1, and weights are clipped back onto
    the simplex.  Returns the clipped u and the bounds."""
    omega = np.empty(u.shape[:-1] + (prob.q,))
    omega[..., :-1] = u
    np.subtract(1.0, _sum_last(u), out=omega[..., -1])
    np.maximum(omega, 0.0, out=omega)
    omega /= _sum_last(omega)[..., None]
    y = prob.gamma_eval(prob.ws_closed_form(omega.reshape(-1, prob.q)))
    return omega[..., :-1], _point_bounds(
        V[:, None, :], y.reshape(omega.shape), prob.w_bar, prob.gamma_slice, p)


def _new_rows(prob: ProblemInstance, p: float, V: np.ndarray,
              pool: tuple[np.ndarray, np.ndarray]) -> list:
    """State of the vertex rows V new to the polytope: (result, residual) of
    the subproblem, with None and -inf for a row not yet solved, and the
    frontier search (bound, u, radius, rounds) before its first round, with
    radius 1/2.  The pool holds the simplex weights (rows of W) and frontier
    points (rows of Y) that earlier solves returned; a row's search starts
    at the weights of its pooled point of least bound, with that bound, or
    at w_bar with bound +inf while the pool is empty (u holds the first
    q - 1 weights).  A solved row's bound is -inf, so that the search passes
    over it."""
    m = len(V)
    W, Y = pool
    if len(Y):
        vals = _point_bounds(V[:, None, :], Y, prob.w_bar, prob.gamma_slice,
                             p)
        j = vals.argmin(axis=1)
        bound, u = vals[np.arange(m), j], W[j, :-1]
    else:
        bound, u = np.full(m, math.inf), np.tile(prob.w_bar[:-1], (m, 1))
    return [np.full(m, None, dtype=object), np.full(m, -math.inf), bound, u,
            np.full(m, 0.5), np.zeros(m, dtype=int)]


def _search_round(prob: ProblemInstance, p: float, V: np.ndarray,
                  state: list, rows: np.ndarray) -> None:
    """One round of the frontier search, in one batch and in place, at the
    rows `rows` of V, each with rounds left: a row moves to its best trial
    point, and its radius shrinks unless that point lies a full step away.
    A frontier point outside the slice gives no bound, so a row that meets
    only such points keeps +inf.  No row reads another row's state, so
    rounds split over calls on any row subsets end where _ROUNDS rounds in
    one batch would."""
    bound, u, radius, rounds = state
    steps, full, shrink = _STENCIL[prob.q]
    trial, vals = _frontier(prob, p, V[rows], u[rows, None, :]
                            + radius[rows, None, None] * steps)
    r, j = np.arange(len(rows)), vals.argmin(axis=1)
    best = vals[r, j]
    better = best < bound[rows]
    moved = rows[better]
    u[moved] = trial[better, j[better]]
    bound[moved] = best[better]
    radius[rows[~(better & (j < full))]] *= shrink
    rounds[rows] += 1


def run(config: RunConfig) -> RunTrace:
    """Execute the outer-approximation loop until the Hausdorff error drops
    below epsilon or the iteration budget is exhausted.

    Every recorded iteration applies its cut (including the terminal one, so
    the trace invariants cuts == iterations and |Z_k| = J + 1 + k hold); the
    stopping test uses the residual of the selected farthest vertex.  Every
    failure, from building the initial simplex on, ends the run in one place
    with termination solver_failure and the polytope it had (None before the
    initial simplex is built).
    """
    prob = by_key(config.problem_key)
    ne = NormExponent(config.p)
    P = None
    records: list[IterationRecord] = []
    termination = "max_iterations"
    try:
        P = initialize(prob)
        # the final simplex weights and frontier points of every solve
        pool = (np.empty((0, prob.q)), np.empty((0, prob.q)))
        rows = _new_rows(prob, ne.p, P.vertices_array, pool)
        for k in range(config.max_iterations):
            t0 = time.perf_counter()
            verts = P.vertices()
            new = P.origin < 0
            if k:
                # re-index the row state by the cut's row map; new rows
                # start from the pool
                rows = [a[P.origin] for a in rows]
                for a, b in zip(rows, _new_rows(prob, ne.p, verts[new], pool)):
                    a[new] = b
            exact, residual, *search = rows
            bound, rounds = search[0], search[3]
            best = np.maximum.reduce(residual)
            reach = _reach(best, verts)
            while True:
                # the open row of largest bound, or row 0 while nothing is
                # solved (at k = 0, or after a cut removed every solved
                # vertex); no row is open once that row's bound falls short
                first = best == -math.inf
                i = 0 if first else int(bound.argmax())
                if bound[i] < reach:
                    break
                if first or rounds[i] == _ROUNDS:
                    exact[i], = solve_batch(prob, verts[i:i + 1], ne)
                    residual[i], bound[i] = exact[i].residual_norm, -math.inf
                    W, Y = exact[i].frontier
                    pool = (np.vstack([pool[0], W]), np.vstack([pool[1], Y]))
                    best = max(best, residual[i])
                    reach = _reach(best, verts)
                else:
                    _search_round(prob, ne.p, verts, search, (
                        (bound >= reach) & (rounds < _ROUNDS)).nonzero()[0])
            # every open vertex is certified strictly below best, so the
            # first maximum over the rows (lex order) is the farthest vertex
            idx = int(np.argmax(residual))
            far = exact[idx]

            # no cut normal: the farthest vertex is already in A, and the
            # zero residual ends the run below
            if far.cut_normal is not None:
                P = pt.cut(P, pt.Halfspace(
                    -far.cut_normal, -float(far.cut_normal @ far.y_support)))
            # a copy, so that the record does not keep all of verts alive
            records.append(IterationRecord(
                k=k, farthest_vertex=verts[idx].copy(),
                residual_norm=far.residual_norm, support_point=far.y_support,
                cut_normal=far.cut_normal, vertex_count=len(verts),
                cache_hits=len(verts) - int(np.count_nonzero(new)),
                wall_ms=(time.perf_counter() - t0) * 1e3))
            if far.residual_norm <= config.epsilon:
                termination = "converged"
                break
    except (SubproblemError, ValueError, pt.PolytopeError):
        # solver non-convergence, an exception from a problem oracle, a
        # singular initial simplex (LinAlgError), or a cut that removed every
        # vertex (inconsistent with the polytope) or none (a tolerance
        # mismatch between solver and polytope layers): surface it
        termination = "solver_failure"

    return RunTrace(config=config, iterations=tuple(records),
                    final_polytope=P, termination=termination)


def hausdorff_series(trace: RunTrace) -> list[float]:
    """Per-iteration Hausdorff error: the farthest-vertex residual norms."""
    return [rec.residual_norm for rec in trace.iterations]
