"""Outer-approximation loop: initialize, enumerate vertices, cut, record.

Each iteration selects the farthest vertex of the current polytope (its
residual norm, the lp distance to the approximated set A, equals the
Hausdorff error of the polytope) and adds the supporting halfspace through
its support point with the lp-gradient normal.  The full per-iteration
history is kept in a RunTrace for the analysis layer.

Selection is lazy.  Each vertex carries an upper bound on its distance to
A, kept by its exact coordinates (polytope.cut keeps surviving rows bit for
bit): +inf until a search over the frontier of the upper image U lowers it.
The loop takes the open vertex with the largest bound and searches for its
bound (once, when it is +inf and some vertex is solved) or solves it (also
when the search finds no bound), until every open bound falls below the
largest residual.  A residual is at most the distance, which is at most the
bound, so the first maximum over the solved vertices in lexicographic order
is the vertex that solving every vertex would select.
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


_REFINE_EVALS = 40  # weighted sums per refined bound
# relative rounding margin: a vertex tied with the largest residual to within
# rounding is still solved, so ties resolve as if every vertex were solved
_ROUNDING = 1e-12


def _point_bound(v: list, y: list, w: list, g: float, p: float) -> float:
    """Upper bound on dist_p(v, A) from a point y of the upper image U, with
    w = w_bar and g = gamma_slice: the distance from v to the point
    y + t (v - y)_+ of A, with t the largest value in [0, 1] that keeps it
    in the slice (t = 1 gives max(v, y)).  A point outside the slice is not
    in A and gives +inf.
    """
    room = g - sum(wi * yi for wi, yi in zip(w, y))
    if room < 0.0:
        return math.inf
    need = sum(wi * (vi - yi) for wi, vi, yi in zip(w, v, y) if vi > yi)
    s = 1.0 - room / need if need > room else 0.0
    return sum((s * (vi - yi)) ** p if vi > yi else (yi - vi) ** p
               for vi, yi in zip(v, y)) ** (1.0 / p)


def _refined_bound(prob: ProblemInstance, p: float, v: list,
                   normals) -> float:
    """Bound at vertex v from the exact frontier points
    y(omega) = gamma(x*(omega)) of U: a Nelder-Mead search over simplex
    weights omega in scalar arithmetic, capped at _REFINE_EVALS weighted sums.

    A frontier point outside the slice gives no bound, and a search that
    meets only such points returns +inf.  The search starts at the mean of
    the nonnegative vectors among `normals` (the normals of the halfspaces
    active at v, outward from U), scaled to the simplex, with their spread
    as the initial size.
    """
    q = prob.q
    w = prob.w_bar.tolist()
    g = prob.gamma_slice

    def f(u):
        # u holds the first q - 1 weights; the last one makes the sum 1
        last = 1.0 - sum(u)
        if last < 0.0 or min(u) < 0.0:
            return math.inf
        y = prob.gamma_eval(prob.ws_closed_form(np.array(u + [last]))).tolist()
        return _point_bound(v, y, w, g, p)

    starts = [[c / sum(n) for c in n] for n in map(list, normals)
              if min(n) >= 0.0 and max(n) > 0.0] or [[1.0 / q] * q]
    om = [sum(c) / len(starts) for c in zip(*starts)]
    size = max(max(abs(a - b) for a, b in zip(s, om)) for s in starts)
    size = size if size > 1e-9 else 0.05
    n = q - 1
    simplex = [om[:n]] + [[c + size * (k == j) for k, c in enumerate(om[:n])]
                          for j in range(n)]
    vals = [f(u) for u in simplex]
    evals = len(vals)
    while evals < _REFINE_EVALS:
        order = sorted(range(n + 1), key=vals.__getitem__)
        simplex = [simplex[k] for k in order]
        vals = [vals[k] for k in order]
        mid = [sum(u[k] for u in simplex[:n]) / n for k in range(n)]
        worst = simplex[n]
        ur = [2.0 * m - x for m, x in zip(mid, worst)]
        fr = f(ur)
        evals += 1
        if fr < vals[0]:
            ue = [3.0 * m - 2.0 * x for m, x in zip(mid, worst)]
            fe = f(ue)
            evals += 1
            simplex[n], vals[n] = (ue, fe) if fe < fr else (ur, fr)
        elif fr < vals[n - 1]:
            simplex[n], vals[n] = ur, fr
        else:
            uc = [0.5 * (m + x) for m, x in zip(mid, worst)]
            fc = f(uc)
            evals += 1
            if fc < vals[n]:
                simplex[n], vals[n] = uc, fc
            else:
                # shrink toward the best point
                for k in range(1, n + 1):
                    simplex[k] = [0.5 * (a + b)
                                  for a, b in zip(simplex[0], simplex[k])]
                    vals[k] = f(simplex[k])
                    evals += 1
    return min(vals)


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
            # solve the vertex with the largest bound until no bound can
            # reach the largest exact residual
            while open_rows:
                i = max(open_rows, key=lambda j: bounds[keys[j]])
                key = keys[i]
                if bounds[key] < best * (1.0 - _ROUNDING):
                    break
                if bounds[key] == math.inf and best > -math.inf:
                    normals = [-P.halfspaces[h].normal for h in P.incidence[i]]
                    bounds[key] = _refined_bound(prob, ne.p, verts[i].tolist(),
                                                 normals)
                    if bounds[key] < math.inf:
                        continue
                res, = solve_batch(prob, verts[i:i + 1], ne, exact)
                open_rows.remove(i)
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
                P_next = pt.cut(P, h)
            except pt.InfeasibleError:
                # the cut removed every vertex: the supporting halfspace is
                # inconsistent with the current polytope
                termination = "solver_failure"
                break
            if P_next.null_cut:
                # numerically redundant cut: tolerance mismatch between
                # solver and polytope layers; surface it instead of masking
                termination = "solver_failure"
                break
            P = P_next
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
