"""Outer-approximation loop: initialize, enumerate vertices, cut, record.

Each iteration solves the norm-minimization subproblem at every new vertex,
selects the farthest one (its residual norm equals the Hausdorff error of
the current polytope), and adds the supporting halfspace through the support
point with the lp-gradient normal.  The full per-iteration history is kept
in a RunTrace for the analysis layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import polytope as pt
from .lp_geometry import NormExponent
from .problems import ProblemInstance, by_key, weighted_sum
from .scalarization import SolverTolerances, SubproblemError, solve_batch

__all__ = ["RunConfig", "IterationRecord", "RunTrace", "initialize", "run",
           "hausdorff_series"]


@dataclass(frozen=True)
class RunConfig:
    problem_key: str
    p: float
    epsilon: float
    max_iterations: int = 500
    tolerances: SolverTolerances = field(default_factory=SolverTolerances)

    def __post_init__(self):
        NormExponent(self.p)  # raises ValueError unless 1 < p < inf
        if self.epsilon <= self.tolerances.tol_zero:
            raise ValueError("epsilon must exceed the zero-residual threshold")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    def to_dict(self) -> dict:
        return {
            "problem_key": self.problem_key,
            "p": self.p,
            "epsilon": self.epsilon,
            "max_iterations": self.max_iterations,
            "tolerances": {
                "primal": self.tolerances.primal,
                "dual": self.tolerances.dual,
                "vi": self.tolerances.vi,
                "tol_zero": self.tolerances.tol_zero,
                "max_iterations": self.tolerances.max_iterations,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        # traces written before seed, record_pairs and tolerances.objective
        # were removed still carry them; none of the three was ever read
        tol = dict(d.get("tolerances", {}))
        tol.pop("objective", None)
        return cls(problem_key=d["problem_key"], p=d["p"], epsilon=d["epsilon"],
                   max_iterations=d.get("max_iterations", 500),
                   tolerances=SolverTolerances(**tol))


@dataclass(frozen=True)
class IterationRecord:
    k: int
    farthest_vertex: np.ndarray
    residual_norm: float
    support_point: np.ndarray
    cut_normal: Optional[np.ndarray]
    vertex_count: int
    new_vertex_count: int
    cache_hits: int
    wall_ms: float

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "farthest_vertex": self.farthest_vertex.tolist(),
            "residual_norm": self.residual_norm,
            "support_point": self.support_point.tolist(),
            "cut_normal": None if self.cut_normal is None else self.cut_normal.tolist(),
            "vertex_count": self.vertex_count,
            "new_vertex_count": self.new_vertex_count,
            "cache_hits": self.cache_hits,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IterationRecord":
        cn = d.get("cut_normal")
        return cls(
            k=d["k"],
            farthest_vertex=np.asarray(d["farthest_vertex"], dtype=float),
            residual_norm=d["residual_norm"],
            support_point=np.asarray(d["support_point"], dtype=float),
            cut_normal=None if cn is None else np.asarray(cn, dtype=float),
            vertex_count=d["vertex_count"],
            new_vertex_count=d["new_vertex_count"],
            cache_hits=d["cache_hits"],
            wall_ms=d.get("wall_ms", 0.0),
        )


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


def _select_farthest(vertices: np.ndarray, results) -> int:
    """Index of the max-residual vertex; vertices arrive lex-sorted, and
    argmax returns the first maximum, so ties break lexicographically."""
    return int(np.argmax([res.residual_norm for res in results]))


def run(config: RunConfig) -> RunTrace:
    """Execute the outer-approximation loop until the Hausdorff error drops
    below epsilon or the iteration budget is exhausted.

    Every recorded iteration applies its cut (including the terminal one, so
    the trace invariants cuts == iterations and |Z_k| = J + 1 + k hold); the
    stopping test uses the residual of the selected farthest vertex.
    """
    prob = by_key(config.problem_key)
    ne = NormExponent(config.p)
    P, j_plus_1 = initialize(prob)
    cache: dict = {}
    records: list[IterationRecord] = []
    termination = "max_iterations"
    prev_vertex_count = 0

    for k in range(config.max_iterations):
        t0 = time.perf_counter()
        verts = P.vertices()
        solved_before = len(cache)
        try:
            results = solve_batch(prob, verts, ne, config.tolerances, cache)
        except SubproblemError:
            termination = "solver_failure"
            break
        # the rows of one batch are distinct: every vertex not added is a hit
        hits = len(verts) - (len(cache) - solved_before)
        idx = _select_farthest(verts, results)
        far = results[idx]
        new_count = len(verts) - prev_vertex_count if k else len(verts)

        if far.cut_normal is None:
            # farthest vertex already in A: the polytope equals A numerically
            records.append(IterationRecord(
                k=k, farthest_vertex=verts[idx], residual_norm=far.residual_norm,
                support_point=far.y_support, cut_normal=None,
                vertex_count=len(verts), new_vertex_count=new_count,
                cache_hits=hits,
                wall_ms=(time.perf_counter() - t0) * 1e3))
            termination = "converged"
            break

        h = pt.Halfspace(-far.cut_normal, -float(far.cut_normal @ far.y_support))
        try:
            P_next = pt.cut(P, h)
        except pt.InfeasibleError:
            # the cut removed every vertex: the supporting halfspace is
            # inconsistent with the current polytope
            termination = "solver_failure"
            break
        if P_next.null_cut:
            # numerically redundant cut: tolerance mismatch between solver
            # and polytope layers; surface it instead of masking
            termination = "solver_failure"
            break
        records.append(IterationRecord(
            k=k, farthest_vertex=verts[idx], residual_norm=far.residual_norm,
            support_point=far.y_support, cut_normal=far.cut_normal,
            vertex_count=len(verts), new_vertex_count=new_count,
            cache_hits=hits,
            wall_ms=(time.perf_counter() - t0) * 1e3))
        prev_vertex_count = len(verts)
        P = P_next
        if far.residual_norm <= config.epsilon:
            termination = "converged"
            break

    return RunTrace(config=config, initial_halfspace_count=j_plus_1,
                    iterations=tuple(records), final_polytope=P,
                    termination=termination)


def hausdorff_series(trace: RunTrace) -> list[float]:
    """Per-iteration Hausdorff error: the farthest-vertex residual norms."""
    return [rec.residual_norm for rec in trace.iterations]
