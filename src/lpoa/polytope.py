"""Bounded polytopes in H- and V-representation with incremental cuts.

A Polytope keeps the full halfspace list together with the exact vertex set
and per-vertex incidence (which halfspaces are active).  Construction from
scratch enumerates q-subsets of halfspaces; adding a single halfspace uses
incremental clipping of the vertex/edge structure, which is the only access
pattern the outer-approximation driver needs.

Arithmetic is floating point with relative tolerances; q = 2 and 3 are the
supported dimensions (higher q is attempted on a best-effort basis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

__all__ = [
    "Halfspace",
    "Polytope",
    "PolytopeError",
    "InfeasibleError",
    "UnboundedError",
    "from_halfspaces",
    "cut",
]

FEAS_TOL = 1e-9   # relative feasibility / activity tolerance
MERGE_TOL = 1e-8  # l_inf distance below which vertices are merged


class PolytopeError(Exception):
    pass


class InfeasibleError(PolytopeError):
    def __init__(self, msg, certificate=None):
        super().__init__(msg)
        self.certificate = certificate


class UnboundedError(PolytopeError):
    def __init__(self, msg, direction=None):
        super().__init__(msg)
        self.direction = direction


@dataclass(frozen=True)
class Halfspace:
    """The set {y : <normal, y> <= offset}; normal stored un-normalized."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if n.ndim != 1 or not np.all(np.isfinite(n)) or np.all(n == 0.0):
            raise ValueError("halfspace normal must be a finite nonzero vector")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

    def to_dict(self) -> dict:
        return {"normal": self.normal.tolist(), "offset": self.offset}

    @classmethod
    def from_dict(cls, d: dict) -> "Halfspace":
        return cls(np.asarray(d["normal"], dtype=float), d["offset"])


def _lex_order(points: np.ndarray) -> np.ndarray:
    """Indices sorting rows lexicographically by coordinates."""
    keys = tuple(points[:, i] for i in reversed(range(points.shape[1])))
    return np.lexsort(keys)


def _merge_close(points: np.ndarray, incidences: list[frozenset[int]], tol: float):
    """Deduplicate points closer than tol in l_inf, unioning incidence sets.

    Greedy in input order: each point joins the first kept point within tol,
    otherwise it is kept.  Returns the kept rows as an array and their merged
    incidence sets.
    """
    kept = np.empty(points.shape)
    kept_inc: list[set[int]] = []
    for pt, inc in zip(points, incidences):
        n = len(kept_inc)
        if n:
            close = np.flatnonzero(abs(kept[:n] - pt).max(axis=1) <= tol)
            if close.size:
                kept_inc[close[0]] |= inc
                continue
        kept[n] = pt
        kept_inc.append(set(inc))
    return kept[:len(kept_inc)], [frozenset(s) for s in kept_inc]


@dataclass(frozen=True)
class Polytope:
    """Immutable bounded polytope with simultaneous H- and V-representation."""

    halfspaces: tuple[Halfspace, ...]
    vertices_array: np.ndarray            # (m, q), rows in lexicographic order
    incidence: tuple[frozenset[int], ...]  # active halfspace indices per vertex
    null_cut: bool = field(default=False, compare=False)

    @property
    def dim(self) -> int:
        return self.vertices_array.shape[1]

    def vertices(self) -> np.ndarray:
        """Vertex rows in deterministic (lexicographic) order."""
        return self.vertices_array.copy()

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with the polytope equal to {y : A y <= b}."""
        A = np.vstack([h.normal for h in self.halfspaces])
        b = np.array([h.offset for h in self.halfspaces])
        return A, b

    def contains(self, y, tol: float = 1e-7) -> bool:
        A, b = self.matrices()
        y = np.asarray(y, dtype=float)
        scale = np.maximum(1.0, np.abs(b))
        return bool(np.all(A @ y <= b + tol * scale))

    def to_dict(self) -> dict:
        return {
            "halfspaces": [h.to_dict() for h in self.halfspaces],
            "vertices": self.vertices_array.tolist(),
            "incidence": [sorted(s) for s in self.incidence],
        }


def _feas_tolerances(A: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Per-(halfspace, point) absolute tolerance, relative to magnitudes."""
    row_scale = np.maximum(1.0, np.abs(b))
    pt_scale = np.maximum(1.0, np.abs(pts).max(axis=1)) if len(pts) else np.array([])
    return FEAS_TOL * np.outer(row_scale, pt_scale)


def _check_bounded(A: np.ndarray) -> None:
    """Raise UnboundedError with a certificate if {d : A d <= 0} != {0}."""
    q = A.shape[1]
    bounds = [(-1.0, 1.0)] * q
    for i in range(q):
        for sgn in (1.0, -1.0):
            c = np.zeros(q)
            c[i] = -sgn  # linprog minimizes
            res = linprog(c, A_ub=A, b_ub=np.zeros(A.shape[0]), bounds=bounds,
                          method="highs")
            if res.status == 0 and -res.fun > 1e-7:
                raise UnboundedError(
                    "halfspace intersection has a recession direction",
                    direction=res.x / np.max(np.abs(res.x)),
                )


def _chebyshev_center(A: np.ndarray, b: np.ndarray):
    """(center, radius) of the largest Euclidean ball inside {A y <= b}."""
    m, q = A.shape
    norms = np.linalg.norm(A, axis=1)
    c = np.zeros(q + 1)
    c[-1] = -1.0
    A_ub = np.hstack([A, norms[:, None]])
    res = linprog(c, A_ub=A_ub, b_ub=b, bounds=[(None, None)] * q + [(None, None)],
                  method="highs")
    if res.status != 0:
        return None, -np.inf
    return res.x[:q], res.x[-1]


def from_halfspaces(halfspaces) -> Polytope:
    """Build a bounded polytope as the intersection of the given halfspaces.

    Vertices are found by enumerating all q-subsets, solving the q x q
    systems and filtering by feasibility.  Raises InfeasibleError when the
    intersection has empty interior and UnboundedError (with a certificate
    direction) when it has a recession direction.
    """
    hs = tuple(h if isinstance(h, Halfspace) else Halfspace(*h) for h in halfspaces)
    if not hs:
        raise ValueError("need at least one halfspace")
    q = hs[0].normal.size
    if any(h.normal.size != q for h in hs):
        raise ValueError("halfspaces have inconsistent dimensions")
    A = np.vstack([h.normal for h in hs])
    b = np.array([h.offset for h in hs])
    m = len(hs)
    if m < q + 1:
        raise UnboundedError("fewer than q+1 halfspaces cannot bound a polytope")

    _check_bounded(A)

    center, radius = _chebyshev_center(A, b)
    if radius <= 1e-12:
        raise InfeasibleError(
            "halfspace intersection has empty interior",
            certificate=center,
        )

    combos = np.array(list(combinations(range(m), q)))
    mats = A[combos]                      # (n_combo, q, q)
    rhs = b[combos]                       # (n_combo, q)
    dets = np.linalg.det(mats)
    row_norms = np.linalg.norm(mats, axis=2)
    nondeg = np.abs(dets) > 1e-12 * np.prod(np.maximum(row_norms, 1e-30), axis=1)
    if not np.any(nondeg):
        raise InfeasibleError("no vertex candidates", certificate=center)
    pts = np.linalg.solve(mats[nondeg], rhs[nondeg][..., None])[..., 0]

    tol = _feas_tolerances(A, b, pts)
    feas = np.all(A @ pts.T - b[:, None] <= tol, axis=0)
    pts = pts[feas]
    if len(pts) == 0:
        raise InfeasibleError("halfspace intersection has no vertices",
                              certificate=center)

    act_tol = _feas_tolerances(A, b, pts)
    active = np.abs(A @ pts.T - b[:, None]) <= act_tol
    incid = [frozenset(np.nonzero(active[:, i])[0].tolist()) for i in range(len(pts))]

    verts, kept_inc = _merge_close(pts, incid, MERGE_TOL)
    order = _lex_order(verts)
    return Polytope(hs, verts[order], tuple(kept_inc[i] for i in order))


def cut(P: Polytope, h: Halfspace) -> Polytope:
    """Intersect P with one more halfspace, updating vertices incrementally.

    Vertices strictly violating h are dropped; each edge crossing the cut
    boundary contributes one new vertex.  If no vertex violates h the
    polytope is returned unchanged with the null_cut flag set.  A cut that
    removes every vertex raises InfeasibleError.
    """
    q = P.dim
    if h.normal.size != q:
        raise ValueError("halfspace dimension mismatch")
    verts = P.vertices_array
    s = verts @ h.normal - h.offset
    scale = FEAS_TOL * np.maximum(1.0, np.abs(h.offset)) * np.maximum(
        1.0, np.abs(verts).max(axis=1))
    outside = s > scale
    on_boundary = np.abs(s) <= scale

    if not np.any(outside):
        return Polytope(P.halfspaces, P.vertices_array, P.incidence, null_cut=True)
    if np.all(outside):
        raise InfeasibleError("cut removes every vertex", certificate=h.normal)

    new_index = len(P.halfspaces)
    kept_pts: list[np.ndarray] = []
    kept_inc: list[frozenset[int]] = []
    for i in np.nonzero(~outside)[0]:
        inc = P.incidence[i] | {new_index} if on_boundary[i] else P.incidence[i]
        kept_pts.append(verts[i])
        kept_inc.append(frozenset(inc))

    # edges join vertices sharing >= q-1 active halfspaces
    inside_idx = np.nonzero(~outside & ~on_boundary)[0]
    outside_idx = np.nonzero(outside)[0]
    new_pts: list[np.ndarray] = []
    new_inc: list[frozenset[int]] = []
    for i in inside_idx:
        for j in outside_idx:
            shared = P.incidence[i] & P.incidence[j]
            if len(shared) < q - 1:
                continue
            t = -s[i] / (s[j] - s[i])
            pt = verts[i] + t * (verts[j] - verts[i])
            new_pts.append(pt)
            new_inc.append(frozenset(shared | {new_index}))

    all_pts = kept_pts + new_pts
    all_inc = kept_inc + new_inc
    out, merged_inc = _merge_close(np.array(all_pts), all_inc, MERGE_TOL)
    order = _lex_order(out)
    return Polytope(P.halfspaces + (h,), out[order],
                    tuple(merged_inc[i] for i in order))
