"""Bounded polytopes in H- and V-representation with incremental cuts.

A Polytope keeps the full halfspace list, the exact vertex set and a boolean
incidence array (which halfspaces are active at each vertex).  The initial
polytope is a simplex, one q x q solve per vertex; after that a polytope only
changes by adding a single halfspace, which clips the vertex/edge structure
in array operations.  No linear program is solved.

Arithmetic is floating point with relative tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "Halfspace",
    "Polytope",
    "PolytopeError",
    "InfeasibleError",
    "NullCutError",
    "simplex",
    "cut",
]

FEAS_TOL = 1e-9   # relative feasibility / activity tolerance
MERGE_TOL = 1e-8  # l_inf distance below which vertices are merged


class PolytopeError(Exception):
    pass


class InfeasibleError(PolytopeError):
    pass


class NullCutError(PolytopeError):
    pass


@dataclass(frozen=True, eq=False)  # == and hash by identity: fields are arrays
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


def _lex_order(points: np.ndarray) -> np.ndarray:
    """Indices sorting rows lexicographically by coordinates."""
    keys = tuple(points[:, i] for i in reversed(range(points.shape[1])))
    return np.lexsort(keys)


def _merge_close(points: np.ndarray, incidence: np.ndarray, tol: float,
                 start: int = 0):
    """Deduplicate points closer than tol in l_inf, or-ing incidence rows.

    Greedy in input order: each point joins the first kept point within tol,
    otherwise it is kept; the first `start` points (pairwise farther apart
    than tol, as every output is) are kept unchecked.  Deep runs rely on
    it: example2 at p = 1.25, epsilon = 5e-3 merges six times, each time two
    new vertices of one cut, 1e-15 to 8.5e-9 apart.
    """
    # most calls merge nothing: no point from `start` on lies within tol of
    # another point (so of an earlier one), and every point is kept as it is
    new = points[start:]
    near = abs(new[:, None, 0] - points[:, 0]) <= tol
    for k in range(1, points.shape[1]):
        near &= abs(new[:, None, k] - points[:, k]) <= tol
    r = np.arange(len(new))
    near[r, start + r] = False
    if not np.logical_or.reduce(near, axis=None):
        return points.copy(), incidence.copy()
    kept, kept_inc = points.copy(), incidence.copy()
    n = start
    for i in range(start, len(points)):
        close = np.flatnonzero(abs(kept[:n] - points[i]).max(axis=1) <= tol)
        if close.size:
            kept_inc[close[0]] |= incidence[i]
        else:
            kept[n], kept_inc[n] = points[i], incidence[i]
            n += 1
    return kept[:n], kept_inc[:n]


@dataclass(frozen=True, eq=False)  # == and hash by identity: fields are arrays
class Polytope:
    """Immutable bounded polytope with simultaneous H- and V-representation."""

    halfspaces: tuple[Halfspace, ...]
    vertices_array: np.ndarray  # (m, q), rows in lexicographic order
    incidence: np.ndarray       # (m, n_halfspaces) bool, True where active
    origin: np.ndarray          # (m,) int: row of the polytope cut, or -1

    @property
    def dim(self) -> int:
        return self.vertices_array.shape[1]

    def vertices(self) -> np.ndarray:
        """Vertex rows in deterministic (lexicographic) order."""
        return self.vertices_array.copy()


def simplex(halfspaces) -> Polytope:
    """The simplex bounded by q + 1 halfspaces in general position.

    Each vertex solves the q x q system of every halfspace but one and is
    active on exactly those; a singular system raises LinAlgError.
    """
    hs = tuple(halfspaces)
    A = np.vstack([h.normal for h in hs])
    b = np.array([h.offset for h in hs])
    combos = np.array(list(combinations(range(len(hs)), len(hs) - 1)))
    verts = np.linalg.solve(A[combos], b[combos][..., None])[..., 0]
    incidence = np.zeros((len(hs), len(hs)), dtype=bool)
    np.put_along_axis(incidence, combos, True, axis=1)
    order = _lex_order(verts)
    return Polytope(hs, verts[order], incidence[order], np.full(len(hs), -1))


def cut(P: Polytope, h: Halfspace) -> Polytope:
    """Intersect P with one more halfspace, updating vertices incrementally.

    Vertices strictly violating h are dropped; each edge crossing the cut
    boundary contributes one new vertex; only new vertices are merged.  A
    surviving row is copied bit for bit, and the result's origin gives its
    row in P (-1 for a new vertex).  A cut that removes no vertex raises
    NullCutError, one that removes every vertex InfeasibleError.
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

    if not np.logical_or.reduce(outside):
        raise NullCutError("cut removes no vertex")
    if np.logical_and.reduce(outside):
        raise InfeasibleError("cut removes every vertex")

    # the new halfspace (last column) is active on its boundary and at new
    # vertices; edges are (inside, outside) pairs sharing >= q-1 halfspaces.
    # A shared halfspace is active at the edge's outside vertex, so only the
    # columns active at some outside vertex are counted.
    inc = np.column_stack([P.incidence, on_boundary])
    inside = (~outside & ~on_boundary).nonzero()[0]
    beyond = outside.nonzero()[0]
    active = inc[:, np.logical_or.reduce(inc[beyond]).nonzero()[0]]
    a, b = np.nonzero(np.count_nonzero(
        active[inside, None] & active[None, beyond], axis=2) >= q - 1)
    i, j = inside[a], beyond[b]
    t = -s[i] / (s[j] - s[i])
    new_pts = verts[i] + t[:, None] * (verts[j] - verts[i])
    new_inc = inc[i] & inc[j]
    new_inc[:, -1] = True

    kept = (~outside).nonzero()[0]
    out, merged_inc = _merge_close(np.vstack([verts[kept], new_pts]),
                                   np.vstack([inc[kept], new_inc]), MERGE_TOL,
                                   start=len(kept))
    origin = np.append(kept, np.full(len(out) - len(kept), -1))
    order = _lex_order(out)
    return Polytope(P.halfspaces + (h,), out[order], merged_inc[order],
                    origin[order])
