"""Bounded polytopes in H- and V-representation with incremental cuts.

A Polytope keeps the full halfspace list, the exact vertex set and a boolean
incidence array (which halfspaces are active at each vertex).  Construction
from scratch enumerates q-subsets of halfspaces, after checking the recession
cone through the null vectors of (q - 1)-subsets, and rejects an empty
interior from the enumerated vertices; no linear program is solved.  Adding a
single halfspace clips the vertex/edge structure in array operations, which
is the only access pattern the outer-approximation driver needs.

Arithmetic is floating point with relative tolerances; q = 2 and 3 are the
supported dimensions (higher q is attempted on a best-effort basis).
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
    "UnboundedError",
    "from_halfspaces",
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


class UnboundedError(PolytopeError):
    def __init__(self, msg, direction=None):
        super().__init__(msg)
        self.direction = direction


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
    than tol, as every output is) are kept unchecked.
    """
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

    @property
    def dim(self) -> int:
        return self.vertices_array.shape[1]

    def vertices(self) -> np.ndarray:
        """Vertex rows in deterministic (lexicographic) order."""
        return self.vertices_array.copy()


def _feas_tolerances(A: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Per-(halfspace, point) absolute tolerance, relative to magnitudes."""
    row_scale = np.maximum(1.0, np.abs(b))
    pt_scale = np.maximum(1.0, np.abs(pts).max(axis=1))
    return FEAS_TOL * np.outer(row_scale, pt_scale)


def _check_bounded(A: np.ndarray) -> None:
    """Raise UnboundedError with a direction if {d : A d <= 0} != {0}.

    The candidates are the last right singular vectors of all (q - 1)-row
    subsets of A, each a unit vector of the subset's null space, with both
    signs.  A nonzero cone is either pointed, and then spanned by extreme
    rays, each the null vector of q - 1 independent rows; or it contains
    the null space of A (rank A < q), which is the whole null space of any
    subset holding a basis of A's rows.  Either way some candidate lies in
    the cone.
    """
    q = A.shape[1]
    unit = A / np.linalg.norm(A, axis=1, keepdims=True)
    subsets = unit[np.array(list(combinations(range(len(A)), q - 1)))]
    cand = np.linalg.svd(subsets)[2][:, -1, :]  # (n_subset, q), unit rows
    cand = np.vstack([cand, -cand])
    in_cone = np.all(unit @ cand.T <= FEAS_TOL, axis=0)
    if np.any(in_cone):
        d = cand[np.argmax(in_cone)]
        raise UnboundedError(
            "halfspace intersection has a recession direction",
            direction=d / np.max(np.abs(d)),
        )


def from_halfspaces(halfspaces) -> Polytope:
    """Build a bounded polytope as the intersection of the given halfspaces.

    Raises UnboundedError (with a recession direction) when the intersection
    has a recession direction, decided from the cone {d : A d <= 0} alone.
    Otherwise the vertices are found by enumerating all q-subsets, solving
    the q x q systems and filtering by feasibility; InfeasibleError is
    raised when no vertex is feasible or the vertex centroid lies on some
    halfspace's boundary, i.e. when the intersection has empty interior.
    """
    hs = tuple(halfspaces)
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

    combos = np.array(list(combinations(range(m), q)))
    mats = A[combos]                      # (n_combo, q, q)
    rhs = b[combos]                       # (n_combo, q)
    dets = np.linalg.det(mats)
    row_norms = np.linalg.norm(mats, axis=2)
    nondeg = np.abs(dets) > 1e-12 * np.prod(np.maximum(row_norms, 1e-30), axis=1)
    pts = np.linalg.solve(mats[nondeg], rhs[nondeg][..., None])[..., 0]

    tol = _feas_tolerances(A, b, pts)
    feas = np.all(A @ pts.T - b[:, None] <= tol, axis=0)
    pts = pts[feas]
    if len(pts) == 0:
        raise InfeasibleError("halfspace intersection has no vertices")

    act_tol = _feas_tolerances(A, b, pts)
    active = np.abs(A @ pts.T - b[:, None]) <= act_tol

    verts, incidence = _merge_close(pts, active.T, MERGE_TOL)
    # the centroid of a bounded polytope's vertices is interior unless the
    # polytope is flat, when some halfspace holds with equality there
    slack = (b - A @ verts.mean(axis=0)) / np.linalg.norm(A, axis=1)
    if slack.min() <= 1e-12:
        raise InfeasibleError("halfspace intersection has empty interior")
    order = _lex_order(verts)
    return Polytope(hs, verts[order], incidence[order])


def cut(P: Polytope, h: Halfspace) -> Polytope:
    """Intersect P with one more halfspace, updating vertices incrementally.

    Vertices strictly violating h are dropped; each edge crossing the cut
    boundary contributes one new vertex; only new vertices are merged.  A
    cut that removes no vertex raises NullCutError, one that removes every
    vertex InfeasibleError.
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
        raise NullCutError("cut removes no vertex")
    if np.all(outside):
        raise InfeasibleError("cut removes every vertex")

    # the new halfspace (last column) is active on its boundary and at new
    # vertices; edges are (inside, outside) pairs sharing >= q-1 halfspaces
    inc = np.column_stack([P.incidence, on_boundary])
    inside = np.flatnonzero(~outside & ~on_boundary)
    shared = inc[inside, None] & inc[None, outside]
    a, b = np.nonzero(np.count_nonzero(shared, axis=2) >= q - 1)
    i, j = inside[a], np.flatnonzero(outside)[b]
    t = -s[i] / (s[j] - s[i])
    new_pts = verts[i] + t[:, None] * (verts[j] - verts[i])
    new_inc = shared[a, b]
    new_inc[:, -1] = True

    kept = ~outside
    out, merged_inc = _merge_close(np.vstack([verts[kept], new_pts]),
                                   np.vstack([inc[kept], new_inc]), MERGE_TOL,
                                   start=np.count_nonzero(kept))
    order = _lex_order(out)
    return Polytope(P.halfspaces + (h,), out[order], merged_inc[order])
