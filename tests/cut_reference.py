"""Reference polytope constructions for the tests.

from_halfspaces builds a polytope from any bounded halfspace system by
enumerating q-subsets.  It is the general constructor that lpoa.polytope
replaced with a simplex builder, because the driver only ever builds one
simplex and then cuts it; tests use it to build boxes and to rebuild a cut
polytope from its halfspaces.

cut keeps one frozenset of active halfspaces per vertex, finds the edges in
a Python loop over (inside, outside) vertex pairs, and re-merges every
vertex.  This is the implementation that lpoa.polytope.cut replaced with
array operations on a boolean incidence array, kept verbatim apart from its
signature: it takes and returns plain vertex rows and incidence sets, and
returns None for a cut that removes no vertex.  Tests compare the two
bit for bit.
"""

from itertools import combinations

import numpy as np

from lpoa.polytope import (FEAS_TOL, MERGE_TOL, InfeasibleError, Polytope,
                           _lex_order, _merge_close)


def _feas_tolerances(A, b, pts):
    """Per-(halfspace, point) absolute tolerance, relative to magnitudes."""
    row_scale = np.maximum(1.0, np.abs(b))
    pt_scale = np.maximum(1.0, np.abs(pts).max(axis=1))
    return FEAS_TOL * np.outer(row_scale, pt_scale)


def from_halfspaces(halfspaces):
    """The polytope bounded by the given halfspaces, which must bound it.

    The vertices are found by enumerating all q-subsets, solving the q x q
    systems and filtering by feasibility; InfeasibleError is raised when no
    vertex is feasible or the vertex centroid lies on some halfspace's
    boundary, i.e. when the intersection has empty interior.  An unbounded
    system is not detected.
    """
    hs = tuple(halfspaces)
    A = np.vstack([h.normal for h in hs])
    b = np.array([h.offset for h in hs])
    q = A.shape[1]

    combos = np.array(list(combinations(range(len(hs)), q)))
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
    return Polytope(hs, verts[order], incidence[order],
                    np.full(len(verts), -1))


def merge_close(points, incidences, tol):
    """Deduplicate points closer than tol in l_inf, unioning incidence sets.

    Greedy in input order: each point joins the first kept point within tol,
    otherwise it is kept.  Returns the kept rows as an array and their merged
    incidence sets.
    """
    kept = np.empty(points.shape)
    kept_inc = []
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


def cut(verts, incidence, n_halfspaces, h):
    """Cut the polytope with vertex rows `verts`, incidence sets `incidence`
    and `n_halfspaces` halfspaces by h; returns the new vertex rows and
    incidence sets, None for a null cut, and raises InfeasibleError for a
    cut that removes every vertex."""
    q = verts.shape[1]
    s = verts @ h.normal - h.offset
    scale = FEAS_TOL * np.maximum(1.0, np.abs(h.offset)) * np.maximum(
        1.0, np.abs(verts).max(axis=1))
    outside = s > scale
    on_boundary = np.abs(s) <= scale

    if not np.any(outside):
        return None
    if np.all(outside):
        raise InfeasibleError("cut removes every vertex")

    new_index = n_halfspaces
    kept_pts = []
    kept_inc = []
    for i in np.nonzero(~outside)[0]:
        inc = incidence[i] | {new_index} if on_boundary[i] else incidence[i]
        kept_pts.append(verts[i])
        kept_inc.append(frozenset(inc))

    # edges join vertices sharing >= q-1 active halfspaces
    inside_idx = np.nonzero(~outside & ~on_boundary)[0]
    outside_idx = np.nonzero(outside)[0]
    new_pts = []
    new_inc = []
    for i in inside_idx:
        for j in outside_idx:
            shared = incidence[i] & incidence[j]
            if len(shared) < q - 1:
                continue
            t = -s[i] / (s[j] - s[i])
            pt = verts[i] + t * (verts[j] - verts[i])
            new_pts.append(pt)
            new_inc.append(frozenset(shared | {new_index}))

    all_pts = kept_pts + new_pts
    all_inc = kept_inc + new_inc
    out, merged_inc = merge_close(np.array(all_pts), all_inc, MERGE_TOL)
    order = _lex_order(out)
    return out[order], tuple(merged_inc[i] for i in order)
