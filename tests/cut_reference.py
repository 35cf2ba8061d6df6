"""Reference cut: one frozenset of active halfspaces per vertex, the edges
found in a Python loop over (inside, outside) vertex pairs, and every vertex
re-merged.

This is the implementation that lpoa.polytope.cut replaced with array
operations on a boolean incidence array, kept verbatim apart from its
signature: it takes and returns plain vertex rows and incidence sets, and
returns None for a cut that removes no vertex.  Tests compare the two
bit for bit.
"""

import numpy as np

from lpoa.polytope import FEAS_TOL, MERGE_TOL, InfeasibleError, _lex_order


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
