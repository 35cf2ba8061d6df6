from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cut_reference
from cut_reference import from_halfspaces
from lpoa import polytope
from lpoa.analysis import verify_trace
from lpoa.driver import RunConfig, RunTrace, run
from lpoa.polytope import (FEAS_TOL, MERGE_TOL, Halfspace, InfeasibleError,
                           NullCutError, _merge_close, cut, simplex)
from lpoa.trace_io import trace_from_dict, trace_to_dict


def box(q, lo=0.0, hi=1.0):
    hs = []
    for i in range(q):
        e = np.zeros(q)
        e[i] = 1.0
        hs.append(Halfspace(e, hi))
        hs.append(Halfspace(-e, -lo))
    return hs


def cut_in_turn(P, halfspaces):
    """P cut by each halfspace in turn; a cut that removes no vertex leaves
    P as it is, and one that removes every vertex raises InfeasibleError."""
    for h in halfspaces:
        try:
            P = cut(P, h)
        except NullCutError:
            pass
    return P


def contains(P, y, tol=1e-7):
    """Whether y satisfies every halfspace of P, to tol relative to the
    offsets."""
    A = np.vstack([h.normal for h in P.halfspaces])
    b = np.array([h.offset for h in P.halfspaces])
    scale = np.maximum(1.0, np.abs(b))
    return bool(np.all(A @ np.asarray(y, dtype=float) <= b + tol * scale))


def brute_force_vertices(halfspaces, tol=1e-7):
    """Oracle: all feasible q-subset intersection points, deduplicated."""
    A = np.vstack([h.normal for h in halfspaces])
    b = np.array([h.offset for h in halfspaces])
    q = A.shape[1]
    pts = []
    for combo in combinations(range(len(halfspaces)), q):
        M = A[list(combo)]
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, b[list(combo)])
        scale = np.maximum(1.0, np.abs(b)) * max(1.0, np.abs(x).max())
        if np.all(A @ x <= b + FEAS_TOL * scale):
            pts.append(x)
    out = []
    for p in pts:
        if not any(np.max(np.abs(p - o)) <= tol for o in out):
            out.append(p)
    return np.array(sorted(out, key=tuple))


def assert_vertex_sets_equal(got, expected, tol=1e-7):
    assert len(got) == len(expected)
    used = set()
    for v in got:
        match = [i for i in range(len(expected))
                 if i not in used and np.max(np.abs(expected[i] - v)) <= tol]
        assert match, f"vertex {v} not in oracle set"
        used.add(match[0])


class TestHalfspace:
    def test_roundtrip(self):
        # the trace's dict form of the final polytope, through trace_io
        hs = box(2) + [Halfspace(np.array([1.0, 1.0]), 1.5)]
        P = from_halfspaces(hs)
        trace = RunTrace(config=RunConfig(problem_key="example1-q2", p=2.0,
                                          epsilon=1e-3),
                         iterations=(), final_polytope=P,
                         termination="solver_failure")
        P2 = trace_from_dict(trace_to_dict(trace)).final_polytope
        for h, h2 in zip(P.halfspaces, P2.halfspaces, strict=True):
            assert np.array_equal(h.normal, h2.normal)
            assert h.offset == h2.offset
        assert np.array_equal(P.vertices_array, P2.vertices_array)
        assert P2.incidence.dtype == bool
        assert np.array_equal(P.incidence, P2.incidence)
        # the trace keeps no row map: every loaded row is new
        assert np.array_equal(P2.origin, np.full(len(P2.vertices_array), -1))

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            Halfspace(np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            Halfspace(np.array([np.nan, 1.0]), 1.0)


class TestEquality:
    """Halfspace and Polytope hold ndarrays, so == and hash are by identity."""

    def test_halfspace(self):
        h = Halfspace(np.array([1.0, -2.0]), 3.0)
        same = Halfspace(np.array([1.0, -2.0]), 3.0)
        assert h == h
        assert (h == same) is False
        assert len({h, same}) == 2

    def test_polytope(self):
        P = from_halfspaces(box(2))
        assert P == P
        assert (P == from_halfspaces(P.halfspaces)) is False
        assert hash(P) == hash(P)


class TestFromHalfspaces:
    def test_unit_square(self):
        P = from_halfspaces(box(2))
        expected = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        assert_vertex_sets_equal(P.vertices(), expected)
        assert P.incidence.shape == (4, 4)
        assert np.all(P.incidence.sum(axis=1) == 2)

    def test_unit_cube(self):
        P = from_halfspaces(box(3))
        assert len(P.vertices()) == 8
        assert np.all(P.incidence.sum(axis=1) == 3)

    def test_triangle(self):
        # the simplex builder: each vertex is active on every halfspace but
        # one, and a singular system is an error
        hs = [Halfspace(np.array([-1.0, 0.0]), 0.0),
              Halfspace(np.array([0.0, -1.0]), 0.0),
              Halfspace(np.array([1.0, 1.0]), 1.0)]
        P = simplex(hs)
        assert np.array_equal(P.vertices_array, [[0, 0], [0, 1], [1, 0]])
        assert np.array_equal(P.incidence, [[True, True, False],
                                            [True, False, True],
                                            [False, True, True]])
        assert np.array_equal(P.origin, [-1, -1, -1])
        assert P.halfspaces == tuple(hs)
        with pytest.raises(np.linalg.LinAlgError):
            simplex([Halfspace(np.array([1.0, 0.0]), 1.0),
                     Halfspace(np.array([-1.0, 0.0]), 1.0),
                     Halfspace(np.array([0.0, 1.0]), 1.0)])

    def test_vertices_lex_sorted(self):
        P = from_halfspaces(box(2))
        v = P.vertices()
        assert sorted(map(tuple, v)) == list(map(tuple, v))

    def test_contains(self):
        P = from_halfspaces(box(2))
        assert contains(P, [0.5, 0.5])
        assert contains(P, [1.0, 1.0])
        assert not contains(P, [1.5, 0.5])


class TestCut:
    def test_corner_cut(self):
        P = from_halfspaces(box(2))
        P2 = cut(P, Halfspace(np.array([1.0, 1.0]), 1.5))
        expected = np.array([[0, 0], [0, 1], [0.5, 1], [1, 0], [1, 0.5]])
        assert_vertex_sets_equal(P2.vertices(), expected)
        assert len(P2.halfspaces) == len(P.halfspaces) + 1
        # the new halfspace is active at the two new vertices only
        assert P2.incidence.shape == (5, 5)
        assert np.array_equal(P2.vertices_array[P2.incidence[:, 4]],
                              [[0.5, 1.0], [1.0, 0.5]])

    def test_null_cut_flagged(self):
        # a halfspace containing P, strictly or through a facet or a vertex,
        # removes no vertex: NullCutError, and P is left as it was
        P = from_halfspaces(box(2))
        verts = P.vertices()
        for h in (Halfspace(np.array([1.0, 1.0]), 5.0),
                  Halfspace(np.array([1.0, 0.0]), 1.0),
                  Halfspace(np.array([1.0, 1.0]), 2.0)):
            with pytest.raises(NullCutError):
                cut(P, h)
        assert np.array_equal(P.vertices(), verts)
        assert len(P.halfspaces) == 4

    def test_cut_removing_all_raises(self):
        P = from_halfspaces(box(2))
        with pytest.raises(InfeasibleError):
            cut(P, Halfspace(np.array([1.0, 0.0]), -1.0))

    def test_cube_corner(self):
        P = from_halfspaces(box(3))
        P2 = cut(P, Halfspace(np.ones(3), 2.5))
        # one corner clipped: 8 - 1 + 3 = 10 vertices
        assert len(P2.vertices()) == 10

    def test_incremental_matches_batch(self):
        rng = np.random.default_rng(3)
        P = from_halfspaces(box(2, lo=-1.0, hi=1.0))
        hs = list(P.halfspaces)
        for _ in range(12):
            n = rng.normal(size=2)
            if np.linalg.norm(n) < 1e-6:
                continue
            n /= np.linalg.norm(n)
            h = Halfspace(n, rng.uniform(0.3, 1.2))
            try:
                P = cut(P, h)
            except NullCutError:
                continue
            hs.append(h)
            oracle = brute_force_vertices(hs)
            assert_vertex_sets_equal(P.vertices(), oracle)


@pytest.mark.parametrize("q", [2, 3])
def test_fuzz_against_brute_force(q):
    """500 random bounded systems, each built by cutting a box in turn,
    match the q-subset enumeration oracle."""
    rng = np.random.default_rng(100 + q)
    built = 0
    trials = 0
    while built < 250 and trials < 4000:
        trials += 1
        m = int(rng.integers(q + 1, q + 7))
        normals = rng.normal(size=(m, q))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = rng.uniform(0.2, 2.0, size=m)
        hs = [Halfspace(n, o) for n, o in zip(normals, offsets)]
        # enclose in a box to guarantee boundedness
        hs += box(q, lo=-3.0, hi=3.0)
        try:
            P = cut_in_turn(from_halfspaces(hs[m:]), hs[:m])
        except InfeasibleError:
            continue
        built += 1
        oracle = brute_force_vertices(hs)
        assert_vertex_sets_equal(P.vertices(), oracle)
    assert built == 250


def incidence_lists(incidence):
    return [np.flatnonzero(row).tolist() for row in incidence]


def fuzz_cut(rng, verts, kind):
    """A cut of the given kind for a polytope with vertex rows verts: a
    random halfspace, one through a vertex, or one 3e-9 from a vertex (on
    either side), so that on-boundary vertices and merges occur."""
    n = rng.normal(size=verts.shape[1])
    n /= np.linalg.norm(n)
    proj = verts @ n
    if kind == "random":
        lo, hi = proj.min(), proj.max()
        return Halfspace(n, lo + (hi - lo) * rng.uniform(0.6, 1.1))
    v = proj[int(rng.integers(len(verts)))]
    if kind == "near":
        v += rng.choice([-3e-9, 3e-9])
    return Halfspace(n, v)


@pytest.mark.parametrize("q", [2, 3])
def test_cut_matches_reference(q, monkeypatch):
    """Chains of seeded cuts give byte-equal vertices, equal incidence and
    the same null or emptying outcome as the frozenset reference, and a row
    map that sends each surviving row to its bit-equal row of the cut
    polytope and marks exactly the created vertices -1; chains of random
    cuts also match the q-subset enumeration oracle."""
    events = {"on_boundary": 0, "merged": 0}
    merge = polytope._merge_close

    def counted_merge(points, incidence, tol, start=0):
        out = merge(points, incidence, tol, start)
        events["on_boundary"] += int(incidence[:start, -1].sum())
        events["merged"] += len(points) - len(out[0])
        return out

    monkeypatch.setattr(polytope, "_merge_close", counted_merge)
    outcomes = {"cut": 0, "null": 0, "empty": 0}
    for seed in range(30):
        rng = np.random.default_rng([q, seed])
        kind = ("random", "vertex", "near")[seed % 3]
        P = from_halfspaces(box(q, lo=-rng.uniform(1.0, 4.0),
                                hi=rng.uniform(1.0, 4.0)))
        ref = (P.vertices_array,
               tuple(frozenset(row) for row in incidence_lists(P.incidence)))
        for _ in range(25):
            h = fuzz_cut(rng, P.vertices_array, kind)
            try:
                expected = cut_reference.cut(*ref, len(P.halfspaces), h)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    cut(P, h)
                outcomes["empty"] += 1
                continue
            if expected is None:
                with pytest.raises(NullCutError):
                    cut(P, h)
                outcomes["null"] += 1
                continue
            before, P = P.vertices_array, cut(P, h)
            assert P.vertices_array.tobytes() == expected[0].tobytes()
            kept = P.origin >= 0
            assert P.origin.shape == (len(P.vertices_array),)
            assert len(set(P.origin[kept])) == np.count_nonzero(kept)
            assert P.vertices_array[kept].tobytes() == before[
                P.origin[kept]].tobytes()
            old_rows = {row.tobytes() for row in before}
            assert [row.tobytes() not in old_rows
                    for row in P.vertices_array] == (~kept).tolist()
            assert P.incidence.shape == (len(expected[0]), len(P.halfspaces))
            assert incidence_lists(P.incidence) == [sorted(s)
                                                    for s in expected[1]]
            ref = expected
            outcomes["cut"] += 1
        if kind == "random":
            assert_vertex_sets_equal(P.vertices(),
                                     brute_force_vertices(P.halfspaces))
    assert min(outcomes.values()) > 0, outcomes
    assert min(events.values()) > 0, events


# ---------------------------------------------------------------------------
# vertex merging


def merge_close_reference(points, incidence, tol):
    """The original pairwise loop: greedy in input order, each point joins
    the first kept point within tol in l_inf, or-ing its incidence row."""
    kept_pts = []
    kept_inc = []
    for pt, inc in zip(points, incidence):
        for j, other in enumerate(kept_pts):
            if np.max(np.abs(other - pt)) <= tol:
                kept_inc[j] = kept_inc[j] | inc
                break
        else:
            kept_pts.append(pt)
            kept_inc.append(inc)
    return kept_pts, kept_inc


PLANT_FACTORS = (0.5, 0.999, 1.001)


def planted_cloud(seed, q, n_base, n_plant):
    """Random points plus near-duplicates of earlier points (planted ones
    included, so chains occur) at PLANT_FACTORS * MERGE_TOL in l_inf;
    returns the shuffled points and random boolean incidence rows over 12
    halfspaces."""
    rng = np.random.default_rng(seed)
    pts = list(rng.uniform(-5.0, 5.0, size=(n_base, q)))
    for _ in range(n_plant):
        src = pts[int(rng.integers(len(pts)))]
        f = PLANT_FACTORS[int(rng.integers(len(PLANT_FACTORS)))]
        off = rng.uniform(-0.5, 0.5, size=q) * f * MERGE_TOL
        off[int(rng.integers(q))] = rng.choice([-1.0, 1.0]) * f * MERGE_TOL
        pts.append(src + off)
    order = rng.permutation(len(pts))
    points = np.array(pts)[order]
    incidence = rng.random((len(points), 12)) < 0.2
    return points, incidence


class TestMergeClose:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), q=st.sampled_from([2, 3]),
           n_base=st.integers(1, 40), n_plant=st.integers(0, 40))
    def test_matches_reference(self, seed, q, n_base, n_plant):
        points, incidence = planted_cloud(seed, q, n_base, n_plant)
        got_pts, got_inc = _merge_close(points, incidence, MERGE_TOL)
        ref_pts, ref_inc = merge_close_reference(points, incidence, MERGE_TOL)
        assert got_pts.tobytes() == np.array(ref_pts).tobytes()
        assert np.array_equal(got_inc, np.array(ref_inc))

    def test_planted_clouds_merge_some_and_keep_some(self):
        # the clouds exercise both branches: some plants merge (0.5x,
        # 0.999x) and some stay apart from their source (1.001x)
        for seed in range(20):
            points, incidence = planted_cloud(seed, 3, 30, 30)
            got_pts, _ = _merge_close(points, incidence, MERGE_TOL)
            assert 30 < len(got_pts) < len(points)

    def test_greedy_not_transitive(self):
        # b is within tol of a and c is within tol of b, but c is compared
        # with the kept point a only, so it stays
        a = np.array([0.0, 0.0])
        b = a + [0.6 * MERGE_TOL, 0.0]
        c = a + [1.2 * MERGE_TOL, 0.0]
        pts, inc = _merge_close(np.array([a, b, c]), np.eye(3, dtype=bool),
                                MERGE_TOL)
        assert np.array_equal(pts, [a, c])
        assert np.array_equal(inc, [[True, True, False], [False, False, True]])

    def test_merge_after_separated_prefix(self):
        # a prefix pairwise farther apart than tol, as every merge output
        # is, need not be re-merged: merging only the points after it gives
        # the full greedy merge
        merged = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            points, incidence = planted_cloud(seed, 3, 30, 30)
            prefix, prefix_inc = _merge_close(points, incidence, MERGE_TOL)
            # new points with near-duplicates among themselves, half of
            # them moved to within 2 * tol of a prefix point
            new, new_inc = planted_cloud(seed + 100, 3, 10, 10)
            near = rng.uniform(-2.0, 2.0, (10, 3)) * MERGE_TOL
            new[::2] = prefix[:10] + near
            pts = np.vstack([prefix, new])
            inc = np.vstack([prefix_inc, new_inc])
            got = _merge_close(pts, inc, MERGE_TOL, start=len(prefix))
            full = _merge_close(pts, inc, MERGE_TOL)
            assert got[0].tobytes() == full[0].tobytes()
            assert np.array_equal(got[1], full[1])
            merged += len(pts) - len(got[0])
        assert merged > 0

    def test_real_run_merges(self, monkeypatch):
        # example2 at p = 1.25 merges two new vertices of the cut at k = 140
        # and still converges with every lemma check clean
        merged = []

        def counting_merge(points, incidence, tol, start=0):
            out = _merge_close(points, incidence, tol, start)
            merged.append(len(points) - len(out[0]))
            return out

        monkeypatch.setattr(polytope, "_merge_close", counting_merge)
        trace = run(RunConfig(problem_key="example2", p=1.25, epsilon=0.0354))
        assert sum(merged) >= 1
        assert trace.termination == "converged"
        assert verify_trace(trace)["total_violations"] == 0


def test_incremental_matches_rebuild_example2(trace_example2_eps03):
    """After a real run, the incrementally cut polytope has the vertex set
    (within 1e-10) and the incidence of the polytope rebuilt from its
    halfspaces."""
    assert len(trace_example2_eps03.iterations) == 27
    final = trace_example2_eps03.final_polytope
    rebuilt = from_halfspaces(final.halfspaces)
    assert_vertex_sets_equal(final.vertices(), rebuilt.vertices(), tol=1e-10)
    for v, row in zip(final.vertices_array, final.incidence):
        match = np.abs(rebuilt.vertices_array - v).max(axis=1) <= 1e-10
        assert np.array_equal(row, rebuilt.incidence[np.argmax(match)])
