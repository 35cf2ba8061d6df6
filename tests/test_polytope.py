from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpoa.polytope import (FEAS_TOL, MERGE_TOL, Halfspace, InfeasibleError,
                           Polytope, UnboundedError, _merge_close, cut,
                           from_halfspaces)


def box(q, lo=0.0, hi=1.0):
    hs = []
    for i in range(q):
        e = np.zeros(q)
        e[i] = 1.0
        hs.append(Halfspace(e, hi))
        hs.append(Halfspace(-e, -lo))
    return hs


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
        h = Halfspace(np.array([1.0, -2.0]), 3.0)
        h2 = Halfspace.from_dict(h.to_dict())
        assert np.array_equal(h.normal, h2.normal)
        assert h.offset == h2.offset

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
        assert all(len(inc) >= 2 for inc in P.incidence)

    def test_unit_cube(self):
        P = from_halfspaces(box(3))
        assert len(P.vertices()) == 8
        assert all(len(inc) >= 3 for inc in P.incidence)

    def test_triangle(self):
        hs = [Halfspace(np.array([-1.0, 0.0]), 0.0),
              Halfspace(np.array([0.0, -1.0]), 0.0),
              Halfspace(np.array([1.0, 1.0]), 1.0)]
        P = from_halfspaces(hs)
        expected = np.array([[0, 0], [0, 1], [1, 0]], dtype=float)
        assert_vertex_sets_equal(P.vertices(), expected)

    def test_unbounded_detected(self):
        hs = [Halfspace(np.array([1.0, 0.0]), 1.0),
              Halfspace(np.array([-1.0, 0.0]), 1.0),
              Halfspace(np.array([0.0, 1.0]), 1.0)]
        with pytest.raises(UnboundedError) as exc:
            from_halfspaces(hs)
        d = exc.value.direction
        assert d is not None
        A = np.vstack([h.normal for h in hs])
        assert np.all(A @ d <= 1e-6)

    def test_infeasible_detected(self):
        hs = box(2) + [Halfspace(np.array([1.0, 0.0]), -1.0)]
        with pytest.raises(InfeasibleError):
            from_halfspaces(hs)

    def test_vertices_lex_sorted(self):
        P = from_halfspaces(box(2))
        v = P.vertices()
        assert sorted(map(tuple, v)) == list(map(tuple, v))

    def test_contains(self):
        P = from_halfspaces(box(2))
        assert P.contains([0.5, 0.5])
        assert P.contains([1.0, 1.0])
        assert not P.contains([1.5, 0.5])


class TestCut:
    def test_corner_cut(self):
        P = from_halfspaces(box(2))
        P2 = cut(P, Halfspace(np.array([1.0, 1.0]), 1.5))
        expected = np.array([[0, 0], [0, 1], [0.5, 1], [1, 0], [1, 0.5]])
        assert_vertex_sets_equal(P2.vertices(), expected)
        assert not P2.null_cut
        assert len(P2.halfspaces) == len(P.halfspaces) + 1

    def test_null_cut_flagged(self):
        P = from_halfspaces(box(2))
        P2 = cut(P, Halfspace(np.array([1.0, 1.0]), 5.0))
        assert P2.null_cut
        assert np.array_equal(P2.vertices(), P.vertices())

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
            P2 = cut(P, h)
            if P2.null_cut:
                continue
            P = P2
            hs.append(h)
            oracle = brute_force_vertices(hs)
            assert_vertex_sets_equal(P.vertices(), oracle)


@pytest.mark.parametrize("q", [2, 3])
def test_fuzz_against_brute_force(q):
    """500 random bounded systems match the q-subset enumeration oracle."""
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
            P = from_halfspaces(hs)
        except InfeasibleError:
            continue
        built += 1
        oracle = brute_force_vertices(hs)
        assert_vertex_sets_equal(P.vertices(), oracle)
    assert built == 250


# ---------------------------------------------------------------------------
# vertex merging


def merge_close_reference(points, incidences, tol):
    """The original pairwise loop: greedy in input order, each point joins
    the first kept point within tol in l_inf."""
    kept_pts = []
    kept_inc = []
    for pt, inc in zip(points, incidences):
        for j, other in enumerate(kept_pts):
            if np.max(np.abs(other - pt)) <= tol:
                kept_inc[j] |= set(inc)
                break
        else:
            kept_pts.append(pt)
            kept_inc.append(set(inc))
    return kept_pts, [frozenset(s) for s in kept_inc]


PLANT_FACTORS = (0.5, 0.999, 1.001)


def planted_cloud(seed, q, n_base, n_plant):
    """Random points plus near-duplicates of earlier points (planted ones
    included, so chains occur) at PLANT_FACTORS * MERGE_TOL in l_inf;
    returns the shuffled points and random incidence sets."""
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
    incidences = [frozenset(rng.choice(12, size=int(rng.integers(1, 4)),
                                       replace=False).tolist())
                  for _ in range(len(points))]
    return points, incidences


class TestMergeClose:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), q=st.sampled_from([2, 3]),
           n_base=st.integers(1, 40), n_plant=st.integers(0, 40))
    def test_matches_reference(self, seed, q, n_base, n_plant):
        points, incidences = planted_cloud(seed, q, n_base, n_plant)
        got_pts, got_inc = _merge_close(points, incidences, MERGE_TOL)
        ref_pts, ref_inc = merge_close_reference(points, incidences, MERGE_TOL)
        assert got_pts.tobytes() == np.array(ref_pts).tobytes()
        assert got_inc == ref_inc

    def test_planted_clouds_merge_some_and_keep_some(self):
        # the clouds exercise both branches: some plants merge (0.5x,
        # 0.999x) and some stay apart from their source (1.001x)
        for seed in range(20):
            points, incidences = planted_cloud(seed, 3, 30, 30)
            got_pts, _ = _merge_close(points, incidences, MERGE_TOL)
            assert 30 < len(got_pts) < len(points)

    def test_greedy_not_transitive(self):
        # b is within tol of a and c is within tol of b, but c is compared
        # with the kept point a only, so it stays
        a = np.array([0.0, 0.0])
        b = a + [0.6 * MERGE_TOL, 0.0]
        c = a + [1.2 * MERGE_TOL, 0.0]
        pts, inc = _merge_close(np.array([a, b, c]),
                                [frozenset({0}), frozenset({1}),
                                 frozenset({2})], MERGE_TOL)
        assert np.array_equal(pts, [a, c])
        assert inc == [frozenset({0, 1}), frozenset({2})]


def test_incremental_matches_rebuild_example2(trace_example2_eps03):
    """After a real run, the incrementally cut polytope has the vertex set
    of the polytope rebuilt from its halfspaces (within 1e-10)."""
    assert len(trace_example2_eps03.iterations) == 27
    final = trace_example2_eps03.final_polytope
    rebuilt = from_halfspaces(final.halfspaces)
    assert_vertex_sets_equal(final.vertices(), rebuilt.vertices(), tol=1e-10)
