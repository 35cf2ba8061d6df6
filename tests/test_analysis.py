import dataclasses
import json
import math

import numpy as np
import pytest

from lpoa.analysis import fit_rate, monotone_envelope, verify_trace
from lpoa.driver import (IterationRecord, RunConfig, RunTrace,
                         hausdorff_series, run)
from lpoa.lp_geometry import NormExponent, lp_norm

from pairwise_reference import negate_every_third_normal, reference_report


@pytest.fixture(scope="module")
def trace():
    return run(RunConfig(problem_key="example1-q2", p=2.0, epsilon=1e-3))


def cut_trace(points, normals, residuals, p=2.0) -> RunTrace:
    """A hand-made example1-q2 trace whose iteration k cuts at points[k]
    with normal normals[k] at error level residuals[k]."""
    records = tuple(
        IterationRecord(k=k, farthest_vertex=np.asarray(y, dtype=float),
                        residual_norm=float(r),
                        support_point=np.asarray(y, dtype=float),
                        cut_normal=np.asarray(w, dtype=float),
                        vertex_count=3, cache_hits=0,
                        wall_ms=0.0)
        for k, (y, w, r) in enumerate(zip(points, normals, residuals)))
    return RunTrace(config=RunConfig(problem_key="example1-q2", p=p,
                                     epsilon=1e-6),
                    iterations=records, final_polytope=None,
                    termination="converged")


def arc_trace(n: int) -> RunTrace:
    """n cuts supporting the unit disk + R^2_+ along its lower-left arc."""
    theta = np.linspace(0.05, 0.5 * np.pi - 0.05, n)
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    return cut_trace(-normals, normals, 1.0 / np.arange(1, n + 1))


def parallel_trace(n: int, p: float) -> RunTrace:
    """n cuts with one normal at random offsets along it: thousands of
    hyperplane and part (i) entries, each carrying a distance or bound."""
    rng = np.random.default_rng(7)
    points = np.column_stack([-np.sort(rng.uniform(0.0, 0.1, n)),
                              rng.uniform(-1.0, 0.0, n)])
    return cut_trace(points, np.tile([1.0, 0.0], (n, 1)),
                     np.exp(rng.uniform(-12.0, -4.0, n)), p=p)


def scale_every_third_normal(trace: RunTrace, factor: float) -> RunTrace:
    """The trace with the cut normal of every iteration k = 0 mod 3 scaled
    by factor, off the dual unit sphere."""
    its = tuple(dataclasses.replace(r, cut_normal=factor * r.cut_normal)
                if r.k % 3 == 0 else r for r in trace.iterations)
    return dataclasses.replace(trace, iterations=its)


def assert_matches_reference(trace: RunTrace, eta: float) -> None:
    """verify_trace's report JSON equals the per-pair reference's."""
    got = json.dumps(verify_trace(trace, eta=eta), sort_keys=True)
    want = json.dumps(reference_report(trace, eta=eta), sort_keys=True)
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"reports differ at character {at}: "
                    f"{got[at - 60:at + 60]!r} != {want[at - 60:at + 60]!r}")


def packing_census(alphas, ne: NormExponent, eps_sep: float) -> int:
    """Greedy count of an eps_sep-separated subset of the deviation vectors
    in the lp norm (first-fit in the given order)."""
    if eps_sep <= 0.0:
        raise ValueError("eps_sep must be positive")
    chosen: list[np.ndarray] = []
    for a in np.asarray(alphas, dtype=float):
        if all(lp_norm(a - c, ne) >= eps_sep for c in chosen):
            chosen.append(a)
    return len(chosen)


class TestEnvelope:
    def test_running_minimum(self):
        assert monotone_envelope([3.0, 5.0, 2.0, 2.5, 1.0]) == [
            3.0, 3.0, 2.0, 2.0, 1.0]

    def test_idempotent(self):
        s = [4.0, 1.0, 2.0, 0.5]
        e = monotone_envelope(s)
        assert monotone_envelope(e) == e

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            monotone_envelope([])


class TestFitRate:
    @pytest.mark.parametrize("q,c", [(2, 1.0), (2, 2.0), (3, 2.0),
                                     (3, 3.0), (4, 1.5)])
    def test_exact_power_law(self, q, c):
        # delta_k = lam * k^(-c/(q-1)) recovers c and lam exactly
        lam = 0.7
        k = np.arange(1, 101, dtype=float)
        series = lam * k ** (-c / (q - 1))
        fit = fit_rate(series, q=q, epsilon=series[-1] / 10.0)
        assert fit.reliable
        assert fit.c_hat == pytest.approx(c, abs=1e-9)
        assert fit.lambda_hat == pytest.approx(lam, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_window_drops_transient_and_plateau(self):
        # 50 points: skip = max(3, ceil(4)) = 4; plateau delta <= 2 eps cut
        k = np.arange(1, 51, dtype=float)
        series = k ** -1.0
        eps = 0.05  # 2 eps = 0.1 removes k >= 10
        fit = fit_rate(series, q=2, epsilon=eps)
        assert fit.window[0] == 5
        assert fit.window[1] == 9
        assert fit.points_used == 5

    def test_widened_cutoff(self):
        # too few points above 2 eps but enough above 1.2 eps
        k = np.arange(1, 13, dtype=float)
        series = k ** -1.0
        fit = fit_rate(series, q=2, epsilon=1.0 / 12.0)
        assert fit.reliable
        assert fit.points_used >= 5

    def test_unreliable_flag(self):
        fit = fit_rate([1.0, 0.5, 0.25, 0.2, 0.19], q=2, epsilon=1e-6)
        assert not fit.reliable

    def test_degenerate_returns_nan(self):
        fit = fit_rate([1.0, 0.5], q=2, epsilon=10.0)
        assert math.isnan(fit.c_hat)
        assert not fit.reliable

    def test_q_validation(self):
        with pytest.raises(ValueError):
            fit_rate([1.0, 0.5], q=1, epsilon=1e-3)
        with pytest.raises(ValueError):
            fit_rate([], q=2, epsilon=1e-3)


class TestPairs:
    def test_count_and_fields(self, trace):
        report = verify_trace(trace, eta=0.1)
        n = len([r for r in trace.iterations if r.cut_normal is not None])
        assert report["pairs"] == n * (n - 1) // 2
        assert report["hyperplane"]["checked"] == 2 * report["pairs"]
        assert_matches_reference(trace, eta=0.1)

    def test_eta_validation(self, trace):
        with pytest.raises(ValueError):
            verify_trace(trace, eta=0.0)

    def test_every_pair_of_a_long_trace(self):
        # past 632 cuts the per-pair verifier used to check a sample
        report = verify_trace(arc_trace(700), eta=0.1)
        assert report["pairs"] == 700 * 699 // 2 == 244_650
        assert report["hyperplane"]["checked"] == 2 * 244_650

    def test_short_traces(self):
        for n in (0, 1):
            report = verify_trace(arc_trace(n), eta=0.1)
            assert report["pairs"] == 0
            assert report["total_violations"] == 0
            assert_matches_reference(arc_trace(n), eta=0.1)


class TestVerifiers:
    def test_trace_clean(self, trace):
        report = verify_trace(trace, eta=0.1)
        assert report["total_violations"] == 0
        assert report["pairs"] > 100
        assert report["hyperplane"]["violations"] == []
        assert report["separation"]["violations"] == []
        assert report["dual_norm_violations"] == []
        assert 0.0 < report["hyperplane"]["max_slack_ratio"] <= 1.0

    def test_separation_parts_exercised(self, trace):
        sep = verify_trace(trace, eta=0.1)["separation"]
        assert sep["checked_part_i"] > 0
        # frontier normals on this problem all lie in one orthant, so the
        # non-acute branch is vacuous here (exercised synthetically below)
        assert sep["checked_part_ii"] == 0

    def test_detects_corrupted_normal(self, trace):
        # flipping cut normals breaks the support condition d >= 0
        bad = negate_every_third_normal(trace)
        report = verify_trace(bad, eta=0.1)
        kinds = {v["kind"] for v in report["hyperplane"]["violations"]}
        assert "support" in kinds
        assert_matches_reference(bad, eta=0.1)

    def test_synthetic_hyperplane_violation(self):
        # two parallel cuts 1e-3 apart: the hyperplane distance is linear
        # in the offset, the bound quadratic
        report = verify_trace(cut_trace([[0.0, 0.0], [-1e-3, 0.0]],
                                        [[1.0, 0.0], [1.0, 0.0]],
                                        [1.0, 1.0]), eta=0.1)
        assert [(v["kind"], v["which"])
                for v in report["hyperplane"]["violations"]] == [
            ("hyperplane", "d_ij"), ("support", "d_ji")]

    @pytest.mark.parametrize("eta", [0.01, 0.1, 1.0])
    def test_each_violation_kind_matches_reference(self, eta):
        # cuts 1 and 2: parallel and 1e-3 apart at a small error level
        # (hyperplane, support, part i); cuts 0 and 3: orthogonal normals
        # with equal deviation vectors (support, part ii)
        trace = cut_trace(
            [[0.1, 0.0], [0.0, 0.0], [-1e-3, 0.0], [0.0, 0.1]],
            [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [1.0, 1e-4, 1e-4, 1e-4])
        report = verify_trace(trace, eta=eta)
        kinds = {v["kind"] for part in ("hyperplane", "separation")
                 for v in report[part]["violations"]}
        if eta == 0.1:
            assert kinds == {"support", "hyperplane", "part_i", "part_ii"}
        assert_matches_reference(trace, eta=eta)

    @pytest.mark.parametrize("eta", [0.01, 0.1, 1.0])
    def test_synthetic_traces_match_reference(self, eta):
        # the parallel cuts put enough distances and bounds in the report
        # that a last-place difference from lp_norm would show; the scaled
        # normals add dual-norm entries
        for trace in (arc_trace(120), negate_every_third_normal(
                arc_trace(120)), parallel_trace(200, 1.5),
                parallel_trace(200, 3.0)):
            assert_matches_reference(trace, eta=eta)
        for trace, entries in (
                (scale_every_third_normal(arc_trace(120), 1.5), 40),
                (scale_every_third_normal(parallel_trace(200, 3.0), 0.7), 67)):
            report = verify_trace(trace, eta=eta)
            assert len(report["dual_norm_violations"]) == entries
            assert_matches_reference(trace, eta=eta)


class TestPackingCensus:
    def test_greedy_count(self):
        pts = np.array([[0.0, 0.0], [0.05, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert packing_census(pts, NormExponent(2.0), 0.5) == 3
        assert packing_census(pts, NormExponent(2.0), 2.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            packing_census(np.zeros((2, 2)), NormExponent(2.0), 0.0)

    def test_trace_packing_bounded(self, trace):
        # count of eps-separated deviation vectors at error level eps stays
        # within a constant factor of the 2^(q-1) halving bound
        ne = NormExponent(trace.config.p)
        series = hausdorff_series(trace)
        recs = [r for r in trace.iterations if r.cut_normal is not None]
        alphas = np.array([r.support_point - 0.1 * r.cut_normal
                           for r in recs])
        prev = None
        for eps in (0.4, 0.2, 0.1, 0.05):
            lvl = [a for a, s in zip(alphas, series) if s >= eps]
            cnt = packing_census(np.array(lvl), ne, math.sqrt(0.1 * eps))
            if prev is not None:
                assert cnt <= prev * 2 ** (trace.q - 1) * 1.5 + 2
            prev = cnt
