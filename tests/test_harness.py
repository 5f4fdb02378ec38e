import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import walklab as wl
from walklab import rng
from walklab.harness import _chi_square_sf


class TestTvDistance:
    def test_equal_laws(self):
        # Geom(1) is the point mass at 1
        assert wl.tv_distance({1: 1.0}, 1.0) == 0.0

    def test_point_mass_vs_geometric_half(self):
        assert wl.tv_distance({1: 1.0}, 0.5) == pytest.approx(0.5)

    def test_disjoint_supports(self):
        assert wl.tv_distance({2: 1.0}, 1.0) == pytest.approx(1.0)

    def test_not_a_law(self):
        with pytest.raises(wl.BadParam, match=r"law sums to 0\.7, not 1"):
            wl.tv_distance({1: 0.7}, 0.5)
        with pytest.raises(wl.BadParam, match="negative mass in law"):
            wl.tv_distance({1: 1.5, 2: -0.5}, 0.5)

    def test_geometric_vs_itself_truncated(self):
        g = 0.4
        p = {u: wl.geometric_pmf(g, u) for u in range(1, 60)}
        p[60] = 1.0 - sum(p.values())
        assert wl.tv_distance(p, g) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    def test_range(self, weights):
        total = sum(weights)
        p = {u + 1: w / total for u, w in enumerate(weights)}
        tv = wl.tv_distance(p, 0.3)
        assert 0.0 <= tv <= 1.0


class TestChiSquare:
    def test_draws_from_geometric_pass(self):
        gen = rng.generator(100)
        draws = gen.geometric(0.4, size=100_000)
        tally = np.bincount(draws)
        counts = {int(u): int(tally[u]) for u in np.flatnonzero(tally)}
        res = wl.geometric_chi_square(counts, 0.4)
        assert res.pvalue > 1e-3

    def test_wrong_gamma_fails(self):
        gen = rng.generator(101)
        draws = gen.geometric(0.6, size=100_000)
        tally = np.bincount(draws)
        counts = {int(u): int(tally[u]) for u in np.flatnonzero(tally)}
        res = wl.geometric_chi_square(counts, 0.4)
        assert res.pvalue < 1e-10

    def test_bucket_merging(self):
        counts = {1: 90, 2: 10}
        res = wl.geometric_chi_square(counts, 0.9)
        assert all(b["expected"] >= 5 or i == 0
                   for i, b in enumerate(res.buckets))

    def test_gamma_one_degenerate(self):
        res = wl.geometric_chi_square({1: 100}, 1.0)
        assert res.pvalue == 1.0

    @pytest.mark.parametrize("gamma", [0.0, float("nan"), 1.5])
    def test_gamma_outside_unit_interval_is_bad_param(self, gamma):
        with pytest.raises(wl.BadParam, match="escape probability"):
            wl.geometric_chi_square({1: 60, 2: 40}, gamma)


class TestFitExponent:
    def test_linear(self):
        fit = wl.fit_exponent([(2, 2.0), (4, 4.0), (8, 8.0)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_three_halves(self):
        pts = [(n, n ** 1.5) for n in (2, 4, 8, 16)]
        fit = wl.fit_exponent(pts)
        assert fit.slope == pytest.approx(1.5, abs=1e-12)
        assert fit.residual_norm < 1e-12

    def test_constant(self):
        fit = wl.fit_exponent([(2, 3.0), (4, 3.0), (8, 3.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_too_few(self):
        with pytest.raises(wl.BadParam, match="need >= 3 points, got 2"):
            wl.fit_exponent([(2, 1.0), (4, 2.0)])

    def test_nonpositive(self):
        with pytest.raises(wl.BadParam, match="log-log fit needs positive values"):
            wl.fit_exponent([(2, 1.0), (4, 0.0), (8, 2.0)])


class TestRunSlln:
    def test_deterministic_passes(self, det1):
        rep = wl.run_slln(det1, [0, 1, 2.5], [16, 64], seeds=[1, 2])
        assert rep.verdict
        assert rep.gamma["value"] == 1.0

    def test_alpha_one_always_passes(self, bern07):
        rep = wl.run_slln(bern07, [1], [4096], seeds=[5])
        assert rep.verdict

    def test_range_column_equals_alpha_zero(self, bern07):
        rep = wl.run_slln(bern07, [0], [1024], seeds=[3])
        recs = [r for r in rep.records if r["n"] == 1024]
        assert recs[0]["L"] == recs[0]["R"]

    def test_low_dim_notes_present(self, bern07):
        rep = wl.run_slln(bern07, [1], [256], seeds=[1])
        notes = rep.notes["low_dim_assumptions"]
        assert notes["second_moment_finite"] is True
        assert notes["drift"][0] == pytest.approx(0.4)
        assert notes["return_tail_eta_hat"] > 2  # geometric decay

    def test_impossible_tolerance_fails(self, bern07):
        rep = wl.run_slln(bern07, [2], [512], seeds=[1], rel_tol=1e-9)
        assert not rep.verdict
        assert rep.failures()


class TestRunGeometric:
    def test_deterministic_tv_zero(self, det1):
        rep = wl.run_geometric(det1, 100, 1000, seeds=[1])
        assert rep.verdict
        assert rep.stats["per_seed"][0]["tv"] == 0.0

    def test_oracle_crosscheck_recorded(self, bern07_exact):
        # exact finite-n law vs the limit law: recorded, no pass bar
        summary = wl.enumerate_paths(bern07_exact, 8, alphas=())
        zn = {u: float(p) for u, p in wl.exact_zn_law(summary).items()}
        tv = wl.tv_distance(zn, 0.4)
        assert 0.0 <= tv <= 1.0

    def test_no_resample_fails_before_gamma_and_paths(self, srw3, monkeypatch):
        def no_run(*args):
            raise AssertionError("ran before M was checked")
        monkeypatch.setattr(wl.harness, "auto_gamma", no_run)
        monkeypatch.setattr(wl.harness, "simulate", no_run)
        with pytest.raises(wl.BadParam, match="resample count must be >= 1, got 0"):
            wl.run_geometric(srw3, 1000, 0, seeds=[1])

    def test_report_records_theory(self, bern07):
        rep = wl.run_geometric(bern07, 2000, 5000, seeds=[4])
        assert rep.theory["pmf"] == "geometric"
        assert all({"seed", "u", "empirical", "theory"} <= set(r)
                   for r in rep.records)


class TestVarianceScan:
    def test_deterministic_all_zero(self, det1):
        rep = wl.variance_scan(det1, 2, [8, 16, 32], 20, seed=1, slope_cap=1.2)
        assert rep.verdict
        assert all(r["variance"] == 0.0 for r in rep.records)

    def test_envelope_names(self):
        assert wl.variance_envelope(1)[0] == "n^1.5*log(n)"
        assert wl.variance_envelope(3)[0] == "n^1.5"
        assert wl.variance_envelope(7)[0] == "n"

    def test_small_scan_passes(self, srw3):
        rep = wl.variance_scan(srw3, 2, [64, 128, 256, 512], 60, seed=12)
        assert rep.verdict
        assert rep.stats["fit"]["slope"] > 0.5

    def test_non_integer_alpha_rejected(self, srw3):
        with pytest.raises(wl.BadParam):
            wl.variance_scan(srw3, 1.5, [8, 16], 10, seed=0)

    def test_too_few_replicas_for_jackknife_rejected(self, srw3):
        # the leave-one-out variance divides by M - 2
        with pytest.raises(wl.BadParam):
            wl.variance_scan(srw3, 2, [64, 128, 256], m=2, seed=1)

    @pytest.mark.parametrize("grid", [[64], [64, 128]])
    def test_too_few_grid_points_rejected_before_replicas(self, srw3, monkeypatch, grid):
        def no_replica(*args):
            raise AssertionError("a replica ran before the grid was checked")
        monkeypatch.setattr(wl.harness, "simulate", no_replica)
        with pytest.raises(wl.BadParam, match=f"needs >= 3 grid points.*got {len(grid)}"):
            wl.variance_scan(srw3, 2, grid, 10, seed=0)

    def test_replica_seeds_documented(self, bern07):
        a = wl.variance_scan(bern07, 2, [16, 32, 64], 25, seed=3)
        b = wl.variance_scan(bern07, 2, [16, 32, 64], 25, seed=3)
        assert a.to_json_bytes() == b.to_json_bytes()

    def test_thread_invariance(self, srw3):
        # 3 workers cut M = 25 into uneven blocks at every grid point
        a = wl.variance_scan(srw3, 2, [16, 32, 64], 25, seed=3, threads=1)
        b = wl.variance_scan(srw3, 2, [16, 32, 64], 25, seed=3, threads=3)
        assert a.to_json_bytes() == b.to_json_bytes()


class TestReplicaMap:
    def test_results_in_task_order(self):
        tasks = [5, 0, 3, 1, 4]
        expected = [math.factorial(t) for t in tasks]
        assert rng.replica_map(math.factorial, tasks, 1) == expected
        assert rng.replica_map(math.factorial, tasks, 2) == expected

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(wl.BadParam, match="threads"):
            rng.replica_map(math.factorial, [1, 2], threads)
        with pytest.raises(wl.BadParam, match="threads"):
            rng.replica_blocks(10, threads)

    def test_pool_capped_at_the_cpus(self, monkeypatch):
        # a fake Pool records the size asked for; nothing is forked
        sizes = []

        class FakePool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return [fn(task) for task in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        tasks = list(range(10))
        assert rng.replica_map(math.factorial, tasks, 5000) == [math.factorial(t) for t in tasks]
        assert rng.replica_map(math.factorial, tasks[:2], 5000) == [1, 1]
        assert sizes == [3, 2]

    @pytest.mark.parametrize("m,threads", [(10, 1), (10, 3), (2, 5), (1, 2)])
    def test_blocks_cover_the_replicas(self, m, threads):
        blocks = rng.replica_blocks(m, threads)
        assert len(blocks) == min(m, threads)
        assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(m))


class TestReportSerialization:
    def test_json_bytes_reproducible(self, bern07):
        a = wl.run_geometric(bern07, 500, 2000, seeds=[7])
        b = wl.run_geometric(bern07, 500, 2000, seeds=[7])
        assert a.to_json_bytes() == b.to_json_bytes()

    def test_csv_round(self, det1):
        rep = wl.run_slln(det1, [0], [8], seeds=[1])
        lines = rep.to_csv().splitlines()
        assert lines[0].startswith("seed,")
        assert len(lines) == 1 + len(rep.records)

    def test_checks_carry_inputs(self, bern07):
        rep = wl.run_slln(bern07, [2], [512], seeds=[1])
        for c in rep.checks:
            assert {"name", "observed", "ok"} <= set(c)

    def test_verdict_pure_function_of_checks(self, det1):
        rep = wl.run_slln(det1, [0], [8], seeds=[1])
        assert rep.verdict == all(c["ok"] for c in rep.checks)

    def test_non_finite_floats_become_null(self, det1):
        # the return-tail fit of a deterministic walk has eta_hat = inf
        rep = wl.run_slln(det1, [2.0], [100, 200], [1])
        assert rep.notes["low_dim_assumptions"]["return_tail_eta_hat"] == math.inf
        out = json.loads(rep.to_json_bytes(), parse_constant=_reject_constant)
        assert out["notes"]["low_dim_assumptions"]["return_tail_eta_hat"] is None

    def test_numpy_non_finite_become_null(self, det1):
        rep = wl.run_slln(det1, [0], [8], seeds=[1])
        rep.stats = {"nan": np.float64("nan"), "array": np.array([1.0, -np.inf]),
                     "f32": np.float32("inf")}
        out = json.loads(rep.to_json_bytes(), parse_constant=_reject_constant)
        assert out["stats"] == {"nan": None, "array": [1.0, None], "f32": None}


def _reject_constant(name):
    raise AssertionError(f"report JSON contains {name}")


class TestChiSquareSurvival:
    def test_chdtrc_is_chi2_sf(self):
        from scipy.special import chdtrc
        from scipy.stats import chi2
        dof, x = np.meshgrid(np.arange(1, 41),
                             np.r_[0.0, np.geomspace(1e-6, 500.0, 200)])
        assert np.array_equal(chdtrc(dof, x), chi2.sf(x, dof))

    def test_closed_form_matches_chdtrc(self):
        from scipy.special import chdtrc
        x = np.r_[0.0, np.geomspace(1e-6, 3000.0, 200)]
        worst = 0.0
        for dof in range(1, 701):
            want = chdtrc(dof, x)
            got = np.array([_chi_square_sf(dof, float(v)) for v in x])
            keep = want > 1e-290
            worst = max(worst, float(np.max(np.abs(got[keep] - want[keep]) / want[keep])))
        assert worst <= 1e-12

    def test_pvalue_needs_no_scipy(self):
        src = str(Path(wl.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys; sys.modules['scipy'] = None; import walklab; "
                "res = walklab.geometric_chi_square({1: 40, 2: 30, 3: 20, 4: 10}, 0.4); "
                "print(res.dof, res.pvalue)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert int(out[0]) > 0 and 0.0 < float(out[1]) < 1.0
