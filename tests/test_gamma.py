import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import evolver_reference
import gamma_reference
import mc_reference
import walklab as wl
from walklab import gamma, path, rng
from walklab.gamma import MC_BLOCK, _MC_BATCH, _axis_return_sequence, _dense_return_sequence
from walklab.steps import _sampling_arrays

SRW3_GAMMA = 0.6594626  # 1 - 1/G for the d=3 simple walk
# gamma(diag3) by the Green series at N=128, as the full-horizon box DP gave it
DIAG3_GAMMA_128 = 0.71784437029121


def diag3(exact=False):
    """Uniform law on the 8 diagonal unit steps (+-1, +-1, +-1): not axis-decomposable."""
    mass = Fraction(1, 8) if exact else 0.125
    return wl.make_law(3, [(v, mass) for v in itertools.product((1, -1), repeat=3)],
                       exact)


def king2(exact=False):
    """Uniform law on the 8 king moves of Z^2: not axis-decomposable."""
    mass = Fraction(1, 8) if exact else 0.125
    moves = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0)]
    return wl.make_law(2, [(v, mass) for v in moves], exact)


def far3():
    """srw(3) with steps of 2^20: its packed Monte Carlo positions need a
    lane per axis at horizons of a few thousand steps."""
    return wl.make_law(3, [(tuple(c << 20 for c in e), m) for e, m in wl.srw(3).atoms],
                       False)


def drift3z():
    """srw(3) drifting along its last axis: one Monte Carlo lane holds all
    three axes up to n = 4 MC_BLOCK, and the drifting axis is not its
    leading one."""
    return wl.make_law(3, [((0, 0, 1), 0.5), ((0, 0, -1), 0.1), ((1, 0, 0), 0.1),
                           ((-1, 0, 0), 0.1), ((0, 1, 0), 0.1), ((0, -1, 0), 0.1)], False)


def long2():
    """Exact 2-D law with atoms (3,0), (0,3), (-1,-1): it fills about 1/30 of its box."""
    return wl.make_law(2, [((3, 0), Fraction(1, 3)), ((0, 3), Fraction(1, 3)),
                           ((-1, -1), Fraction(1, 3))], True)


def exact_convolution(law, n, kill_origin=False):
    """(laws of S_0..S_n, surviving masses) by dict convolution of Fractions.

    A reference that shares no code with the package's evolver; with
    kill_origin, mass that lands on the origin is removed and counted.
    The step m masses are carried as integer numerators over D**m, with D
    the lcm of the atom denominators, and become Fractions once per step.
    """
    origin = (0,) * law.d
    denom = math.lcm(*(Fraction(w).denominator for _, w in law.atoms))
    atoms = [(off, int(w * denom)) for off, w in law.atoms]
    numerators, killed = {origin: 1}, Fraction(0)
    fields, survival = [{origin: Fraction(1)}], [Fraction(1)]
    for m in range(1, n + 1):
        new = {}
        for point, count in numerators.items():
            for off, w in atoms:
                dest = tuple(a + b for a, b in zip(point, off))
                new[dest] = new.get(dest, 0) + count * w
        if kill_origin:
            killed += Fraction(new.pop(origin, 0), denom ** m)
        numerators = new
        fields.append({point: Fraction(count, denom ** m) for point, count in new.items()})
        survival.append(1 - killed)
    return fields, survival


class TestPmfEvolve:
    def test_bernoulli_two_steps(self, bern07_exact):
        field = wl.pmf_evolve(bern07_exact, 2)
        assert field.masses == {(2,): Fraction(49, 100), (0,): Fraction(21, 50),
                                (-2,): Fraction(9, 100)}

    def test_zero_steps(self, srw3):
        assert wl.pmf_evolve(srw3, 0).masses == {(0, 0, 0): 1.0}

    def test_srw3_origin_return(self):
        field = wl.pmf_evolve(wl.srw(3, exact=True), 2)
        assert field.masses[(0, 0, 0)] == Fraction(1, 6)

    def test_float_mass_conservation(self, srw3):
        field = wl.pmf_evolve(srw3, 40)
        assert abs(sum(field.masses.values()) - 1.0) < 1e-12

    def test_float_matches_exact(self, bern07, bern07_exact):
        f_float = wl.pmf_evolve(bern07, 12)
        f_exact = wl.pmf_evolve(bern07_exact, 12)
        for point, mass in f_exact.masses.items():
            assert f_float.masses[point] == pytest.approx(float(mass), abs=1e-14)

    def test_budget(self, monkeypatch):
        # the evolver reads the constant at step time, for exact and float
        # laws alike; the message names the constant, its value, the step
        # that went over it and the horizons to lower
        monkeypatch.setattr(wl.gamma, "CELL_BUDGET", 1000)
        for law in (wl.srw(3, exact=True), wl.srw(3)):
            with pytest.raises(wl.ResourceLimit, match=(
                    r"box \(11, 11, 11\) at step 5 exceeds CELL_BUDGET = 1000 cells; "
                    r"lower the horizon \(--N, --n or --gamma-n\)$")):
                wl.pmf_evolve(law, 300)

    @pytest.mark.parametrize("law", [long2(), diag3(exact=True)], ids=["long2", "diag3"])
    def test_sparse_in_box_matches_convolution(self, law):
        # both laws leave most of their box empty; 24 steps run three trims
        n = 24
        assert 3 * wl.gamma.DenseEvolver.TRIM_EVERY <= n
        _, survival = exact_convolution(law, n, kill_origin=True)
        assert wl.taboo_survival(law, n).gamma_seq == tuple(survival)
        fields, _ = exact_convolution(law, n)
        for m in range(n + 1):
            masses = wl.pmf_evolve(law, m).masses
            assert masses == fields[m]
            assert all(type(v) is Fraction for v in masses.values())


class TestReturnSequenceEngines:
    @pytest.mark.parametrize("law_maker", [
        lambda: wl.srw(2), lambda: wl.srw(3), lambda: wl.drifted_srw(2, 0.3),
        lambda: wl.make_law(1, [((1,), 0.4), ((-1,), 0.4), ((0,), 0.2)], False),
    ])
    def test_engines_agree(self, law_maker):
        law = law_maker()
        n = 20
        ax = _axis_return_sequence(law, n)
        de = _dense_return_sequence(law, n)
        assert np.abs(ax - de).max() < 1e-13

    @pytest.mark.parametrize("law_maker", [diag3, king2])
    def test_dense_matches_exact_non_axis(self, law_maker):
        n = 16
        law = law_maker(exact=True)
        fields, _ = exact_convolution(law, n)
        exact = [float(f.get((0,) * law.d, 0)) for f in fields]
        de = _dense_return_sequence(law_maker(), n)
        assert np.abs(np.array(exact) - de).max() < 1e-15

    def test_against_exact_convolution(self):
        fields, _ = exact_convolution(wl.srw(3, exact=True), 12)
        exact = [float(f.get((0, 0, 0), 0)) for f in fields]
        got = wl.return_sequence(wl.srw(3), 12)
        assert np.abs(np.array(exact) - got).max() < 1e-14

    @pytest.mark.parametrize("law", [
        *(wl.srw(d) for d in range(1, 7)), wl.drifted_srw(2, 0.3), wl.drifted_srw(3, 0.1),
        wl.bernoulli(0.7),
        wl.make_law(2, [*((e, 0.2) for e, _ in wl.srw(2).atoms), ((0, 0), 0.2)], False),
        wl.make_law(3, [((1, 0, 0), 0.3), ((-1, 0, 0), 0.1), ((0, 1, 0), 0.15),
                        ((0, -1, 0), 0.05), ((0, 0, 1), 0.1), ((0, 0, -1), 0.2),
                        ((0, 0, 0), 0.1)], False),
    ], ids=[*(f"srw{d}" for d in range(1, 7)), "drifted2", "drifted3", "bern07",
            "lazy2", "skewed-lazy3"])
    def test_axis_fold_matches_row_by_row(self, law, monkeypatch):
        # the fold evaluates rows of equal band width as one block; every
        # value, sign bit included, is the one-row-at-a-time value, also
        # when a block is cut part-way through a width group (one row per
        # block at _FOLD_CELLS = 1, a few rows at 1000)
        horizons = (0, 1, 2, 3, 7, 64, 511, 4096)
        with monkeypatch.context() as m:
            m.setattr(gamma, "_binomial_fold", evolver_reference._binomial_fold)
            wants = [_axis_return_sequence(law, n) for n in horizons]
        for cells in (gamma._FOLD_CELLS, 1000, 1):
            monkeypatch.setattr(gamma, "_FOLD_CELLS", cells)
            for n, want in zip(horizons, wants):
                got = _axis_return_sequence(law, n)
                assert np.array_equal(got, want), (cells, n)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (cells, n)

    def test_non_unit_steps_use_dense(self):
        # steps of 1 and 2 lie on one line but are not +-b: no axis law
        law = wl.make_law(1, [((2,), 0.25), ((-2,), 0.25), ((1,), 0.25), ((-1,), 0.25)],
                          False)
        assert gamma._axis_decomposition(law) is None
        r = wl.return_sequence(law, 8)
        assert r[2] == pytest.approx(0.25)  # a step, then its opposite

    def test_scaled_unit_steps_use_axis(self):
        # +-2 is srw(1) in the basis (2): the axis engine, with srw(1)'s bits
        law = wl.make_law(1, [((2,), 0.5), ((-2,), 0.5)], False)
        assert gamma._axis_decomposition(law) is not None
        assert np.array_equal(wl.return_sequence(law, 64), wl.return_sequence(wl.srw(1), 64))

    def test_bernoulli_band(self, bern07):
        r = wl.return_sequence(bern07, 6)
        assert r[2] == pytest.approx(0.42)
        assert r[4] == pytest.approx(6 * 0.49 * 0.09)  # C(4,2) p^2 q^2
        assert r[1] == r[3] == 0.0


class TestGreen:
    def test_bernoulli_closed_form(self, bern07):
        est = wl.green_at_origin(bern07, 600)
        assert est.method == "green_series"
        assert est.value == pytest.approx(0.4, abs=1e-10)
        assert est.error < 1e-12

    @pytest.mark.parametrize("p", ["0.7", "0.9"])
    def test_error_covers_rounding(self, p):
        # the tail is below 1e-79 and rounding misses |2p - 1| by an ulp
        known = gamma_reference.KNOWN[f"bernoulli({p})"]
        est = wl.green_at_origin(known.law, 2048)
        assert abs(est.value - known.gamma) <= est.error

    def test_deterministic_gamma_one(self, det1):
        est = wl.green_at_origin(det1, 50)
        assert est.value == 1.0 and est.error == 0.0

    @pytest.mark.parametrize("estimator", [wl.green_at_origin, wl.taboo_gamma_estimate],
                             ids=["green", "taboo"])
    @pytest.mark.parametrize("n", [0, 2, wl.gamma.TAIL_FIT_START - 1])
    def test_horizon_below_fit_window_is_bad_param(self, srw3, estimator, n):
        # below the window the tail would be 0: gamma 0.857 +- 0.0 at N = 2
        with pytest.raises(wl.BadParam, match="TAIL_FIT_START = 4"):
            estimator(srw3, n)
        assert estimator(srw3, wl.gamma.TAIL_FIT_START).error > 0

    def test_srw3(self, srw3):
        est = wl.green_at_origin(srw3, 512)
        assert est.value == pytest.approx(SRW3_GAMMA, abs=1e-3)
        assert est.value + est.error >= SRW3_GAMMA >= est.value - est.error

    def test_recurrent_guard(self):
        with pytest.raises(wl.SuspectedRecurrence):
            wl.green_at_origin(wl.srw(1), 1024)
        with pytest.raises(wl.SuspectedRecurrence):
            wl.green_at_origin(wl.srw(2), 1024)

    def test_transient_short_horizon_is_bad_param(self):
        # gamma = 0.2, but at N = 64 the returns' slow geometric decay
        # (4pq = 0.96 per two steps) fits a power law of exponent <= 1
        with pytest.raises(wl.BadParam, match="the law is transient, so the horizon "
                           "N = 64 is too short for the tail fit: raise --N"):
            wl.green_at_origin(wl.bernoulli(0.6), 64)

    def test_recurrent_lazy_walk_guard(self):
        lazy = wl.make_law(1, [((1,), 0.4), ((-1,), 0.4), ((0,), 0.2)], False)
        with pytest.raises(wl.SuspectedRecurrence):
            wl.green_at_origin(lazy, 1024)

    def test_drifted_2d_transient(self):
        est = wl.green_at_origin(wl.drifted_srw(2, 0.5), 256)
        assert 0 < est.value <= 1

    def test_diag3_is_transient(self):
        # odd-time returns are impossible for diag3; rounding noise there
        # once entered the tail fit and raised SuspectedRecurrence
        assert (wl.return_sequence(diag3(), 128)[1::2] == 0).all()
        est = wl.green_at_origin(diag3(), 128)
        assert est.value == pytest.approx(DIAG3_GAMMA_128, rel=1e-9)


class TestTaboo:
    def test_bernoulli_exact_small(self, bern07_exact):
        ret = wl.taboo_survival(bern07_exact, 3)
        assert ret.gamma_seq[1] == 1
        assert ret.gamma_seq[2] == Fraction(29, 50)
        ret.check_invariants()

    def test_deterministic_all_one(self, det1):
        ret = wl.taboo_survival(det1, 40)
        assert all(g == 1.0 for g in ret.gamma_seq)

    def test_float_converges_to_gamma(self, bern07):
        ret = wl.taboo_survival(bern07, 1000)
        assert float(ret.gamma_seq[-1]) == pytest.approx(0.4, abs=1e-10)
        assert ret.prune_loss < 1e-12

    def test_nonincreasing(self, srw3):
        ret = wl.taboo_survival(srw3, 64)
        g = [float(x) for x in ret.gamma_seq]
        assert all(a >= b for a, b in zip(g, g[1:]))

    def test_check_invariants_raises(self):
        ret = wl.ReturnLaw(horizon=2, gamma_seq=(1.0, 0.5, 0.7), exact=False, denom=1)
        with pytest.raises(wl.InvariantViolation):
            ret.check_invariants()
        bad_start = wl.ReturnLaw(horizon=0, gamma_seq=(Fraction(1, 2),), exact=True,
                                 denom=2)
        with pytest.raises(wl.InvariantViolation):
            bad_start.check_invariants()

    def test_tau_pmf_sums(self, bern07_exact):
        ret = wl.taboo_survival(bern07_exact, 12)
        assert sum(ret.tau_pmf()) + ret.gamma_seq[-1] == 1
        assert all(t >= 0 for t in ret.tau_pmf())

    def test_estimate_brackets_gamma(self, srw3):
        est = wl.taboo_gamma_estimate(srw3, 128)
        assert est.method == "taboo_dp"
        assert est.value >= SRW3_GAMMA  # upward bias, documented
        assert est.value - est.error <= SRW3_GAMMA + 2e-3


class TestGammaEstimate:
    @pytest.mark.parametrize("value,error", [
        (0.5, -0.1), (1.5, 0.1), (-0.2, 0.1), (math.nan, 0.0)])
    def test_invalid_raises(self, value, error):
        with pytest.raises(wl.InvariantViolation):
            wl.GammaEstimate(value=value, error=error, method="m", params={})


class TestMcEscape:
    def test_deterministic_exact_one(self, det1):
        est = wl.mc_escape(det1, 50, 100, seed=0)
        assert est.value == 1.0 and est.error == 0.0

    def test_bernoulli_small(self, bern07):
        est = wl.mc_escape(bern07, 2000, 20_000, seed=42)
        assert est.value == pytest.approx(0.4, abs=4 * est.error + 1e-3)

    def test_reproducible(self, srw3):
        a = wl.mc_escape(srw3, 256, 500, seed=5)
        b = wl.mc_escape(srw3, 256, 500, seed=5)
        assert a.value == b.value

    def test_thread_invariance(self, bern07):
        # m is no multiple of the batch, so each threads cuts batches differently
        m = 400
        want = mc_reference.escape_range(bern07, 128, 9, 0, m) / m
        for threads in (1, 2, 3):
            assert wl.mc_escape(bern07, 128, m, seed=9, threads=threads).value == want

    def test_thread_invariance_under_spawn(self):
        # os.fork is disabled, so the pool must take the spawn start method;
        # variance_scan shares the pool helper with mc_escape
        code = ("import multiprocessing, os\n"
                "import walklab as wl\n"
                "def no_fork():\n"
                "    raise RuntimeError('fork called')\n"
                "os.fork = no_fork\n"
                "multiprocessing.set_start_method('spawn')\n"
                "law = wl.bernoulli(0.7)\n"
                "a = wl.mc_escape(law, 128, 400, seed=9, threads=1)\n"
                "b = wl.mc_escape(law, 128, 400, seed=9, threads=2)\n"
                "va = wl.variance_scan(law, 2, [16, 32, 64], 10, seed=4, threads=1)\n"
                "vb = wl.variance_scan(law, 2, [16, 32, 64], 10, seed=4, threads=2)\n"
                "print(a.value == b.value, va.to_json_bytes() == vb.to_json_bytes())\n")
        src = str(Path(wl.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src), check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.strip() == "True True"

    @pytest.mark.parametrize("law", [
        wl.srw(1), wl.srw(3), wl.srw(5), wl.bernoulli(0.7),
        wl.bernoulli("7/10", exact=True), wl.drifted_srw(2, 0.3), diag3(),
        wl.deterministic([1]), long2(), far3(), wl.bernoulli(0.9), drift3z()],
        ids=["srw1", "srw3", "srw5", "bern07", "bern07-exact", "drifted2", "diag3",
             "det1", "long2", "far3", "bern09", "drift3z"])
    def test_batched_kernel_matches_per_replica_reference(self, law):
        # at 4 MC_BLOCK the escape bound settles bern09's replicas, and the
        # reference's per-coordinate bound settles drift3z's before the
        # kernel's lane bound does
        for n in (1, 5, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 2 * MC_BLOCK + 3, 4 * MC_BLOCK):
            for seed in (0, 7):
                for lo, hi in ((3, 3 + _MC_BATCH + 5), (_MC_BATCH - 1, _MC_BATCH)):
                    want = mc_reference.escape_range(law, n, seed, lo, hi)
                    assert gamma._escape_range((law, n, seed, lo, hi)) == want, (n, seed, lo)

    def test_escape_bound_keeps_a_last_step_return(self):
        # steps +1 and -MC_BLOCK can meet 0 only every MC_BLOCK + 1 steps,
        # and about 1/e of these walks stand at -1 after the first block,
        # one step from 0 with one step left; a bound one step too tight
        # would count their returns as escapes
        law = wl.make_law(1, [((1,), MC_BLOCK / (MC_BLOCK + 1)),
                              ((-MC_BLOCK,), 1 / (MC_BLOCK + 1))], False)
        n, m = MC_BLOCK + 1, 200
        want = mc_reference.escape_range(law, n, 0, 0, m)
        assert want < 0.7 * m
        assert gamma._escape_range((law, n, 0, 0, m)) == want

    def test_lanes_pack_consecutive_axes_below_int64(self):
        # srw(d) at the step budget: two axes per lane, each lane's radix
        # product below 2**63; far3 needs a lane per axis from n = 2047 on
        for d in range(1, 11):
            lanes = gamma._mc_lanes(_sampling_arrays(wl.srw(d))[0], path.STEP_BUDGET)
            assert [j for axes, _ in lanes for j in axes] == list(range(d))
            assert len(lanes) == (d + 1) // 2
            assert all(math.prod(radices) < 2 ** 63 for _, radices in lanes)
        far = _sampling_arrays(far3())[0]
        assert len(gamma._mc_lanes(far, 5)) == 2
        assert len(gamma._mc_lanes(far, MC_BLOCK - 1)) == 3

    def test_axis_wider_than_int64_refused_before_work(self, monkeypatch):
        # atoms of at most 2^22 keep an axis inside int64 up to STEP_BUDGET,
        # so the budget is raised for the guard to be reached
        wide = wl.make_law(1, [((1 << 22,), 0.5), ((-(1 << 22),), 0.5)], False)
        coords = _sampling_arrays(wide)[0]
        assert gamma._mc_lanes(coords, (1 << 40) - 1) == [([0], [2 ** 63 - 2 ** 23 + 1])]
        monkeypatch.setattr(path, "STEP_BUDGET", 1 << 41)

        def refuse(*args):
            raise AssertionError("mc_escape started work")
        monkeypatch.setattr(rng, "generator", refuse)
        monkeypatch.setattr(rng, "replica_blocks", refuse)
        message = r"axis 0 of a 1099511627776-step walk spans 9223372036854775809 positions"
        with pytest.raises(wl.ResourceLimit, match=message + ", more than an int64 holds; lower --n"):
            wl.mc_escape(wide, 1 << 40, 2, seed=0, threads=2)
        with pytest.raises(wl.ResourceLimit, match=message):
            gamma._escape_range((wide, 1 << 40, 0, 0, 2))

    def test_horizon_over_step_budget_refused_before_work(self, srw3, monkeypatch):
        monkeypatch.setattr(path, "STEP_BUDGET", 10)
        assert 0 <= wl.mc_escape(srw3, 10, 4, seed=0).value <= 1

        def refuse(*args):
            raise AssertionError("mc_escape over STEP_BUDGET started work")
        monkeypatch.setattr(rng, "generator", refuse)
        monkeypatch.setattr(rng, "replica_blocks", refuse)
        with pytest.raises(wl.ResourceLimit,
                           match=r"11 steps exceed STEP_BUDGET = 10 steps per path; lower --n"):
            wl.mc_escape(srw3, 11, 4, seed=0, threads=2)

    def test_consistency_with_taboo_same_horizon(self, bern07):
        n = 200
        mc = wl.mc_escape(bern07, n, 4000, seed=17)
        ret = wl.taboo_survival(bern07, n)
        assert abs(mc.value - float(ret.gamma_seq[-1])) <= 4 * mc.error

    def test_upward_bias_label(self, srw3):
        est = wl.mc_escape(srw3, 64, 2000, seed=3)
        assert est.params == {"n": 64, "M": 2000}
        assert est.seed == 3


class TestConsistencyTriangle:
    def test_bernoulli_three_methods(self, bern07):
        green = wl.green_at_origin(bern07, 400)
        taboo = wl.taboo_survival(bern07, 400)
        mc = wl.mc_escape(bern07, 400, 10_000, seed=11)
        g_t = float(taboo.gamma_seq[-1])
        assert g_t >= green.value - green.error - 1e-12
        assert abs(mc.value - g_t) <= 4 * mc.error

    def test_diffusive_envelope_bounded(self, srw3):
        r = wl.return_sequence(srw3, 256)
        m = np.arange(4, 257)
        scaled = r[4:257] * m ** 1.5
        nz = scaled[scaled > 0]
        assert nz.max() / nz.min() < 3


# (gamma_reference entry, leg, horizons) whose reported error must cover
# the distance to the true gamma
KNOWN_ANSWER_LEGS = [
    ("srw3", "green", (32, 128, 512)), ("srw3", "dp", (24, 96)),
    ("diag3", "green", (32, 128)), ("diag3", "dp", (24, 96)),
    *((f"bernoulli({p})", leg, (64, 200, 2048))
      for p in ("0.7", "0.9") for leg in ("green", "dp")),
    # at N = 64 the bernoulli(0.6) Green leg refuses the horizon (BadParam)
    *(("bernoulli(0.6)", leg, (200, 2048)) for leg in ("green", "dp")),
]


class TestKnownAnswers:
    @pytest.mark.parametrize("name,leg,n", [
        (name, leg, n) for name, leg, ns in KNOWN_ANSWER_LEGS for n in ns],
        ids=lambda v: str(v))
    def test_error_covers_true_gamma(self, name, leg, n):
        known = gamma_reference.KNOWN[name]
        estimate = {"green": wl.green_at_origin, "dp": wl.taboo_gamma_estimate}[leg]
        est = estimate(known.law, n)
        assert gamma_reference.covers(est.value, est.error, known.gamma), (est, known)

    @pytest.mark.parametrize("name", ["srw4", "srw5", "drifted_srw(2,0.1)"])
    def test_auto_gamma_covers_true_gamma(self, name):
        known = gamma_reference.KNOWN[name]
        est = wl.auto_gamma(known.law)
        assert est.params["N"] == 4096
        assert gamma_reference.covers(est.value, est.error, known.gamma), (est, known)

    def test_auto_gamma_d1_non_axis_horizon(self):
        known = gamma_reference.KNOWN["up2_down1"]
        est = wl.auto_gamma(known.law)
        assert est.params["N"] == 2048
        assert gamma_reference.covers(est.value, est.error, known.gamma), (est, known)

    def test_auto_gamma_d2_non_axis_horizon(self):
        # drift (2/3, 2/3), so transient; no closed form, so the taboo DP's
        # gamma(200) is the second opinion
        law = long2().to_float()
        est = wl.auto_gamma(law)
        assert est.params["N"] == 512
        dp = wl.taboo_gamma_estimate(law, 200)
        assert abs(est.value - dp.value) <= est.error + dp.error, (est, dp)

    def test_axis_integral_gives_srw3_closed_form(self):
        got = gamma_reference.axis_integral(wl.srw(3))
        assert abs(got - gamma_reference.srw3_closed_form()) <= 1e-8

    @pytest.mark.parametrize("name", ["srw3", "diag3"])
    def test_mc_escape_within_4_stderr_of_taboo_gamma_n(self, name):
        # Monte Carlo estimates gamma(n), and its error is the sampling
        # error alone, so it is held against the DP's gamma(n), not gamma
        law = gamma_reference.KNOWN[name].law
        mc = wl.mc_escape(law, 48, 4000, seed=7)
        assert abs(mc.value - float(wl.taboo_survival(law, 48).gamma_seq[-1])) <= 4 * mc.error


class TestReturnTail:
    def test_deterministic_infinite_decay(self, det1):
        diag = wl.return_tail(det1, 4, 64)
        assert diag.value == 0.0 and math.isinf(diag.eta_hat)
        assert diag.windows == ()

    def test_empty_first_block_has_slope_minus_inf(self, srw3):
        # [1, 2) holds only P(S_1 = 0) = 0: the window grows from nothing
        diag = wl.return_tail(srw3, 1, 64)
        assert diag.windows[0] == (1, -math.inf)
        assert all(math.isfinite(slope) for _, slope in diag.windows[1:])
        assert wl.return_tail(srw3, 0, 4).windows == ((1, -math.inf),)

    def test_too_few_blocks_is_nan_not_inf(self, srw3):
        # a positive tail with no dyadic window to fit has no exponent;
        # inf is kept for a tail that vanishes
        diag = wl.return_tail(srw3, 16, 40)
        assert diag.value > 0 and diag.windows == ()
        assert math.isnan(diag.eta_hat)

    def test_bernoulli_windows_geometric(self, bern07):
        diag = wl.return_tail(bern07, 16, 1024)
        assert all(slope >= 2 for _, slope in diag.windows)
        assert diag.eta_hat > 2

    def test_srw3_diffusive_exponent(self, srw3):
        diag = wl.return_tail(srw3, 64, 2048)
        assert diag.eta_hat == pytest.approx(0.5, abs=0.05)

    def test_bad_range(self, bern07):
        with pytest.raises(wl.BadParam):
            wl.return_tail(bern07, 10, 10)
