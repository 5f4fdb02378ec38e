import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import walklab as wl
from walklab.gamma import (
    SparseEvolver,
    _axis_return_sequence,
    _dense_return_sequence,
)

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


class TestPmfEvolve:
    def test_bernoulli_two_steps(self, bern07_exact):
        field = wl.pmf_evolve(bern07_exact, 2)
        assert field.masses == {(2,): Fraction(49, 100), (0,): Fraction(21, 50),
                                (-2,): Fraction(9, 100)}

    def test_zero_steps(self, srw3):
        assert wl.pmf_evolve(srw3, 0).masses == {(0, 0, 0): 1.0}

    def test_srw3_origin_return(self):
        field = wl.pmf_evolve(wl.srw(3, exact=True), 2)
        assert field.mass_at((0, 0, 0)) == Fraction(1, 6)

    def test_float_mass_conservation(self, srw3):
        field = wl.pmf_evolve(srw3, 40)
        assert abs(field.total_mass() - 1.0) < 1e-12

    def test_float_matches_exact(self, bern07, bern07_exact):
        f_float = wl.pmf_evolve(bern07, 12)
        f_exact = wl.pmf_evolve(bern07_exact, 12)
        for point, mass in f_exact.masses.items():
            assert f_float.masses[point] == pytest.approx(float(mass), abs=1e-14)

    def test_budget(self):
        with pytest.raises(wl.ResourceLimit):
            wl.pmf_evolve(wl.srw(3, exact=True), 30, site_budget=100)
        with pytest.raises(wl.ResourceLimit):
            wl.pmf_evolve(wl.srw(3), 300, cell_budget=1000)


class TestReturnSequenceEngines:
    @pytest.mark.parametrize("law_maker", [
        lambda: wl.srw(2), lambda: wl.srw(3), lambda: wl.drifted_srw(2, 0.3),
        lambda: wl.make_law(1, [((1,), 0.4), ((-1,), 0.4), ((0,), 0.2)], False),
    ])
    def test_engines_agree(self, law_maker):
        law = law_maker()
        n = 20
        ax = _axis_return_sequence(law, n)
        de = _dense_return_sequence(law, n, 1 << 25)
        assert np.abs(ax - de).max() < 1e-13

    @pytest.mark.parametrize("law_maker", [diag3, king2])
    def test_dense_matches_exact_non_axis(self, law_maker):
        n = 16
        ev = SparseEvolver(law_maker(exact=True))
        exact = [1.0]
        for _ in range(n):
            ev.step()
            exact.append(float(ev.origin_mass()))
        de = _dense_return_sequence(law_maker(), n, 1 << 25)
        assert np.abs(np.array(exact) - de).max() < 1e-15

    def test_against_exact_convolution(self):
        ev = SparseEvolver(wl.srw(3, exact=True))
        exact = [1.0]
        for _ in range(12):
            ev.step()
            exact.append(float(ev.origin_mass()))
        got = wl.return_sequence(wl.srw(3), 12)
        assert np.abs(np.array(exact) - got).max() < 1e-14

    def test_non_unit_steps_use_dense(self):
        law = wl.make_law(1, [((2,), 0.5), ((-2,), 0.5)], False)
        r = wl.return_sequence(law, 8)
        assert r[2] == pytest.approx(0.5)  # +2 then -2 or vice versa

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

    def test_deterministic_gamma_one(self, det1):
        est = wl.green_at_origin(det1, 50)
        assert est.value == 1.0 and est.error == 0.0

    def test_srw3(self, srw3):
        est = wl.green_at_origin(srw3, 512)
        assert est.value == pytest.approx(SRW3_GAMMA, abs=1e-3)
        assert est.value + est.error >= SRW3_GAMMA >= est.value - est.error

    def test_recurrent_guard(self):
        with pytest.raises(wl.SuspectedRecurrence):
            wl.green_at_origin(wl.srw(1), 1024)
        with pytest.raises(wl.SuspectedRecurrence):
            wl.green_at_origin(wl.srw(2), 1024)

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
        ret = wl.ReturnLaw(horizon=2, gamma_seq=(1.0, 0.5, 0.7), exact=False)
        with pytest.raises(wl.InvariantViolation):
            ret.check_invariants()
        bad_start = wl.ReturnLaw(horizon=0, gamma_seq=(Fraction(1, 2),), exact=True)
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
        a = wl.mc_escape(bern07, 128, 400, seed=9, threads=1)
        b = wl.mc_escape(bern07, 128, 400, seed=9, threads=3)
        assert a.value == b.value

    def test_thread_invariance_under_spawn(self):
        # os.fork is disabled, so the pool must take the spawn start method
        code = ("import multiprocessing, os\n"
                "import walklab as wl\n"
                "def no_fork():\n"
                "    raise RuntimeError('fork called')\n"
                "os.fork = no_fork\n"
                "multiprocessing.set_start_method('spawn')\n"
                "law = wl.bernoulli(0.7)\n"
                "a = wl.mc_escape(law, 128, 400, seed=9, threads=1)\n"
                "b = wl.mc_escape(law, 128, 400, seed=9, threads=2)\n"
                "print(a.value == b.value)\n")
        src = str(Path(wl.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src), check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.strip() == "True"

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


class TestReturnTail:
    def test_deterministic_infinite_decay(self, det1):
        diag = wl.return_tail(det1, 4, 64)
        assert diag.value == 0.0 and math.isinf(diag.eta_hat)
        assert diag.windows == ()

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
