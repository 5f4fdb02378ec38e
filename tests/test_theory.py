from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import walklab as wl


class TestMomentLimit:
    def test_alpha_zero_is_gamma(self):
        p = wl.moment_limit(0, 0.4)
        assert p.value == pytest.approx(0.4, abs=1e-9)

    def test_alpha_one_is_one(self):
        p = wl.moment_limit(1, 0.4)
        assert p.value == pytest.approx(1.0, abs=1e-9)

    def test_alpha_two_closed_form(self):
        p = wl.moment_limit(2, 0.4)
        assert p.value == pytest.approx((2 - 0.4) / 0.4, abs=1e-8)

    def test_gamma_one_degenerate(self):
        assert wl.moment_limit(3.5, 1.0).value == 1.0

    def test_bad_gamma(self):
        for g in (0.0, -0.1, 1.5):
            with pytest.raises(wl.BadParam, match="escape probability must be in"):
                wl.moment_limit(2, g)

    def test_truncation_bound_honest(self):
        # compare tol=1e-6 partial sum against a much tighter one
        loose = wl.moment_limit(2.5, 0.3, tol=1e-6)
        tight = wl.moment_limit(2.5, 0.3, tol=1e-14)
        assert abs(loose.value - tight.value) <= loose.truncation_error

    @settings(max_examples=30, deadline=None)
    @given(g=st.floats(0.05, 0.99))
    def test_identities_all_gamma(self, g):
        assert wl.moment_limit(0, g).value == pytest.approx(g, rel=1e-7)
        assert wl.moment_limit(1, g).value == pytest.approx(1.0, rel=1e-7)


class TestPrediction:
    @pytest.mark.parametrize("value,err", [
        (-1.0, 0.0), (1.0, -1e-3), (1.0, float("inf")), (1.0, float("nan"))])
    def test_invalid_raises(self, value, err):
        with pytest.raises(wl.InvariantViolation):
            wl.Prediction(kind="k", inputs={}, value=value, truncation_error=err)


class TestGeometricPmf:
    def test_point_mass(self):
        assert wl.geometric_pmf(1.0, 1) == 1.0

    def test_simple_value(self):
        assert wl.geometric_pmf(0.4, 2) == pytest.approx(0.24)

    def test_normalization(self):
        total = sum(wl.geometric_pmf(0.4, u) for u in range(1, 201))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(wl.BadParam, match="escape probability must be in"):
            wl.geometric_pmf(0.0, 1)
        with pytest.raises(wl.BadParam):
            wl.geometric_pmf(0.4, 0)


class TestQjLimit:
    def test_values(self):
        assert wl.qj_limit(1.0, 1) == 1.0
        assert wl.qj_limit(0.4, 1) == pytest.approx(0.16)

    def test_consistency_with_moments(self):
        g = 0.37
        js = range(1, 400)
        assert sum(wl.qj_limit(g, j) for j in js) == pytest.approx(g, abs=1e-12)
        assert sum(j * wl.qj_limit(g, j) for j in js) == pytest.approx(1.0, abs=1e-10)


class TestExpectedQjFormula:
    def test_bernoulli_j2_n2(self, bern07_exact):
        ret = wl.taboo_survival(bern07_exact, 2)
        assert wl.expected_qj_formula(ret, 2, 2) == Fraction(21, 50)

    def test_bernoulli_j1_n2(self, bern07_exact):
        ret = wl.taboo_survival(bern07_exact, 2)
        assert wl.expected_qj_formula(ret, 1, 2) == Fraction(54, 25)

    def test_deterministic(self, det1):
        ret = wl.taboo_survival(det1, 10)
        for n in (0, 1, 5, 10):
            assert wl.expected_qj_formula(ret, 1, n) == pytest.approx(n + 1)
        assert wl.expected_qj_formula(ret, 2, 10) == 0
        assert wl.expected_qj_formula(ret, 3, 10) == 0

    def test_horizon_guard(self, bern07_exact):
        ret = wl.taboo_survival(bern07_exact, 2)
        with pytest.raises(wl.BadParam, match=r"ReturnLaw horizon 2 < n=3"):
            wl.expected_qj_formula(ret, 1, 3)

    def test_float_matches_exact(self, bern07, bern07_exact):
        ret_f = wl.taboo_survival(bern07, 10)
        ret_e = wl.taboo_survival(bern07_exact, 10)
        for j in (1, 2, 3):
            fv = wl.expected_qj_formula(ret_f, j, 10)
            ev = wl.expected_qj_formula(ret_e, j, 10)
            assert fv == pytest.approx(float(ev), abs=1e-12)

    def test_ratio_converges_to_qj_limit(self, bern07):
        # finite-n expectation against the n -> inf limit, 10% band
        ret = wl.taboo_survival(bern07, 4096)
        for j in (1, 2):
            ratio = wl.expected_qj_formula(ret, j, 4096) / 4096
            assert ratio == pytest.approx(wl.qj_limit(0.4, j), rel=0.10)


def _reference_qj(ret, n_max, j_max):
    """E(Q_j(n)) for j <= j_max, n <= n_max by plain Fraction convolution."""
    g = list(ret.gamma_seq[:n_max + 1])
    tau = [Fraction(0), *ret.tau_pmf()[:n_max]]
    conv = g  # gamma * tau^{*(j-1)}, truncated at n_max
    table = {}
    for j in range(1, j_max + 1):
        for n in range(n_max + 1):
            table[j, n] = sum(conv[i] * g[n - i] for i in range(n + 1))
        conv = [sum(conv[i] * tau[m - i] for i in range(m + 1))
                for m in range(n_max + 1)]
    return table


_KRONECKER_LAWS = {
    "bern07": lambda: wl.bernoulli("7/10", exact=True),
    "srw1": lambda: wl.srw(1, exact=True),
    "srw2": lambda: wl.srw(2, exact=True),
    "srw3": lambda: wl.srw(3, exact=True),
    "det1": lambda: wl.deterministic([1], exact=True),
    # drift on both axes and a zero atom; denom 24
    "drifted_lazy2": lambda: wl.make_law(2, [
        ((1, 0), Fraction(1, 3)), ((-1, 0), Fraction(1, 6)), ((0, 1), Fraction(1, 4)),
        ((0, -1), Fraction(1, 8)), ((0, 0), Fraction(1, 8))], exact=True),
}


class TestKroneckerQj:
    """The packed big-integer convolution against a plain Fraction one."""

    @pytest.mark.parametrize("name", list(_KRONECKER_LAWS))
    def test_matches_fraction_convolution(self, name):
        ret = wl.taboo_survival(_KRONECKER_LAWS[name](), 40)
        for (j, n), want in _reference_qj(ret, 40, 6).items():
            got = wl.expected_qj_formula(ret, j, n)
            assert type(got) is Fraction and got == want, (j, n)
            if j > n + 1:  # j visits need at least j-1 steps
                assert got == Fraction(0)

    def test_bernoulli_wide_slots(self, bern07_exact):
        ret = wl.taboo_survival(bern07_exact, 150)
        assert wl.expected_qj_formula(ret, 3, 150) == _reference_qj(ret, 150, 3)[3, 150]

    def test_wrong_base_is_refused(self, bern07_exact):
        ret = wl.taboo_survival(bern07_exact, 4)
        wrong = wl.ReturnLaw(horizon=4, gamma_seq=ret.gamma_seq, exact=True, denom=5)
        with pytest.raises(wl.InvariantViolation, match=r"denom\*\*2 = 5\*\*2"):
            wl.expected_qj_formula(wrong, 2, 4)


class TestQjGenerating:
    def test_deterministic_geometric_series(self, det1):
        n, s = 12, 0.25
        ret = wl.taboo_survival(det1, n)
        pred = wl.qj_generating(ret, 1, s, n)
        a_trunc = (1 - s ** (n + 1)) / (1 - s)
        assert pred.value == pytest.approx(a_trunc ** 2, rel=1e-12)

    def test_s_zero(self, bern07_exact):
        ret = wl.taboo_survival(bern07_exact, 4)
        assert wl.qj_generating(ret, 1, 0.0, 4).value == 1.0

    def test_matches_coefficient_sum(self, bern07_exact):
        n, s = 12, 0.3
        ret = wl.taboo_survival(bern07_exact, n)
        for j in (1, 2, 3):
            pred = wl.qj_generating(ret, j, s, n)
            coeff = sum(s ** k * float(wl.expected_qj_formula(ret, j, k))
                        for k in range(n + 1))
            assert abs(pred.value - coeff) <= pred.truncation_error
            assert pred.truncation_error <= 1e-3

    def test_bad_s(self, det1):
        ret = wl.taboo_survival(det1, 4)
        with pytest.raises(wl.BadParam):
            wl.qj_generating(ret, 1, 1.0, 4)


class TestGreenCross:
    def test_bernoulli_n1(self, bern07):
        assert wl.green_cross_sum(bern07, 1) == pytest.approx(0.42)

    def test_deterministic_zero(self, det1):
        assert wl.green_cross_sum(det1, 8) == 0.0

    def test_identity_matches_direct(self):
        # the direct sum over y of G_n(0,y) G_n(0,-y), from exact pmf snapshots
        n = 10
        for law in (wl.srw(3, exact=True), wl.srw(2, exact=True)):
            green = {}
            for m in range(1, n + 1):
                for y, mass in wl.pmf_evolve(law, m).masses.items():
                    green[y] = green.get(y, 0) + mass
            direct = sum(gy * green.get(tuple(-c for c in y), 0)
                         for y, gy in green.items())
            assert isinstance(direct, Fraction)
            assert wl.green_cross_sum(law, n) == pytest.approx(float(direct), rel=1e-12)

    def test_srw5_bounded(self):
        vals = {n: wl.green_cross_sum(wl.srw(5), n) for n in (64, 128, 256)}
        assert vals[128] / vals[64] < 1.2
        assert vals[256] / vals[128] < 1.2


class TestSupPmf:
    def test_m_zero(self, srw3):
        assert wl.sup_pmf_sequence(srw3, 0).tolist() == [1.0]

    def test_bernoulli_m2(self, bern07):
        assert wl.sup_pmf_sequence(bern07, 2)[2] == pytest.approx(0.49)

    def test_exact_mode(self, bern07_exact, bern07):
        # a rational law runs in doubles, like its float twin
        assert (wl.sup_pmf_sequence(bern07_exact, 2).tolist()
                == wl.sup_pmf_sequence(bern07, 2).tolist())

    def test_sequence_matches_single(self):
        seq = wl.sup_pmf_sequence(wl.srw(3), 16)
        for m in (7, 16):
            exact = max(wl.pmf_evolve(wl.srw(3, exact=True), m).masses.values())
            assert seq[m] == pytest.approx(float(exact), rel=1e-12)

    def test_negative_m_is_bad_param(self, srw3):
        with pytest.raises(wl.BadParam):
            wl.sup_pmf_sequence(srw3, -1)


class TestMomentIdentityAgainstOracle:
    def test_el_alpha_equals_weighted_qsum(self, bern07_exact):
        # E(L_n(a)) = sum_j j^a E(Q_j(n)), exactly, via the oracle
        for n in (4, 8):
            summary = wl.enumerate_paths(bern07_exact, n, alphas=(2, 3))
            for a in (2, 3):
                weighted = sum(Fraction(j) ** a * q
                               for j, q in summary.expected_q.items())
                assert weighted == summary.expected_l[a]
