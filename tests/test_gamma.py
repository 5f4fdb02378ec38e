import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import evolver_reference
import gamma_reference
import mc_reference
import walklab as wl
from walklab import gamma, path, rng
from walklab.gamma import (MC_BLOCK, _MC_BATCH, _MC_FIRST_BLOCK, _axis_return_sequence,
                          _dense_return_sequence)
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

    def test_drifted_2d_transient(self):
        est = wl.green_at_origin(wl.drifted_srw(2, 0.5), 256)
        assert 0 < est.value <= 1

    def test_diag3_is_transient(self):
        # odd-time returns are impossible for diag3; rounding noise there
        # once entered the tail fit and raised SuspectedRecurrence
        assert (wl.return_sequence(diag3(), 128)[1::2] == 0).all()
        est = wl.green_at_origin(diag3(), 128)
        assert est.value == pytest.approx(DIAG3_GAMMA_128, rel=1e-9)


def _estimators(n):
    """The Green and DP legs at horizon n, and auto_gamma, by name."""
    return {"green": lambda law: wl.green_at_origin(law, n),
            "dp": lambda law: wl.taboo_gamma_estimate(law, n), "auto": wl.auto_gamma}


def _answer(estimate, law):
    """The estimate's (value, error), or the class of the WalklabError it raised."""
    try:
        est = estimate(law)
    except wl.WalklabError as exc:
        return type(exc)
    return est.value, est.error


# Recurrent laws (d <= 2, mean zero), whose gamma is 0, and the horizons
# each is refused at: the exact srw(2) only at N = 8, so that a leg which
# wrongly runs its exact DP still fails the test quickly.
RECURRENT = {
    "srw1": (wl.srw(1), (4, 6, 10, 64, 1024)),
    "srw2": (wl.srw(2), (4, 6, 10, 64, 1024)),
    "srw2-exact": (wl.srw(2, exact=True), (8,)),
    "lazy1": (wl.make_law(1, [((1,), 0.4), ((-1,), 0.4), ((0,), 0.2)], False),
              (4, 6, 10, 64, 1024)),
    "triangle2": (wl.make_law(2, [((1, 0), 1 / 3), ((0, 1), 1 / 3), ((-1, -1), 1 / 3)],
                              False), (4, 6, 10, 64, 1024)),
    "up2-down1-mean0": (wl.make_law(1, [((2,), 1 / 3), ((-1,), 2 / 3)], False),
                        (4, 6, 10, 64, 1024)),
}

# Transient (law, N) pairs whose fit window holds no nonzero term after
# an earlier return (up2_down1 returns at multiples of 3)
SHORT_WINDOWS = [("up2_down1", 4), ("up2_down1", 5)]

# The start of the refusal of an empty fit window
EMPTY_WINDOW = "no nonzero P(S_m=0) in the tail-fit window"

# {+1: 4/5, -9: 1/5} first returns at m = 10, and rho = 0.964, so at N = 8
# the Chernoff cap rho^9 / (1 - rho) on the tail is about 20
FAR_RETURN = wl.make_law(1, [((-9,), 0.2), ((1,), 0.8)], False)

# Drifted laws whose return probabilities underflow to 0 before the fit
# window ends, with gamma and horizons: bernoulli(0.999)'s last nonzero
# P(S_m=0) is at m = 268, so N = 2665 leaves two nonzero window terms,
# N = 2685 one and N = 4096 (auto_gamma's horizon) none.  Their tail is 0;
# a longer horizon would not fill the window, so it is no refusal.
UNDERFLOWED = [(wl.bernoulli(0.999), 0.998, (2665, 2685, 4096)),
               (wl.make_law(1, [((1,), 0.999), ((0,), 0.001)], False), 0.999, (4096,))]

# A grid of transient laws and horizons short enough for tier-1
AGREEMENT_LAWS = ("bernoulli(0.6)", "bernoulli(0.7)", "bernoulli(0.9)", "up2_down1",
                  "drifted_srw(2,0.1)", "srw3", "diag3")
AGREEMENT_NS = (4, 5, 6, 7, 8, 10, 12, 16, 24, 32, 48, 64)


class TestRefusals:
    """The Green and DP legs refuse the same (law, N): a recurrent law from
    the law itself, before any work, and a horizon too short for the tail
    fit that both legs share."""

    @pytest.mark.parametrize("name", sorted(RECURRENT))
    def test_recurrent_law_is_refused(self, name):
        law, horizons = RECURRENT[name]
        for n in horizons:
            for leg, estimate in _estimators(n).items():
                assert _answer(estimate, law) is wl.SuspectedRecurrence, (leg, n)

    @pytest.mark.parametrize("leg", ["green", "dp", "auto"])
    def test_recurrence_is_decided_before_any_work(self, monkeypatch, leg):
        def work(*args):
            raise AssertionError("an engine ran on a recurrent law")
        monkeypatch.setattr(gamma, "return_sequence", work)
        monkeypatch.setattr(gamma, "taboo_survival", work)
        for law in (wl.srw(1), wl.srw(2)):
            with pytest.raises(wl.SuspectedRecurrence):
                _estimators(64)[leg](law)

    def test_float_mean_within_tolerance_is_recurrent(self):
        tol = wl.steps.FLOAT_MASS_TOL
        near = wl.make_law(1, [((1,), 0.5 + 0.4 * tol), ((-1,), 0.5 - 0.4 * tol)], False)
        assert 0 < wl.mean_and_second_moment(near)[0][0] <= tol
        for leg, estimate in _estimators(64).items():
            assert _answer(estimate, near) is wl.SuspectedRecurrence, leg
            # a mean of 2e-6 is a drift: the horizon may be too short, but
            # the law is not called recurrent
            assert _answer(estimate, wl.bernoulli(0.500001)) is not wl.SuspectedRecurrence, leg

    @pytest.mark.parametrize("name,n", SHORT_WINDOWS)
    def test_short_fit_window_is_bad_param(self, name, n):
        law = gamma_reference.KNOWN[name].law
        for leg in ("green", "dp"):
            with pytest.raises(wl.BadParam, match=f"^{re.escape(EMPTY_WINDOW)} m = 4\\.\\.{n}; "
                               f"the law is transient, so the horizon N = {n} is too short "
                               "for the tail fit: raise --N$"):
                _estimators(n)[leg](law)

    def test_first_return_after_horizon_is_bad_param(self):
        for leg in ("green", "dp"):
            with pytest.raises(wl.BadParam,
                               match=f"^{re.escape(EMPTY_WINDOW)} m = 4\\.\\.8; .* raise --N$"):
                _estimators(8)[leg](FAR_RETURN)
        green, dp = (_estimators(2048)[leg](FAR_RETURN) for leg in ("green", "dp"))
        assert abs(green.value - dp.value) <= green.error + dp.error, (green, dp)

    @pytest.mark.parametrize("law", [
        wl.deterministic([1]), wl.make_law(1, [((1,), Fraction(1, 2)), ((2,), Fraction(1, 2))],
                                           True)], ids=["det1", "up1-or-up2"])
    def test_law_that_cannot_return_has_tail_zero(self, law):
        # 0 is outside the hull of the atoms, so gamma is 1 with no error
        for leg in ("green", "dp"):
            est = _estimators(8)[leg](law)
            assert (est.value, est.error) == (1.0, 0.0), leg

    @pytest.mark.parametrize("law,want,horizons", UNDERFLOWED,
                             ids=["bernoulli(0.999)", "up-or-stay(0.999)"])
    def test_underflowed_series_has_tail_zero(self, law, want, horizons):
        for n in horizons:
            for leg, estimate in _estimators(n).items():
                est = estimate(law)
                assert gamma_reference.covers(est.value, est.error, want), (leg, n, est)

    def test_legs_refuse_the_same_pairs_and_cover_gamma(self):
        # the only refusal left for a transient law is an empty fit window
        for name in AGREEMENT_LAWS:
            known = gamma_reference.KNOWN[name]
            for n in AGREEMENT_NS:
                legs = {}
                for leg in ("green", "dp"):
                    try:
                        est = _estimators(n)[leg](known.law)
                    except wl.BadParam as exc:
                        assert str(exc).startswith(EMPTY_WINDOW), (name, n, leg, exc)
                        legs[leg] = None
                    else:
                        assert gamma_reference.covers(est.value, est.error, known.gamma), \
                            (name, n, leg, est)
                        legs[leg] = est
                assert (legs["green"] is None) == (legs["dp"] is None), (name, n, legs)


FIVE_ATOM_2D = gamma_reference.FIVE_ATOM_2D

# Laws whose walk cannot return, 0 outside the hull of the atoms, in d = 1
# to 3.  ROADMAP item 8's law ran auto_gamma's box DP for 40 s into
# ResourceLimit before gamma = 1 was decided from the law.
ITEM8 = wl.make_law(3, [((-2, 0, -2), Fraction(3, 7)), ((1, 2, -1), Fraction(1, 7)),
                        ((2, 0, -1), Fraction(1, 7)), ((2, 1, 2), Fraction(2, 7))], True)
CANNOT_RETURN = {
    "item8": ITEM8, "item8-float": ITEM8.to_float(),
    "det1": wl.deterministic([1]), "det-3": wl.deterministic([-3], exact=True),
    "up1-or-up2": wl.make_law(1, [((1,), 0.5), ((2,), 0.5)], False),
    "e1-or-e2": wl.make_law(2, [((1, 0), Fraction(3, 4)), ((0, 1), Fraction(1, 4))], True),
    "e1-e2-e3": wl.make_law(3, [((1, 0, 0), 0.5), ((0, 1, 0), 0.25), ((0, 0, 1), 0.25)],
                            False),
    "tilted3": wl.make_law(3, [((1, 0, 1), 0.5), ((0, 1, 1), 0.25), ((1, 1, -1), 0.25)],
                           False),
}


class TestCannotReturn:
    """A law whose atoms all lie in an open half-space theta . x < 0 can
    never return to 0; _chernoff_rho certifies it in exact rationals, and
    both gamma legs answer 1.0 +- 0.0 before any engine work."""

    @pytest.mark.parametrize("name", CANNOT_RETURN)
    def test_certified_with_k_none(self, name):
        rho, k = gamma._chernoff_rho(CANNOT_RETURN[name])
        assert k is None and 0 <= rho < 1

    @pytest.mark.parametrize("name", CANNOT_RETURN)
    def test_every_leg_is_one_without_an_engine(self, monkeypatch, name):
        def work(*args):
            raise AssertionError("an engine ran on a law that cannot return")
        monkeypatch.setattr(gamma, "return_sequence", work)
        monkeypatch.setattr(gamma, "taboo_survival", work)
        law = CANNOT_RETURN[name]
        green, dp, auto = (_estimators(64)[leg](law) for leg in ("green", "dp", "auto"))
        assert green.to_json_dict() == {"value": 1.0, "error": 0.0, "method": "green_series",
                                        "params": {"N": 64, "series_sum": 1.0, "tail": 0.0}}
        assert dp.to_json_dict() == {"value": 1.0, "error": 0.0, "method": "taboo_dp",
                                     "params": {"N": 64}}
        assert (auto.value, auto.error, auto.params["tail"]) == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("law", [
        # a zero atom: the walk returns by staying
        gamma_reference.KNOWN["stay2(0.99)"].law,
        wl.make_law(1, [((1,), 0.5), ((0,), 0.5)], False),
        # 0 on a face of the hull: the walk returns along e1
        gamma_reference.KNOWN["edge2(0.001)"].law,
        gamma_reference.KNOWN["face3(0.001)"].law,
        # 0 inside the hull
        wl.bernoulli(0.7), wl.srw(3), wl.drifted_srw(3, 0.1), FIVE_ATOM_2D],
        ids=["stay2", "up-or-stay", "edge2", "face3", "bernoulli(0.7)", "srw3",
             "drifted_srw(3,0.1)", "five-atom-2d"])
    def test_a_law_that_can_return_is_not_certified(self, law):
        assert gamma._chernoff_rho(law)[1] is not None

    @pytest.mark.parametrize("leg", ["green", "dp"])
    @pytest.mark.parametrize("n,message", [
        (-1, "^horizon must be >= 0, got -1$"),
        *((n, f"^horizon N = {n} is below TAIL_FIT_START = 4, the first term of the tail fit$")
          for n in (0, 3))])
    def test_short_horizons_are_still_refused(self, leg, n, message):
        for law in (ITEM8, wl.deterministic([1])):
            with pytest.raises(wl.BadParam, match=message):
                _estimators(n)[leg](law)


class TestChernoffRho:
    """rho = inf over theta of E exp(theta . X), the return probabilities'
    exponential rate, which the tilted tail of both gamma legs takes from
    the law."""

    @pytest.mark.parametrize("p", [0.51, 0.6, 0.7, 0.9, 0.999])
    def test_bernoulli_closed_form(self, p):
        rho, k = gamma._chernoff_rho(wl.bernoulli(p))
        assert abs(rho - 2 * math.sqrt(p * (1 - p))) <= 1e-14 and k == 1

    @pytest.mark.parametrize("d,b", [(d, b) for d in (1, 2, 3, 5) for b in (0.01, 0.1, 0.5)])
    def test_drifted_srw_closed_form(self, d, b):
        want = (d - 1) / d + math.sqrt(1 - b * b) / d
        rho, k = gamma._chernoff_rho(wl.drifted_srw(d, b))
        assert abs(rho - want) <= 1e-14 and k == d

    @pytest.mark.parametrize("law", [
        *(wl.srw(d, exact=exact) for d in range(1, 6) for exact in (False, True)),
        diag3(), diag3(exact=True), king2(), *(law for law, _ in RECURRENT.values()),
        # a flat 3-D law, and a float mean within FLOAT_MASS_TOL of zero
        wl.make_law(3, [((0, 0, 1), 2e-5), ((0, 0, -1), 2e-5),
                        *((e, (1 - 4e-5) / 4) for e in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                                         (0, -1, 0)))], False),
        wl.make_law(1, [((1,), 0.5 + 4e-13), ((-1,), 0.5 - 4e-13)], False)])
    def test_zero_mean_is_exactly_one(self, law):
        # from theta = 0 Newton would read srw(3) as 0.9999999999999999
        assert gamma._chernoff_rho(law) == (1.0, law.d)

    def test_deterministic_law_is_below_1e_20(self, det1):
        assert gamma._chernoff_rho(det1)[0] < 1e-20

    @pytest.mark.parametrize("name,k", [("stay2(0.99)", 0), ("edge2(0.001)", 1),
                                        ("face3(0.001)", 2), ("bernoulli(0.9)", 1),
                                        ("drifted_srw(3,0.02)", 3)])
    def test_k_is_the_dimension_of_the_face_holding_0(self, name, k):
        # the returns of a walk with 0 on the boundary of its hull are those
        # of the walk on the face that holds 0, of a lower dimension
        assert gamma._chernoff_rho(gamma_reference.KNOWN[name].law)[1] == k

    @pytest.mark.parametrize("law", [*(k.law for k in gamma_reference.KNOWN.values()),
                                     FIVE_ATOM_2D],
                             ids=[*gamma_reference.KNOWN, "five-atom-2d"])
    def test_bounds_return_probabilities(self, law):
        # on {S_m = 0}, exp(theta . S_m) = 1, so P(S_m = 0) <= f(theta)^m
        rho = gamma._chernoff_rho(law)[0]
        r = wl.return_sequence(law, 256)
        assert (r <= rho ** np.arange(257) * (1 + 1e-12)).all()

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5])
    def test_upper_gamma_matches_scipy(self, d):
        a = 1 - d / 2
        for z in np.geomspace(1e-10, 50, 40):
            z = float(z)
            got = gamma._upper_gamma(a, z)
            # the integral of u^(a-1) e^-u over [z, inf) in s = log u, to z + 50
            want, _ = integrate.quad(lambda s: math.exp(a * s - math.exp(s)), math.log(z),
                                     math.log(z + 50), epsabs=0, epsrel=1e-13, limit=200)
            assert got == pytest.approx(want, rel=1e-12, abs=0), z
            closed = {0: math.exp(-z), 1: math.sqrt(math.pi) * special.gammaincc(0.5, z),
                      2: special.exp1(z), 4: special.expn(2, z) / z}
            if d in closed:
                assert got == pytest.approx(closed[d], rel=1e-12, abs=0), z

    def test_five_atom_2d_dp_bar_covers(self):
        # not axis-decomposable, so both legs run the box DP; at N = 96 the
        # DP is 3.5e-4 off, and its bar must cover that
        law = FIVE_ATOM_2D.to_float()
        green = wl.green_at_origin(law, 512)
        for n in (96, 192):
            dp = wl.taboo_gamma_estimate(law, n)
            assert abs(dp.value - green.value) <= dp.error + green.error, (n, dp, green)

    def test_nearly_zero_drift_tail_is_one_upper_gamma(self, monkeypatch):
        # lambda = -log rho is 2e-12, so a tail summed term by term would not
        # end; it is one incomplete gamma function
        calls = []
        upper_gamma = gamma._upper_gamma
        monkeypatch.setattr(gamma, "_upper_gamma",
                            lambda a, z: calls.append((a, z)) or upper_gamma(a, z))
        est = wl.green_at_origin(wl.bernoulli(0.500001), 64)
        assert len(calls) == 1
        assert gamma_reference.covers(est.value, est.error, 2e-6), est


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
        # kernel's lane bound does; the kernel's blocks end at
        # _MC_FIRST_BLOCK + k MC_BLOCK, the reference's at k MC_BLOCK
        first = _MC_FIRST_BLOCK
        for n in (1, 5, first - 1, first, first + 1, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1,
                  first + MC_BLOCK - 1, first + MC_BLOCK, first + MC_BLOCK + 1,
                  2 * MC_BLOCK + 3, 4 * MC_BLOCK):
            for seed in (0, 7):
                for lo, hi in ((3, 3 + _MC_BATCH + 5), (_MC_BATCH - 1, _MC_BATCH)):
                    want = mc_reference.escape_range(law, n, seed, lo, hi)
                    assert gamma._escape_range((law, n, seed, lo, hi)) == want, (n, seed, lo)

    def test_escape_bound_keeps_a_last_step_return(self):
        # the kernel's second block ends at step L = _MC_FIRST_BLOCK +
        # MC_BLOCK; steps +1 and -L can meet 0 only every L + 1 steps, and
        # about 1/e of these walks stand at -1 after the second block, one
        # step from 0 with one step left; a bound one step too tight would
        # count their returns as escapes
        jump = _MC_FIRST_BLOCK + MC_BLOCK
        law = wl.make_law(1, [((1,), jump / (jump + 1)), ((-jump,), 1 / (jump + 1))], False)
        n, m = jump + 1, 200
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

    def test_srw3_needs_one_lane_below_2_to_20_steps(self, srw3):
        # each axis's radix is 2n + 1, and (2n + 1)**3 < 2**63 iff n < 2**20
        coords = _sampling_arrays(srw3)[0]
        assert [axes for axes, _ in gamma._mc_lanes(coords, 2 ** 20 - 1)] == [[0, 1, 2]]
        assert [axes for axes, _ in gamma._mc_lanes(coords, 2 ** 20)] == [[0, 1], [2]]

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
                           match=r"^a path of 11 steps exceeds STEP_BUDGET = 10 steps$"):
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
    # bernoulli(0.7) at N = 4 and bernoulli(0.6) at N = 6 fit C from one
    # window term, and at N = 64 bernoulli(0.6)'s returns (4pq = 0.96 per
    # two steps) are still far from their geometric decay
    *((f"bernoulli({p})", leg, ns)
      for p, ns in (("0.7", (4, 64, 200, 2048)), ("0.9", (64, 200, 2048)),
                    ("0.6", (6, 64, 200, 2048)))
      for leg in ("green", "dp")),
    # drifted 2-D laws, whose returns decay like m^{-1} rho^m
    ("drifted_srw(2,0.1)", "green", (96, 128, 256, 512, 1024)),
    ("drifted_srw(2,0.1)", "dp", (96, 128, 256)),
    *(("drifted_srw(2,0.01)", leg, (256,)) for leg in ("green", "dp")),
    # 0 on the boundary of the hull: the returns decay like m^{-k/2} rho^m
    # with k the dimension of the face that holds 0
    *((name, leg, ns) for name, ns in (("stay2(0.99)", (512,)), ("edge2(0.001)", (64, 256)),
                                       ("face3(0.001)", (64,)))
      for leg in ("green", "dp")),
    ("face3(0.001)", "green", (512,)),
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

    @pytest.mark.parametrize("name", ["srw4", "srw5", "drifted_srw(2,0.1)",
                                      "drifted_srw(2,0.01)", "stay2(0.999)", "edge2(0.001)"])
    def test_auto_gamma_covers_true_gamma(self, name):
        known = gamma_reference.KNOWN[name]
        est = wl.auto_gamma(known.law)
        assert est.params["N"] == 4096
        assert gamma_reference.covers(est.value, est.error, known.gamma), (est, known)

    @pytest.mark.parametrize("b", ["0.02", "0.05", "0.1"])
    def test_auto_gamma_drifted_3d_within_1e_6(self, b):
        # rho^4096 is 0.76 at b = 0.02, so the tail is only right with rho in it
        known = gamma_reference.KNOWN[f"drifted_srw(3,{b})"]
        est = wl.auto_gamma(known.law)
        assert abs(est.value - known.gamma) <= 1e-6, (est, known)
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
