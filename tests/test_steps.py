from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

import itertools

import walklab as wl
from walklab import rng
from walklab.steps import _COUNT_MAX_ATOMS, _atom_indices, _sampling_arrays


class TestValidate:
    def test_d1_two_atoms_valid(self, bern07):
        assert wl.validate(bern07) is bern07

    def test_collinear_support_rejected(self):
        with pytest.raises(wl.BadParam, match="law is not genuinely d-dimensional"):
            wl.make_law(2, [((1, 0), 0.5), ((2, 0), 0.5)], exact=False)

    def test_srw3_valid(self):
        law = wl.srw(3)
        assert len(law.atoms) == 6
        assert wl.validate(law) is law

    def test_duplicate_atom(self):
        with pytest.raises(wl.BadParam, match="duplicate support points in atom list"):
            wl.make_law(1, [((1,), 0.5), ((1,), 0.5)], exact=False)

    def test_mass_not_one(self):
        with pytest.raises(wl.BadParam, match=r"masses sum to 0\.9, not 1 within 1e-12"):
            wl.make_law(1, [((1,), 0.5), ((-1,), 0.4)], exact=False)
        with pytest.raises(wl.BadParam, match="masses sum to 5/6, not 1"):
            wl.make_law(1, [((1,), Fraction(1, 2)), ((-1,), Fraction(1, 3))],
                        exact=True)

    def test_nonpositive_mass(self):
        with pytest.raises(wl.BadParam, match="all atom masses must be positive"):
            wl.make_law(1, [((1,), 1.5), ((-1,), -0.5)], exact=False)

    def test_exact_sum_is_exact(self):
        # 0.1 * 10 != 1 in floats, but Fractions must be spot on
        atoms = [((k,), Fraction(1, 10)) for k in range(1, 11)]
        assert wl.make_law(1, atoms, exact=True).exact


class TestBuiltins:
    def test_bernoulli_masses(self, bern07):
        assert dict(bern07.atoms) == {(1,): 0.7, (-1,): pytest.approx(0.3)}

    def test_srw_masses(self):
        law = wl.srw(3)
        assert all(m == pytest.approx(1 / 6) for m in law.masses)

    def test_deterministic_single_atom(self):
        law = wl.deterministic([1])
        assert law.atoms == (((1,), 1.0),)

    def test_unknown_family(self):
        with pytest.raises(wl.ConfigError, match="unknown family 'levy'"):
            wl.law_from_json({"family": "levy", "d": 1})

    def test_bad_p(self):
        with pytest.raises(wl.BadParam):
            wl.bernoulli(1.0)
        with pytest.raises(wl.BadParam):
            wl.bernoulli(0.0)
        with pytest.raises(wl.BadParam):
            wl.drifted_srw(2, 1.0)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("name,d,params", [
        ("srw", 1, {}), ("srw", 2, {}), ("srw", 5, {}),
        ("bernoulli", None, {"p": "7/10"}),
        ("bernoulli", None, {"p": 0.25}),
        ("drifted_srw", 3, {"bias": "1/5"}),
        ("deterministic", None, {"v": [2]}),
    ])
    def test_builtin_always_validates(self, name, d, params, exact):
        descriptor = {"family": name, "exact": exact, **params}
        if d is not None:
            descriptor["d"] = d
        law = wl.law_from_json(descriptor)
        assert wl.validate(law) is law
        assert law.exact is exact

    def test_drifted_bias_zero_is_srw(self):
        assert wl.drifted_srw(2, 0).atoms == wl.srw(2).atoms

    @pytest.mark.parametrize("call,what", [
        (lambda: wl.srw(True), "'d' = True"),
        (lambda: wl.srw(2.5), "'d' = 2.5"),
        (lambda: wl.drifted_srw(True, 0.1), "'d' = True"),
        (lambda: wl.deterministic([1.5]), "'atom coordinate' = 1.5"),
        (lambda: wl.make_law(1, [((1.5,), 1.0)], False), "'atom coordinate' = 1.5"),
        (lambda: wl.make_law(True, [((1,), 1.0)], False), "'d' = True"),
    ], ids=["srw-bool", "srw-fractional", "drifted-bool", "deterministic-v",
            "make_law-coordinate", "make_law-d"])
    def test_non_integral_is_bad_param(self, call, what):
        with pytest.raises(wl.BadParam, match=f"^{what} is not a valid integer$"):
            call()


def _steps(law, gen, size):
    """size steps drawn by sample_indices, as tuples of coordinates."""
    coords, _ = _sampling_arrays(law)
    return [tuple(int(c) for c in coords[i]) for i in wl.steps.sample_indices(law, gen, size)]


class TestSampling:
    def test_deterministic_always_same(self, det1):
        gen = rng.generator(0)
        assert _steps(det1, gen, 20) == [(1,)] * 20

    def test_frozen_stream_srw3(self):
        # guards bit-reproducibility of the (seed, law) -> sample stream
        gen = rng.generator(12345)
        got = _steps(wl.srw(3), gen, 6)
        assert got == [(0, -1, 0), (0, -1, 0), (0, 1, 0), (0, 1, 0),
                       (0, 0, -1), (0, -1, 0)]

    def test_same_seed_same_stream(self, bern07):
        g1, g2 = rng.generator(31), rng.generator(31)
        assert _steps(bern07, g1, 100) == _steps(bern07, g2, 100)

    def test_bernoulli_frequency(self, bern07):
        gen = rng.generator(1)
        idx = wl.steps.sample_indices(bern07, gen, 10 ** 6)
        freq_up = (idx == 1).mean()  # atoms sorted: (-1,) then (1,)
        assert abs(freq_up - 0.7) < 0.002

    def test_srw3_frequencies_chi_square(self):
        law = wl.srw(3)
        gen = rng.generator(2)
        idx = wl.steps.sample_indices(law, gen, 10 ** 6)
        counts = np.bincount(idx, minlength=6)
        assert abs(counts / 10 ** 6 - 1 / 6).max() < 0.002
        _, p = chisquare(counts)
        assert p > 1e-4

    def test_exact_law_sampling_uses_float_cdf(self, bern07_exact):
        coords, cdf = _sampling_arrays(bern07_exact)
        assert cdf[-1] == 1.0
        gen = rng.generator(4)
        assert _steps(bern07_exact, gen, 1)[0] in [(1,), (-1,)]


def _uniform_line(k):
    """Float d=1 law with equal mass on the k points -1..k-2."""
    return wl.make_law(1, [((x,), 1.0 / k) for x in range(-1, k - 1)], exact=False)


ATOM_MAP_LAWS = {
    "bern07": wl.bernoulli(0.7),
    "srw3": wl.srw(3),
    "diag3": wl.make_law(3, [(v, 0.125) for v in itertools.product((1, -1), repeat=3)],
                         exact=False),
    "srw5": wl.srw(5),
    "srw3-exact": wl.srw(3, exact=True),
    "tied-cdf": wl.make_law(1, [((-1,), 0.5), ((0,), 1e-18), ((1,), 0.5)], exact=False),
    "uint8-full": _uniform_line(_COUNT_MAX_ATOMS),
    "above-break-even": _uniform_line(_COUNT_MAX_ATOMS + 44),
}


class TestAtomIndices:
    """The threshold count equals np.searchsorted(cdf, u, side="right"), ties included."""

    @pytest.mark.parametrize("name", ATOM_MAP_LAWS)
    def test_equals_searchsorted(self, name):
        _, cdf = _sampling_arrays(ATOM_MAP_LAWS[name])
        inner = cdf[:-1]
        u = np.concatenate([inner, np.nextafter(inner, 0), [0.0, np.nextafter(1.0, 0)],
                            rng.generator(3).random(5000)])
        got = _atom_indices(cdf, u)
        assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))
        got2 = _atom_indices(cdf, u[:5000].reshape(50, 100))
        assert np.array_equal(got2, np.searchsorted(cdf, u[:5000], side="right").reshape(50, 100))
        if len(cdf) <= _COUNT_MAX_ATOMS:
            assert got.dtype == np.min_scalar_type(len(cdf) - 1)

    def test_tied_cdf_never_draws_the_tiny_atom(self):
        _, cdf = _sampling_arrays(ATOM_MAP_LAWS["tied-cdf"])
        assert cdf[0] == cdf[1] == 0.5
        assert _atom_indices(cdf, np.array([np.nextafter(0.5, 0), 0.5])).tolist() == [0, 2]

    @pytest.mark.parametrize("name", ATOM_MAP_LAWS)
    def test_sample_indices_stream(self, name):
        law = ATOM_MAP_LAWS[name]
        _, cdf = _sampling_arrays(law)
        got = wl.steps.sample_indices(law, rng.generator(8), 3000)
        want = np.searchsorted(cdf, rng.generator(8).random(3000), side="right")
        assert np.array_equal(got, want)


class TestMoments:
    def test_bernoulli(self, bern07):
        mean, second = wl.mean_and_second_moment(bern07)
        assert mean[0] == pytest.approx(0.4)
        assert second[0][0] == pytest.approx(1.0)

    def test_bernoulli_exact(self, bern07_exact):
        mean, second = wl.mean_and_second_moment(bern07_exact)
        assert mean[0] == Fraction(2, 5)
        assert second[0][0] == 1

    def test_srw3_centered(self):
        mean, second = wl.mean_and_second_moment(wl.srw(3))
        assert np.allclose(mean, 0)
        assert np.allclose(second, np.eye(3) / 3)

    def test_deterministic(self, det1):
        mean, _ = wl.mean_and_second_moment(det1)
        assert mean[0] == 1


class TestJson:
    def test_builtin_roundtrip(self):
        law = wl.law_from_json({"family": "bernoulli", "d": 1, "p": 0.7})
        assert law.atoms == wl.bernoulli(0.7).atoms
        assert not law.exact

    def test_rational_strings_select_exact(self):
        law = wl.law_from_json({"family": "custom", "d": 2,
                                "atoms": [{"x": [1, 0], "p": "1/3"},
                                          {"x": [0, 1], "p": "2/3"}]})
        assert law.exact
        assert dict(law.atoms)[(1, 0)] == Fraction(1, 3)

    def test_float_atoms_select_float(self):
        law = wl.law_from_json({"family": "custom", "d": 1,
                                "atoms": [{"x": [1], "p": 0.5},
                                          {"x": [-1], "p": 0.5}]})
        assert not law.exact

    def test_unknown_keys_rejected(self):
        with pytest.raises(wl.ConfigError):
            wl.law_from_json({"family": "srw", "d": 3, "steps": 5})

    def test_unknown_family(self):
        with pytest.raises(wl.ConfigError, match="unknown family 'cauchy'"):
            wl.law_from_json({"family": "cauchy"})

    @pytest.mark.parametrize("family,key", [
        ("bernoulli", "p"), ("drifted_srw", "bias"), ("deterministic", "v")])
    def test_missing_parameter_is_bad_param(self, family, key):
        with pytest.raises(wl.BadParam, match=f"{family} needs parameter {key}"):
            wl.law_from_json({"family": family})

    @pytest.mark.parametrize("descriptor,law", [
        ({"family": "srw"}, wl.srw(1)),
        ({"family": "srw", "d": None}, wl.srw(1)),
        ({"family": "drifted_srw", "d": None, "bias": 0.5}, wl.drifted_srw(1, 0.5)),
    ])
    def test_missing_or_null_d_means_one(self, descriptor, law):
        assert wl.law_from_json(descriptor) == law

    @pytest.mark.parametrize("obj", [
        {"family": "bernoulli", "d": 3, "p": 0.7},
        {"family": "deterministic", "d": 2, "v": [1]},
        {"family": "deterministic", "d": 1, "v": [1, 0]},
    ])
    def test_dimension_disagreeing_with_family_rejected(self, obj):
        with pytest.raises(wl.ConfigError):
            wl.law_from_json(obj)

    @pytest.mark.parametrize("obj", [
        {"family": "bernoulli", "d": 1, "p": 0.7},
        {"family": "deterministic", "d": 1, "v": [2]},
        {"family": "deterministic", "v": [2]},
    ])
    def test_dimension_agreeing_with_family_accepted(self, obj):
        assert wl.law_from_json(obj).d == 1

    @pytest.mark.parametrize("descriptor,key", [
        ({"family": "srw", "d": 3, "exact": "false"}, "exact"),
        ({"family": "srw", "d": True}, "d"),
        ({"family": "srw", "d": 2.5}, "d"),
        ({"family": "bernoulli", "d": True, "p": 0.7}, "d"),
        ({"family": "deterministic", "v": [1.5]}, "v"),
        ({"family": "custom", "d": 1, "atoms": [{"x": [1.5], "p": 1}]}, "x"),
        ({"family": "custom", "d": 1, "atoms": [5]}, "atoms"),
        ({"family": "bernoulli", "p": [0.7]}, "p"),
        ({"family": "custom", "d": 1, "atoms": [{"x": [1], "p": None}]}, "p"),
    ], ids=["exact-string", "d-bool", "d-fractional", "bernoulli-d-bool", "v-fractional",
            "x-fractional", "atom-not-object", "p-list", "p-null"])
    def test_value_of_wrong_type_is_config_error(self, descriptor, key):
        with pytest.raises(wl.ConfigError, match=repr(key)):
            wl.law_from_json(descriptor)

    @pytest.mark.parametrize("descriptor,law", [
        ({"family": "bernoulli", "p": "7/10", "exact": None},
         wl.bernoulli("7/10", exact=True)),
        ({"family": "srw", "d": "3"}, wl.srw(3)),
    ], ids=["null-exact-is-inferred", "d-integer-string"])
    def test_read_as_the_config_reads_it(self, descriptor, law):
        """A null "exact" is inferred, as for custom laws; "d" goes through
        the integer check of every integer config key."""
        assert wl.law_from_json(descriptor) == law

    def test_describe_roundtrips(self, bern07_exact):
        again = wl.law_from_json(wl.law_to_json(bern07_exact))
        assert again.atoms == bern07_exact.atoms
        assert again.exact


class TestConversion:
    def test_to_float_explicit(self, bern07_exact):
        f = bern07_exact.to_float()
        assert not f.exact and dict(f.atoms)[(1,)] == 0.7
        assert bern07_exact.exact  # original untouched

    def test_to_float_idempotent(self, bern07):
        assert bern07.to_float() is bern07

    def test_denom_clears_every_mass(self, bern07, bern07_exact, drifted2_exact):
        assert bern07_exact.denom == 10
        assert wl.srw(3, exact=True).denom == 6
        assert drifted2_exact.denom == 4
        assert bern07.denom == 1 and bern07_exact.to_float().denom == 1
