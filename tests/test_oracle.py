import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracle_reference as ref
import walklab as wl
from walklab import oracle, rng
from walklab.cli import main
from walklab.steps import _sampling_arrays

# Traced bytes per step of a one-atom law's enumeration (README quotes it):
# its single path is held whole, mostly its n+1 exact no-return
# probabilities.
ONE_ATOM_PEAK_BYTES = 192


class TestEnumerate:
    def test_bernoulli_n2_hand_values(self, bern07_exact):
        s = wl.enumerate_paths(bern07_exact, 2, alphas=(2,))
        assert s.expected_q == {1: Fraction(54, 25), 2: Fraction(21, 50)}
        assert s.expected_l[2] == Fraction(96, 25)  # 2.16 + 4*0.42

    def test_deterministic_n5(self):
        s = wl.enumerate_paths(wl.deterministic([1], exact=True), 5, alphas=(2, 3))
        assert s.expected_q == {1: Fraction(6)}
        assert s.variance_l == {2: 0, 3: 0}
        assert wl.exact_zn_law(s) == {1: Fraction(1)}

    def test_invariants(self, lazy_walk_exact):
        s = wl.enumerate_paths(lazy_walk_exact, 6, alphas=(2,))
        s.check_invariants()

    def test_check_invariants_raises(self, bern07_exact):
        s = wl.enumerate_paths(bern07_exact, 3, alphas=(2,))
        bad = wl.ExactSummary(n=s.n + 1, expected_q=s.expected_q,
                              expected_l=s.expected_l, variance_l=s.variance_l,
                              joint_law=s.joint_law, gamma_seq=s.gamma_seq)
        with pytest.raises(wl.InvariantViolation):
            bad.check_invariants()

    def test_budget_exceeded(self, bern07_exact):
        # 2^30 paths exceed PATH_BUDGET = 10^7 before the first leaf
        with pytest.raises(wl.ResourceLimit, match="exceed PATH_BUDGET = 10000000 paths"):
            wl.enumerate_paths(bern07_exact, 30)

    def test_horizon_at_recursion_limit_enumerated(self):
        # one path only; the enumeration nests no call per step
        n = sys.getrecursionlimit()
        s = wl.enumerate_paths(wl.deterministic([1], exact=True), n)
        assert s.expected_q == {1: Fraction(n + 1)}
        assert s.joint_law == {(n + 1, 1): Fraction(1)}

    def test_horizon_past_path_budget_refused(self, monkeypatch):
        # a one-atom law passes the path count at any horizon; its single
        # path is held whole, so PATH_BUDGET bounds its horizon before any
        # allocation
        monkeypatch.setattr(oracle, "PATH_BUDGET", 100)
        det = wl.deterministic([1], exact=True)
        tracemalloc.start()
        try:
            with pytest.raises(wl.ResourceLimit, match=(
                    "^a horizon of 101 steps exceeds PATH_BUDGET = 100$")):
                wl.enumerate_paths(det, 101)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_one_atom_memory_linear_in_horizon(self):
        # its sites are all distinct, so counts stay O(n), not O(n^2)
        det, n = wl.deterministic([1], exact=True), 2048
        tracemalloc.start()
        try:
            s = wl.enumerate_paths(det, n, (2,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.variance_l == {2: 0}
        assert peak <= ONE_ATOM_PEAK_BYTES * n

    @pytest.mark.parametrize("law,n,count", [
        ('{"family": "bernoulli", "p": "7/10"}', 20000, "2^20000"),
        ('{"family": "custom", "d": 1, "atoms": [{"x": [-1], "p": "1/4"}, '
         '{"x": [0], "p": "1/4"}, {"x": [1], "p": "1/2"}]}', 10 ** 7, "3^10000000"),
    ], ids=["two-atoms", "three-atoms"])
    def test_cli_refuses_path_count_in_one_line(self, capsys, law, n, count):
        # the count is printed as A^n, never computed in full: 2^20000 has
        # more digits than int() may print, and 3^(10^7) takes seconds
        with pytest.raises(SystemExit) as done:
            main(["oracle", "--law", law, "--n", str(n)])
        assert done.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {count} paths of {n} steps exceed "
                       "PATH_BUDGET = 10000000 paths\n")

    def test_memory_peak(self, bern07_exact):
        # one reused block of at most _CELLS positions and its temporaries;
        # the untraced first call loads what numpy imports lazily
        wl.enumerate_paths(bern07_exact, 17, (2, 3))
        tracemalloc.start()
        try:
            wl.enumerate_paths(bern07_exact, 17, (2, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20

    def test_float_law_rejected(self, bern07):
        with pytest.raises(wl.BadParam, match="the oracle needs a law with rational masses"):
            wl.enumerate_paths(bern07, 3)

    def test_duplicate_alphas_rejected(self, bern07_exact):
        with pytest.raises(wl.BadParam, match="alphas must be distinct; repeated: 2, 3$"):
            wl.enumerate_paths(bern07_exact, 2, alphas=(3, 2, 0, 2, 3))

    @pytest.mark.parametrize("alpha", [2.5, True, "x"])
    def test_non_integral_alpha_rejected(self, bern07_exact, alpha):
        with pytest.raises(wl.BadParam, match="^'alpha' = .* is not a valid integer$"):
            wl.enumerate_paths(bern07_exact, 3, alphas=(alpha,))

    def test_variance_nonnegative(self, drifted2_exact):
        s = wl.enumerate_paths(drifted2_exact, 7, alphas=(2, 3))
        assert all(v >= 0 for v in s.variance_l.values())


@pytest.fixture
def srw3_exact():
    return wl.srw(3, exact=True)


@pytest.fixture
def long2():
    return wl.make_law(2, [((3, 0), Fraction(1, 3)), ((0, 3), Fraction(1, 3)),
                           ((-1, -1), Fraction(1, 3))], exact=True)


@pytest.fixture
def hook2():
    return wl.make_law(2, [((3, 0), Fraction(1, 2)), ((0, 1), Fraction(1, 4)),
                           ((-1, -1), Fraction(1, 4))], exact=True)


@pytest.fixture
def atoms40():
    # 40 atoms, masses |x|/420: a composition key in radix (n+1)^A = 4^40
    # would wrap int64 and merge compositions of different mass
    return wl.make_law(1, [((x,), Fraction(abs(x), 420)) for x in range(-20, 21) if x],
                       exact=True)


@pytest.fixture
def far3():
    # packed sites need base^3 > 2^63, so they stay Python ints
    far = 10 ** 6
    return wl.make_law(3, [((far, 0, 0), Fraction(1, 4)), ((0, far, 0), Fraction(1, 4)),
                           ((0, 0, far), Fraction(1, 4)), ((-far, -far, -far), Fraction(1, 4))],
                       exact=True)


LAWS = [("bern07_exact", 0), ("bern07_exact", 1), ("bern07_exact", 12),
        ("lazy_walk_exact", 7), ("drifted2_exact", 9), ("srw3_exact", 5), ("long2", 5),
        ("hook2", 6)]
LAW_IDS = ["bern07-0", "bern07-1", "bern07-12", "lazy-7", "drifted2-9", "srw3-5",
           "long2-5", "hook2-6"]


def _assert_equals_reference(law, n, alphas):
    got = wl.enumerate_paths(law, n, alphas)
    want = ref.enumerate_paths(law, n, alphas)
    assert got == want
    for field in ("expected_q", "expected_l", "variance_l", "joint_law"):
        assert list(getattr(got, field)) == list(getattr(want, field))


class TestAgainstReference:
    """The tallied enumeration equals the leaf-by-leaf recount, key order included.

    alphas (0,) reads the 0 ** 0 convention (L(0) is the range).  Packed
    keys collide if their base ignores the atom length (long2 at n = 5)
    or the horizon (hook2 at n = 6): two sites of one path then count as
    one.
    """

    @pytest.mark.parametrize("alphas", [(), (0,), (1,), (0, 2, 3)],
                             ids=["none", "0", "1", "0-2-3"])
    @pytest.mark.parametrize("law_fixture,n", LAWS, ids=LAW_IDS)
    def test_equals_reference(self, law_fixture, n, alphas, request):
        _assert_equals_reference(request.getfixturevalue(law_fixture), n, alphas)

    @pytest.mark.parametrize("cells,count_cells,suffix_steps", [
        (0, oracle._COUNT_CELLS, "one"), (1 << 62, oracle._COUNT_CELLS, "all"),
        (0, 0, "one"),
    ], ids=["one-step-blocks", "one-block", "fold-per-prefix"])
    @pytest.mark.parametrize("law_fixture,n", LAWS, ids=LAW_IDS)
    def test_block_edges(self, monkeypatch, law_fixture, n, cells, count_cells,
                         suffix_steps, request):
        # b = 1 (A^(n-1) blocks), b = n (no prefix), and one-step blocks
        # whose counts fold into Python ints at each new prefix composition
        monkeypatch.setattr(oracle, "_CELLS", cells)
        monkeypatch.setattr(oracle, "_COUNT_CELLS", count_cells)
        steps = []
        table = oracle._table

        def spy(off, cls, m, k):
            steps.append(k)
            return table(off, cls, m, k)
        monkeypatch.setattr(oracle, "_table", spy)
        _assert_equals_reference(request.getfixturevalue(law_fixture), n, (0, 2, 3))
        prefix, suffix = steps
        assert prefix + suffix == n
        assert suffix == (min(n, 1) if suffix_steps == "one" else n)

    @pytest.mark.parametrize("cells", [0, oracle._CELLS, 1 << 62],
                             ids=["one-step-blocks", "default", "one-block"])
    def test_forty_atoms(self, monkeypatch, atoms40, cells):
        monkeypatch.setattr(oracle, "_CELLS", cells)
        _assert_equals_reference(atoms40, 3, (0, 2, 3))

    def test_second_moment_past_int64(self, bern07_exact):
        # L(9)^2 reaches 13^18 > 2^63 at n = 12
        _assert_equals_reference(bern07_exact, 12, (9,))

    def test_sites_past_int64(self, far3):
        _assert_equals_reference(far3, 5, (0, 2, 3))


class TestZnLaw:
    def test_n0_point_mass(self, bern07_exact):
        s = wl.enumerate_paths(bern07_exact, 0, alphas=())
        assert wl.exact_zn_law(s) == {1: Fraction(1)}

    def test_bernoulli_n2(self, bern07_exact):
        s = wl.enumerate_paths(bern07_exact, 2, alphas=())
        law = wl.exact_zn_law(s)
        assert law == {1: Fraction(79, 100), 2: Fraction(21, 100)}
        assert sum(law.values()) == 1


class TestExactReturnLaw:
    def test_bernoulli_gamma2(self, bern07_exact):
        ret = wl.exact_return_law(bern07_exact, 2)
        assert ret.gamma_seq[2] == Fraction(29, 50)

    def test_deterministic_all_one(self):
        ret = wl.exact_return_law(wl.deterministic([1], exact=True), 6)
        assert all(g == 1 for g in ret.gamma_seq)

    def test_srw2_recurrent_enumerable(self):
        ret = wl.exact_return_law(wl.srw(2, exact=True), 2)
        assert ret.gamma_seq[2] == Fraction(3, 4)

    @pytest.mark.parametrize("law_fixture", [
        "bern07_exact", "lazy_walk_exact", "drifted2_exact"])
    def test_matches_taboo_dp(self, law_fixture, request):
        law = request.getfixturevalue(law_fixture)
        n = 10
        assert (wl.exact_return_law(law, n).gamma_seq
                == wl.taboo_survival(law, n).gamma_seq)

    def test_records_the_law_denominator(self, bern07_exact, lazy_walk_exact):
        # exact_return_law and taboo_survival both take the base from StepLaw.denom
        for law in (bern07_exact, lazy_walk_exact):
            assert wl.exact_return_law(law, 4) == wl.taboo_survival(law, 4)
            assert wl.exact_return_law(law, 4).denom == law.denom


_MC_M = 100_000
_MC_N = 8


@pytest.fixture(scope="module")
def mc_law():
    return wl.bernoulli("7/10", exact=True)


@pytest.fixture(scope="module")
def paths(mc_law):
    coords, cdf = _sampling_arrays(mc_law)
    gen = rng.generator(20260810)
    idx = np.searchsorted(cdf, gen.random((_MC_M, _MC_N)), side="right")
    pos = np.zeros((_MC_M, _MC_N + 1), dtype=np.int64)
    np.cumsum(coords[idx][:, :, 0], axis=1, out=pos[:, 1:])
    return gen, pos


@pytest.fixture(scope="module")
def summary(mc_law):
    return wl.enumerate_paths(mc_law, _MC_N, alphas=(2,))


class TestOracleAgainstMonteCarlo:
    """Monte Carlo means must sit inside 4-sigma oracle bands."""

    M = _MC_M

    def test_l2_mean_within_4_sigma(self, paths, summary):
        _, pos = paths
        equal = pos[:, :, None] == pos[:, None, :]
        l2 = equal.sum(axis=(1, 2))  # ordered time pairs at equal sites
        mean = l2.mean()
        mu = float(summary.expected_l[2])
        sigma = (float(summary.variance_l[2]) / self.M) ** 0.5
        assert abs(mean - mu) <= 4 * sigma

    def test_zn_law_within_4_sigma(self, paths, summary):
        gen, pos = paths
        exact = {u: float(p) for u, p in wl.exact_zn_law(summary).items()}
        picks = np.empty(self.M, dtype=np.int64)
        for i in range(self.M):
            sites, counts = np.unique(pos[i], return_counts=True)
            picks[i] = counts[gen.integers(0, len(sites))]
        for u, p in exact.items():
            freq = (picks == u).mean()
            sigma = (p * (1 - p) / self.M) ** 0.5
            assert abs(freq - p) <= 4 * sigma + 1e-12

    def test_qj_means_within_4_sigma(self, paths, summary):
        _, pos = paths
        q1 = np.empty(self.M)
        for i in range(self.M):
            _, counts = np.unique(pos[i], return_counts=True)
            q1[i] = (counts == 1).sum()
        mu = float(summary.expected_q[1])
        assert abs(q1.mean() - mu) <= 4 * q1.std(ddof=1) / self.M ** 0.5
