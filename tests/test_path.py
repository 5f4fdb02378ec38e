import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import path_reference as ref
import walklab as wl
from walklab import path, rng
from walklab.harness import csv_text
from walklab.path import LocalTimeField


def field_from_counts(counts: dict) -> LocalTimeField:
    """Hand-built field for unit tests of the pure functionals: site -> visits."""
    vals = np.array([counts[site] for site in sorted(counts)], dtype=np.int64)
    return LocalTimeField(n=int(vals.sum()) - 1, counts=vals)


class TestSimulate:
    def test_deterministic_line(self, det1):
        f = wl.simulate(det1, 5, seed=0)
        assert f.range == 6
        assert f.counts.tolist() == [1] * 6

    def test_n_zero(self, srw3):
        f = wl.simulate(srw3, 0, seed=3)
        assert (f.range, f.counts.tolist()) == (1, [1])

    def test_counts_sum_identity(self, bern07):
        f = wl.simulate(bern07, 10_000, seed=1)
        assert int(f.counts.sum()) == 10_001

    def test_invariants(self, srw3):
        f = wl.simulate(srw3, 500, seed=9)
        f.check_invariants()

    def test_bit_reproducible(self, srw3):
        f1 = wl.simulate(srw3, 1000, seed=42)
        f2 = wl.simulate(srw3, 1000, seed=42)
        assert np.array_equal(f1.counts, f2.counts)

    def test_invariant_violation_raises(self):
        f = field_from_counts({(0,): 2, (1,): 1})
        short = LocalTimeField(n=5, counts=f.counts)
        with pytest.raises(wl.InvariantViolation):
            short.check_invariants()

    def test_simulate_checks_its_field(self, srw3, monkeypatch):
        walk_keys = path._walk_keys
        monkeypatch.setattr(path, "_walk_keys",
                            lambda law, n, gen: walk_keys(law, n, gen)[:-1])
        with pytest.raises(wl.InvariantViolation, match="not n\\+1"):
            wl.simulate(srw3, 100, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), n=st.integers(0, 200))
    def test_identities_random(self, seed, n):
        f = wl.simulate(wl.srw(2), n, seed=seed)
        q = wl.q_histogram(f)
        assert int(f.counts.sum()) == n + 1
        assert q.weighted_total() == n + 1
        assert q.total_sites() == f.range
        assert wl.l_alpha(f, 0) == f.range
        assert wl.l_alpha(f, 1) == n + 1


class TestLAlpha:
    def test_alpha_one_is_n_plus_one(self, bern07):
        f = wl.simulate(bern07, 777, seed=5)
        assert wl.l_alpha(f, 1) == 778

    def test_deterministic_alpha_two(self, det1):
        f = wl.simulate(det1, 5, seed=0)
        assert wl.l_alpha(f, 2) == 6

    def test_fractional_alpha(self):
        f = field_from_counts({(0,): 2, (1,): 1})
        assert wl.l_alpha(f, 0.5) == pytest.approx(math.sqrt(2) + 1)

    def test_integer_alpha_exact_bigint(self):
        f = field_from_counts({(0,): 3_000_000, (1,): 1})
        # 3e6^8 overflows int64; must fall back to exact Python ints
        assert wl.l_alpha(f, 8) == 3_000_000 ** 8 + 1

    def test_matches_qhistogram_sum(self, srw3):
        f = wl.simulate(srw3, 2000, seed=8)
        q = wl.q_histogram(f)
        for a in (2, 3, 4):
            assert wl.l_alpha(f, a) == sum(j ** a * c for j, c in q.buckets.items())

    def test_negative_alpha_rejected(self, det1):
        f = wl.simulate(det1, 1, seed=0)
        with pytest.raises(wl.BadParam):
            wl.l_alpha(f, -1)


class TestQHistogram:
    def test_deterministic(self, det1):
        f = wl.simulate(det1, 5, seed=0)
        assert wl.q_histogram(f).buckets == {1: 6}

    def test_hand_counts(self):
        f = field_from_counts({(0,): 2, (1,): 1, (2,): 1})
        assert wl.q_histogram(f).buckets == {1: 2, 2: 1}

    def test_up_down_path(self, bern07):
        # a +- path visits the origin twice and +1 once
        f = field_from_counts({(0,): 2, (1,): 1})
        assert wl.q_histogram(f).buckets == {1: 1, 2: 1}


class TestSampleVisited:
    def test_deterministic_all_ones(self, det1):
        f = wl.simulate(det1, 9, seed=0)
        draws = wl.sample_visited_local_time(f, rng.generator(0), 50)
        assert (draws == 1).all()

    def test_two_site_field_frequencies(self):
        f = field_from_counts({(0,): 2, (1,): 1})
        draws = wl.sample_visited_local_time(f, rng.generator(3), 200_000)
        assert abs((draws == 1).mean() - 0.5) < 0.005
        assert abs((draws == 2).mean() - 0.5) < 0.005

    def test_reproducible(self, srw3):
        f = wl.simulate(srw3, 300, seed=1)
        d1 = wl.sample_visited_local_time(f, rng.generator(5), 100)
        d2 = wl.sample_visited_local_time(f, rng.generator(5), 100)
        assert np.array_equal(d1, d2)


class TestSeries:
    def test_deterministic_checkpoint(self, det1):
        s = wl.simulate_series(det1, [5], [2.0], seed=0)
        assert s.l_table[0][0] == 6
        assert s.ranges[0] == 6

    def test_alpha_one_every_checkpoint(self, bern07):
        cks = [10, 100, 1000]
        s = wl.simulate_series(bern07, cks, [1.0], seed=11)
        assert [row[0] for row in s.l_table] == [n + 1 for n in cks]

    def test_matches_from_scratch_same_seed(self, srw3):
        n = 1024
        s = wl.simulate_series(srw3, [n], [0.0, 2.0, 0.5], seed=9)
        f = wl.simulate(srw3, n, seed=9)
        assert s.l_table[0][0] == wl.l_alpha(f, 0)
        assert s.l_table[0][1] == wl.l_alpha(f, 2)
        assert s.l_table[0][2] == pytest.approx(wl.l_alpha(f, 0.5), rel=1e-9)
        assert s.ranges[0] == f.range

    def test_prefix_consistency(self, srw3):
        # the series at checkpoint n must equal a fresh simulation of the
        # same seed truncated at n, for every checkpoint
        cks = [32, 64, 128]
        s = wl.simulate_series(srw3, cks, [2.0], seed=21)
        full = wl.simulate_series(srw3, [128], [2.0], seed=21)
        assert s.l_table[-1][0] == full.l_table[0][0]

    def test_monotone_in_n(self, bern07):
        cks = [2 ** k for k in range(3, 12)]
        s = wl.simulate_series(bern07, cks, [0.0, 0.5, 2.0, 3.0], seed=2)
        for j in range(len(s.alphas)):
            col = [row[j] for row in s.l_table]
            assert all(a <= b for a, b in zip(col, col[1:]))

    def test_csv_header(self, det1):
        s = wl.simulate_series(det1, [5], [1.0], seed=0)
        text = csv_text(s.records())
        assert text.splitlines()[0] == "n,alpha,L,L_over_n,R,R_over_n"
        assert len(text.splitlines()) == 2

    def test_bad_checkpoints(self, det1):
        with pytest.raises(wl.BadParam):
            wl.simulate_series(det1, [5, 5], [1.0], seed=0)
        with pytest.raises(wl.BadParam):
            wl.simulate_series(det1, [], [1.0], seed=0)


def _lazy(d):
    """srw(d) that stays put with probability 1/5."""
    atoms = [(e, 0.8 * m) for e, m in wl.srw(d).atoms] + [((0,) * d, 0.2)]
    return wl.make_law(d, atoms, exact=False)


def _long_step(d):
    """Unit steps on every axis except a +2 step on the first."""
    atoms = [((2,) + e[1:] if e[0] == 1 else e, m) for e, m in wl.srw(d).atoms]
    return wl.make_law(d, atoms, exact=False)


# Steps of 2^22 on both axes: past the 64-bit key budget within a few
# thousand steps, so the kernel must fall back on dense ranks.
_HUGE_STEPS = wl.make_law(2, [((1 << 22, 0), 0.3), ((0, 1 << 22), 0.3),
                              ((-(1 << 22), 0), 0.2), ((0, -(1 << 22)), 0.2)],
                          exact=False)


@st.composite
def walk_laws(draw):
    d = draw(st.integers(1, 5))
    family = draw(st.sampled_from(["srw", "deterministic", "lazy", "long_step"]))
    if family == "deterministic":
        return wl.deterministic([draw(st.sampled_from([1, -1, 3]))])
    return {"srw": wl.srw, "lazy": _lazy, "long_step": _long_step}[family](d)


def _first_ranking(pos: np.ndarray) -> str | None:
    """Which budget the kernel's first dense rank answers, from the path's spans.

    Until the first rank the kernel's radix is the product of the spans
    folded in so far: an axis whose span would take that product past
    2**63 is ranked ("axis"), and a product past the key budget
    2**(63 - (n+1).bit_length()) ranks the partial key ("key").
    """
    budget = 1 << (63 - len(pos).bit_length())
    radix = 1
    for span in (pos.max(axis=0) - pos.min(axis=0) + 1).tolist():
        if radix * span > 1 << 63:
            return "axis"
        radix *= span
        if radix > budget:
            return "key"
    return None


class TestKernelMatchesPositionsReference:
    """The axis-at-a-time kernel against the (n+1, d) positions construction."""

    @settings(max_examples=60, deadline=None)
    @given(law=walk_laws(), n=st.integers(0, 3000), seed=st.integers(0, 2 ** 32))
    def test_simulate(self, law, n, seed):
        f = wl.simulate(law, n, seed)
        _, counts = ref.field(law, n, seed)
        assert f.counts.dtype == counts.dtype and f.counts.shape == counts.shape
        assert np.array_equal(f.counts, counts)

    @settings(max_examples=60, deadline=None)
    @given(law=walk_laws(), n=st.integers(1, 3000), seed=st.integers(0, 2 ** 32),
           data=st.data())
    def test_simulate_series(self, law, n, seed, data):
        cks = sorted(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=5)))
        alphas = [0.0, 1.0, 2.0, 3.0, 0.5, 1.7]
        s = wl.simulate_series(law, cks, alphas, seed)
        keys = ref.pack_rows(ref.positions(law, cks[-1], seed))
        assert (s.l_table, s.ranges) == ref.series(keys, cks, alphas)

    @pytest.mark.parametrize("law, n, ranked", [
        (wl.srw(10), 100_000, "key"),
        (wl.srw(8), 1_000_000, "key"),
        (_HUGE_STEPS, 3000, "key"),
        (_HUGE_STEPS, 10_000, "axis"),
    ], ids=["srw10-1e5", "srw8-1e6", "huge-steps-3000", "huge-steps-10000"])
    def test_wide_coordinate_ranges(self, law, n, ranked):
        pos = ref.positions(law, n, 7)
        assert _first_ranking(pos) == ranked
        _, row_rank, counts = np.unique(pos, axis=0, return_inverse=True,
                                        return_counts=True)
        f = wl.simulate(law, n, seed=7)
        assert np.array_equal(f.counts, counts)
        cks, alphas = [n // 3, n], [0.0, 2.0, 0.5]
        s = wl.simulate_series(law, cks, alphas, seed=7)
        expected = ref.series(row_rank.reshape(-1), cks, alphas)
        assert (s.l_table, s.ranges) == expected


class TestChunkEdges:
    """The kernel walks its buffers in chunks; shrink them to 7 steps so that
    checkpoints and paths straddle many chunk edges."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(path, "_CHUNK", 7)

    @pytest.mark.parametrize("n", [62, 63, 64])
    @pytest.mark.parametrize("law", [wl.bernoulli(0.7), wl.srw(3)], ids=["bern07", "srw3"])
    def test_matches_reference(self, law, n):
        # edges of k (length n+1) at multiples of 7; 62 ends one short of
        # an edge, 63 on one and 64 one past it
        cks = [1, 6, 7, 8, 13, 14, 15, 48, 49, 50, n - 1, n]
        alphas = [0.0, 2.0, 3.0, 0.5, 64.0]
        f = wl.simulate(law, n, seed=5)
        # alpha 64 sums in Python ints once a site is visited twice
        assert int(f.counts.max()) >= 2
        _, counts = ref.field(law, n, 5)
        assert np.array_equal(f.counts, counts)
        s = wl.simulate_series(law, cks, alphas, seed=5)
        keys = ref.pack_rows(ref.positions(law, n, 5))
        assert (s.l_table, s.ranges) == ref.series(keys, cks, alphas)


class TestStepBudget:
    """Paths over STEP_BUDGET are refused before a generator or buffer exists."""

    @pytest.fixture(autouse=True)
    def no_generator(self, monkeypatch):
        def refuse(seed):
            raise AssertionError("a path over STEP_BUDGET reached the generator")
        monkeypatch.setattr(rng, "generator", refuse)

    def _refused(self):
        budget = path.STEP_BUDGET
        return pytest.raises(
            wl.ResourceLimit,
            match=f"a path of {budget + 1} steps exceeds STEP_BUDGET = {budget} steps")

    def test_simulate(self, srw3):
        with self._refused():
            wl.simulate(srw3, path.STEP_BUDGET + 1, seed=0)

    def test_simulate_series(self, srw3):
        with self._refused():
            wl.simulate_series(srw3, [10, path.STEP_BUDGET + 1], [0.0, 2.0], seed=0)

    def test_variance_scan(self, srw3):
        budget = path.STEP_BUDGET
        grid = [budget // 4, budget // 2, budget + 1]
        with self._refused():
            wl.variance_scan(srw3, 2, grid, m=3, seed=0)


def test_series_peak_memory_per_step():
    # The full-length buffers of one series are the int64 keys, one more
    # 8-byte buffer and a few bytes of indices or ranks: about 17 bytes
    # per step.  Full-length temporaries per alpha would show here.
    law, cks, alphas = wl.srw(3), [2 ** 20, 2 ** 21], [0.0, 2.0, 3.0, 0.5]
    wl.simulate_series(law, cks, alphas, seed=0)
    tracemalloc.start()
    try:
        wl.simulate_series(law, cks, alphas, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / cks[-1] <= 24
