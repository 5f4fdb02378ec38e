import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import path_reference as ref
import walklab as wl
from walklab import path, rng, steps
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
                            lambda law, n, gen, bits: walk_keys(law, n, gen, bits)[:-1])
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

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, det1, alpha):
        with pytest.raises(wl.BadParam, match="alpha must be finite and >= 0"):
            wl.l_alpha(wl.simulate(det1, 1, seed=0), alpha)
        with pytest.raises(wl.BadParam, match="alpha must be finite and >= 0"):
            wl.simulate_series(det1, [5, 10], [1.0, alpha], seed=1)


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


def _lazy(d, stay=0.2):
    """srw(d) that stays put with probability stay."""
    atoms = [(e, (1 - stay) * m) for e, m in wl.srw(d).atoms] + [((0,) * d, stay)]
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

# Steps of 2^22 on the first axis and a drift on the second, which takes a
# new value at most times: the ranked second axis times n * 2^22 leaves
# int64 past about 2 * 10^6 steps, so the first axis must be ranked too.
_HUGE_DRIFT = wl.make_law(2, [((1 << 22, 1), 0.4), ((-(1 << 22), 1), 0.4),
                              ((0, -1), 0.2)], exact=False)


@st.composite
def walk_laws(draw):
    d = draw(st.integers(1, 5))
    family = draw(st.sampled_from(["srw", "deterministic", "lazy", "long_step"]))
    if family == "deterministic":
        return wl.deterministic([draw(st.sampled_from([1, -1, 3]))])
    return {"srw": wl.srw, "lazy": _lazy, "long_step": _long_step}[family](d)


def _ranked(law, pos: np.ndarray) -> tuple[str | None, np.ndarray]:
    """Which dense ranks the kernel takes on this path, and the row ranks.

    The kernel folds the axes last to first.  Its radix is the product of
    the spans folded in so far, or the number of distinct keys just after
    a rank.  Before axis j it ranks the keys if radix * (n * max|c_j| + 1)
    reaches 2**63, and ranks the axis too if that is still too wide
    ("axis"); after axis j it ranks the keys if the radix passes the key
    budget of a series, 2**(63 - (n+1).bit_length()) ("key").  The row
    ranks are the dense ranks of the positions in lexicographic order,
    built the same way from the last axis on.
    """
    n = len(pos) - 1
    budget = 1 << (63 - len(pos).bit_length())
    reach = n * np.abs([p for p, _ in law.atoms]).max(axis=0) + 1
    taken, radix = None, 1
    rows, distinct = np.zeros(len(pos), dtype=np.int64), 1
    for j in reversed(range(law.d)):
        values, col = np.unique(pos[:, j], return_inverse=True)
        span = int(values[-1] - values[0]) + 1
        if radix * int(reach[j]) >= 1 << 63:
            taken, radix = taken or "key", distinct
            if radix * int(reach[j]) >= 1 << 63:
                taken, span = "axis", len(values)
        radix *= span
        row_values, rows = np.unique(col * distinct + rows, return_inverse=True)
        distinct = len(row_values)
        if radix > budget:
            taken, radix = taken or "key", distinct
    return taken, rows


def _check_occurrence_numbers(law, n: int, seed: int) -> np.ndarray:
    """The kernel's k equals the reference's, in the narrowest dtype; returns k."""
    bits = 63 - (n + 1).bit_length()
    k = path._occurrence_numbers(path._walk_keys(law, n, rng.generator(seed), bits))
    want = ref.occurrence_numbers(ref.pack_rows(ref.positions(law, n, seed)))
    assert k.dtype == np.min_scalar_type(want.max())
    assert np.array_equal(k, want)
    return k


WIDE_CASES = [
    (wl.srw(10), 100_000, "key"),
    (wl.srw(8), 1_000_000, "key"),
    (_HUGE_STEPS, 3000, "key"),
    (_HUGE_STEPS, 10_000, "key"),
    (_HUGE_DRIFT, 2_000_000, "axis"),
]
WIDE_IDS = ["srw10-1e5", "srw8-1e6", "huge-steps-3000", "huge-steps-10000",
            "huge-drift-2e6"]


def _check_wide(law, n, ranked):
    """simulate and simulate_series on a wide-range path against its row ranks."""
    pos = ref.positions(law, n, 7)
    taken, row_rank = _ranked(law, pos)
    assert taken == ranked
    f = wl.simulate(law, n, seed=7)
    assert np.array_equal(f.counts, np.bincount(row_rank))
    cks, alphas = [n // 3, n], [0.0, 2.0, 0.5]
    s = wl.simulate_series(law, cks, alphas, seed=7)
    assert (s.l_table, s.ranges) == ref.series(row_rank, cks, alphas)


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

    @pytest.mark.parametrize("law, n, ranked", WIDE_CASES, ids=WIDE_IDS)
    def test_wide_coordinate_ranges(self, law, n, ranked):
        _check_wide(law, n, ranked)


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
        _check_occurrence_numbers(law, n, 5)

    @pytest.mark.parametrize("law, n, dtype, chunk", [
        (_lazy(2, stay=0.999), 2000, np.uint16, 7),
        (_lazy(1, stay=0.99999), 300_000, np.uint32, 4099),
    ], ids=["lazy-uint16", "lazy-uint32"])
    def test_widened_occurrence_numbers(self, monkeypatch, law, n, dtype, chunk):
        # k starts as uint8 and is widened in the piece whose ranks outgrow it
        monkeypatch.setattr(path, "_CHUNK", chunk)
        assert _check_occurrence_numbers(law, n, 3).dtype == dtype
        _, counts = ref.field(law, n, 3)
        assert np.array_equal(wl.simulate(law, n, seed=3).counts, counts)
        cks, alphas = [1, n // 2, n], [0.0, 1.0, 2.0, 3.0, 0.5]
        s = wl.simulate_series(law, cks, alphas, seed=3)
        keys = ref.pack_rows(ref.positions(law, n, 3))
        assert (s.l_table, s.ranges) == ref.series(keys, cks, alphas)

    @pytest.mark.parametrize("law, n, ranked", WIDE_CASES, ids=WIDE_IDS)
    def test_wide_coordinate_ranges(self, monkeypatch, law, n, ranked):
        # 7-step pieces would take minutes at these sizes
        monkeypatch.setattr(path, "_CHUNK", 1009)
        _check_wide(law, n, ranked)


_DIAG3 = wl.make_law(3, [(v, 0.125) for v in itertools.product((1, -1), repeat=3)],
                     exact=False)
_LONG_ATOMS = wl.make_law(2, [((3, 0), 0.3), ((0, 3), 0.3), ((-1, -1), 0.4)], exact=False)
_DRIFTED = wl.make_law(2, [((1, 0), 0.5), ((-1, 0), 0.1), ((0, 1), 0.2), ((0, -1), 0.2)],
                       exact=False)
LANE_LAWS = [wl.srw(d) for d in range(1, 7)] + [
    wl.bernoulli(0.7), _DRIFTED, _lazy(3), _DIAG3, _LONG_ATOMS]
LANE_IDS = [f"srw{d}" for d in range(1, 7)] + [
    "bern07", "drifted", "lazy3", "diag3", "long-atoms"]


class TestLanePass:
    """The packed-lane route of _walk_keys: its keys, its guard, its gate."""

    @pytest.mark.parametrize("n", [0, 1, 100, 4099, 70_000])
    @pytest.mark.parametrize("law", LANE_LAWS, ids=LANE_IDS)
    def test_simulate_matches_reference(self, law, n):
        for seed in (0, 7):
            f = wl.simulate(law, n, seed)
            _, counts = ref.field(law, n, seed)
            assert f.counts.dtype == counts.dtype
            assert np.array_equal(f.counts, counts)

    @staticmethod
    def _lanes(law, n, seed, bits):
        """(_lane_keys's verdict, its keys, the positions) of one path."""
        idx = steps.sample_indices(law, rng.generator(seed), n)
        keys = np.empty(n + 1, dtype=np.int64)
        return path._lane_keys(law, idx, keys, bits), keys, ref.positions(law, n, seed)

    @settings(max_examples=80, deadline=None)
    @given(law=walk_laws(), n=st.integers(0, 500), seed=st.integers(0, 2 ** 32),
           data=st.data())
    def test_guard_flags_exactly_the_walks_that_leave_their_lanes(self, law, n, seed, data):
        # With max|c| < 2**(f-2) the pass keeps a walk iff every axis stays
        # in [-2**(f-2), 2**(f-2)), and then the key is the packed position.
        cmax = max(abs(c) for p, _ in law.atoms for c in p)
        low = cmax.bit_length() + 2
        f = data.draw(st.integers(low, min(63 // law.d, low + 8)))
        bits = f * law.d + data.draw(st.integers(0, law.d - 1))
        ok, keys, pos = self._lanes(law, n, seed, bits)
        half = 1 << (f - 2)
        assert ok == bool(((pos >= -half) & (pos < half)).all())
        if ok:
            shifts = [f * (law.d - 1 - j) for j in range(law.d)]
            want = sum((pos[:, j] + half) << s for j, s in enumerate(shifts))
            assert np.array_equal(keys, want)
            assert 0 <= keys.min() and keys.max() < 1 << bits

    @pytest.mark.parametrize("axis, sign, exit_at", [
        (1, 1, 16), (1, -1, 17), (0, -1, 17), (0, 1, 16),
    ], ids=["low-lane-up", "low-lane-down", "top-lane-negative", "top-lane-up"])
    def test_guard_gives_up_mid_piece(self, monkeypatch, axis, sign, exit_at):
        # 6-bit lanes hold x in [-16, 16).  One axis steps by sign every
        # time, the other by +-1, so the walk leaves its lane at step
        # exit_at, in the middle of the second 10-step piece, and not before.
        monkeypatch.setattr(path, "_CHUNK", 10)
        law = wl.make_law(2, [((sign, 1), 0.5), ((sign, -1), 0.5)] if axis == 0
                          else [((1, sign), 0.5), ((-1, sign), 0.5)], exact=False)
        assert self._lanes(law, exit_at - 1, 0, 12)[0]
        for n in (exit_at, exit_at + 3, 100):
            assert not self._lanes(law, n, 0, 12)[0]

    def test_overflow_falls_back_on_the_fold(self, monkeypatch):
        # walks let through the gate that leave their 10-bit (field) and
        # 7-bit (series) lanes: the fold's counts and sums
        monkeypatch.setattr(path, "_lane_fits", lambda law, n, bits: True)
        law, n = wl.srw(6), 300_000
        verdicts, lane_keys = [], path._lane_keys
        monkeypatch.setattr(path, "_lane_keys",
                            lambda *args: verdicts.append(lane_keys(*args)) or verdicts[-1])
        _, counts = ref.field(law, n, 7)
        assert np.array_equal(wl.simulate(law, n, seed=7).counts, counts)
        cks, alphas = [n // 2, n], [0.0, 2.0, 0.5]
        s = wl.simulate_series(law, cks, alphas, seed=7)
        keys = ref.pack_rows(ref.positions(law, n, 7))
        assert (s.l_table, s.ranges) == ref.series(keys, cks, alphas)
        assert verdicts == [False, False]

    def test_routes(self, monkeypatch, srw3):
        # srw(5) and srw(3) paths of the variance scan and of
        # verify-geometric pack into lanes; verify-slln's srw(3) series of
        # 10^7 steps, like one of 10^6, is gated out before any pass
        def refuse(*args):
            raise AssertionError("route not expected here")

        monkeypatch.setattr(path, "_axis_pieces", refuse)
        for n in [2 ** k for k in range(10, 17)]:
            wl.simulate(wl.srw(5), n, seed=n)
        wl.simulate(srw3, 10 ** 6, seed=0)
        monkeypatch.undo()
        monkeypatch.setattr(path, "_lane_keys", refuse)
        wl.simulate_series(srw3, [10 ** 6], [0.0, 2.0], seed=0)
        n = 10 ** 7
        assert not path._lane_fits(srw3, n, 63 - (n + 1).bit_length())


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


# Traced bytes per step that a path may allocate at its peak (README quotes
# them): a checkpoint series, a field (simulate), and either one once its
# keys pass their budget and are ranked in place.
SERIES_PEAK_BYTES = 12
FIELD_PEAK_BYTES = 20
RANKED_PEAK_BYTES = 32


def _peak_bytes_per_step(run, n: int) -> float:
    """tracemalloc peak of run(), after one warm-up call, per step of n."""
    run()
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / n


def test_series_peak_memory_per_step():
    # The full-length buffers of one series are the int64 keys and one
    # narrow array: the step indices, then the occurrence numbers, uint8
    # for this path.  About 10 bytes per step; a second full-length 8-byte
    # buffer, or a full-length temporary per alpha, would show here.
    law, cks, alphas = wl.srw(3), [2 ** 20, 2 ** 21], [0.0, 2.0, 3.0, 0.5]
    run = lambda: wl.simulate_series(law, cks, alphas, seed=0)
    assert _peak_bytes_per_step(run, cks[-1]) <= SERIES_PEAK_BYTES


def test_simulate_peak_memory_per_step():
    # simulate sorts its keys in place and counts runs: the keys, a bool
    # mask and the run ends, about 16 bytes per step.  A sorted copy of the
    # keys, as np.unique makes, would show here.
    n = 2 ** 21
    assert _peak_bytes_per_step(lambda: wl.simulate(wl.srw(3), n, seed=0), n) <= FIELD_PEAK_BYTES


def test_checkpoint_stage_memory_per_step(monkeypatch):
    # The lazy-uint32 path of TestChunkEdges: one site takes k_max = 162877
    # visits, so a table or histogram over 1..k_max of 8-byte entries adds
    # 1.3 MB, about 4.3 bytes per step, on top of k.  The stage's own
    # allocations are bounded by a piece: about 0.9 bytes per step here.
    # alpha 3 sums in int64 too, since no piece's total nears 2**62; summed
    # in Python ints, as a path-wide choice from kmax**3 * n would, its
    # pieces peak at about 2.7 bytes per step.
    # (test_widened_occurrence_numbers checks these sums on this path.)
    monkeypatch.setattr(path, "_CHUNK", 4099)
    law, n = _lazy(1, stay=0.99999), 300_000
    stage, seen = path._checkpoint_sums, []

    def traced(k, *args):
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = stage(k, *args)
        seen.append((k.dtype, int(k.max()), tracemalloc.get_traced_memory()[1] - base))
        return out

    monkeypatch.setattr(path, "_checkpoint_sums", traced)
    tracemalloc.start()
    try:
        wl.simulate_series(law, [1, n // 2, n], [0.0, 1.0, 2.0, 3.0, 0.5], seed=3)
    finally:
        tracemalloc.stop()
    [(dtype, kmax, peak)] = seen
    assert dtype == np.uint32 and 8 * kmax / n >= 4
    assert peak / n <= 2


@pytest.mark.parametrize("cks", [list(range(1, 1001)), [1000]], ids=["every-step", "last"])
def test_checkpoint_stage_counts_only_pieces_without_checkpoints(monkeypatch, cks):
    # k has 1001 entries, 16 pieces of 64 at most.  A piece with no
    # checkpoint is counted once; a piece that holds checkpoints is summed
    # by one cumsum however many it holds, so the stage's cost grows with
    # the pieces, not with the checkpoints.
    monkeypatch.setattr(path, "_CHUNK", 64)
    counted, value_counts = [], path._value_counts
    monkeypatch.setattr(path, "_value_counts", lambda k: counted.append(len(k)) or value_counts(k))
    law, alphas = wl.srw(2), [0.0, 1.0, 3.0, 0.5, 64.0]
    s = wl.simulate_series(law, cks, alphas, seed=4)
    assert counted == ([] if len(cks) > 1 else [64] * 15)
    keys = ref.pack_rows(ref.positions(law, 1000, 4))
    assert (s.l_table, s.ranges) == ref.series(keys, cks, alphas)


def test_ranked_series_peak_memory_per_step():
    # srw(6) at 2^20 steps passes the key budget, so its keys are ranked in
    # place: a sorted copy beside the keys and the step indices, about 18
    # bytes per step.  np.unique(return_inverse=True) peaked at about 56.
    law, cks, alphas = wl.srw(6), [2 ** 20], [0.0, 2.0]
    run = lambda: wl.simulate_series(law, cks, alphas, seed=0)
    assert _peak_bytes_per_step(run, cks[-1]) <= RANKED_PEAK_BYTES
    taken, row_rank = _ranked(law, ref.positions(law, cks[-1], 0))
    assert taken == "key"
    s = run()
    assert (s.l_table, s.ranges) == ref.series(row_rank, cks, alphas)


def test_ranked_field_peak_memory_per_step(monkeypatch):
    # a field of srw(6) passes its 63-bit key budget at 2^20 steps, so its
    # keys are ranked in place too, at about 21 bytes per step
    law, n, ranks = wl.srw(6), 2 ** 20, []
    rank = path._rank_in_place
    monkeypatch.setattr(path, "_rank_in_place", lambda a: ranks.append(len(a)) or rank(a))
    assert _peak_bytes_per_step(lambda: wl.simulate(law, n, seed=0), n) <= RANKED_PEAK_BYTES
    # once in the warm-up call and once in the traced one
    assert ranks == [n + 1] * 2


@pytest.mark.parametrize("seed", [0, 7])
def test_field_keys_ranked_only_past_int64(seed, monkeypatch):
    # srw(6) at 2^18 steps is too wide for 10-bit lanes, so its keys are
    # folded; a field packs no time index, so its keys may take all 63 bits
    # and are not ranked, while a series, at 63 - 19 bits, ranks them once
    law, n, ranks = wl.srw(6), 2 ** 18, []
    rank = path._rank_in_place
    monkeypatch.setattr(path, "_rank_in_place", lambda a: ranks.append(len(a)) or rank(a))
    f = wl.simulate(law, n, seed)
    assert ranks == []
    s = wl.simulate_series(law, [n], [0.0], seed)
    assert ranks == [n + 1]
    assert s.ranges == (f.range,)
