"""Path simulation and local-time accounting.

A walk of horizon n occupies n+1 time points (S_0 = 0 included).  The
LocalTimeField records how often each visited site was occupied; every
functional of interest here (range, power sums of visit counts, the
histogram of visit multiplicities) is a pure function of that field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as rnglib
from .errors import BadParam, InvariantViolation, ResourceLimit
from .steps import (StepLaw, _check_alpha, _check_horizon, _sampling_arrays,
                    mean_and_second_moment, sample_indices)

_INT64_SAFE = 1 << 62

# A path of n steps holds about 9 bytes per step at its peak in
# simulate_series: the int64 keys and one narrow array, the step indices
# and then the occurrence numbers (uint8 while no site has 256 visits).
# Both routes of _walk_keys stay within that: the lane pass prefix-sums
# each piece straight into the keys, and the fold adds one piece buffer.
# simulate holds the keys, a bool mask and one int64 run end per visited
# site, at most 17 bytes per step (about 16 for srw(3)).  So 10**8 steps
# is about 0.9 GB for a series and at most 1.7 GB for a field.  Keys that
# pass the budget of _walk_keys are ranked in place with a sorted copy
# beside them, which raises the peak to about 18 bytes per step for a
# series and 21 for a field.  A series gives its keys 63 - (n+1).bit_length()
# bits, which srw(6) passes at 2**18 steps and srw(5) at 2**20; a field
# gives them 63, which srw(6) passes at 2**20 and srw(5) at 2**22.
# simulate, simulate_series and variance_scan refuse longer paths before
# the first allocation; mc_escape refuses longer replicas.
STEP_BUDGET = 10 ** 8

# Steps per piece when drawing step indices, gathering an axis, tagging
# keys with their time and summing visit increments: small enough that
# no piece's temporaries show beside the full-length buffers.
_CHUNK = 1 << 16


def _check_step_budget(n: int) -> None:
    """Refuse a path of more than STEP_BUDGET steps before anything is allocated."""
    if n > STEP_BUDGET:
        raise ResourceLimit(f"a path of {n} steps exceeds STEP_BUDGET = {STEP_BUDGET} steps")


def _carry(steps: np.ndarray, idx: np.ndarray, out: np.ndarray, start: int | np.ndarray) -> None:
    """Walk each row of out from start: out = start + prefix sums of steps[idx].

    The packed steps steps[idx] are gathered into out, the carried
    position start (one per row) is added into the first of them, and
    out is prefix-summed in place along its last axis.  With start the
    last position of the previous piece, every piece of a walk cut into
    pieces holds the positions one prefix sum over the whole walk gives.
    """
    np.take(steps, idx, out=out, mode="clip")
    out[..., 0] += start
    np.cumsum(out, axis=-1, out=out)


def _walk_keys(law: StepLaw, n: int, gen: np.random.Generator, bits: int) -> np.ndarray:
    """One int64 key per time point of S_0..S_n, in site order, below 2**bits.

    The step indices are drawn _CHUNK at a time (the same stream as one
    draw of n) into the smallest unsigned dtype that holds them.  Then
    the keys are built by one of two routes, both monotone in
    lexicographic order of the positions, so sorting keys sorts sites;
    which one ran does not change the counts or occurrence numbers.  Both
    keep the keys below 2**bits: simulate, which packs no time, passes
    63, and simulate_series 63 - (n+1).bit_length(), so that a key and
    its time index share one int64 (see _occurrence_numbers).

    The lane pass (_lane_keys) packs every axis into a lane of bits // d
    bits, so one gather and one prefix sum per piece walk the whole path.
    It is tried only when every axis is likely to fit its lane
    (_lane_fits); its guard bits catch any lane that leaves its range, and
    then the fold below runs instead.

    The fold builds the keys one axis at a time, last axis first.  The key
    is sum_j (x_j - lo_j) * W_j, W_j the product of the spans of the axes
    after j, so W_j is known before axis j is read.  Each _CHUNK piece of
    the axis is gathered from the step indices and prefix-summed (carrying
    the previous piece's end), lo and hi are tracked, and piece * W_j is
    added to the keys; after the pass the keys drop lo_j * W_j.  When the
    keys pass 2**bits they are replaced by their dense rank (same order,
    at most n+1 values).  Before an axis whose raw sums times W_j could
    leave int64 (|S_j| <= n * max|c_j|), the keys are ranked first; if
    that is still too wide, the axis is built in full and ranked too.
    Ranks keep the order, and no caller needs the coordinates back, so the
    rank tables are dropped; each rank is taken in place (_rank_in_place).

    Either way there is no (n+1, d) positions array or full-length axis
    buffer: besides the keys only the indices are full length (and an
    axis too wide to fold while it is ranked).
    """
    coords, _ = _sampling_arrays(law)
    idx = np.empty(n, dtype=np.min_scalar_type(len(coords) - 1))
    for s in range(0, n, _CHUNK):
        e = min(s + _CHUNK, n)
        idx[s:e] = sample_indices(law, gen, e - s)
    keys = np.zeros(n + 1, dtype=np.int64)
    if _lane_fits(law, n, bits):
        if _lane_keys(law, idx, keys, bits):
            return keys
        keys.fill(0)
    buf = np.empty(min(n, _CHUNK), dtype=np.int64)
    radix = 1
    for j in reversed(range(law.d)):
        col = coords[:, j]
        reach = n * int(np.abs(col).max()) + 1
        if radix * reach >= 1 << 63:
            radix = _rank_in_place(keys)
        if radix * reach >= 1 << 63:
            x = np.zeros(n + 1, dtype=np.int64)
            for s, piece in _axis_pieces(col, idx, buf):
                x[1 + s:1 + s + len(piece)] = piece
            span = _rank_in_place(x)
            x *= radix
            keys += x
            del x
            radix *= span
        else:
            lo = hi = 0
            for s, piece in _axis_pieces(col, idx, buf):
                lo = min(lo, int(piece.min()))
                hi = max(hi, int(piece.max()))
                piece *= radix
                keys[1 + s:1 + s + len(piece)] += piece
            keys -= lo * radix
            radix *= hi - lo + 1
        if radix > 1 << bits:
            radix = _rank_in_place(keys)
    return keys


# The lane pass is tried when every axis's |mean| n + _LANE_SIGMAS sd
# sqrt(n) + max|c| fits in half a lane; a walk that still leaves its lane
# is caught by the guard and costs one wasted pass.
_LANE_SIGMAS = 8


@functools.lru_cache(maxsize=128)
def _lane_moments(law: StepLaw) -> tuple[np.ndarray, np.ndarray, int]:
    """(|mean|, standard deviation) of each axis's step, as floats, and max|c|."""
    mean, second = mean_and_second_moment(law)
    var = [float(second[j, j] - mean[j] ** 2) for j in range(law.d)]
    mu = np.abs(np.array([float(m) for m in mean]))
    sd = np.sqrt(np.maximum(var, 0.0))
    return mu, sd, int(np.abs(_sampling_arrays(law)[0]).max())


def _lane_fits(law: StepLaw, n: int, bits: int) -> bool:
    """Whether an n-step walk is expected to fit lanes of bits // d bits."""
    f = bits // law.d
    if f < 3:
        return False
    mu, sd, cmax = _lane_moments(law)
    half = 1 << (f - 2)
    return cmax < half and bool(
        (mu * n + _LANE_SIGMAS * sd * math.sqrt(n) + cmax < half).all())


@functools.lru_cache(maxsize=128)
def _lane_code(law: StepLaw, f: int) -> tuple[np.ndarray, np.int64, int]:
    """(packed step of each atom, guard mask, origin) for lanes of f bits.

    Axis j owns bits f*(d-1-j) .. f*(d-j) - 1, so the first axis is the
    most significant.  The mask holds each lane's top bit and every bit
    above the top lane; the origin puts each lane at 2**(f-2).
    """
    coords, _ = _sampling_arrays(law)
    shifts = [f * (law.d - 1 - j) for j in range(law.d)]
    deltas = np.array([sum(int(c) << s for c, s in zip(row, shifts)) for row in coords],
                      dtype=np.int64)
    guard = -(1 << (f * law.d))
    for s in shifts:
        guard |= 1 << (s + f - 1)
    return deltas, np.int64(guard), sum(1 << (s + f - 2) for s in shifts)


def _lane_keys(law: StepLaw, idx: np.ndarray, keys: np.ndarray, bits: int) -> bool:
    """Pack S_0..S_n into keys, f = bits // d bits per axis; False on overflow.

    This is SIMD within a register (Fisher & Dietz, 1998): one int64 add
    moves every axis at once.

    Axis j's lane holds 2**(f-2) + x_j and must stay in [0, 2**(f-1)): its
    top bit is a guard.  Each _CHUNK piece of keys is walked by _carry
    from the previous piece's end.
    Needs max|c| < 2**(f-2).  Then a lane that leaves its range moves by
    less than a quarter of its field, and at the first such time the least
    significant such lane gets no carry or borrow from the lanes below it,
    so it sets its own guard bit, whether it left up or down.  The guard
    is read from each piece's bitwise OR before the next piece, and no key
    up to that first time has left int64.  With every guard clear the
    lanes are exact and the key is monotone in lexicographic site order.
    After False, keys hold garbage.
    """
    deltas, guard, origin = _lane_code(law, bits // law.d)
    keys[0] = end = origin
    for s in range(0, len(idx), _CHUNK):
        piece = keys[1 + s:1 + s + min(_CHUNK, len(idx) - s)]
        _carry(deltas, idx[s:s + len(piece)], piece, end)
        if np.bitwise_or.reduce(piece) & guard:
            return False
        end = int(piece[-1])
    return True


def _rank_in_place(a: np.ndarray) -> int:
    """Overwrite an int64 array with its dense rank; return the rank count.

    The ranks are those of np.unique(a, return_inverse=True), found with
    less memory: a sorted copy of a is compacted to its distinct values in
    place, one _CHUNK piece at a time, and shrunk to them; then each piece
    of a is overwritten by its np.searchsorted positions in those values.
    So the sorted copy is the one full-length array besides a.
    """
    values = np.sort(a)
    count = 0
    for s in range(0, len(values), _CHUNK):
        piece = values[s:s + _CHUNK]
        new = np.empty(len(piece), dtype=bool)
        new[0] = count == 0 or piece[0] != values[count - 1]
        np.not_equal(piece[1:], piece[:-1], out=new[1:])
        distinct = piece[new]
        values[count:count + len(distinct)] = distinct
        count += len(distinct)
    del piece
    values.resize(count, refcheck=False)
    for s in range(0, len(a), _CHUNK):
        a[s:s + _CHUNK] = np.searchsorted(values, a[s:s + _CHUNK])
    return count


def _axis_pieces(col: np.ndarray, idx: np.ndarray, buf: np.ndarray):
    """(s, S_{s+1..e} of one axis) per _CHUNK piece of the step indices idx.

    col holds the axis's coordinate of each atom.  Every piece is walked
    by _carry into buf, so it is valid until the next one is drawn.
    """
    end = 0
    for s in range(0, len(idx), _CHUNK):
        piece = buf[:min(_CHUNK, len(idx) - s)]
        _carry(col, idx[s:s + len(piece)], piece, end)
        end = int(piece[-1])
        yield s, piece


@dataclass(frozen=True)
class LocalTimeField:
    """Visit counts of one simulated path.

    counts[i] is the number of times the i-th distinct visited site, in
    lexicographic order of the sites, was occupied among times 0..n.  Sum
    of counts is always n+1 and every count is at least 1.
    """

    n: int
    counts: np.ndarray

    @property
    def range(self) -> int:
        """R(n), the number of distinct visited sites."""
        return len(self.counts)

    def check_invariants(self) -> None:
        total = int(self.counts.sum())
        if total != self.n + 1:
            raise InvariantViolation(f"visit counts sum to {total}, not n+1 = {self.n + 1}")
        if not (self.counts >= 1).all():
            raise InvariantViolation("a listed site has no visits")


@dataclass(frozen=True)
class QHistogram:
    """Counts of sites by visit multiplicity: buckets[j] = Q_j(n)."""

    n: int
    buckets: dict[int, int]

    def total_sites(self) -> int:
        return sum(self.buckets.values())

    def weighted_total(self) -> int:
        return sum(j * q for j, q in self.buckets.items())


def simulate(law: StepLaw, n: int, seed: int) -> LocalTimeField:
    """Simulate one n-step path and return its local-time field.

    The keys are sorted in place, with no sorted copy, and the counts are
    the gaps between the ends of their runs of equal keys.
    """
    _check_horizon(n)
    _check_step_budget(n)
    gen = rnglib.generator(seed)
    keys = _walk_keys(law, n, gen, 63)
    keys.sort()
    size = len(keys)
    ends = np.flatnonzero(keys[1:] != keys[:-1])
    del keys
    counts = np.diff(ends, prepend=-1, append=size - 1)
    field = LocalTimeField(n=n, counts=counts)
    field.check_invariants()
    return field


def l_alpha(field: LocalTimeField, alpha: float):
    """L_n(alpha) = sum over visited sites of count^alpha.

    alpha = 0 counts each visited site once (the range); integer alpha is
    evaluated in exact integer arithmetic, non-integer alpha in doubles.
    Raises BadParam for a negative or non-finite alpha.
    """
    _check_alpha(alpha)
    counts = field.counts
    if alpha == 0:
        return field.range
    if float(alpha).is_integer():
        a = int(alpha)
        cmax = int(counts.max())
        if cmax ** a * len(counts) < _INT64_SAFE:
            return int((counts ** a).sum())
        return sum(int(c) ** a for c in counts)
    return float(np.power(counts.astype(np.float64), alpha).sum())


def q_histogram(field: LocalTimeField) -> QHistogram:
    """Histogram of visit multiplicities."""
    tally = np.bincount(field.counts)
    buckets = {int(j): int(tally[j]) for j in np.flatnonzero(tally)}
    return QHistogram(n=field.n, buckets=buckets)


def sample_visited_local_time(field: LocalTimeField, gen: np.random.Generator,
                              m: int) -> np.ndarray:
    """m independent draws of the count at a uniformly chosen visited site.

    Sites are indexed in the field's lexicographic order, so draws are
    reproducible for a fixed generator state.
    """
    if m < 1:
        raise BadParam(f"resample count must be >= 1, got {m}")
    idx = gen.integers(0, field.range, size=m)
    return field.counts[idx].astype(np.int64)


# ---------------------------------------------------------------------------
# Single-pass checkpoint series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckpointSeries:
    """Running values of L_n(alpha) and R(n) at increasing horizons.

    l_table[i][j] is L at checkpoints[i] for alphas[j]; ranges[i] is R.
    """

    checkpoints: tuple[int, ...]
    alphas: tuple[float, ...]
    l_table: tuple[tuple[float, ...], ...]
    ranges: tuple[int, ...]

    def records(self) -> list[dict]:
        """One n, alpha, L, L_over_n, R, R_over_n row per (checkpoint, alpha); L as a float."""
        return [{"n": n, "alpha": a, "L": float(self.l_table[i][j]),
                 "L_over_n": float(self.l_table[i][j]) / n,
                 "R": self.ranges[i], "R_over_n": self.ranges[i] / n}
                for i, n in enumerate(self.checkpoints)
                for j, a in enumerate(self.alphas)]


def _occurrence_numbers(keys: np.ndarray) -> np.ndarray:
    """k[t] = how many times keys[t] has appeared among keys[0..t].

    keys are below 2**(63 - tbits), the budget simulate_series gives
    _walk_keys, so key << tbits | t fits in int64 and one
    in-place sort of those distinct composites orders the times by key,
    then by t.  The sorted composites are then walked a piece at a time:
    a time's rank is its position minus the start of its key's run, plus
    one (the run start and the last key carry from piece to piece), and
    is scattered to k at that time.  k has the narrowest unsigned dtype
    that holds the largest rank: it starts as uint8 and is widened when a
    piece's ranks outgrow it.  So besides keys, which is overwritten,
    only k is full length.
    """
    size = len(keys)
    tbits = size.bit_length()
    keys <<= tbits
    for s in range(0, size, _CHUNK):
        keys[s:s + _CHUNK] |= np.arange(s, min(s + _CHUNK, size))
    keys.sort()
    k = np.empty(size, dtype=np.uint8)
    last, start = -1, 0
    for s in range(0, size, _CHUNK):
        piece = keys[s:s + _CHUNK]
        key = piece >> tbits
        new_run = np.empty(len(piece), dtype=bool)
        new_run[0] = key[0] != last
        np.not_equal(key[1:], key[:-1], out=new_run[1:])
        ranks = np.arange(s, s + len(piece))
        starts = ranks * new_run
        starts[0] = max(starts[0], start)
        np.maximum.accumulate(starts, out=starts)
        last, start = int(key[-1]), int(starts[-1])
        ranks -= starts
        ranks += 1
        top = int(ranks.max())
        if top > np.iinfo(k.dtype).max:
            k = k.astype(np.min_scalar_type(top))
        k[piece & ((1 << tbits) - 1)] = ranks
    return k


def _visit_increments(k: np.ndarray, alpha: float, wide: bool) -> np.ndarray:
    """What the visits k add to L(alpha): k^alpha - (k-1)^alpha each.

    For alpha = 0 that is whether the visit finds a new site, so the
    running sum is R.  Integer alpha stays exact, in Python ints when wide.
    """
    if alpha == 0:
        return k == 1
    if float(alpha).is_integer():
        a = int(alpha)
        if wide:
            k = k.astype(object)
        return k ** a - (k - 1) ** a
    kf = k.astype(np.float64)
    return np.power(kf, alpha) - np.power(kf - 1.0, alpha)


def _value_counts(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of k, as int64, and how often each occurs.

    A uint8 or uint16 k is counted by bincount, whose table has at most
    2**16 entries; a wider k is sorted by np.unique, so no table is longer
    than k itself.
    """
    if k.dtype.itemsize <= 2:
        counts = np.bincount(k)
        values = np.flatnonzero(counts)
        return values, counts[values]
    values, counts = np.unique(k, return_counts=True)
    return values.astype(np.int64), counts


def _checkpoint_sums(k: np.ndarray, checkpoints: Sequence[int],
                     alphas: Sequence[float]) -> list[list]:
    """Running sums of k's visit increments per alpha, read at the checkpoints.

    k is walked _CHUNK steps at a time.  Integer alpha sums each piece in
    int64 when neither top^alpha nor the piece's own total can overflow,
    top the piece's maximum (no increment passes top's, since they grow
    with k), else in Python ints; the running sum is carried in Python
    ints.  Such a sum is exact, so it does not depend on the order of its
    terms or on which pieces went wide.  A piece with no
    checkpoint inside adds sum_v inc(v) * #{t in piece : k_t = v} from
    its occurrence counts (_value_counts); a piece that holds checkpoints
    is summed by one cumsum read at all of them, so the cost does not grow
    with their number.  A non-integer alpha is summed in time order: each
    piece's cumsum starts from the previous piece's last sum, added into
    its first increment, so every value is that of one full-length cumsum,
    bit for bit.
    """
    exact = [float(a).is_integer() for a in alphas]
    rows = [[] for _ in alphas]
    carries = [0] * len(alphas)
    cks = np.asarray(checkpoints)
    for s in range(0, len(k), _CHUNK):
        piece = k[s:s + _CHUNK]
        lo, hi = np.searchsorted(cks, [s, s + len(piece)])
        at = cks[lo:hi] - s
        if lo == hi:
            values, counts = _value_counts(piece)
            top = int(values[-1])
        else:
            # k may be uint8, whose k ** 3 would wrap
            part = piece.astype(np.int64)
            top = int(part.max())
        for j, a in enumerate(alphas):
            if not exact[j]:
                run = _visit_increments(piece, a, False)
                run[0] += carries[j]
                np.cumsum(run, out=run)
                carries[j] = run[-1]
                rows[j].extend(run[at])
                continue
            # inc(v) grows with v, so no term passes inc(top)
            big = top ** int(a)
            wide = max(big, (big - (top - 1) ** int(a)) * len(piece)) >= _INT64_SAFE
            if lo == hi:
                carries[j] += int((_visit_increments(values, a, wide) * counts).sum())
            else:
                run = np.cumsum(_visit_increments(part, a, wide))
                rows[j].extend(v + carries[j] for v in run[at].tolist())
                carries[j] += int(run[-1])
    return rows


def simulate_series(law: StepLaw, checkpoints: Sequence[int],
                    alphas: Sequence[float], seed: int) -> CheckpointSeries:
    """One path, evaluated incrementally at every checkpoint.

    Checkpoint records coincide with a from-scratch l_alpha evaluation of
    the same path prefix: the running sums telescope exactly (integer
    alpha) or to within float cumsum error (non-integer alpha).  The path
    uses the same sample stream as simulate(law, n_max, seed).
    """
    checkpoints = tuple(int(c) for c in checkpoints)
    if not checkpoints or any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise BadParam("checkpoints must be nonempty and strictly increasing")
    if checkpoints[0] < 1:
        raise BadParam("checkpoints must be >= 1")
    alphas = tuple(float(a) for a in alphas)
    for a in alphas:
        _check_alpha(a)
    n_max = checkpoints[-1]
    _check_step_budget(n_max)
    gen = rnglib.generator(seed)
    k = _occurrence_numbers(_walk_keys(law, n_max, gen, 63 - (n_max + 1).bit_length()))
    sums = iter(_checkpoint_sums(k, checkpoints, [0.0] + [a for a in alphas if a != 0]))
    running_range = next(sums)
    ranges = tuple(int(v) for v in running_range)
    l_rows = []
    for a in alphas:
        running = running_range if a == 0 else next(sums)
        l_rows.append(tuple(
            int(v) if float(a).is_integer() else float(v) for v in running))
    l_table = tuple(tuple(row[i] for row in l_rows)
                    for i in range(len(checkpoints)))
    return CheckpointSeries(checkpoints=checkpoints, alphas=alphas,
                            l_table=l_table, ranges=ranges)
