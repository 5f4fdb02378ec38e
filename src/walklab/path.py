"""Path simulation and local-time accounting.

A walk of horizon n occupies n+1 time points (S_0 = 0 included).  The
LocalTimeField records how often each visited site was occupied; every
functional of interest here (range, power sums of visit counts, the
histogram of visit multiplicities) is a pure function of that field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as rnglib
from .errors import BadParam, InvariantViolation, ResourceLimit
from .steps import StepLaw, _sampling_arrays, sample_indices

_INT64_SAFE = 1 << 62

# A path of n steps holds about 9 bytes per step at its peak in
# simulate_series: the int64 keys and one narrow array, the step indices
# and then the occurrence numbers (uint8 while no site has 256 visits).
# simulate holds the keys, a bool mask and one int64 run end per visited
# site, at most 17 bytes per step (about 16 for srw(3)).  So 10**8 steps
# is about 0.9 GB for a series and at most 1.7 GB for a field.  Keys that
# pass the key budget of _walk_keys (srw(5) and srw(6) at 2**20 steps) are
# ranked in place with a sorted copy beside them, which raises the peak to
# about 18 bytes per step for a series and 21 for a field.  simulate,
# simulate_series and variance_scan refuse longer paths before the first
# allocation.
STEP_BUDGET = 10 ** 8

# Steps per piece when drawing step indices, gathering an axis, tagging
# keys with their time and summing visit increments: small enough that
# no piece's temporaries show beside the full-length buffers.
_CHUNK = 1 << 16


def _check_step_budget(n: int) -> None:
    """Refuse a path of more than STEP_BUDGET steps before anything is allocated."""
    if n > STEP_BUDGET:
        raise ResourceLimit(f"a path of {n} steps exceeds STEP_BUDGET = {STEP_BUDGET} steps")


def _walk_keys(law: StepLaw, n: int, gen: np.random.Generator) -> np.ndarray:
    """One int64 key per time point of S_0..S_n, in site order.

    The keys are built one axis at a time, last axis first, without an
    (n+1, d) positions array or a full-length axis buffer.  The key is
    sum_j (x_j - lo_j) * W_j, W_j the product of the spans of the axes
    after j, so W_j is known before axis j is read.  Each _CHUNK piece of
    the axis is gathered from the step indices and prefix-summed (carrying
    the previous piece's end), lo and hi are tracked, and piece * W_j is
    added to the keys; after the pass the keys drop lo_j * W_j.  The code
    is monotone in lexicographic order of the positions, so sorting keys
    sorts sites.  The step indices are drawn _CHUNK at a time (the same
    stream as one draw of n) into the smallest unsigned dtype that holds
    them, so besides the keys only the indices are full length (and an
    axis too wide to fold, below, while it is ranked).

    Keys stay below 2**(63 - tbits), tbits = (n+1).bit_length(), so a key
    and its time index share one int64 (see _occurrence_numbers).  When
    the keys pass that budget they are replaced by their dense rank (same
    order, at most n+1 values).  Before an axis whose raw sums times W_j
    could leave int64 (|S_j| <= n * max|c_j|), the keys are ranked first;
    if that is still too wide, the axis is built in full and ranked too.
    Ranks keep the order, and no caller needs the coordinates back, so the
    rank tables are dropped; each rank is taken in place (_rank_in_place).
    """
    coords, _ = _sampling_arrays(law)
    budget = 1 << (63 - (n + 1).bit_length())
    idx = np.empty(n, dtype=np.min_scalar_type(len(coords) - 1))
    for s in range(0, n, _CHUNK):
        e = min(s + _CHUNK, n)
        idx[s:e] = sample_indices(law, gen, e - s)
    keys = np.zeros(n + 1, dtype=np.int64)
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
        if radix > budget:
            radix = _rank_in_place(keys)
    return keys


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

    col holds the axis's coordinate of each atom.  Every piece is written
    into buf, so it is valid until the next one is drawn.
    """
    end = 0
    for s in range(0, len(idx), _CHUNK):
        piece = buf[:min(_CHUNK, len(idx) - s)]
        np.take(col, idx[s:s + len(piece)], out=piece, mode="clip")
        piece[0] += end
        np.cumsum(piece, out=piece)
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
    if n < 0:
        raise BadParam(f"horizon must be >= 0, got {n}")
    _check_step_budget(n)
    gen = rnglib.generator(seed)
    keys = _walk_keys(law, n, gen)
    keys.sort()
    size = len(keys)
    ends = np.flatnonzero(keys[1:] != keys[:-1])
    del keys
    counts = np.diff(ends, prepend=-1, append=size - 1)
    field = LocalTimeField(n=n, counts=counts)
    field.check_invariants()
    return field


def _check_alpha(alpha: float) -> None:
    """BadParam unless alpha is a finite power >= 0."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise BadParam(f"alpha must be finite and >= 0, got {alpha}")


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

    keys come from _walk_keys, so key << tbits | t fits in int64 and one
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


def _checkpoint_sums(k: np.ndarray, checkpoints: Sequence[int],
                     alphas: Sequence[float]) -> list[list]:
    """Running sums of k's visit increments per alpha, read at the checkpoints.

    Integer alpha sums in int64 when the total cannot overflow, else in
    Python ints.  k is walked _CHUNK steps at a time and each chunk's
    cumsum starts from the previous chunk's last sum, so every value is
    that of one full-length cumsum, bit for bit.
    """
    kmax = int(k.max())
    wide = [float(a).is_integer() and kmax ** int(a) * len(k) >= _INT64_SAFE
            for a in alphas]
    rows = [[] for _ in alphas]
    carries = [0] * len(alphas)
    cks = np.asarray(checkpoints)
    for s in range(0, len(k), _CHUNK):
        # k may be uint8, whose k ** 3 would wrap
        part = k[s:s + _CHUNK].astype(np.int64)
        lo, hi = np.searchsorted(cks, [s, s + len(part)])
        at = cks[lo:hi] - s + 1
        for j, a in enumerate(alphas):
            run = np.cumsum(np.concatenate(
                ([carries[j]], _visit_increments(part, a, wide[j]))))
            carries[j] = run[-1]
            rows[j].extend(run[at])
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
    k = _occurrence_numbers(_walk_keys(law, n_max, gen))
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
