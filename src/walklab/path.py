"""Path simulation and local-time accounting.

A walk of horizon n occupies n+1 time points (S_0 = 0 included).  The
LocalTimeField records how often each visited site was occupied; every
functional of interest here (range, power sums of visit counts, the
histogram of visit multiplicities) is a pure function of that field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as rnglib
from .errors import BadParam, InvariantViolation, ResourceLimit
from .steps import StepLaw, _sampling_arrays, sample_indices

_INT64_SAFE = 1 << 62

# A path of n steps holds about 18 bytes per step at its peak (the int64
# keys, one int64 axis or rank buffer, and the step indices or the int32
# sort order and occurrence ranks), so 10**8 steps is about 1.8 GB.
# simulate, simulate_series and variance_scan refuse longer paths before
# the first allocation.  Kept below 2**31, which the int32 time indices
# of _occurrence_numbers need.
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

    The keys are built one axis at a time, without an (n+1, d) positions
    array: each axis is a gather of that axis's step coordinate and an
    in-place prefix sum, folded in as a mixed-radix digit,
    keys = keys*span + (x - lo).  The code is monotone in lexicographic
    order of the positions, so sorting keys sorts sites.  The step
    indices are drawn _CHUNK at a time (the same stream as one draw of n)
    into the smallest unsigned dtype that holds them, and gathered a
    chunk at a time, so besides the keys only the axis buffer x is a full
    8 bytes per step.

    Keys stay below 2**(63 - tbits), tbits = (n+1).bit_length() <= 27
    under STEP_BUDGET, so a key and its time index share one int64 (see
    _occurrence_numbers).  When a digit would cross that budget, the
    partial key is replaced by its dense rank (same order, at most n+1
    values); an axis too wide to be multiplied in within int64 is ranked
    first.  Ranks keep the order, and no caller needs the coordinates
    back, so the rank tables are dropped.
    """
    coords, _ = _sampling_arrays(law)
    budget = 1 << (63 - (n + 1).bit_length())
    idx = np.empty(n, dtype=np.min_scalar_type(len(coords) - 1))
    for s in range(0, n, _CHUNK):
        e = min(s + _CHUNK, n)
        idx[s:e] = sample_indices(law, gen, e - s)
    keys = np.zeros(n + 1, dtype=np.int64)
    x = np.empty(n + 1, dtype=np.int64)
    radix = 1
    for j in range(law.d):
        col = coords[:, j]
        x[0] = 0
        for s in range(0, n, _CHUNK):
            e = min(s + _CHUNK, n)
            np.take(col, idx[s:e], out=x[1 + s:1 + e], mode="clip")
        np.cumsum(x[1:], out=x[1:])
        lo = int(x.min())
        span = int(x.max()) - lo + 1
        x -= lo
        if radix * span > 1 << 63:
            axis_values, x = np.unique(x, return_inverse=True)
            span = len(axis_values)
        keys *= span
        keys += x
        radix *= span
        if radix > budget:
            key_values, keys = np.unique(keys, return_inverse=True)
            radix = len(key_values)
    return keys


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
    """Simulate one n-step path and return its local-time field."""
    if n < 0:
        raise BadParam(f"horizon must be >= 0, got {n}")
    _check_step_budget(n)
    gen = rnglib.generator(seed)
    _, counts = np.unique(_walk_keys(law, n, gen), return_counts=True)
    field = LocalTimeField(n=n, counts=counts)
    field.check_invariants()
    return field


def l_alpha(field: LocalTimeField, alpha: float):
    """L_n(alpha) = sum over visited sites of count^alpha.

    alpha = 0 counts each visited site once (the range); integer alpha is
    evaluated in exact integer arithmetic, non-integer alpha in doubles.
    """
    if alpha < 0:
        raise BadParam(f"alpha must be >= 0, got {alpha}")
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
    unstable sort of those distinct composites orders the times by key,
    then by t.  The times are below 2**31 under STEP_BUDGET, so the sort
    order and the ranks are int32.  keys is overwritten and returned as k.
    """
    size = len(keys)
    tbits = size.bit_length()
    keys <<= tbits
    for s in range(0, size, _CHUNK):
        keys[s:s + _CHUNK] |= np.arange(s, min(s + _CHUNK, size))
    keys.sort()
    order = np.empty(size, dtype=np.int32)
    np.bitwise_and(keys, (1 << tbits) - 1, out=order, casting="unsafe")
    keys >>= tbits
    new_group = np.empty(size, dtype=bool)
    new_group[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
    t = np.arange(size, dtype=np.int32)
    group_start = np.multiply(t, new_group, out=keys)
    np.maximum.accumulate(group_start, out=group_start)
    t -= group_start
    t += 1
    for s in range(0, size, _CHUNK):
        keys[order[s:s + _CHUNK]] = t[s:s + _CHUNK]
    return keys


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
        part = k[s:s + _CHUNK]
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
    if any(a < 0 for a in alphas):
        raise BadParam("alphas must be >= 0")
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
