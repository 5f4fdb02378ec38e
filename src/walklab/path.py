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
from .steps import LatticePoint, StepLaw, _sampling_arrays, sample_indices

_INT64_SAFE = 1 << 62


def _walk_keys(law: StepLaw, n: int, gen: np.random.Generator
               ) -> tuple[np.ndarray, tuple]:
    """One int64 key per time point of S_0..S_n, and the layers that decode it.

    The keys are built one axis at a time, without an (n+1, d) positions
    array: each axis is a gather of that axis's step coordinate and an
    in-place prefix sum, folded in as a mixed-radix digit,
    keys = keys*span + (x - lo).  The code is monotone in lexicographic
    order of the positions, so sorting keys sorts sites.

    Keys stay below 2**(63 - tbits), tbits = (n+1).bit_length(), so a key
    and its time index share one int64 (see _occurrence_numbers).  When a
    digit would cross that budget, the partial key is replaced by its
    dense rank (same order, at most n+1 values); an axis too wide to be
    multiplied in within int64 is ranked first.  layers holds
    (lo, span, axis rank table, key rank table) per axis for _decode_sites.
    """
    coords, _ = _sampling_arrays(law)
    tbits = (n + 1).bit_length()
    if 2 * tbits > 63:
        raise ResourceLimit(f"horizon {n} too long for 64-bit time-site keys")
    budget = 1 << (63 - tbits)
    idx = sample_indices(law, gen, n) if n > 0 else np.empty(0, dtype=np.intp)
    keys = np.zeros(n + 1, dtype=np.int64)
    x = np.empty(n + 1, dtype=np.int64)
    radix = 1
    layers = []
    for j in range(law.d):
        x[0] = 0
        np.take(coords[:, j], idx, out=x[1:], mode="clip")
        np.cumsum(x[1:], out=x[1:])
        lo = int(x.min())
        span = int(x.max()) - lo + 1
        x -= lo
        axis_table = key_table = None
        if radix * span > 1 << 63:
            axis_table, x = np.unique(x, return_inverse=True)
            span = len(axis_table)
        keys *= span
        keys += x
        radix *= span
        if radix > budget:
            key_table, keys = np.unique(keys, return_inverse=True)
            radix = len(key_table)
        layers.append((lo, span, axis_table, key_table))
    return keys, tuple(layers)


def _decode_sites(keys: np.ndarray, layers: tuple) -> np.ndarray:
    """Invert _walk_keys: the (len(keys), d) lattice points of the keys."""
    sites = np.empty((len(keys), len(layers)), dtype=np.int64)
    for j in reversed(range(len(layers))):
        lo, span, axis_table, key_table = layers[j]
        if key_table is not None:
            keys = key_table[keys]
        keys, x = np.divmod(keys, span)
        np.add(x if axis_table is None else axis_table[x], lo, out=sites[:, j])
    return sites


@dataclass(frozen=True)
class LocalTimeField:
    """Visit counts of one simulated path.

    sites rows are the distinct visited lattice points in lexicographic
    order; counts[i] is the number of times sites[i] was occupied among
    times 0..n.  Sum of counts is always n+1 and the origin is present.
    """

    n: int
    sites: np.ndarray
    counts: np.ndarray

    @property
    def range(self) -> int:
        """R(n), the number of distinct visited sites."""
        return len(self.counts)

    def count_of(self, point: Sequence[int]) -> int:
        pt = np.asarray(point, dtype=np.int64)
        hit = np.flatnonzero((self.sites == pt).all(axis=1))
        return int(self.counts[hit[0]]) if hit.size else 0

    def counts_map(self) -> dict[LatticePoint, int]:
        return {tuple(int(c) for c in s): int(v)
                for s, v in zip(self.sites, self.counts)}

    def check_invariants(self) -> None:
        total = int(self.counts.sum())
        if total != self.n + 1:
            raise InvariantViolation(f"visit counts sum to {total}, not n+1 = {self.n + 1}")
        if not (self.counts >= 1).all():
            raise InvariantViolation("a listed site has no visits")
        if self.count_of((0,) * self.sites.shape[1]) < 1:
            raise InvariantViolation("the origin is not among the visited sites")


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
    gen = rnglib.generator(seed)
    keys, layers = _walk_keys(law, n, gen)
    uniq, counts = np.unique(keys, return_counts=True)
    del keys
    return LocalTimeField(n=n, sites=_decode_sites(uniq, layers), counts=counts)


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

    The site snapshot is the field's lexicographically sorted site list,
    so draws are reproducible for a fixed generator state.
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
    then by t.  keys is overwritten.
    """
    size = len(keys)
    tbits = size.bit_length()
    t = np.arange(size, dtype=np.int64)
    keys <<= tbits
    keys |= t
    keys.sort()
    order = keys & ((1 << tbits) - 1)
    keys >>= tbits
    new_group = np.empty(size, dtype=bool)
    new_group[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
    group_start = np.multiply(t, new_group, out=keys)
    np.maximum.accumulate(group_start, out=group_start)
    t -= group_start
    t += 1
    k = np.empty(size, dtype=np.int64)
    k[order] = t
    return k


def _running_l(k: np.ndarray, alpha: float) -> np.ndarray:
    """Cumulative L(alpha) for alpha > 0: each visit bumps L by k^alpha - (k-1)^alpha."""
    if float(alpha).is_integer():
        a = int(alpha)
        kmax = int(k.max())
        if kmax ** a * len(k) < _INT64_SAFE:
            inc = k ** a - (k - 1) ** a
        else:
            inc = (k.astype(object) ** a) - ((k - 1).astype(object) ** a)
        return np.cumsum(inc)
    kf = k.astype(np.float64)
    return np.cumsum(np.power(kf, alpha) - np.power(kf - 1.0, alpha))


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
    gen = rnglib.generator(seed)
    keys, _ = _walk_keys(law, n_max, gen)
    k = _occurrence_numbers(keys)
    idx = np.asarray(checkpoints)
    running_range = np.cumsum(k == 1)[idx]
    ranges = tuple(int(v) for v in running_range)
    l_rows = []
    for a in alphas:
        running = running_range if a == 0 else _running_l(k, a)[idx]
        l_rows.append(tuple(
            int(v) if float(a).is_integer() else float(v) for v in running))
    l_table = tuple(tuple(row[i] for row in l_rows)
                    for i in range(len(checkpoints)))
    return CheckpointSeries(checkpoints=checkpoints, alphas=alphas,
                            l_table=l_table, ranges=ranges)
