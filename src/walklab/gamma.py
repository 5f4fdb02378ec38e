"""Escape probability and return-probability machinery.

Three independent routes to the escape probability gamma:

* green_series: gamma = 1 / sum_m P(S_m = 0) (renewal identity), with the
  truncated series completed by a fitted tail,
* taboo_dp: evolve the law of S_m while absorbing all mass at the origin;
  the surviving mass after n steps is gamma(n), the no-return probability,
* mc_escape: fraction of simulated walks that avoid the origin up to a
  horizon n (estimates gamma(n), an upper bound for gamma).  Replicas
  run in batches, MC_BLOCK steps per block, and leave the batch once they
  return or can no longer return; each one's verdict is a pure function
  of its own stream, mix64(seed, i).

Every evolution of the law of S_m runs through one step loop,
_evolution, and one box DP: exact integer numerators for rational laws, a
pruned float box otherwise.  The box DP stores a mod-2 class of its box
only once mass lands in it (a walk with no zero atom is periodic), so
srw(d) keeps half of its box and the eight diagonal steps of Z^3 an
eighth; every cell is the same ordered float sum as on the whole box, and
CELL_BUDGET counts the whole box.  The return-probability sequence P(S_m = 0)
has two engines, and the law picks one: an axis-decomposition recursion
for laws whose atoms are signed unit vectors and optionally the zero
vector (simple and drifted simple walks, cost O(d N^2)), and a
half-horizon box DP for every other law.  The latter uses the iid split of S_2m into two
independent copies of S_m, P(S_2m = 0) = sum_x p_m(x) p_m(-x) (and
likewise for odd times), so it evolves only to ceil(N/2).  Both engines
agree with exact convolution to float precision; the tests cross-check
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import path
from . import rng as rnglib
from .errors import BadParam, InvariantViolation, ResourceLimit, SuspectedRecurrence
from .steps import LatticePoint, Mass, StepLaw, _atom_indices, _sampling_arrays

PRUNE_THRESHOLD = 1e-16
# Memory budget of every pmf evolution, checked by DenseEvolver.step as
# the box grows: a box of at most CELL_BUDGET cells, float or exact,
# counted over the whole box, whichever of its mod-2 classes are stored.
CELL_BUDGET = 1 << 25
MC_BLOCK = 2048
# Replicas advanced together by _escape_range: a batch's block is one
# piece of the path kernel, path._CHUNK steps.
_MC_BATCH = path._CHUNK // MC_BLOCK


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PmfField:
    """Sparse law of S_m (or a killed sub-probability law) at step m."""

    m: int
    masses: dict[LatticePoint, Mass]


@dataclass(frozen=True)
class ReturnLaw:
    """No-return probabilities gamma(0..N) and the derived return-time law.

    denom is the step law's StepLaw.denom: gamma(m) of an exact sequence
    is a multiple of 1/denom**m (1 for float sequences).  prune_loss
    bounds the mass discarded by the float DP; exact sequences have
    prune_loss 0.
    """

    horizon: int
    gamma_seq: tuple
    exact: bool
    denom: int
    prune_loss: float = 0.0

    def numerators(self) -> list[int]:
        """gamma(m) * denom**m for m = 0..N, for an exact sequence.

        Raises InvariantViolation where that is not an integer, i.e. where
        denom is not a base of the sequence's denominators.
        """
        out = []
        scale = 1
        for m, g in enumerate(self.gamma_seq):
            q, r = divmod(scale, g.denominator)
            if r:
                raise InvariantViolation(
                    f"gamma({m}) = {g} times denom**{m} = {self.denom}**{m} "
                    "is not an integer")
            out.append(g.numerator * q)
            scale *= self.denom
        return out

    def tau_pmf(self) -> tuple:
        """P(tau = n) = gamma(n-1) - gamma(n) for n = 1..horizon."""
        g = self.gamma_seq
        return tuple(g[n - 1] - g[n] for n in range(1, self.horizon + 1))

    def check_invariants(self, tol: float = 1e-9) -> None:
        g = self.gamma_seq
        if len(g) != self.horizon + 1:
            raise InvariantViolation(
                f"{len(g)} no-return probabilities for horizon {self.horizon}")
        if g[0] != 1:
            raise InvariantViolation(f"gamma(0) = {g[0]!r}, not 1")
        if not all(a >= b - 1e-15 for a, b in zip(g, g[1:])):
            raise InvariantViolation("no-return sequence is increasing")
        if g[-1] < -1e-15:
            raise InvariantViolation(f"gamma(N) = {g[-1]!r} is negative")
        if self.exact:
            # an exact sum of tau_pmf and gamma(N) telescopes to gamma(0) = 1
            self.numerators()
            return
        total = sum(self.tau_pmf()) + g[-1]
        if abs(total - 1.0) > tol + self.prune_loss:
            raise InvariantViolation(f"return-time law sums to {total!r}, not 1")


@dataclass(frozen=True)
class GammaEstimate:
    """One estimate of the escape probability with its error scale."""

    value: float
    error: float
    method: str
    params: dict
    seed: int | None = None

    def __post_init__(self):
        if not (self.error >= 0 and self.value - self.error >= -1e-12
                and self.value <= 1 + self.error + 1e-12):
            raise InvariantViolation(
                f"gamma estimate {self.value!r} +- {self.error!r} "
                "is not a probability with a nonnegative error")

    def to_json_dict(self) -> dict:
        """The estimate as reports print it; seed only for seeded methods."""
        out = {"value": self.value, "error": self.error, "method": self.method,
               "params": self.params}
        if self.seed is not None:
            out["seed"] = self.seed
        return out


@dataclass(frozen=True)
class TailDiagnostic:
    """Partial tail sum_{k>=n} P(S_k=0) and its fitted decay exponent.

    windows holds (start, slope) pairs where slope is the dyadic-window
    decay rate -log2(tail(2s)/tail(s)); eta_hat is the least-squares
    exponent over all starts.  A window whose second block is empty has
    slope inf; one whose first block alone is empty has slope -inf (the
    block [1, 2) holds only P(S_1 = 0), which is 0 for every law with no
    zero atom).  A walk whose tail vanishes identically is reported with
    eta_hat = inf; a positive tail with fewer than three positive dyadic
    blocks leaves nothing to fit and has eta_hat = nan (printed null).
    """

    value: float
    eta_hat: float
    windows: tuple[tuple[int, float], ...]


# ---------------------------------------------------------------------------
# Evolution engines
# ---------------------------------------------------------------------------

def _window(start, shape) -> tuple[slice, ...]:
    """The slices of the block of the given shape at index start."""
    return tuple(slice(a, a + n) for a, n in zip(start, shape))


def _nonzero_span(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """First and last index per axis of the nonzero cells of a nonnegative
    array, or None if it has none."""
    if arr.size == 0:
        return None
    ends = []
    for axis in range(arr.ndim):
        other = tuple(a for a in range(arr.ndim) if a != axis)
        nz = np.flatnonzero((arr.max(axis=other) if other else arr) > 0)
        if nz.size == 0:
            return None
        ends.append((nz[0], nz[-1]))
    return np.array(ends).T


class DenseEvolver:
    """Box DP over the support bounding box of the law of S_m.

    The box covers lattice points lo[j] .. lo[j]+shape[j]-1 per axis; it
    grows by maxs - mins per step and is reset to the support's tight
    bounding box at each trim, and CELL_BUDGET counts its cells.  The box
    is stored as its mod-2 classes, one stride-2 array per residue r of
    the box points congruent to r, and only where mass has landed: the
    DP starts with the origin's class, and a step creates a target class
    the first time an atom sends a stored class into it.  So srw(d)
    stores half of its box, the eight diagonal steps of Z^3 an eighth,
    and a law whose walk reaches every residue all 2^d classes.  A step
    adds w*(source class) into each target class atom by atom in atom
    order, so every cell is the same ordered sum as on the whole box;
    box() interleaves the classes back into it.

    A rational law keeps exact integer numerators over denom**m in object
    arrays, where denom is the lcm of the atom denominators and each
    weight is mass * denom; mass() turns a numerator into a Fraction.  A
    float law keeps float64 arrays with denom 1; cells below
    PRUNE_THRESHOLD are dropped (and accounted, in lexicographic order of
    their points) when the box is re-trimmed, which keeps the box at the
    diffusive scale instead of the ballistic one.
    """

    TRIM_EVERY = 8

    def __init__(self, law: StepLaw, kill_origin: bool = False):
        self.d = law.d
        self.exact = law.exact
        self.offsets = [p for p, _ in law.atoms]
        self.mins = tuple(map(min, zip(*self.offsets)))
        self.maxs = tuple(map(max, zip(*self.offsets)))
        self.denom = law.denom
        if law.exact:
            self.weights = np.array([int(m * self.denom) for m in law.masses],
                                    dtype=object)
        else:
            self.weights = np.array(law.masses)
        self.lo = (0,) * law.d
        self.shape = (1,) * law.d
        origin = (0,) * law.d
        self.classes = {origin: np.ones(self.shape, dtype=self.weights.dtype)}
        self.kill_origin = kill_origin
        self.killed = 0
        self.pruned = 0.0
        self.m = 0

    @staticmethod
    def _class_box(r: tuple, lo: tuple, shape: tuple) -> tuple[tuple, tuple]:
        """(first point congruent to r mod 2, array shape) of class r in a box."""
        first = tuple(l + (c - l) % 2 for c, l in zip(r, lo))
        return first, tuple((n - f + l + 1) // 2 for n, f, l in zip(shape, first, lo))

    def step(self) -> None:
        new_shape = tuple(n + hi - lo for n, lo, hi in zip(self.shape, self.mins, self.maxs))
        if math.prod(new_shape) > CELL_BUDGET:
            raise ResourceLimit(
                f"dense pmf box {new_shape} at step {self.m + 1} "
                f"exceeds CELL_BUDGET = {CELL_BUDGET} cells")
        new_lo = tuple(l + mn for l, mn in zip(self.lo, self.mins))
        src_first = {r: self._class_box(r, self.lo, self.shape)[0] for r in self.classes}
        new, dst_first = {}, {}
        for off, w in zip(self.offsets, self.weights):
            for r, arr in self.classes.items():
                t = tuple((c + o) % 2 for c, o in zip(r, off))
                if t not in new:
                    dst_first[t], cshape = self._class_box(t, new_lo, new_shape)
                    new[t] = np.zeros(cshape, dtype=self.weights.dtype)
                start = [(f + o - g) // 2 for f, o, g in zip(src_first[r], off, dst_first[t])]
                new[t][_window(start, arr.shape)] += w * arr
        self.classes = new
        self.lo = new_lo
        self.shape = new_shape
        self.m += 1
        if self.kill_origin:
            self.killed *= self.denom
            origin = (0,) * self.d
            if origin in self.classes:
                first, cshape = self._class_box(origin, self.lo, self.shape)
                idx = tuple(-f // 2 for f in first)
                if all(0 <= i < n for i, n in zip(idx, cshape)):
                    self.killed += self.classes[origin][idx]
                    self.classes[origin][idx] = 0
        if self.m % self.TRIM_EVERY == 0:
            self._trim()

    def _prune(self) -> None:
        # one sum over the pruned cells in lexicographic order of their
        # points, as on the whole box: a float sum depends on its order
        vals, keys = [], []
        for r, arr in self.classes.items():
            idx = np.nonzero((arr < PRUNE_THRESHOLD) & (arr > 0))
            if idx[0].size:
                vals.append(arr[idx])
                first = self._class_box(r, self.lo, self.shape)[0]
                keys.append(np.ravel_multi_index(
                    tuple(f - l + 2 * i for f, l, i in zip(first, self.lo, idx)),
                    self.shape))
                arr[idx] = 0.0
        if vals:
            order = np.argsort(np.concatenate(keys), kind="stable")
            self.pruned += float(np.concatenate(vals)[order].sum())

    def _trim(self) -> None:
        if not self.exact:
            self._prune()
        spans = []
        for r, arr in self.classes.items():
            span = _nonzero_span(arr)
            if span is not None:
                first = np.array(self._class_box(r, self.lo, self.shape)[0])
                spans.append((first + 2 * span[0], first + 2 * span[1]))
        if not spans:
            return
        lo = tuple(int(c) for c in np.min([a for a, _ in spans], axis=0))
        shape = tuple(int(c) - l + 1 for c, l in zip(np.max([b for _, b in spans], axis=0), lo))
        for r, arr in self.classes.items():
            old_first = self._class_box(r, self.lo, self.shape)[0]
            first, cshape = self._class_box(r, lo, shape)
            start = [(f - g) // 2 for f, g in zip(first, old_first)]
            self.classes[r] = np.ascontiguousarray(arr[_window(start, cshape)])
        self.lo = lo
        self.shape = shape

    def box(self) -> np.ndarray:
        """The whole box, lo .. lo+shape-1: the classes interleaved, zero
        elsewhere, in a new array."""
        out = np.zeros(self.shape, dtype=self.weights.dtype)
        for r, arr in self.classes.items():
            first = self._class_box(r, self.lo, self.shape)[0]
            out[tuple(slice(f - l, None, 2) for f, l in zip(first, self.lo))] = arr
        return out

    def mass(self, num) -> Mass:
        """The probability a box numerator stands for at the current step."""
        if self.exact:
            return Fraction(num, self.denom ** self.m)
        return float(num)

    def surviving_mass(self) -> Mass:
        return self.mass(self.denom ** self.m - self.killed)

    def sup(self) -> Mass:
        return self.mass(max(arr.max() for arr in self.classes.values() if arr.size))

    def to_masses(self) -> dict[LatticePoint, Mass]:
        # an exact numerator is an int, so it passes the threshold iff it
        # is nonzero; the points come out in lexicographic order
        cells = []
        for r, arr in self.classes.items():
            first = self._class_box(r, self.lo, self.shape)[0]
            for idx in zip(*np.nonzero(arr >= PRUNE_THRESHOLD)):
                point = tuple(f + 2 * int(i) for f, i in zip(first, idx))
                cells.append((point, arr[idx]))
        return {point: self.mass(num) for point, num in sorted(cells, key=lambda c: c[0])}


def _evolution(law: StepLaw, n: int, kill_origin: bool = False):
    """Yield the evolver of the law of S_m at m = 0, 1, ..., n.

    The one step loop of the package.  The same evolver object is yielded
    each time, advanced by one step.
    """
    ev = DenseEvolver(law, kill_origin=kill_origin)
    yield ev
    for _ in range(n):
        ev.step()
        yield ev


def pmf_evolve(law: StepLaw, m: int) -> PmfField:
    """Law of S_m as a sparse field of its nonzero cells.

    Rational laws give exact Fractions; float laws drop only cells below
    PRUNE_THRESHOLD (total drift < 1e-12 in practice).
    """
    if m < 0:
        raise BadParam(f"step count must be >= 0, got {m}")
    *_, ev = _evolution(law, m)
    return PmfField(m=m, masses=ev.to_masses())


# ---------------------------------------------------------------------------
# Return-probability sequence P(S_m = 0), m = 0..N
# ---------------------------------------------------------------------------

def _axis_decomposition(law: StepLaw):
    """If every atom is a signed unit vector or zero, return per-axis data.

    Returns (axis_mass, axis_up, zero_mass) where axis_mass[j] is the
    total probability of moving along axis j and axis_up[j] the
    conditional probability of the + direction, or None if the law does
    not decompose.
    """
    d = law.d
    up = np.zeros(d)
    down = np.zeros(d)
    zero_mass = 0.0
    for point, mass in law.atoms:
        nz = [j for j, c in enumerate(point) if c != 0]
        if not nz:
            zero_mass += float(mass)
            continue
        if len(nz) > 1 or abs(point[nz[0]]) != 1:
            return None
        if point[nz[0]] == 1:
            up[nz[0]] += float(mass)
        else:
            down[nz[0]] += float(mass)
    axis_mass = up + down
    with np.errstate(invalid="ignore"):
        axis_up = np.where(axis_mass > 0, up / np.where(axis_mass > 0, axis_mass, 1), 0.0)
    return axis_mass, axis_up, zero_mass


def _one_axis_returns(n: int, p_up: float) -> np.ndarray:
    """P(+1/-1 walk with up-probability p is at 0 after k steps), k=0..n."""
    a = np.zeros(n + 1)
    a[0] = 1.0
    pq4 = 4.0 * p_up * (1.0 - p_up)
    for k in range(2, n + 1, 2):
        a[k] = a[k - 2] * (k - 1) / k * pq4
    return a


def _binomial_fold(v_prev: np.ndarray, rel: float, u_new: np.ndarray) -> np.ndarray:
    """out[m] = E[u(K) v(m-K)] with K ~ Binomial(m, rel).

    The binomial mass is negligible (< 1e-21) outside a 10-sigma band
    around the mode, so each row touches only O(sqrt(m)) terms; band
    weights come from the pmf ratio recurrence and are renormalized over
    the band, which also absorbs the truncated tail.
    """
    if rel >= 1.0:
        return u_new.copy()
    n = len(v_prev) - 1
    odds = rel / (1.0 - rel)
    out = np.empty(n + 1)
    out[0] = u_new[0] * v_prev[0]
    for m in range(1, n + 1):
        half = int(10.0 * math.sqrt(m * rel * (1.0 - rel))) + 20
        mode = int(round(m * rel))
        lo = max(0, mode - half)
        hi = min(m, mode + half)
        ks = np.arange(lo, hi + 1)
        w = np.empty(len(ks))
        w[0] = 1.0
        if len(ks) > 1:
            np.cumprod((m - ks[:-1]) / (ks[:-1] + 1.0) * odds, out=w[1:])
        w /= w.sum()
        out[m] = np.dot(w * u_new[ks], v_prev[m - ks])
    return out


def _axis_return_sequence(law: StepLaw, n: int) -> np.ndarray:
    """Return probabilities via the axis-decomposition recursion.

    Folding in one axis at a time: if v holds the return probabilities of
    the walk restricted to the axes already folded (total step mass W) and
    the new axis has mass w, the combined walk puts Binomial(m, w/(W+w))
    steps on the new axis, and both components must return.
    """
    axis_mass, axis_up, zero_mass = _axis_decomposition(law)
    components = [(float(axis_mass[j]), _one_axis_returns(n, float(axis_up[j])))
                  for j in range(law.d) if axis_mass[j] > 0]
    if zero_mass > 0:
        components.append((zero_mass, np.ones(n + 1)))
    total = 0.0
    v = np.zeros(n + 1)
    v[0] = 1.0
    for w_new, u_new in components:
        total += w_new
        v = _binomial_fold(v, w_new / total, u_new)
    return v


def _cross_sum(a: np.ndarray, lo_a: np.ndarray,
               b: np.ndarray, lo_b: np.ndarray) -> float:
    """sum_x a(x) b(-x) for box arrays whose index 0 sits at lattice point lo."""
    flipped = b[(slice(None, None, -1),) * b.ndim]
    lo_f = -(lo_b + np.array(b.shape) - 1)
    start = np.maximum(lo_a, lo_f)
    stop = np.minimum(lo_a + np.array(a.shape), lo_f + np.array(b.shape))
    if (stop <= start).any():
        return 0.0
    sa = tuple(slice(int(s - l), int(e - l)) for s, e, l in zip(start, stop, lo_a))
    sf = tuple(slice(int(s - l), int(e - l)) for s, e, l in zip(start, stop, lo_f))
    return float((a[sa] * flipped[sf]).sum())


def _dense_return_sequence(law: StepLaw, n: int) -> np.ndarray:
    """Return probabilities by the half-horizon box DP.

    S_2m - S_m is an independent copy of S_m, so with p_m the law of S_m,
    P(S_2m = 0) = sum_x p_m(x) p_m(-x) and P(S_2m+1 = 0) =
    sum_x p_m+1(x) p_m(-x); evolving to ceil(n/2) gives the whole
    sequence.  A parity the law cannot reach has disjoint supports and
    comes out as an exact zero.  The sums run over the whole box,
    ev.box(), with the zero cells of the classes not stored, because
    numpy's pairwise sum depends on where they sit; box() builds a new
    array, so the previous step's box stays valid.
    """
    r = np.empty(n + 1)
    prev = None
    for ev in _evolution(law.to_float(), (n + 1) // 2):
        cur = (ev.box(), np.array(ev.lo))
        if 2 * ev.m <= n:
            r[2 * ev.m] = _cross_sum(*cur, *cur)
        if prev is not None:
            r[2 * ev.m - 1] = _cross_sum(*cur, *prev)
        prev = cur
    return r


def return_sequence(law: StepLaw, n: int) -> np.ndarray:
    """P(S_m = 0) for m = 0..n, in doubles.

    Laws that decompose along the axes use the axis recursion, every other
    law the half-horizon box DP.
    """
    if n < 0:
        raise BadParam(f"horizon must be >= 0, got {n}")
    if _axis_decomposition(law) is not None:
        return _axis_return_sequence(law, n)
    return _dense_return_sequence(law, n)


# ---------------------------------------------------------------------------
# Green's series estimate
# ---------------------------------------------------------------------------

# First index of the Green tail-fit window; a shorter horizon leaves no
# terms to fit, so its tail, and the error derived from it, would read 0.
TAIL_FIT_START = 4


def _fit_window(r: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(m values, r values, window length) of the nonzero terms in the
    last decade [max(TAIL_FIT_START, n/10), n]."""
    if n < TAIL_FIT_START:
        raise BadParam(f"horizon N = {n} is below TAIL_FIT_START = {TAIL_FIT_START}, "
                       "the first term of the tail fit")
    start = max(TAIL_FIT_START, n // 10)
    ms = np.arange(start, n + 1)
    rv = r[start:n + 1]
    nz = rv > 0
    return ms[nz], rv[nz], len(ms)


def _lattice_period(ms: np.ndarray) -> int:
    if len(ms) < 2:
        return 1
    return int(np.gcd.reduce(np.diff(ms)))


def _diffusive_tail(ms, rv, window_len, n, d) -> float:
    """Fitted tail sum_{m>n} C m^{-d/2}, slope pinned at the diffusive value."""
    log_c = float(np.mean(np.log(rv) + (d / 2.0) * np.log(ms)))
    occupancy = len(ms) / window_len
    return occupancy * math.exp(log_c) * (n + 0.5) ** (1 - d / 2.0) / (d / 2.0 - 1.0)


def _geometric_tail(ms, rv, n) -> float:
    """Fitted tail for geometrically decaying return probabilities (d<3)."""
    if len(ms) < 2:
        return 0.0
    b, a = np.polyfit(ms.astype(float), np.log(rv), 1)
    if b >= 0:
        raise SuspectedRecurrence(
            "return probabilities are not decaying; Green tail unbounded")
    p = _lattice_period(ms)
    return math.exp(a + b * (n + p)) / (1.0 - math.exp(b * p))


def _fitted_tail(r: np.ndarray, n: int, d: int) -> float:
    """Fitted sum_{m>n} P(S_m = 0): diffusive in d >= 3, geometric below."""
    ms, rv, window_len = _fit_window(r, n)
    if len(ms) == 0:
        return 0.0
    if d >= 3:
        return _diffusive_tail(ms, rv, window_len, n, d)
    return _geometric_tail(ms, rv, n)


def green_at_origin(law: StepLaw, n: int) -> GammaEstimate:
    """Escape probability via gamma = 1 / sum_m P(S_m = 0).

    Works in doubles even for exact laws (the tail is an estimate, so
    exact masses gain nothing).  The truncated series over m <= n is
    completed with a fitted tail: the diffusive C m^{-d/2} form in d >= 3,
    a fitted geometric envelope otherwise (the polynomial form is not
    summable below d = 3; a transient low-dimensional walk has drift and
    geometric return decay).  The reported error is the larger of the tail
    propagated to the gamma scale and (k - 1) eps gamma, a first-order
    bound on the rounding of the sum of its k positive terms, which
    dominates when the tail is negligible (bernoulli(0.7) at N = 2048).

    Raises SuspectedRecurrence when the last decade of partial sums keeps
    growing and the fitted decay exponent of P(S_m=0) is <= 1 (a
    non-summable envelope).
    """
    r = return_sequence(law, n)
    total = float(r.sum())
    ms, rv, _ = _fit_window(r, n)
    if len(ms) >= 3:
        eta_hat = -float(np.polyfit(np.log(ms), np.log(rv), 1)[0])
        head = float(r[:max(TAIL_FIT_START, n // 10)].sum())
        if eta_hat <= 1.05 and (total - head) / total > 1e-3:
            raise SuspectedRecurrence(
                f"partial sums of P(S_m=0) still growing at N={n} "
                f"(fitted decay exponent {eta_hat:.3f} <= 1)")
    tail = _fitted_tail(r, n, law.d)
    value = 1.0 / (total + tail)
    rounding = float(np.count_nonzero(r > 0) - 1) * np.finfo(np.float64).eps * value
    return GammaEstimate(value=value, error=max(value * value * tail, rounding),
                         method="green_series",
                         params={"N": n, "series_sum": total, "tail": tail})


def auto_gamma(law: StepLaw) -> GammaEstimate:
    """Default Green-series gamma estimate, its horizon set by the engine
    return_sequence picks: 4096 for the axis recursion, else 2048 in d = 1
    and 512 above."""
    if _axis_decomposition(law) is not None:
        n = 4096
    elif law.d == 1:
        n = 2048
    else:
        n = 512
    return green_at_origin(law, n)


# ---------------------------------------------------------------------------
# Taboo DP
# ---------------------------------------------------------------------------

def taboo_survival(law: StepLaw, n: int) -> ReturnLaw:
    """No-return probabilities gamma(0..n) by origin-killed evolution.

    Rational laws are evolved exactly and never pruned; float laws drop
    cells below PRUNE_THRESHOLD, with the pruned mass reported in
    prune_loss.
    """
    if n < 0:
        raise BadParam(f"horizon must be >= 0, got {n}")
    seq = []
    for ev in _evolution(law, n, kill_origin=True):
        seq.append(ev.surviving_mass())
    ret = ReturnLaw(horizon=n, gamma_seq=tuple(seq), exact=law.exact,
                    denom=law.denom, prune_loss=ev.pruned)
    ret.check_invariants()
    return ret


def taboo_gamma_estimate(law: StepLaw, n: int) -> GammaEstimate:
    """Gamma estimate from the taboo DP.

    The value is gamma(n), which exceeds gamma by P(n < tau < infinity);
    the reported error estimates that truncation bias via the fitted
    return-probability tail (renewal: P(tau = m) ~ gamma^2 P(S_m = 0)),
    plus any pruned mass.
    """
    ret = taboo_survival(law, n)
    g_n = float(ret.gamma_seq[-1])
    bias = g_n * g_n * _fitted_tail(return_sequence(law, n), n, law.d)
    return GammaEstimate(value=g_n, error=bias + ret.prune_loss,
                         method="taboo_dp", params={"N": n})


# ---------------------------------------------------------------------------
# Monte Carlo escape
# ---------------------------------------------------------------------------

def _escape_range(args) -> int:
    """How many of replicas lo..hi-1 stay off the origin for steps 1..n.

    Replica i draws its uniforms from mix64(master_seed, i), MC_BLOCK per
    block.  _MC_BATCH replicas run together: one atom-index call per
    block, then per axis a gather and a prefix sum along each row (as in
    path._walk_keys), and-ing x == 0 into a hit mask.  After each block a
    replica leaves the batch if it hit the origin (a return) or is too far
    out to cross back to 0 in the steps left (an escape), so its verdict
    depends on its own stream alone.
    """
    law, n, master_seed, lo, hi = args
    coords, cdf = _sampling_arrays(law)
    max_step = np.abs(coords).max(axis=0)
    returns = 0
    for b0 in range(lo, hi, _MC_BATCH):
        gens = [rnglib.generator(rnglib.mix64(master_seed, i))
                for i in range(b0, min(b0 + _MC_BATCH, hi))]
        pos = np.zeros((len(gens), law.d), dtype=np.int64)
        done = 0
        while gens and done < n:
            b = min(MC_BLOCK, n - done)
            u = np.empty((len(gens), b))
            for gen, row in zip(gens, u):
                gen.random(out=row)
            idx = _atom_indices(cdf, u)
            x = np.empty(u.shape, dtype=np.int64)
            hit = np.ones(u.shape, dtype=bool)
            for j in range(law.d):
                np.take(coords[:, j], idx, out=x, mode="clip")
                np.cumsum(x, axis=1, out=x)
                x += pos[:, j:j + 1]
                hit &= x == 0
                pos[:, j] = x[:, -1]
            done += b
            returned = hit.any(axis=1)
            returns += int(returned.sum())
            settled = (np.abs(pos) > (n - done) * max_step).any(axis=1)
            live = ~(returned | settled)
            gens = [gen for gen, keep in zip(gens, live) if keep]
            pos = pos[live]
    return hi - lo - returns


def mc_escape(law: StepLaw, n: int, m: int, seed: int,
              threads: int = 1) -> GammaEstimate:
    """Monte Carlo estimate of gamma(n) over m independent replicas.

    Replica i is a walk of n steps drawn from mix64(seed, i), and whether
    it escapes is a pure function of that stream, so the result does not
    depend on threads or on how replicas are batched; estimates
    gamma(n) >= gamma (upward bias by the walks that would return after
    n, reported as-is).  The replicas are split into threads contiguous
    blocks run by rng.replica_map; each block runs its replicas in
    batches (see _escape_range).  A horizon over path.STEP_BUDGET is
    refused before any work.
    """
    if n < 1 or m < 1:
        raise BadParam("mc_escape needs n >= 1 and m >= 1")
    if n > path.STEP_BUDGET:
        raise ResourceLimit(
            f"mc_escape replicas of {n} steps exceed STEP_BUDGET = "
            f"{path.STEP_BUDGET} steps per path; lower --n")
    tasks = [(law, n, seed, lo, hi)
             for lo, hi in rnglib.replica_blocks(m, threads)]
    escapes = sum(rnglib.replica_map(_escape_range, tasks, threads))
    value = escapes / m
    stderr = math.sqrt(max(value * (1 - value), 0.0) / m)
    return GammaEstimate(value=value, error=stderr, method="mc_escape",
                         params={"n": n, "M": m}, seed=seed)


# ---------------------------------------------------------------------------
# Tail diagnostic (the d in {1,2} assumption check)
# ---------------------------------------------------------------------------

def return_tail(law: StepLaw, n: int, big_n: int) -> TailDiagnostic:
    """Partial tail sum_{k=n}^{N} P(S_k = 0) with fitted decay exponent.

    Diagnostic only.  Decay is measured on the dyadic block masses
    sum_{k in [s, 2s)} P(S_k = 0), which scale like s^{-eta} exactly when
    the tail does but carry no truncation bias near N: the window at s
    reports -log2(block(2s)/block(s)), and eta_hat is the least-squares
    slope across blocks.
    """
    if not 0 <= n < big_n:
        raise BadParam("need 0 <= n < N")
    r = return_sequence(law, big_n)
    suffix = np.cumsum(r[::-1])[::-1]  # suffix[k] = sum_{j>=k} r[j]
    value = float(suffix[n])
    if value == 0.0:
        return TailDiagnostic(value=0.0, eta_hat=math.inf, windows=())

    def block(s: int) -> float:
        return float(suffix[s] - suffix[min(2 * s, big_n)])

    starts = []
    s = max(n, 1)
    while 4 * s <= big_n:
        starts.append(s)
        s *= 2
    windows = []
    for s in starts:
        b0, b1 = block(s), block(2 * s)
        if b1 == 0.0:
            slope = math.inf
        elif b0 == 0.0:
            slope = -math.inf
        else:
            slope = -(math.log2(b1) - math.log2(b0))
        windows.append((s, slope))
    pos = [(s, block(s)) for s in starts + [2 * starts[-1]] if block(s) > 0] \
        if starts else []
    if len(pos) >= 3:
        xs = np.log([p[0] for p in pos])
        ys = np.log([p[1] for p in pos])
        eta_hat = -float(np.polyfit(xs, ys, 1)[0])
    else:
        eta_hat = math.nan
    return TailDiagnostic(value=value, eta_hat=eta_hat, windows=tuple(windows))
