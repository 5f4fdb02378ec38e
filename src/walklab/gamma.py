"""Escape probability and return-probability machinery.

Three independent routes to the escape probability gamma:

* green_series: gamma = 1 / sum_m P(S_m = 0) (renewal identity), with the
  truncated series completed by a fitted tail,
* taboo_dp: evolve the law of S_m while absorbing all mass at the origin;
  the surviving mass after n steps is gamma(n), the no-return probability,
* mc_escape: fraction of simulated walks that avoid the origin up to a
  horizon n (estimates gamma(n), an upper bound for gamma).  Replicas
  run in batches, MC_BLOCK steps per block, with their coordinates packed
  into as few int64 lanes as fit (one for srw(3)), and leave the batch
  once they return or can no longer return; each one's verdict is a pure
  function of its own stream, mix64(seed, i).

Every evolution of the law of S_m runs through one step loop,
_evolution, and one box DP: exact integer numerators for rational laws, a
pruned float box otherwise.  The box DP stores a mod-2 class of its box
only once mass lands in it (a walk with no zero atom is periodic), so
srw(d) keeps half of its box and the eight diagonal steps of Z^3 an
eighth; no code builds the whole box, though CELL_BUDGET counts its
cells.  The classes sit in flat buffers laid out in one frame per trim
period, so a step is one contiguous slice add per (atom, class) into
reused buffers.  The return-probability sequence P(S_m = 0) has two
engines, and the law picks one: an axis-decomposition recursion for laws whose atoms
are signed unit vectors and optionally the zero vector (simple and
drifted simple walks, cost O(d N^2)), and a half-horizon box DP for every
other law.  The latter uses the iid split of S_2m into two independent
copies of S_m, P(S_2m = 0) = sum_x p_m(x) p_m(-x) (and likewise for odd
times), summed class by class, so it evolves only to ceil(N/2).  Both
engines agree with exact convolution to float precision; the tests
cross-check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import path
from . import rng as rnglib
from .errors import BadParam, InvariantViolation, ResourceLimit, SuspectedRecurrence
from .steps import (FLOAT_MASS_TOL, LatticePoint, Mass, StepLaw, _atom_indices,
                    _sampling_arrays, mean_and_second_moment)

PRUNE_THRESHOLD = 1e-16
# Memory budget of every pmf evolution, checked by DenseEvolver.step as
# the box grows: a box of at most CELL_BUDGET cells, float or exact,
# counted over the whole box, whichever of its mod-2 classes are stored.
CELL_BUDGET = 1 << 25
MC_BLOCK = 2048
# Cells of a target buffer that DenseEvolver.step finishes before it moves
# on (512 KiB of float64), so the block stays in cache across its terms:
# the bench dp leg ran about 10% faster than with whole-buffer terms.
_DP_BLOCK = 1 << 16
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
    and a law whose walk reaches every residue all 2^d classes.

    The classes live in one frame per trim period: a lattice origin
    frame_lo and a half-index shape frame_shape, chosen at step 0, at each
    trim and whenever the frame runs out, that covers every class window
    of the box from now until the next trim (for a drifting law, the union
    of the start box and the end box).  Each stored residue has one flat
    buffer of prod(frame_shape) cells, point x at the C-order index of
    (x - frame_lo) // 2, and every cell outside its class window holds 0.
    The lookahead is cut so that the frame's lattice box holds at most
    CELL_BUDGET cells, down to the one step being taken (whose frame is
    the next box, or for a drifting law the union of this box and the
    next).  classes maps each stored residue to a view of its window in
    the frame, valid until the next step.

    A step scales each source buffer and adds it into its target buffers
    with flat slices: atom o takes class r to t = (r + o) mod 2 by
    dst[a+D:b+D] += prod[a:b], [a, b) the flat span of r's window and
    D = sum_j ((r_j - frame_lo_j) mod 2 + o_j) // 2 * stride_j.  A term
    that wraps into another row adds +0.0, so every cell is the same sum
    in atom order as on a whole-box array.  Each target takes its terms
    in atom order, _DP_BLOCK cells at a time so that the block stays in
    cache; its first term is copied in (0 + x is x for x >= 0) and the
    cells it misses are zeroed.  Source and target buffers are two sets
    that swap every step and are reused, so nothing is allocated per step
    between frames.  There is one product per (class, distinct weight):
    the first distinct weight scales the source in place, so an equal-mass
    law (srw(d), the diagonal steps) does one multiply per class and holds
    no product buffer, and a law with k distinct weights holds k - 1
    product buffers per class.  A step thus overwrites the classes it
    reads.

    A rational law keeps exact integer numerators over denom**m in object
    arrays, where denom is the lcm of the atom denominators and each
    weight is mass * denom; mass() turns a numerator into a Fraction.  A
    float law keeps float64 arrays with denom 1; cells below
    PRUNE_THRESHOLD are dropped (and accounted class by class, residues in
    sorted order) when the box is re-trimmed, which keeps the box at the
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
            weights = [int(m * self.denom) for m in law.masses]
            self.dtype = np.dtype(object)
        else:
            weights = [float(m) for m in law.masses]
            self.dtype = np.dtype(np.float64)
        # the distinct weights in atom order, and the one each atom uses
        self.scales = list(dict.fromkeys(weights))
        self.scale_of = [self.scales.index(w) for w in weights]
        self.lo = (0,) * law.d
        self.shape = (1,) * law.d
        origin = (0,) * law.d
        self.classes = {origin: np.ones(self.shape, dtype=self.dtype)}
        self.kill_origin = kill_origin
        self.killed = 0
        self.pruned = 0.0
        self.m = 0
        self._reframe()

    @staticmethod
    def _class_box(r: tuple, lo: tuple, shape: tuple) -> tuple[tuple, tuple]:
        """(first point congruent to r mod 2, array shape) of class r in a box."""
        first = tuple(l + (c - l) % 2 for c, l in zip(r, lo))
        return first, tuple((n - f + l + 1) // 2 for n, f, l in zip(shape, first, lo))

    def _frame_window(self, r: tuple) -> tuple[tuple, tuple]:
        """(frame index of the first point, shape) of class r's window in the box."""
        first, cshape = self._class_box(r, self.lo, self.shape)
        return tuple((f - g) // 2 for f, g in zip(first, self.frame_lo)), cshape

    def _bind(self) -> None:
        """Point classes at the windows of the current box in the frame."""
        self._windows = {r: self._frame_window(r) for r in self._src}
        self.classes = {r: buf.reshape(self.frame_shape)[_window(*self._windows[r])]
                        for r, buf in self._src.items()}

    def _reframe(self) -> None:
        """Pick the frame from step m to the next trim, cut to CELL_BUDGET
        cells, and copy the classes into it."""
        ahead = self.TRIM_EVERY - self.m % self.TRIM_EVERY
        while True:
            lo = tuple(l + min(0, ahead * mn) for l, mn in zip(self.lo, self.mins))
            extent = tuple(n + max(0, ahead * mx) - min(0, ahead * mn)
                           for n, mn, mx in zip(self.shape, self.mins, self.maxs))
            if ahead == 1 or math.prod(extent) <= CELL_BUDGET:
                break
            ahead -= 1
        old = self.classes
        # drop the spare buffers before the new frame is allocated
        self._free, self._products, self._shifts = [], [], {}
        self.frame_lo = lo
        self.frame_shape = tuple((e + 1) // 2 for e in extent)
        self.frame_end = self.m + ahead
        self._strides = [math.prod(self.frame_shape[j + 1:]) for j in range(self.d)]
        self._src = {}
        for r, arr in old.items():
            buf = np.zeros(math.prod(self.frame_shape), dtype=self.dtype)
            buf.reshape(self.frame_shape)[_window(*self._frame_window(r))] = arr
            self._src[r] = buf
        self._bind()

    def _flat_span(self, r: tuple) -> tuple[int, int] | None:
        """[a, b), the flat span of class r's window in its buffer, or None if empty."""
        start, cshape = self._windows[r]
        if 0 in cshape:
            return None
        a = sum(i * s for i, s in zip(start, self._strides))
        return a, a + sum((n - 1) * s for n, s in zip(cshape, self._strides)) + 1

    def _shift(self, r: tuple, k: int) -> tuple[tuple, int]:
        """(target residue, flat shift D) of atom k applied to class r."""
        key = (r, k)
        if key not in self._shifts:
            off = self.offsets[k]
            t = tuple((c + o) % 2 for c, o in zip(r, off))
            shift = sum(((c - g) % 2 + o) // 2 * s
                        for c, g, o, s in zip(r, self.frame_lo, off, self._strides))
            self._shifts[key] = t, shift
        return self._shifts[key]

    def _new_buffer(self) -> np.ndarray:
        return np.empty(math.prod(self.frame_shape), dtype=self.dtype)

    def _convolve(self) -> dict[tuple, np.ndarray]:
        """The target buffers of one step, made from the source buffers,
        which are left scaled by the first distinct weight."""
        spans = {r: self._flat_span(r) for r in self._src}
        products = {}
        extra = len(self.scales) - 1
        for i, (r, buf) in enumerate(self._src.items()):
            while len(self._products) < (i + 1) * extra:
                self._products.append(self._new_buffer())
            products[r] = [buf] + self._products[i * extra:(i + 1) * extra]
            if spans[r] is not None:
                a, b = spans[r]
                # every product is taken before the source is scaled in place
                for w, p in zip(self.scales[1:], products[r][1:]):
                    np.multiply(buf[a:b], w, out=p[a:b])
                buf[a:b] *= self.scales[0]
        # the terms of each target in atom order, which is each cell's order
        terms = {}
        for k, which in enumerate(self.scale_of):
            for r in self._src:
                t, shift = self._shift(r, k)
                terms.setdefault(t, [])
                if spans[r] is not None:
                    a, b = spans[r]
                    terms[t].append((products[r][which][a:b], a + shift, b + shift))
        new = {}
        for t, todo in terms.items():
            buf = new[t] = self._free.pop() if self._free else self._new_buffer()
            if not todo:
                buf.fill(0)
                continue
            # 0 + x is x for every x >= 0, so the first term is copied in
            (first, a0, b0), *rest = todo
            for s in range(0, len(buf), _DP_BLOCK):
                e = min(s + _DP_BLOCK, len(buf))
                lo, hi = max(a0, s), min(b0, e)
                if lo < hi:
                    buf[s:lo] = 0
                    buf[lo:hi] = first[lo - a0:hi - a0]
                    buf[hi:e] = 0
                else:
                    buf[s:e] = 0
                for term, a, b in rest:
                    lo, hi = max(a, s), min(b, e)
                    if lo < hi:
                        buf[lo:hi] += term[lo - a:hi - a]
        return new

    def step(self) -> None:
        new_shape = tuple(n + hi - lo for n, lo, hi in zip(self.shape, self.mins, self.maxs))
        if math.prod(new_shape) > CELL_BUDGET:
            raise ResourceLimit(
                f"dense pmf box {new_shape} at step {self.m + 1} "
                f"exceeds CELL_BUDGET = {CELL_BUDGET} cells")
        if self.m >= self.frame_end:
            self._reframe()
        new = self._convolve()
        self._free.extend(self._src.values())
        self._src = new
        self.lo = tuple(l + mn for l, mn in zip(self.lo, self.mins))
        self.shape = new_shape
        self.m += 1
        self._bind()
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
        # class by class, residues in sorted order: a float sum depends on its order
        for r in sorted(self.classes):
            arr = self.classes[r]
            small = (arr < PRUNE_THRESHOLD) & (arr > 0)
            if small.any():
                self.pruned += float(arr[small].sum())
                arr[small] = 0.0

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
        self.lo = tuple(int(c) for c in np.min([a for a, _ in spans], axis=0))
        hi = np.max([b for _, b in spans], axis=0)
        self.shape = tuple(int(c) - l + 1 for c, l in zip(hi, self.lo))
        self._bind()
        self._reframe()

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


def _cross_sum(a: dict, b: dict) -> float:
    """sum_x a(x) b(-x) over the classes both hold, residues in a's (sorted)
    order.  Each maps a residue r to (class array, half-index of its first
    point); b's class r sits at its half-index plus r, because the mirror of
    the point 2h + r is 2(-h - r) + r."""
    total = 0.0
    for r, (x, lo_x) in a.items():
        if r not in b:
            continue
        y, lo_y = b[r]
        flipped = y[(slice(None, None, -1),) * y.ndim]
        lo_f = [-(l + c + n - 1) for l, c, n in zip(lo_y, r, y.shape)]
        start = [max(p, q) for p, q in zip(lo_x, lo_f)]
        stop = [min(p + n, q + m) for p, n, q, m in zip(lo_x, x.shape, lo_f, y.shape)]
        if all(e > s for s, e in zip(start, stop)):
            sx = tuple(slice(s - l, e - l) for s, e, l in zip(start, stop, lo_x))
            sf = tuple(slice(s - l, e - l) for s, e, l in zip(start, stop, lo_f))
            total += float((x[sx] * flipped[sf]).sum())
    return total


def _dense_return_sequence(law: StepLaw, n: int) -> np.ndarray:
    """Return probabilities by the half-horizon box DP.

    S_2m - S_m is an independent copy of S_m, so with p_m the law of S_m,
    P(S_2m = 0) = sum_x p_m(x) p_m(-x) and P(S_2m+1 = 0) =
    sum_x p_m+1(x) p_m(-x); evolving to ceil(n/2) gives the whole
    sequence.  x and -x share a residue, so the sums run over the stored
    classes, residues in sorted order (see _cross_sum).  A parity the law
    cannot reach has no class in common and comes out as an exact zero.
    The evolver's step scales the classes it reads in place, so p_m is
    copied before the step that makes p_m+1.
    """
    r = np.empty(n + 1)
    prev = None
    for ev in _evolution(law.to_float(), (n + 1) // 2):
        cur = {c: (arr, tuple(f // 2 for f in ev._class_box(c, ev.lo, ev.shape)[0]))
               for c, arr in sorted(ev.classes.items())}
        if 2 * ev.m <= n:
            r[2 * ev.m] = _cross_sum(cur, cur)
        if prev is not None:
            r[2 * ev.m - 1] = _cross_sum(cur, prev)
        prev = {c: (arr.copy(), lo) for c, (arr, lo) in cur.items()}
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


def _diffusive_tail(ms, rv, window_len, n, d) -> float:
    """Fitted tail sum_{m>n} C m^{-d/2}, slope pinned at the diffusive value."""
    log_c = float(np.mean(np.log(rv) + (d / 2.0) * np.log(ms)))
    occupancy = len(ms) / window_len
    return occupancy * math.exp(log_c) * (n + 0.5) ** (1 - d / 2.0) / (d / 2.0 - 1.0)


def _no_convergence(law: StepLaw, n: int, why: str) -> BadParam | SuspectedRecurrence:
    """SuspectedRecurrence for a recurrent law, else BadParam naming the
    horizon: a genuinely d-dimensional walk with finite support is
    recurrent iff d <= 2 and its mean is zero (Chung & Fuchs 1951; Spitzer,
    Principles of Random Walk), a float law's within FLOAT_MASS_TOL."""
    mean, _ = mean_and_second_moment(law)
    tol = 0 if law.exact else FLOAT_MASS_TOL
    if law.d <= 2 and all(abs(c) <= tol for c in mean):
        return SuspectedRecurrence(why)
    return BadParam(f"{why}; the law is transient, so the horizon N = {n} is "
                    "too short for the tail fit: raise --N")


def _geometric_tail(ms, rv, n, law: StepLaw) -> float:
    """Fitted tail for geometrically decaying return probabilities (d<3)."""
    if len(ms) < 2:
        return 0.0
    b, a = np.polyfit(ms.astype(float), np.log(rv), 1)
    if b >= 0:
        raise _no_convergence(
            law, n, "return probabilities are not decaying; Green tail unbounded")
    p = int(np.gcd.reduce(np.diff(ms)))  # the lattice period of the nonzero terms
    return math.exp(a + b * (n + p)) / (1.0 - math.exp(b * p))


def _fitted_tail(r: np.ndarray, n: int, law: StepLaw) -> float:
    """Fitted sum_{m>n} P(S_m = 0): diffusive in d >= 3, geometric below."""
    ms, rv, window_len = _fit_window(r, n)
    if len(ms) == 0:
        return 0.0
    if law.d >= 3:
        return _diffusive_tail(ms, rv, window_len, n, law.d)
    return _geometric_tail(ms, rv, n, law)


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

    Raises SuspectedRecurrence (a recurrent law) or BadParam (a transient
    one, such as bernoulli(0.6) at N = 64) when the last decade of partial
    sums keeps growing and the fitted decay exponent of P(S_m=0) is <= 1.
    """
    r = return_sequence(law, n)
    total = float(r.sum())
    ms, rv, _ = _fit_window(r, n)
    if len(ms) >= 3:
        eta_hat = -float(np.polyfit(np.log(ms), np.log(rv), 1)[0])
        head = float(r[:max(TAIL_FIT_START, n // 10)].sum())
        if eta_hat <= 1.05 and (total - head) / total > 1e-3:
            raise _no_convergence(
                law, n, f"partial sums of P(S_m=0) still growing at N={n} "
                f"(fitted decay exponent {eta_hat:.3f} <= 1)")
    tail = _fitted_tail(r, n, law)
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
    bias = g_n * g_n * _fitted_tail(return_sequence(law, n), n, law)
    return GammaEstimate(value=g_n, error=bias + ret.prune_loss,
                         method="taboo_dp", params={"N": n})


# ---------------------------------------------------------------------------
# Monte Carlo escape
# ---------------------------------------------------------------------------

def _mc_lanes(coords: np.ndarray, n: int) -> list[tuple[list[int], list[int]]]:
    """(axes, radices) of each packed int64 lane of an n-step walk.

    Axis j moves by at most c_j = max|coords[:, j]| per step, so its
    coordinate is a balanced digit of radix B_j = 2 n c_j + 1.  Consecutive
    axes share a lane while their radices multiply to less than 2**63; the
    lane holds sum_j x_j W_j, W_j the product of the lane's radices after
    j.  That sum is exact in int64, it is 0 iff each x_j is, and its prefix
    sums are the packed prefix sums of the axes.  Raises ResourceLimit,
    before any work, if one axis alone needs 2**63 positions.
    """
    lanes = []
    for j, c in enumerate(np.abs(coords).max(axis=0)):
        radix = 2 * n * int(c) + 1
        if radix >= 1 << 63:
            raise ResourceLimit(
                f"mc_escape: axis {j} of a {n}-step walk spans {radix} positions, "
                "more than an int64 holds; lower --n")
        if lanes and math.prod(lanes[-1][1]) * radix < 1 << 63:
            lanes[-1][0].append(j)
            lanes[-1][1].append(radix)
        else:
            lanes.append(([j], [radix]))
    return lanes


def _unpack(v: np.ndarray, radices: list[int]) -> list[np.ndarray]:
    """The balanced digits of packed lane values v, first axis first."""
    digits = []
    for radix in reversed(radices):
        half = radix // 2
        x = (v + half) % radix - half
        digits.append(x)
        v = (v - x) // radix
    return digits[::-1]


def _escape_range(args) -> int:
    """How many of replicas lo..hi-1 stay off the origin for steps 1..n.

    Replica i draws its uniforms from mix64(master_seed, i), MC_BLOCK per
    block.  _MC_BATCH replicas run together: one atom-index call per
    block, then per packed lane (see _mc_lanes; srw(3) needs one up to
    path.STEP_BUDGET steps) one gather of the atoms' packed increments, one
    prefix sum along each row and one compare with 0, and-ed into a hit
    mask.  After each block a replica leaves the batch if it hit the origin
    (a return) or if some axis, unpacked from its last position, is too
    far out to cross back to 0 in the steps left (an escape), so its
    verdict depends on its own stream alone.
    """
    law, n, master_seed, lo, hi = args
    coords, cdf = _sampling_arrays(law)
    lanes = _mc_lanes(coords, n)
    increments = []
    for axes, radices in lanes:
        weights = [math.prod(radices[i + 1:]) for i in range(len(axes))]
        increments.append(np.array([sum(int(p[j]) * w for j, w in zip(axes, weights))
                                    for p in coords], dtype=np.int64))
    max_step = np.abs(coords).max(axis=0)
    # one block's uniforms and packed positions, reused block after block
    u_buf = np.empty(_MC_BATCH * MC_BLOCK)
    x_buf = np.empty(_MC_BATCH * MC_BLOCK, dtype=np.int64)
    returns = 0
    for b0 in range(lo, hi, _MC_BATCH):
        gens = [rnglib.generator(rnglib.mix64(master_seed, i))
                for i in range(b0, min(b0 + _MC_BATCH, hi))]
        pos = np.zeros((len(lanes), len(gens)), dtype=np.int64)
        done = 0
        while gens and done < n:
            b = min(MC_BLOCK, n - done)
            u = u_buf[:len(gens) * b].reshape(len(gens), b)
            for gen, row in zip(gens, u):
                gen.random(out=row)
            idx = _atom_indices(cdf, u)
            x = x_buf[:u.size].reshape(u.shape)
            for lane, inc in enumerate(increments):
                np.take(inc, idx, out=x, mode="clip")
                np.cumsum(x, axis=1, out=x)
                x += pos[lane, :, None]
                if lane:
                    hit &= x == 0
                else:
                    hit = x == 0
                pos[lane] = x[:, -1]
            done += b
            returned = hit.any(axis=1)
            returns += int(returned.sum())
            axes = [a for (_, radices), v in zip(lanes, pos) for a in _unpack(v, radices)]
            settled = (np.abs(np.stack(axes, axis=1)) > (n - done) * max_step).any(axis=1)
            live = ~(returned | settled)
            gens = [gen for gen, keep in zip(gens, live) if keep]
            pos = pos[:, live]
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
    batches (see _escape_range).  A horizon over path.STEP_BUDGET, or one
    whose walk leaves int64 on some axis, is refused before any work.
    """
    if n < 1 or m < 1:
        raise BadParam("mc_escape needs n >= 1 and m >= 1")
    if n > path.STEP_BUDGET:
        raise ResourceLimit(
            f"mc_escape replicas of {n} steps exceed STEP_BUDGET = "
            f"{path.STEP_BUDGET} steps per path; lower --n")
    _mc_lanes(_sampling_arrays(law)[0], n)
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
