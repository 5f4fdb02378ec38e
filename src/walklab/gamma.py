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
period, one buffer per class, so a step is one contiguous slice add per
(atom, class), and it runs in place: each finished block of a target
is written a lag behind the block being read, in a direction that
alternates from step to step.  The return-probability sequence
P(S_m = 0) has two engines, and the law picks one: an
axis-decomposition recursion for laws whose nonzero atoms are
+-b_1..+-b_d for d independent b_j (simple and drifted simple walks, in
any basis), optionally with a zero atom, and a half-horizon box DP for
every other law.  The recursion folds in one axis at a time; row m of a
fold touches a 10-sigma band of O(sqrt(m)) binomial terms, so a fold
costs O(N^1.5).  Rows whose bands
have the same width are evaluated as one 2-D block, and when the walk
has no zero atom its odd rows are exact zeros and are not evaluated;
every value keeps the bits of a one-row-at-a-time fold.  The box DP
engine uses the iid split of S_2m into two independent copies of S_m,
P(S_2m = 0) = sum_x p_m(x) p_m(-x) (and likewise for odd times), summed
class by class, so it evolves only to ceil(N/2).  Both engines agree
with exact convolution to float precision; the tests cross-check them.
Both engines, and the taboo DP, run on the law with each axis divided by
the gcd of its atom coordinates (_gcd_reduced), which has the same
returns and a box smaller by those gcds.
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
# on (256 KiB of float64), so the block stays in cache across its terms:
# the bench dp leg ran about 10% faster than with whole-buffer terms.
# Each class buffer carries one block plus the largest shift beyond the
# frame, so 2^15 keeps srw(3)'s buffers 1.12 times the frame (2^16: 1.23).
_DP_BLOCK = 1 << 15
# Replicas advanced together by _escape_range: a batch's block is one
# piece of the path kernel, path._CHUNK steps.
_MC_BATCH = path._CHUNK // MC_BLOCK
# Cells of one block of band rows in _binomial_fold (512 KiB of float64),
# so a long horizon's blocks stay small.
_FOLD_CELLS = 1 << 16


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
    frame_lo and a half-index shape frame_shape, chosen at step 0 and by
    the first step after the frame runs out (which a trim ends), that
    covers every class window of the box from now until the next trim (for
    a drifting law, the union of the start box and the end box).  A trim
    only tightens the box inside its frame, so no frame is built after the
    last step.  Each stored residue owns one flat buffer of
    prod(frame_shape) + lag cells, and the frame sits in every buffer at
    one shared base: point x at base plus the C-order index of
    (x - frame_lo) // 2, and every frame cell outside its class window
    holds 0.  A reframe moves one class at a time (new buffer, copy the
    window, drop the old one), so at most one buffer beyond the classes is
    alive.  The lookahead is cut so that the frame's lattice box holds at
    most CELL_BUDGET cells, down to the one step being taken (whose frame
    is the next box, or for a drifting law the union of this box and the
    next).  classes maps each stored residue to a view of its window in
    the frame, valid until the next step.  The geometry has one owner:
    _bind, run after every step, trim and reframe, records each stored
    class's first point and flat span beside that view, and every reader
    (the step, the origin kill, the trim, the reframe, to_masses and the
    return sequence's cross-sums) uses those records.

    A step scales each source class and adds it into its target classes
    with flat slices: atom o takes class r to t = (r + o) mod 2 by
    dst[a+D:b+D] += prod[a:b], [a, b) the flat span of r's window and
    D = sum_j ((r_j - frame_lo_j) mod 2 + o_j) // 2 * stride_j.  A term
    that wraps into another row adds +0.0, so every cell is the same sum
    in atom order as on a whole-box array.  Each target takes its terms
    in atom order, _DP_BLOCK cells at a time so that the block stays in
    cache; its first term is copied in (0 + x is x for x >= 0) and the
    cells it misses are zeroed.  The step runs in place: the targets are
    written into the source buffers (atom 0 alone sends the S sources to S
    distinct targets, so every buffer takes a target and only a class
    seen for the first time gets a new one).  Target cell i reads source
    cells i - D, so with lag = one block (_DP_BLOCK cells, or the frame
    if smaller) + max|D| (over every atom and residue of the frame) the
    blocks go block-major, block s of every target before block s+1 of
    any, and each finished block lands lag cells behind the read front,
    on source cells that no later block reads.  The direction
    alternates: ascending blocks write at base - lag and descending ones
    at base + lag, so the base swings between lag and 0.  Nothing is
    allocated per step between frames.
    There is one product per (class, distinct weight): the first distinct
    weight scales the source in place, so an equal-mass law (srw(d), the
    diagonal steps) does one multiply per class and holds no product
    buffer, and a law with k distinct weights holds k - 1 product buffers
    per stored class (one set per slot of the class dict, reused by
    whichever residues fill it), read-only during a step and at the same
    base.  A step thus overwrites the classes it reads.

    A rational law keeps exact integer numerators over denom**m in object
    arrays, where denom is the lcm of the atom denominators and each
    weight is mass * denom; mass() turns a numerator into a Fraction.  A
    float law keeps float64 arrays with denom 1; cells below
    PRUNE_THRESHOLD are dropped when the box is re-trimmed, which keeps
    the box at the diffusive scale instead of the ballistic one.  The trim
    walks the classes once, residues in sorted order: it prunes each
    class, adding its dropped cells to the pruned mass in that order, and
    then takes the class's nonzero span.
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

    def _bind(self) -> None:
        """Record each stored class's first point and flat span in the
        current box, and point classes at its window in the frame."""
        self._first, self._spans, self.classes = {}, {}, {}
        for r, buf in self._bufs.items():
            first = tuple(l + (c - l) % 2 for c, l in zip(r, self.lo))
            cshape = tuple((n - f + l + 1) // 2 for n, f, l in zip(self.shape, first, self.lo))
            start = tuple((f - g) // 2 for f, g in zip(first, self.frame_lo))
            a = sum(i * s for i, s in zip(start, self._strides))
            self._first[r] = first
            # [a, b), the cells from the window's first to its last; None if empty
            self._spans[r] = None if 0 in cshape else (
                a, a + sum((n - 1) * s for n, s in zip(cshape, self._strides)) + 1)
            frame = buf[self._base:self._base + self._cells].reshape(self.frame_shape)
            self.classes[r] = frame[tuple(slice(i, i + n) for i, n in zip(start, cshape))]

    def _reframe(self) -> None:
        """Pick the frame from step m to the next trim, cut to CELL_BUDGET
        cells, and move the classes into it one at a time."""
        ahead = self.TRIM_EVERY - self.m % self.TRIM_EVERY
        while True:
            lo = tuple(l + min(0, ahead * mn) for l, mn in zip(self.lo, self.mins))
            extent = tuple(n + max(0, ahead * mx) - min(0, ahead * mn)
                           for n, mn, mx in zip(self.shape, self.mins, self.maxs))
            if ahead == 1 or math.prod(extent) <= CELL_BUDGET:
                break
            ahead -= 1
        # drop the products before the new frame's buffers are allocated
        self._products, self._shifts = [], {}
        self.frame_lo = lo
        self.frame_shape = tuple((e + 1) // 2 for e in extent)
        self.frame_end = self.m + ahead
        self._strides = [math.prod(self.frame_shape[j + 1:]) for j in range(self.d)]
        self._cells = math.prod(self.frame_shape)
        self._block = min(_DP_BLOCK, self._cells)
        # the largest |D| of any atom on any residue: D never falls as a
        # parity rises, so the all-one and all-zero parities bound it
        reach = max(max(self._flat_shift((1,) * self.d, off),
                        -self._flat_shift((0,) * self.d, off))
                    for off in self.offsets)
        self._lag = self._block + reach
        self._base = self._lag
        # one class at a time, so at most one buffer beyond the classes is
        # alive; each new buffer is bound, then its class is copied in
        old, self._bufs = self.classes, {}
        for r in list(old):
            self._bufs[r] = np.zeros(self._cells + self._lag, dtype=self.dtype)
            self._bind()
            self.classes[r][...] = old.pop(r)

    def _flat_shift(self, parity, off) -> int:
        """D = sum_j (p_j + o_j) // 2 * stride_j: the flat shift of atom off
        on a class whose points lie p_j past frame_lo_j mod 2 on axis j."""
        return sum((p + o) // 2 * s for p, o, s in zip(parity, off, self._strides))

    def _shift(self, r: tuple, k: int) -> tuple[tuple, int]:
        """(target residue, flat shift D) of atom k applied to class r."""
        key = (r, k)
        if key not in self._shifts:
            off = self.offsets[k]
            t = tuple((c + o) % 2 for c, o in zip(r, off))
            parity = [(c - g) % 2 for c, g in zip(r, self.frame_lo)]
            self._shifts[key] = t, self._flat_shift(parity, off)
        return self._shifts[key]

    def _new_buffer(self) -> np.ndarray:
        return np.empty(self._cells + self._lag, dtype=self.dtype)

    def _convolve(self) -> None:
        """One step in place: each source buffer is scaled by the first
        distinct weight, and the target classes are written into the same
        buffers, a lag behind the read front."""
        cells, src = self._cells, self._base
        dst = self._lag - src
        spans = self._spans
        products = {}
        # one set of product buffers per class slot, not per residue: a
        # periodic walk stores different residues at odd and even steps
        for i, (r, buf) in enumerate(self._bufs.items()):
            if i == len(self._products):
                self._products.append([self._new_buffer() for _ in self.scales[1:]])
            products[r] = [buf] + self._products[i]
            if spans[r] is not None:
                a, b = spans[r]
                a, b = a + src, b + src
                # every product is taken before the source is scaled in place
                for w, p in zip(self.scales[1:], self._products[i]):
                    np.multiply(buf[a:b], w, out=p[a:b])
                buf[a:b] *= self.scales[0]
        # the terms of each target in atom order, which is each cell's order
        terms = {}
        for k, which in enumerate(self.scale_of):
            for r in self._bufs:
                t, shift = self._shift(r, k)
                terms.setdefault(t, [])
                if spans[r] is not None:
                    a, b = spans[r]
                    terms[t].append((products[r][which][src + a:src + b], a + shift, b + shift))
        # atom 0 alone takes the sources to as many distinct targets, so
        # every source buffer takes a target and only new classes need new ones
        spare = list(self._bufs.values())
        bufs = {t: spare.pop() if spare else self._new_buffer() for t in terms}
        outs = {t: buf[dst:dst + cells] for t, buf in bufs.items()}
        # block-major: target cell i reads source cells i - D, so a block
        # written lag cells behind (ascending) or ahead of (descending) the
        # read front lands on source cells that no later block reads
        blocks = range(0, cells, self._block)
        for s in (blocks if dst < src else reversed(blocks)):
            e = min(s + self._block, cells)
            for t, todo in terms.items():
                out = outs[t]
                if not todo:
                    out[s:e] = 0
                    continue
                # 0 + x is x for every x >= 0, so the first term is copied in
                (first, a0, b0), *rest = todo
                lo, hi = max(a0, s), min(b0, e)
                if lo < hi:
                    out[s:lo] = 0
                    out[lo:hi] = first[lo - a0:hi - a0]
                    out[hi:e] = 0
                else:
                    out[s:e] = 0
                for term, a, b in rest:
                    lo, hi = max(a, s), min(b, e)
                    if lo < hi:
                        out[lo:hi] += term[lo - a:hi - a]
        self._bufs, self._base = bufs, dst

    def step(self) -> None:
        new_shape = tuple(n + hi - lo for n, lo, hi in zip(self.shape, self.mins, self.maxs))
        if math.prod(new_shape) > CELL_BUDGET:
            raise ResourceLimit(
                f"dense pmf box {new_shape} at step {self.m + 1} "
                f"exceeds CELL_BUDGET = {CELL_BUDGET} cells; "
                "lower the horizon (--N, --n or --gamma-n)")
        if self.m >= self.frame_end:
            self._reframe()
        self._convolve()
        self.lo = tuple(l + mn for l, mn in zip(self.lo, self.mins))
        self.shape = new_shape
        self.m += 1
        self._bind()
        if self.kill_origin:
            self.killed *= self.denom
            origin = (0,) * self.d
            if origin in self.classes:
                arr = self.classes[origin]
                idx = tuple(-f // 2 for f in self._first[origin])
                if all(0 <= i < n for i, n in zip(idx, arr.shape)):
                    self.killed += arr[idx]
                    arr[idx] = 0
        if self.m % self.TRIM_EVERY == 0:
            self._trim()

    def _trim(self) -> None:
        """Prune a float box and tighten the box to its support, class by
        class with residues in sorted order: the pruned mass is a float
        sum, so it depends on its order."""
        spans = []
        for r in sorted(self.classes):
            arr = self.classes[r]
            if not self.exact:
                small = (arr < PRUNE_THRESHOLD) & (arr > 0)
                if small.any():
                    self.pruned += float(arr[small].sum())
                    arr[small] = 0.0
            span = _nonzero_span(arr)
            if span is not None:
                first = np.array(self._first[r])
                spans.append((first + 2 * span[0], first + 2 * span[1]))
        if not spans:
            return
        self.lo = tuple(int(c) for c in np.min([a for a, _ in spans], axis=0))
        hi = np.max([b for _, b in spans], axis=0)
        self.shape = tuple(int(c) - l + 1 for c, l in zip(hi, self.lo))
        # the next step reframes, so no frame is built after the last one
        self._bind()

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
            first = self._first[r]
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

def _gcd_reduced(law: StepLaw) -> StepLaw:
    """The law with each axis divided by the gcd of its atom coordinates.

    The walk is at 0 exactly when the reduced walk is, so both have the
    same return probabilities and no-return probabilities, and the
    reduced one's box is smaller by the gcds.  Dividing an axis by a
    positive number keeps the lexicographic order of the atoms.  A law
    whose gcds are all 1 comes back as itself.
    """
    gcds = [math.gcd(*(p[j] for p, _ in law.atoms)) for j in range(law.d)]
    if all(g == 1 for g in gcds):
        return law
    return StepLaw(law.d, tuple((tuple(c // g for c, g in zip(p, gcds)), m)
                                for p, m in law.atoms), law.exact)


def _axis_decomposition(law: StepLaw):
    """If the nonzero atoms are +-b_1..+-b_d, return per-line data.

    The lines b_j are the distinct atoms up to sign; there must be d of
    them, and validate's rank check makes them independent.  So the walk
    is at 0 exactly when every line has taken as many + steps as - steps,
    and its return sequence is that of the unit-vector law with the same
    masses.  The lines are ordered by the index of their first nonzero
    coordinate, ties broken lexicographically, and b_j, the + direction,
    is the atom whose leading coordinate is positive; for a law of signed
    unit vectors that is axis j and +e_j.

    Returns (axis_mass, axis_up, zero_mass) where axis_mass[j] is the
    total probability of moving along line j and axis_up[j] the
    conditional probability of the + direction, or None if the law does
    not decompose.
    """
    lines: dict[tuple, list[float]] = {}   # b_j -> [mass of +b_j, of -b_j]
    zero_mass = 0.0
    for point, mass in law.atoms:
        lead = next((c for c in point if c != 0), 0)
        if lead == 0:
            zero_mass += float(mass)
            continue
        b = tuple(c if lead > 0 else -c for c in point)
        lines.setdefault(b, [0.0, 0.0])[lead < 0] += float(mass)
    if len(lines) != law.d:
        return None
    order = sorted(lines, key=lambda b: (next(j for j, c in enumerate(b) if c != 0), b))
    up, down = np.array([lines[b] for b in order]).T
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

    Rows with the same band width are evaluated together, up to
    _FOLD_CELLS cells at a time, and every row gets the bits of a row
    evaluated on its own: the ratios are multiplied up one column at a
    time (cumprod is sequential), each row's weight sum is a pairwise sum
    over that row alone (a reduction over the last axis), and each row's
    value is one dot product of its band (matmul of stacked vectors calls
    the kernel np.dot does).  So no row is padded to a common width, which
    would change those sums.  When both u and v vanish at every odd index
    (a walk with no zero atom), every term of an odd row has a zero
    factor and is >= 0, so the row is +0.0 and only the even rows are
    evaluated.
    """
    if rel >= 1.0:
        return u_new.copy()
    n = len(v_prev) - 1
    odds = rel / (1.0 - rel)
    out = np.zeros(n + 1)
    out[0] = u_new[0] * v_prev[0]
    # 2 when every term of an odd row has a zero factor
    stride = 2 if not u_new[1::2].any() and not v_prev[1::2].any() else 1
    ms = np.arange(stride, n + 1, stride)
    # np.sqrt, np.rint and astype round as math.sqrt, round and int do
    half = (10.0 * np.sqrt(ms * rel * (1.0 - rel))).astype(np.int64) + 20
    mode = np.rint(ms * rel).astype(np.int64)
    lo = np.maximum(0, mode - half)
    width = np.minimum(ms, mode + half) - lo + 1
    # the width never falls as m grows, so rows of equal width are consecutive
    starts = np.flatnonzero(np.diff(width, prepend=0))
    for a, b in zip(starts, [*starts[1:], len(ms)]):
        size = int(width[a])
        step = max(1, _FOLD_CELLS // size)
        for s in range(a, b, step):
            rows = slice(s, min(s + step, b))
            m = ms[rows, None]
            ks = lo[rows, None] + np.arange(size)
            w = np.empty(ks.shape)
            w[:, 0] = 1.0
            np.divide(m - ks[:, :-1], ks[:, :-1] + 1.0, out=w[:, 1:])
            w[:, 1:] *= odds
            np.cumprod(w, axis=1, out=w)
            w /= w.sum(axis=1, keepdims=True)
            w *= u_new[ks]
            out[m[:, 0]] = np.matmul(w[:, None, :], v_prev[m - ks][:, :, None])[:, 0, 0]
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
    The evolver's step overwrites the classes it reads, so p_m is copied
    before the step that makes p_m+1.
    """
    r = np.empty(n + 1)
    prev = None
    for ev in _evolution(law.to_float(), (n + 1) // 2):
        cur = {c: (arr, tuple(f // 2 for f in ev._first[c]))
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
    law the half-horizon box DP.  Either runs on the law's gcd reduction
    (_gcd_reduced).
    """
    if n < 0:
        raise BadParam(f"horizon must be >= 0, got {n}")
    law = _gcd_reduced(law)
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
    prune_loss.  The DP runs on the law's gcd reduction (_gcd_reduced).
    """
    if n < 0:
        raise BadParam(f"horizon must be >= 0, got {n}")
    law = _gcd_reduced(law)
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


def _escape_range(args) -> int:
    """How many of replicas lo..hi-1 stay off the origin for steps 1..n.

    Replica i draws its uniforms from mix64(master_seed, i), MC_BLOCK per
    block.  _MC_BATCH replicas run together: one atom-index call per
    block, then per packed lane (see _mc_lanes; srw(3) needs one up to
    path.STEP_BUDGET steps) one gather of the atoms' packed increments, the
    replica's packed position carried into the first increment of its row,
    one prefix sum along each row and one compare with 0, and-ed into a hit
    mask.  The carry is the one the path kernels use (path._lane_keys,
    path._axis_pieces), and the lanes are exact integers, so every position
    is the one a single prefix sum over all blocks would give.

    After each block a replica leaves the batch if it hit the origin (a
    return) or if some lane's packed position is farther from 0 than the
    steps left times that lane's largest packed increment (an escape), so
    its verdict depends on its own stream alone.  That bound needs no
    unpacking: the lanes are exact, a return needs every lane at 0, and a
    lane moves by at most its largest increment per step.  On a one-axis
    lane it is the per-coordinate bound; on a lane of several axes it
    fires whenever the per-coordinate bound of the lane's leading axis
    does, since the axes after it add less than half its digit.
    """
    law, n, master_seed, lo, hi = args
    coords, cdf = _sampling_arrays(law)
    increments = []
    for axes, radices in _mc_lanes(coords, n):
        weights = [math.prod(radices[i + 1:]) for i in range(len(axes))]
        increments.append([sum(int(p[j]) * w for j, w in zip(axes, weights)) for p in coords])
    increments = np.array(increments, dtype=np.int64)
    reach = np.abs(increments).max(axis=1, keepdims=True)
    # one block's uniforms and packed positions, reused block after block
    u_buf = np.empty(_MC_BATCH * MC_BLOCK)
    x_buf = np.empty(_MC_BATCH * MC_BLOCK, dtype=np.int64)
    returns = 0
    for b0 in range(lo, hi, _MC_BATCH):
        gens = [rnglib.generator(rnglib.mix64(master_seed, i))
                for i in range(b0, min(b0 + _MC_BATCH, hi))]
        pos = np.zeros((len(increments), len(gens)), dtype=np.int64)
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
                x[:, 0] += pos[lane]
                np.cumsum(x, axis=1, out=x)
                if lane:
                    hit &= x == 0
                else:
                    hit = x == 0
                pos[lane] = x[:, -1]
            done += b
            returned = hit.any(axis=1)
            returns += int(returned.sum())
            settled = (np.abs(pos) > (n - done) * reach).any(axis=0)
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
    batches of packed lanes, and drops a replica once it returns or once
    one of its lanes is too far out to come back to 0 (see _escape_range).
    A horizon over path.STEP_BUDGET, or one whose walk leaves int64 on
    some axis, is refused before any work.
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
