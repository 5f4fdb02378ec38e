"""Whole-box reference for the box DP.

This is the evolver walklab.gamma.DenseEvolver replaced: one stride-1
array over the support's bounding box, every cell stored whether or not
the walk's parity can reach it.  DenseEvolver, _evolution, _cross_sum and
_dense_return_sequence are kept as they were, with two exceptions.  The
budget is read as gamma.CELL_BUDGET, so a test that lowers the package's
budget lowers this one too.  The two float sums over many cells, the
pruned mass and the return sequence's cross-sums, run over the box's
mod-2 classes, stride-2 slices of the box, one at a time with residues
in sorted order, which is the order the package adds them in.  The thin
wrappers at the end do what taboo_survival, pmf_evolve and
sup_pmf_sequence do on top of the evolver.  The tests compare the
package against this module for equality, floats bit for bit.

The axis recursion's binomial fold is kept here too, as it was before
the package evaluated rows of equal band width in blocks: one row at a
time, every row evaluated, odd rows of a periodic walk included.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from walklab import gamma
from walklab.errors import ResourceLimit
from walklab.gamma import PRUNE_THRESHOLD
from walklab.steps import LatticePoint, Mass, StepLaw


class DenseEvolver:
    """Box DP over the support bounding box of the law of S_m.

    The array covers lattice points lo[j] .. lo[j]+shape[j]-1 per axis.
    A rational law keeps exact integer numerators over denom**m in an
    object box, where denom is the lcm of the atom denominators and each
    weight is mass * denom; mass() turns a numerator into a Fraction.  A
    float law keeps a float64 box with denom 1; cells below
    PRUNE_THRESHOLD are dropped (and accounted) when the box is
    re-trimmed, which keeps the box at the diffusive scale instead of the
    ballistic one.
    """

    TRIM_EVERY = 8

    def __init__(self, law: StepLaw, kill_origin: bool = False):
        self.d = law.d
        self.exact = law.exact
        self.offsets = np.array([p for p, _ in law.atoms], dtype=np.int64)
        self.denom = law.denom
        if law.exact:
            self.weights = np.array([int(m * self.denom) for m in law.masses],
                                    dtype=object)
        else:
            self.weights = np.array(law.masses)
        self.arr = np.ones((1,) * law.d, dtype=self.weights.dtype)
        self.lo = np.zeros(law.d, dtype=np.int64)
        self.kill_origin = kill_origin
        self.killed = 0
        self.pruned = 0.0
        self.m = 0

    def _origin_index(self) -> tuple | None:
        idx = -self.lo
        if ((idx >= 0) & (idx < np.array(self.arr.shape))).all():
            return tuple(int(i) for i in idx)
        return None

    def step(self) -> None:
        mins = self.offsets.min(axis=0)
        maxs = self.offsets.max(axis=0)
        shape = np.array(self.arr.shape)
        new_shape = tuple(int(s) for s in shape + (maxs - mins))
        if math.prod(new_shape) > gamma.CELL_BUDGET:
            raise ResourceLimit(
                f"dense pmf box {new_shape} at step {self.m + 1} "
                f"exceeds CELL_BUDGET = {gamma.CELL_BUDGET} cells; "
                "lower the horizon (--N, --n or --gamma-n)")
        new = np.zeros(new_shape, dtype=self.arr.dtype)
        for off, w in zip(self.offsets, self.weights):
            dest = tuple(slice(int(o - mn), int(o - mn + s))
                         for o, mn, s in zip(off, mins, shape))
            new[dest] += w * self.arr
        self.arr = new
        self.lo = self.lo + mins
        self.m += 1
        if self.kill_origin:
            self.killed *= self.denom
            idx = self._origin_index()
            if idx is not None:
                self.killed += self.arr[idx]
                self.arr[idx] = 0
        if self.m % self.TRIM_EVERY == 0:
            self._trim()

    def classes(self) -> list[tuple[tuple, np.ndarray, np.ndarray]]:
        """(residue r, first point of r in the box, stride-2 view of the box
        at the points congruent to r) for each r in {0, 1}^d, in sorted order."""
        out = []
        for r in itertools.product((0, 1), repeat=self.d):
            first = self.lo + (np.array(r) - self.lo) % 2
            view = self.arr[tuple(slice(int(f - l), None, 2) for f, l in zip(first, self.lo))]
            out.append((r, first, view))
        return out

    def _trim(self) -> None:
        if not self.exact:
            for _, _, view in self.classes():
                small = (view < PRUNE_THRESHOLD) & (view > 0)
                if small.any():
                    self.pruned += float(view[small].sum())
                    view[small] = 0.0
        for axis in range(self.d):
            other = tuple(a for a in range(self.d) if a != axis)
            profile = self.arr.max(axis=other) if other else self.arr
            nz = np.flatnonzero(profile > 0)
            if nz.size == 0:
                continue
            first, last = int(nz[0]), int(nz[-1])
            if first > 0 or last < self.arr.shape[axis] - 1:
                sl = [slice(None)] * self.d
                sl[axis] = slice(first, last + 1)
                self.arr = self.arr[tuple(sl)]
                self.lo[axis] += first
        self.arr = np.ascontiguousarray(self.arr)

    def mass(self, num) -> Mass:
        """The probability a box numerator stands for at the current step."""
        if self.exact:
            return Fraction(num, self.denom ** self.m)
        return float(num)

    def surviving_mass(self) -> Mass:
        return self.mass(self.denom ** self.m - self.killed)

    def sup(self) -> Mass:
        return self.mass(self.arr.max())

    def to_masses(self) -> dict[LatticePoint, Mass]:
        # an exact numerator is an int, so it passes the threshold iff it is nonzero
        out = {}
        for flat in np.flatnonzero(self.arr >= PRUNE_THRESHOLD):
            idx = np.unravel_index(flat, self.arr.shape)
            point = tuple(int(i + l) for i, l in zip(idx, self.lo))
            out[point] = self.mass(self.arr[idx])
        return out


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
    sequence.  x and -x share a residue, so each sum adds up the classes'
    cross-sums, residues in sorted order; class r holds the points 2h + r,
    whose mirrors are 2(-h - r) + r, so the second class is placed at its
    half-index plus r.  A parity the law cannot reach has disjoint
    supports and comes out as an exact zero.  Each step rebinds the
    evolver's arrays, so the previous step's arrays stay valid without
    copies.
    """
    def cross(a, b):
        total = 0.0
        for (c, first_a, ca), (_, first_b, cb) in zip(a, b):
            total += _cross_sum(ca, first_a // 2, cb, first_b // 2 + c)
        return total

    r = np.empty(n + 1)
    prev = None
    for ev in _evolution(law.to_float(), (n + 1) // 2):
        cur = ev.classes()
        if 2 * ev.m <= n:
            r[2 * ev.m] = cross(cur, cur)
        if prev is not None:
            r[2 * ev.m - 1] = cross(cur, prev)
        prev = cur
    return r


def taboo_survival(law: StepLaw, n: int) -> tuple[tuple, float]:
    """(gamma(0..n), pruned mass) of the origin-killed evolution."""
    seq = []
    for ev in _evolution(law, n, kill_origin=True):
        seq.append(ev.surviving_mass())
    return tuple(seq), ev.pruned


def pmf_masses(law: StepLaw, m: int) -> dict[LatticePoint, Mass]:
    """The nonzero cells of the law of S_m, in the box's C order."""
    *_, ev = _evolution(law, m)
    return ev.to_masses()


def sup_pmf_sequence(law: StepLaw, m_max: int) -> np.ndarray:
    """sup_x P(S_m = x) for m = 0..m_max."""
    return np.array([ev.sup() for ev in _evolution(law.to_float(), m_max)])


def _binomial_fold(v_prev: np.ndarray, rel: float, u_new: np.ndarray) -> np.ndarray:
    """out[m] = E[u(K) v(m-K)] with K ~ Binomial(m, rel), one row at a time.

    Each row sums a 10-sigma band around the mode, with weights from the
    pmf ratio recurrence renormalized over the band.
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

