"""Exhaustive path enumeration: exact ground truth at small horizons.

All A^n paths of an A-atom law are enumerated in numpy blocks.  The last
b steps of every path run over one suffix table of B = A^b rows; a
Python loop over the A^(n-b) prefixes writes the prefix's positions, then
its end plus the suffix table, into one reused (B, n+1) matrix.  A site
is one int: its coordinates packed in a balanced mixed radix whose base
exceeds twice the farthest reachable coordinate, so positions add and
the origin is 0.  Per block, numpy finds each path's first return (the
first t >= 1 at the origin), sorts each row in place and reads its runs:
the path's range and its count-of-counts tally (tally[c] = number of
sites visited c times).

A path's probability depends only on how often it used each atom mass,
its composition.  So the blocks add plain int64 counts per composition:
sites per (range, count), paths per first-return time and the matrix
M[c, c'] = sum of tally[c] * tally[c'].  Then E L(alpha) = sum c^alpha
E tally[c] and E L(alpha)^2 = sum c^alpha c'^alpha M[c, c'] for every
alpha.  Masses are plain integers over the common denominator D of the
atom masses (path probability = product of atom numerators / D^n); each
composition's mass multiplies its counts once, in Python ints, and the
results become Fractions once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadParam, InvariantViolation, ResourceLimit
from .gamma import ReturnLaw
from .steps import StepLaw, _check_horizon, _convert, integer

# Most paths enumerate_paths enumerates, and its longest horizon (a
# one-atom law has a single path at any horizon, held whole); more of
# either are refused before the first allocation.
PATH_BUDGET = 10 ** 7

# Cells of one block's (B, n+1) position matrix: the suffix table takes
# the most steps b >= 1 (none at n = 0) whose B = A^b rows keep B * (n+1)
# within it.  At 2^14 cells (128 KiB) bernoulli at n = 17 peaks at about
# 0.85 MiB traced, all of the enumeration included.
_CELLS = 1 << 14
# int64 counts held at once: when the compositions met so far would need
# more rows, their counts are folded into the Python-int sums first.
_COUNT_CELLS = 1 << 18


@dataclass(frozen=True)
class ExactSummary:
    """Exact rational statistics of an n-step walk.

    expected_q[j] = E(Q_j(n)); expected_l / variance_l are keyed by the
    requested integer powers; joint_law maps (range, visit count) to the
    probability that a uniformly chosen visited site has that count while
    the path has that range; gamma_seq holds the exact no-return
    probabilities gamma(0..n).
    """

    n: int
    expected_q: dict[int, Fraction]
    expected_l: dict[int, Fraction]
    variance_l: dict[int, Fraction]
    joint_law: dict[tuple[int, int], Fraction]
    gamma_seq: tuple[Fraction, ...]

    def check_invariants(self) -> None:
        weighted = sum(j * q for j, q in self.expected_q.items())
        if weighted != self.n + 1:
            raise InvariantViolation(f"sum of j E Q_j is {weighted}, not n+1 = {self.n + 1}")
        if sum(self.expected_q.values()) > self.n + 1:
            raise InvariantViolation("expected range exceeds n+1")
        mass = sum(self.joint_law.values())
        if mass != 1:
            raise InvariantViolation(f"joint law sums to {mass}, not 1")
        if any(v < 0 for v in self.variance_l.values()):
            raise InvariantViolation("a variance is negative")


def _table(off: np.ndarray, cls: np.ndarray, m: int, steps: int):
    """Every sequence of `steps` atoms, in lexicographic order.

    Returns its positions (A^steps, steps + 1), starting with the origin,
    each row's composition id and the compositions, as tuples of counts
    per mass class, that the ids index.
    """
    a = len(off)
    rows = a ** steps
    digits = np.arange(rows)[:, None] // a ** np.arange(steps - 1, -1, -1) % a
    pos = np.zeros((rows, steps + 1), off.dtype)
    np.cumsum(off[digits], axis=1, out=pos[:, 1:])
    # A composition is its sorted sequence of mass classes; read in base m,
    # that is below m^steps <= A^steps = rows, so no key wraps.
    classes = np.sort(cls[digits], axis=1)
    _, first, ids = np.unique(classes @ m ** np.arange(steps), return_index=True,
                              return_inverse=True)
    counts = np.bincount((np.arange(len(first))[:, None] * m + classes[first]).ravel(),
                         minlength=len(first) * m)
    return pos, ids, [tuple(c) for c in counts.reshape(-1, m).tolist()]


def _fold(counts: np.ndarray, comps: dict, class_num: list[int]) -> np.ndarray:
    """Sum over compositions of mass times counts, in Python ints."""
    mass = np.array([math.prod(x ** k for x, k in zip(class_num, comp)) for comp in comps],
                    dtype=object)
    return mass @ counts[:len(comps)].astype(object)


def enumerate_paths(law: StepLaw, n: int,
                    alphas: tuple[int, ...] = (2,)) -> ExactSummary:
    """Enumerate every path of length n and tally exact statistics."""
    if not law.exact:
        raise BadParam("the oracle needs a law with rational masses")
    _check_horizon(n)
    alphas = tuple(_convert("alpha", a, integer, BadParam) for a in alphas)
    if any(a < 0 for a in alphas):
        raise BadParam("alphas must be nonnegative integers")
    repeated = sorted({a for a in alphas if alphas.count(a) > 1})
    if repeated:
        raise BadParam("alphas must be distinct; repeated: "
                       + ", ".join(map(str, repeated)))
    if n > PATH_BUDGET:
        raise ResourceLimit(f"a horizon of {n} steps exceeds PATH_BUDGET = {PATH_BUDGET}")
    # a ** n past PATH_BUDGET's bit length exceeds it for a >= 2, so a
    # long horizon is refused without computing (or printing) a ** n
    atoms = len(law.atoms)
    if atoms ** min(n, PATH_BUDGET.bit_length()) > PATH_BUDGET:
        raise ResourceLimit(
            f"{atoms}^{n} paths of {n} steps exceed PATH_BUDGET = {PATH_BUDGET} paths")

    denom = law.denom
    # Balanced mixed radix: every coordinate of a reachable site lies in
    # [-reach, reach], so digits in base 2*reach+1 pack it injectively and
    # linearly, with the origin at 0.  Packed sites past int64 stay
    # Python ints in object arrays.
    reach = n * max(abs(c) for off, _ in law.atoms for c in off)
    base = 2 * reach + 1
    dtype = np.int64 if base ** law.d < 2 ** 63 else object
    off = np.array([sum(c * base ** i for i, c in enumerate(pt)) for pt, _ in law.atoms],
                   dtype=dtype)
    # Atoms of equal mass share a class; a path's mass is the product of
    # its class numerators.
    nums = [int(m * denom) for _, m in law.atoms]
    class_num = sorted(set(nums))
    cls = np.array([class_num.index(x) for x in nums])

    a, t = len(off), n + 1          # atoms, time points
    # Visit counts run to n+1, but a single nonzero atom never revisits.
    most = t if a > 1 else 1
    b = min(n, 1)
    while b < n and a ** (b + 1) * t <= _CELLS:
        b += 1
    p = n - b
    pre, pre_id, pre_comps = _table(off, cls, len(class_num), p)
    suf, suf_id, suf_comps = _table(off, cls, len(class_num), b)
    rows = len(suf)

    # One row of int64 counts per composition: sites per (range, count),
    # paths per first-return time (n+1: none) and M[c, c'].  A count is at
    # most paths * (n+1)^2: PATH_BUDGET * 24^2 with two or more atoms (so
    # n <= 23), (PATH_BUDGET + 1)^2 with one, both below 2^63.
    v1, w = most + 1, t + 1
    at_tau, at_pairs = w * v1, w * v1 + w
    width = at_pairs + v1 * v1
    held = max(len(suf_comps),
               min(math.comb(n + len(class_num) - 1, n), _COUNT_CELLS // width))
    counts = np.zeros((held, width), np.int64)
    flat = counts.reshape(-1)
    sums = np.zeros(width, dtype=object)
    comps: dict[tuple[int, ...], int] = {}  # composition -> its row of counts
    offsets: dict[int, np.ndarray] = {}     # prefix composition -> offset per suffix one

    pos = np.empty((rows, t), dtype)
    hits = np.empty((rows, t), bool)        # at the origin at t >= 1, then a sentinel
    hits[:, n] = True
    new = np.empty((rows, t), bool)         # run starts of each sorted row
    new[:, 0] = True
    for i in range(len(pre)):
        per_suffix = offsets.get(pre_id[i])
        if per_suffix is None:
            head = pre_comps[pre_id[i]]
            full = [tuple(map(sum, zip(head, tail))) for tail in suf_comps]
            if len(comps.keys() | full) > held:
                sums += _fold(counts, comps, class_num)
                counts[:] = 0
                comps.clear()
                offsets.clear()
            per_suffix = offsets[pre_id[i]] = np.array(
                [comps.setdefault(comp, len(comps)) for comp in full]) * width
        at = per_suffix[suf_id]             # each path's offset into flat
        pos[:, :p] = pre[i, :p]
        np.add(suf, pre[i, p], out=pos[:, p:])
        np.equal(pos[:, 1:], 0, out=hits[:, :n])
        np.add.at(flat, at + at_tau + 1 + hits.argmax(axis=1), 1)

        pos.sort(axis=1)
        np.not_equal(pos[:, 1:], pos[:, :-1], out=new[:, 1:])
        starts = np.flatnonzero(new)
        runs = np.diff(starts, append=rows * t)
        row = starts // t
        top = int(runs.max()) + 1
        tally = np.bincount(row * top + runs, minlength=rows * top)
        ent = np.flatnonzero(tally)         # nonzero (row, count) entries, row-major
        r, c = np.divmod(ent, top)
        v = tally[ent]
        np.add.at(flat, (at + np.bincount(row, minlength=rows) * v1)[r] + c, v)

        # M: each row's entries, top-aligned in a (k, rows) grid, in pairs
        k = np.bincount(r, minlength=rows)
        slot = np.arange(len(ent)) - (np.cumsum(k) - k)[r]
        grid_c = np.zeros((k.max(), rows), np.int64)
        grid_v = np.zeros_like(grid_c)
        grid_c[slot, r] = c
        grid_v[slot, r] = v
        np.add.at(flat, (grid_c[:, None, :] * v1 + grid_c + (at + at_pairs)).ravel(),
                  (grid_v[:, None, :] * grid_v).ravel())
    sums += _fold(counts, comps, class_num)

    joint = sums[:at_tau].reshape(w, v1)
    tau_num = sums[at_tau:at_pairs]
    pairs = sums[at_pairs:].reshape(v1, v1)
    total = denom ** n
    gamma_seq = []
    returned = 0
    for s in range(t):
        returned += tau_num[s]
        gamma_seq.append(Fraction(total - returned, total))
    eq_num = joint.sum(axis=0)
    expected_l, second_l = {}, {}
    for alpha in alphas:
        pw = [c ** alpha if c else 0 for c in range(v1)]
        expected_l[alpha] = Fraction(sum(x * q for x, q in zip(pw, eq_num)), total)
        second_l[alpha] = Fraction(
            sum(x * y * m for x, row in zip(pw, pairs) for y, m in zip(pw, row)), total)
    summary = ExactSummary(
        n=n,
        expected_q={c: Fraction(v, total) for c, v in enumerate(eq_num) if v},
        expected_l=expected_l,
        variance_l={a: second_l[a] - expected_l[a] ** 2 for a in alphas},
        joint_law={(r, c): Fraction(v, total * r)
                   for r, row in enumerate(joint) for c, v in enumerate(row) if v},
        gamma_seq=tuple(gamma_seq),
    )
    summary.check_invariants()
    return summary


def exact_zn_law(summary: ExactSummary) -> dict[int, Fraction]:
    """Law of the visit count at a uniformly chosen visited site.

    Marginalizes the joint (range, count) law over the range.
    """
    out: dict[int, Fraction] = {}
    for (_, c), p in summary.joint_law.items():
        out[c] = out.get(c, Fraction(0)) + p
    return dict(sorted(out.items()))


def exact_return_law(law: StepLaw, n: int) -> ReturnLaw:
    """Exact gamma(0..n) by enumeration; must agree with the taboo DP."""
    summary = enumerate_paths(law, n, alphas=())
    ret = ReturnLaw(horizon=n, gamma_seq=summary.gamma_seq, exact=True,
                    denom=law.denom)
    ret.check_invariants()
    return ret
