"""Exhaustive path enumeration: exact ground truth at small horizons.

All |support|^n paths are walked depth-first, one path's state at a time.  A
site is one int: its coordinates packed in a balanced mixed radix whose
base exceeds twice the farthest reachable coordinate, so a step adds the
packed atom and the origin is 0.  Each step updates, and on the way back
undoes, the visit count of one site, a count-of-counts tally
(tally[c] = number of sites visited c times) and one running L(alpha)
per alpha.  A leaf reads those: it adds its mass times tally[c] into a
(range, count) table and its L values into the moment sums, without
looking at the sites.  E(Q_j) is that table summed over the range, and
a first return credits its whole subtree's mass at the step it happens.
Masses are plain integers over the common denominator of the atom
masses (path probability = product of atom numerators / D^n); results
become Fractions once at the end.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParam, InvariantViolation, ResourceLimit
from .gamma import ReturnLaw
from .steps import StepLaw, _convert, integer

# Most paths enumerate_paths walks; more is refused before the first leaf.
PATH_BUDGET = 10 ** 7


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


def enumerate_paths(law: StepLaw, n: int,
                    alphas: tuple[int, ...] = (2,)) -> ExactSummary:
    """Walk every path of length n and tally exact statistics."""
    if not law.exact:
        raise BadParam("the oracle needs a law with rational masses")
    if n < 0:
        raise BadParam(f"horizon must be >= 0, got {n}")
    alphas = tuple(_convert("alpha", a, integer, BadParam) for a in alphas)
    if any(a < 0 for a in alphas):
        raise BadParam("alphas must be nonnegative integers")
    repeated = sorted({a for a in alphas if alphas.count(a) > 1})
    if repeated:
        raise BadParam("alphas must be distinct; repeated: "
                       + ", ".join(map(str, repeated)))
    paths = len(law.atoms) ** n
    if paths > PATH_BUDGET:
        raise ResourceLimit(
            f"{paths} paths of {n} steps exceed PATH_BUDGET = {PATH_BUDGET} paths")
    # The walk nests n+1 frames below this one's depth.  Each entry into
    # the interpreter from C (the script, runpy, a test runner) takes one
    # more slot of the recursion limit without showing in the frame chain;
    # 15 slots cover them (a pytest run takes about 7).
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    deepest = sys.getrecursionlimit() - depth - 16
    if n > deepest:
        raise ResourceLimit(
            f"a horizon of {n} steps is deeper than the {deepest} steps the oracle's "
            f"depth-first walk reaches under sys.getrecursionlimit() = "
            f"{sys.getrecursionlimit()}")

    denom = law.denom
    # Balanced mixed radix: every coordinate of a reachable site lies in
    # [-reach, reach], so digits in base 2*reach+1 pack it injectively and
    # linearly, with the origin at 0.
    reach = n * max(abs(c) for off, _ in law.atoms for c in off)
    base = 2 * reach + 1
    atoms = [(sum(c * base ** i for i, c in enumerate(off)), int(m * denom))
             for off, m in law.atoms]
    # grow[c][i]: change of L(alphas[i]) when a site's count goes c -> c+1,
    # with 0 ** 0 read as 0 so that unvisited sites add nothing.
    grow = [tuple((c + 1) ** a - (c ** a if c else 0) for a in alphas)
            for c in range(n + 1)]
    k = len(alphas)

    counts = {0: 1}                 # packed site -> visits so far
    tally = [0] * (n + 2)           # tally[c]: sites visited c times (c >= 1)
    tally[1] = 1
    ls = [1] * k                    # running L(alpha) of the current prefix
    joint = [[0] * (n + 2) for _ in range(n + 2)]  # joint[r][c], integer mass
    el_num = [0] * k
    el2_num = [0] * k
    tau_num = [0] * (n + 1)         # first-return time -> integer mass

    def walk(depth: int, pos: int, pnum: int, top: int) -> None:
        # top: the largest visit count so far, where a leaf's tally ends
        if depth == n:
            row = joint[len(counts)]
            for c in range(1, top + 1):
                row[c] += pnum * tally[c]
            for i in range(k):
                pl = pnum * ls[i]
                el_num[i] += pl
                el2_num[i] += pl * ls[i]
            return
        for off, wnum in atoms:
            nxt = pos + off
            c = counts.get(nxt, 0)
            counts[nxt] = c + 1
            tally[c] -= 1
            tally[c + 1] += 1
            g = grow[c]
            for i in range(k):
                ls[i] += g[i]
            p = pnum * wnum
            if c == 1 and nxt == 0:
                # first return: every leaf below carries p times denom^(n-t)
                tau_num[depth + 1] += p * denom ** (n - depth - 1)
            walk(depth + 1, nxt, p, top if c < top else c + 1)
            for i in range(k):
                ls[i] -= g[i]
            tally[c + 1] -= 1
            tally[c] += 1
            if c:
                counts[nxt] = c
            else:
                del counts[nxt]

    walk(0, 0, 1, 1)

    total = denom ** n
    gamma_seq = []
    returned = 0
    for t in range(n + 1):
        returned += tau_num[t]
        gamma_seq.append(Fraction(total - returned, total))
    expected_l = {a: Fraction(el_num[i], total) for i, a in enumerate(alphas)}
    eq_num = [sum(row[c] for row in joint) for c in range(n + 2)]
    summary = ExactSummary(
        n=n,
        expected_q={c: Fraction(v, total) for c, v in enumerate(eq_num) if v},
        expected_l=expected_l,
        variance_l={a: Fraction(el2_num[i], total) - expected_l[a] ** 2
                    for i, a in enumerate(alphas)},
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
