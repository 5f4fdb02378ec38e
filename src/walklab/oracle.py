"""Exhaustive path enumeration: exact ground truth at small horizons.

All |support|^n paths are walked depth-first with an undo stack over one
mutable count map, so memory stays O(n).  Accumulation happens in plain
integers over the common denominator of the atom masses (path probability
= product of atom numerators / D^n), which keeps the per-leaf work cheap;
results are converted to Fractions once at the end.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParam, InvariantViolation, ResourceLimit
from .gamma import ReturnLaw
from .steps import LatticePoint, StepLaw

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
    alphas = tuple(int(a) for a in alphas)
    if any(a < 0 for a in alphas):
        raise BadParam("alphas must be nonnegative integers")
    paths = len(law.atoms) ** n
    if paths > PATH_BUDGET:
        raise ResourceLimit(
            f"{paths} paths of {n} steps exceed PATH_BUDGET = {PATH_BUDGET} paths")

    denom = law.denom
    atoms = [(off, int(m * denom)) for off, m in law.atoms]
    origin: LatticePoint = (0,) * law.d

    eq_num: Counter = Counter()
    el_num = {a: 0 for a in alphas}
    el2_num = {a: 0 for a in alphas}
    joint_num: Counter = Counter()
    tau_num: Counter = Counter()  # first-return time -> integer mass

    counts: Counter = Counter({origin: 1})

    def leaf(pnum: int, first_return: int | None) -> None:
        tally = Counter(counts.values())
        r = len(counts)
        for c, sites in tally.items():
            eq_num[c] += pnum * sites
            joint_num[(r, c)] += pnum * sites
        for a in alphas:
            l_val = sum(sites * c ** a for c, sites in tally.items())
            el_num[a] += pnum * l_val
            el2_num[a] += pnum * l_val * l_val
        if first_return is not None:
            tau_num[first_return] += pnum

    def walk(depth: int, pos: LatticePoint, pnum: int,
             first_return: int | None) -> None:
        if depth == n:
            leaf(pnum, first_return)
            return
        for off, wnum in atoms:
            nxt = tuple(a + b for a, b in zip(pos, off))
            counts[nxt] += 1
            walk(depth + 1, nxt, pnum * wnum,
                 first_return if first_return is not None
                 else (depth + 1 if nxt == origin else None))
            counts[nxt] -= 1
            if counts[nxt] == 0:
                del counts[nxt]

    walk(0, origin, 1, None)

    total = denom ** n
    gamma_seq = []
    returned = 0
    for k in range(n + 1):
        returned += tau_num.get(k, 0) if k >= 1 else 0
        gamma_seq.append(Fraction(total - returned, total))
    expected_l = {a: Fraction(el_num[a], total) for a in alphas}
    summary = ExactSummary(
        n=n,
        expected_q={j: Fraction(v, total) for j, v in sorted(eq_num.items())},
        expected_l=expected_l,
        variance_l={a: Fraction(el2_num[a], total) - expected_l[a] ** 2
                    for a in alphas},
        joint_law={(r, c): Fraction(v, total * r)
                   for (r, c), v in sorted(joint_num.items())},
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
