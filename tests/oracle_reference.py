"""Leaf-by-leaf reference for the exhaustive oracle.

This is the direct construction that walklab.oracle avoids for speed: it
keeps a Counter of visits keyed by site tuples and, at every leaf,
recounts the count-of-counts over all visited sites and sums c ** a for
each alpha.  The tests compare the package against it for equality.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from walklab.oracle import ExactSummary
from walklab.steps import LatticePoint, StepLaw


def enumerate_paths(law: StepLaw, n: int, alphas: tuple[int, ...]) -> ExactSummary:
    """The ExactSummary of enumerate_paths, recounted at every leaf."""
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
    return ExactSummary(
        n=n,
        expected_q={j: Fraction(v, total) for j, v in sorted(eq_num.items())},
        expected_l=expected_l,
        variance_l={a: Fraction(el2_num[a], total) - expected_l[a] ** 2
                    for a in alphas},
        joint_law={(r, c): Fraction(v, total * r)
                   for (r, c), v in sorted(joint_num.items())},
        gamma_seq=tuple(gamma_seq),
    )
