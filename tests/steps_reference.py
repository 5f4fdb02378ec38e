"""Slow, obviously correct references for walklab.steps routines.

rank_fraction is Gaussian elimination over Fractions, and moments_dense
adds every coordinate pair of every atom, zeros included; the tests hold
the package's fraction-free rank and its sparse moment loop against them.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from walklab.steps import StepLaw


def rank_fraction(vectors, d: int) -> int:
    """Rank over Q of integer vectors of length d, in Fractions."""
    rows = [[Fraction(c) for c in v] for v in vectors]
    rank = 0
    for col in range(d):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / pr[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def moments_dense(law: StepLaw) -> tuple[np.ndarray, np.ndarray]:
    """(mean, E[X_i X_j]) summed over every coordinate pair of every atom."""
    if law.exact:
        mean = np.full(law.d, Fraction(0), dtype=object)
        second = np.full((law.d, law.d), Fraction(0), dtype=object)
    else:
        mean = np.zeros(law.d)
        second = np.zeros((law.d, law.d))
    for point, mass in law.atoms:
        for i, ci in enumerate(point):
            mean[i] += mass * ci
            for j, cj in enumerate(point):
                second[i, j] += mass * ci * cj
    return mean, second
