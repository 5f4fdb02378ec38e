"""Finite-support step distributions on Z^d.

A StepLaw is the law of one increment of the walk.  Laws come in two
arithmetic modes that are never mixed silently:

* exact mode: every mass is a fractions.Fraction (used by the exhaustive
  oracle and the exact dynamic programs),
* float mode: every mass is a double (used by simulation).

Atoms are kept sorted lexicographically by coordinates, which fixes the
inverse-CDF sampling order and makes sample streams bit-reproducible for
a given (seed, law) pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    BadParam,
    ConfigError,
    DegenerateDimension,
    DuplicateAtom,
    NotAProbability,
    UnknownFamily,
)

LatticePoint = tuple[int, ...]
Mass = Union[Fraction, float]

# Walks of <= 2^40 steps with |coordinate| <= 2^22 per step stay inside
# int64; larger atom coordinates are rejected at construction.
_MAX_COORD = 1 << 22

FLOAT_MASS_TOL = 1e-12


@dataclass(frozen=True)
class StepLaw:
    """Probability law of a single step, with finite support.

    atoms holds (point, mass) pairs sorted lexicographically by point;
    exact says whether masses are Fractions (True) or floats (False).
    """

    d: int
    atoms: tuple[tuple[LatticePoint, Mass], ...]
    exact: bool

    @property
    def masses(self) -> tuple[Mass, ...]:
        return tuple(m for _, m in self.atoms)

    def to_float(self) -> "StepLaw":
        """Explicit conversion to float masses (identity if already float)."""
        if not self.exact:
            return self
        atoms = tuple((p, float(m)) for p, m in self.atoms)
        return StepLaw(self.d, atoms, exact=False)

    def mass_at(self, point: LatticePoint) -> Mass:
        for p, m in self.atoms:
            if p == point:
                return m
        return Fraction(0) if self.exact else 0.0


def _rank_exact(vectors: Sequence[Sequence[int]], d: int) -> int:
    """Rank of integer vectors over Q, by fraction-free Gaussian elimination."""
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
        if rank == d:
            break
    return rank


def make_law(d: int, atoms: Iterable[tuple[Sequence[int], Mass]],
             exact: bool) -> StepLaw:
    """Build and validate a StepLaw from raw (point, mass) pairs."""
    normalized = []
    for point, mass in atoms:
        pt = tuple(int(c) for c in point)
        if len(pt) != d:
            raise DegenerateDimension(
                f"atom {pt} has dimension {len(pt)}, law has d={d}")
        if any(abs(c) > _MAX_COORD for c in pt):
            raise BadParam(f"atom coordinate exceeds |c| <= {_MAX_COORD}: {pt}")
        normalized.append((pt, Fraction(mass) if exact else float(mass)))
    normalized.sort(key=lambda a: a[0])
    return validate(StepLaw(d=int(d), atoms=tuple(normalized), exact=exact))


def validate(law: StepLaw) -> StepLaw:
    """Check the standing assumptions; return the law unchanged if legal.

    Raises NotAProbability, DuplicateAtom or DegenerateDimension.  The
    genuine d-dimensionality condition reduces, for finite-support laws
    started at 0, to the support spanning R^d: the reachable set R+ is
    generated by sums of support points, so R+ - R+ lies in the span of
    the support and contains the support itself.
    """
    if law.d < 1:
        raise DegenerateDimension(f"dimension must be >= 1, got {law.d}")
    if not law.atoms:
        raise NotAProbability("empty atom list")
    points = [p for p, _ in law.atoms]
    if len(set(points)) != len(points):
        raise DuplicateAtom("duplicate support points in atom list")
    masses = [m for _, m in law.atoms]
    if any(m <= 0 for m in masses):
        raise NotAProbability("all atom masses must be positive")
    total = sum(masses)
    if law.exact:
        if total != 1:
            raise NotAProbability(f"masses sum to {total}, not 1")
    elif abs(total - 1.0) > FLOAT_MASS_TOL:
        raise NotAProbability(f"masses sum to {total!r}, not 1 within {FLOAT_MASS_TOL}")
    if _rank_exact(points, law.d) < law.d:
        raise DegenerateDimension(
            f"support spans rank < d={law.d}; law is not genuinely d-dimensional")
    return law


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------

def _parse_param(value, exact: bool):
    """Interpret a numeric parameter in the requested arithmetic.

    Exact mode accepts ints, Fractions and strings ("7/10" or "0.7");
    a float is read through its shortest decimal representation, so
    exact bernoulli(0.7) means p = 7/10, not the binary double.
    """
    if exact:
        if isinstance(value, float):
            return Fraction(str(value))
        return Fraction(value)
    if isinstance(value, str):
        return float(Fraction(value))
    return float(value)


def srw(d: int, exact: bool = False) -> StepLaw:
    """Simple random walk: mass 1/(2d) on each of the 2d unit vectors."""
    if d < 1:
        raise BadParam(f"srw needs d >= 1, got {d}")
    return drifted_srw(d, 0, exact=exact)


def bernoulli(p, exact: bool = False) -> StepLaw:
    """d=1 walk stepping +1 with probability p, -1 with probability 1-p."""
    pv = _parse_param(p, exact)
    if not 0 < pv < 1:
        raise BadParam(f"bernoulli needs p in (0,1), got {pv}")
    one = Fraction(1) if exact else 1.0
    return make_law(1, [((1,), pv), ((-1,), one - pv)], exact)


def drifted_srw(d: int, bias, exact: bool = False) -> StepLaw:
    """SRW with the first axis reweighted: +e1 gets (1+bias)/(2d), -e1 gets (1-bias)/(2d)."""
    if d < 1:
        raise BadParam(f"drifted_srw needs d >= 1, got {d}")
    b = _parse_param(bias, exact)
    if not -1 < b < 1:
        raise BadParam(f"drifted_srw needs bias in (-1,1), got {b}")
    one = Fraction(1) if exact else 1.0
    unit = (Fraction(1, 2 * d) if exact else 1.0 / (2 * d))
    atoms = []
    for axis in range(d):
        for sign in (1, -1):
            v = [0] * d
            v[axis] = sign
            mass = unit * ((one + b) if (axis, sign) == (0, 1)
                           else (one - b) if (axis, sign) == (0, -1) else one)
            if mass > 0:
                atoms.append((v, mass))
    return make_law(d, atoms, exact)


def deterministic(v: Sequence[int], exact: bool = False) -> StepLaw:
    """Point mass on one vector."""
    v = tuple(int(c) for c in v)
    one = Fraction(1) if exact else 1.0
    return make_law(len(v), [(v, one)], exact)


# family -> (constructor, the descriptor keys it takes, in call order)
_FAMILIES = {
    "srw": (srw, ("d",)),
    "bernoulli": (bernoulli, ("p",)),
    "drifted_srw": (drifted_srw, ("d", "bias")),
    "deterministic": (deterministic, ("v",)),
}


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=128)
def _sampling_arrays(law: StepLaw) -> tuple[np.ndarray, np.ndarray]:
    """(support array (k,d) int64, inclusive cdf (k,) float64) in atom order."""
    coords = np.array([p for p, _ in law.atoms], dtype=np.int64).reshape(len(law.atoms), law.d)
    if law.exact:
        cum, acc = [], Fraction(0)
        for _, m in law.atoms:
            acc += m
            cum.append(float(acc))
        cdf = np.array(cum)
    else:
        cdf = np.cumsum([m for _, m in law.atoms])
    cdf[-1] = 1.0
    return coords, cdf


def sample_indices(law: StepLaw, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized inverse-CDF sampling of atom indices (lexicographic order)."""
    _, cdf = _sampling_arrays(law)
    return np.searchsorted(cdf, rng.random(size), side="right")


def sample_step(law: StepLaw, rng: np.random.Generator) -> LatticePoint:
    """Draw one step."""
    coords, _ = _sampling_arrays(law)
    idx = sample_indices(law, rng, 1)[0]
    return tuple(int(c) for c in coords[idx])


def mean_and_second_moment(law: StepLaw) -> tuple[np.ndarray, np.ndarray]:
    """(mean vector, matrix of second moments E[X_i X_j]), exact weighted sums.

    Exact laws yield object arrays of Fractions; float laws yield float64.
    """
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


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

def _mass_to_json(mass: Mass):
    if isinstance(mass, Fraction):
        return f"{mass.numerator}/{mass.denominator}"
    return mass


def law_to_json(law: StepLaw) -> dict:
    """Serializable descriptor; inverse of law_from_json up to validation."""
    return {
        "family": "custom",
        "d": law.d,
        "exact": law.exact,
        "atoms": [{"x": list(p), "p": _mass_to_json(m)} for p, m in law.atoms],
    }


def law_from_json(obj: Mapping) -> StepLaw:
    """Parse a law descriptor.

    Builtin form: {"family": "bernoulli", "d": 1, "p": 0.7}.  Custom form:
    {"family": "custom", "d": 2, "atoms": [{"x": [1,0], "p": "1/3"}, ...]}.
    Rational strings "a/b" (or decimal strings) select exact mode for
    custom laws unless an explicit "exact" key overrides; plain floats
    select float mode.  Unknown keys are rejected.
    """
    if not isinstance(obj, Mapping):
        raise ConfigError(f"law descriptor must be an object, got {type(obj).__name__}")
    if "family" not in obj:
        raise ConfigError("law descriptor needs a 'family' key")
    family = obj["family"]
    if family != "custom" and family not in _FAMILIES:
        raise UnknownFamily(f"unknown family {family!r}")
    ctor, keys = _FAMILIES.get(family, (None, ("atoms",)))
    extra = set(obj) - {"family", "d", "exact", *keys}
    if extra:
        raise ConfigError(f"unknown keys in law descriptor: {sorted(extra)}")

    if family == "custom":
        if "d" not in obj or "atoms" not in obj:
            raise ConfigError("custom law needs 'd' and 'atoms'")
        raw = obj["atoms"]
        if not isinstance(raw, Sequence) or not raw:
            raise ConfigError("'atoms' must be a nonempty list")
        masses = []
        for entry in raw:
            if set(entry) != {"x", "p"}:
                raise ConfigError(f"atom entries need exactly keys x,p: {entry}")
            masses.append(entry["p"])
        exact = obj.get("exact")
        if exact is None:
            exact = all(isinstance(m, (str, int)) for m in masses)
        atoms = [(entry["x"], _parse_param(entry["p"], exact)) for entry in raw]
        return make_law(obj["d"], atoms, exact=bool(exact))

    implied = {"bernoulli": 1}.get(family)
    if family == "deterministic" and isinstance(obj.get("v"), Sequence):
        implied = len(obj["v"])
    if implied is not None and obj.get("d", implied) != implied:
        raise ConfigError(f"{family} law has d={implied}, descriptor says d={obj['d']!r}")
    for key in keys:
        if key != "d" and key not in obj:
            raise BadParam(f"{family} needs parameter {key}")
    exact = bool(obj.get("exact", isinstance(obj.get("p", obj.get("bias", 0.0)), str)))
    # a missing or null d means 1
    args = [1 if key == "d" and obj.get("d") is None else obj[key] for key in keys]
    return ctor(*args, exact=exact)
