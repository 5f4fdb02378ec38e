"""Finite-support step distributions on Z^d.

A StepLaw is the law of one increment of the walk.  Laws come in two
arithmetic modes that are never mixed silently:

* exact mode: every mass is a fractions.Fraction (used by the exhaustive
  oracle and the exact dynamic programs),
* float mode: every mass is a double (used by simulation).

Atoms are kept sorted lexicographically by coordinates, which fixes the
inverse-CDF sampling order and makes sample streams bit-reproducible for
a given (seed, law) pair.

The module also holds the report formats (json_bytes, csv_text), so a
command that runs no experiment, such as estimate-gamma, prints its
result without executing the harness.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import BadParam, ConfigError

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

    @property
    def denom(self) -> int:
        """lcm of the mass denominators (1 for float laws): mass * denom is an integer."""
        if not self.exact:
            return 1
        return math.lcm(*(m.denominator for m in self.masses))

    def to_float(self) -> "StepLaw":
        """Explicit conversion to float masses (identity if already float)."""
        if not self.exact:
            return self
        atoms = tuple((p, float(m)) for p, m in self.atoms)
        return StepLaw(self.d, atoms, exact=False)


def _rank_exact(vectors: Sequence[Sequence[int]], d: int) -> int:
    """Rank of integer vectors over Q, by fraction-free integer elimination.

    Each row below the pivot row p becomes p[col] * row - row[col] * p and
    is divided by the gcd of its entries, so every entry stays an integer
    and no Fraction is built.  The package's one rank: validate's
    genuine-dimension check and the face dimension k of
    gamma._chernoff_rho both take it.
    """
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(d):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        a = pr[col]
        for i in range(rank + 1, len(rows)):
            b = rows[i][col]
            if b:
                row = [a * x - b * y for x, y in zip(rows[i], pr)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        rank += 1
        if rank == d:
            break
    return rank


def make_law(d: int, atoms: Iterable[tuple[Sequence[int], Mass]],
             exact: bool) -> StepLaw:
    """Build and validate a StepLaw from raw (point, mass) pairs."""
    d = _convert("d", d, integer, BadParam)
    normalized = []
    for point, mass in atoms:
        pt = tuple(_convert("atom coordinate", c, integer, BadParam) for c in point)
        if len(pt) != d:
            raise BadParam(f"atom {pt} has dimension {len(pt)}, law has d={d}")
        if any(abs(c) > _MAX_COORD for c in pt):
            raise BadParam(f"atom coordinate exceeds |c| <= {_MAX_COORD}: {pt}")
        normalized.append((pt, _parse_param("mass", mass, exact)))
    normalized.sort(key=lambda a: a[0])
    return validate(StepLaw(d=d, atoms=tuple(normalized), exact=exact))


def validate(law: StepLaw) -> StepLaw:
    """Check the standing assumptions; return the law unchanged if legal.

    Raises BadParam for a law that is not a probability law, repeats a
    support point or is not genuinely d-dimensional.  The genuine
    d-dimensionality condition reduces, for finite-support laws started
    at 0, to the support spanning R^d: the reachable set R+ is generated
    by sums of support points, so R+ - R+ lies in the span of the support
    and contains the support itself.
    """
    if law.d < 1:
        raise BadParam(f"dimension must be >= 1, got {law.d}")
    if not law.atoms:
        raise BadParam("empty atom list")
    points = [p for p, _ in law.atoms]
    if len(set(points)) != len(points):
        raise BadParam("duplicate support points in atom list")
    masses = [m for _, m in law.atoms]
    if any(m <= 0 for m in masses):
        raise BadParam("all atom masses must be positive")
    total = sum(masses)
    if law.exact:
        if total != 1:
            raise BadParam(f"masses sum to {total}, not 1")
    elif abs(total - 1.0) > FLOAT_MASS_TOL:
        raise BadParam(f"masses sum to {total!r}, not 1 within {FLOAT_MASS_TOL}")
    if _rank_exact(points, law.d) < law.d:
        raise BadParam(
            f"support spans rank < d={law.d}; law is not genuinely d-dimensional")
    return law


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------

def _number(exact: bool):
    """The cast that reads a mass or parameter in the requested arithmetic.

    Exact mode accepts ints, Fractions and strings ("7/10" or "0.7");
    a float is read through its shortest decimal representation, so exact
    bernoulli(0.7) means p = 7/10, not the binary double.  Float mode
    reads the same strings.  Booleans are refused in both.
    """
    def number(value):
        if isinstance(value, (bool, np.bool_)):
            raise TypeError(f"{value!r} is not a number")
        if exact:
            return Fraction(str(value) if isinstance(value, float) else value)
        return float(Fraction(value) if isinstance(value, str) else value)
    return number


def _parse_param(key: str, value, exact: bool):
    """value read by _number(exact); a BadParam naming key if it is not a number."""
    return _convert(key, value, _number(exact), BadParam)


def srw(d: int, exact: bool = False) -> StepLaw:
    """Simple random walk: mass 1/(2d) on each of the 2d unit vectors."""
    return drifted_srw(d, 0, exact=exact)


def bernoulli(p, exact: bool = False) -> StepLaw:
    """d=1 walk stepping +1 with probability p, -1 with probability 1-p."""
    pv = _parse_param("p", p, exact)
    if not 0 < pv < 1:
        raise BadParam(f"bernoulli needs p in (0,1), got {pv}")
    one = Fraction(1) if exact else 1.0
    return make_law(1, [((1,), pv), ((-1,), one - pv)], exact)


def drifted_srw(d: int, bias, exact: bool = False) -> StepLaw:
    """SRW with the first axis reweighted: +e1 gets (1+bias)/(2d), -e1 gets (1-bias)/(2d)."""
    d = _convert("d", d, integer, BadParam)
    if d < 1:
        raise BadParam(f"srw and drifted_srw need d >= 1, got {d}")
    if d > sys.maxsize:
        # an atom is a tuple of d coordinates, and no tuple is that long
        raise BadParam(f"srw and drifted_srw need d <= {sys.maxsize}, got {d}")
    b = _parse_param("bias", bias, exact)
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
    v = tuple(v)
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


# Above this many atoms one comparison pass per cdf threshold costs more
# than a binary search.  Per 65 536 uniform draws on a 2-vCPU Xeon
# (Python 3.11, numpy 2.4, equal masses), counting vs np.searchsorted: 6 atoms
# 0.13 vs 1.7 ms, 64 atoms 1.0 vs 3.4 ms, 256 atoms 3.9 vs 5.0 ms, 320
# atoms 6.0 vs 5.1 ms.  Up to 256 atoms the count also fits in uint8.
_COUNT_MAX_ATOMS = 256


def _atom_indices(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Atom index of each uniform u in [0, 1): the number of cdf entries <= u.

    Counts the thresholds cdf[:-1] at or below each u, in the smallest
    unsigned dtype that holds len(cdf) - 1.  For a non-decreasing cdf
    with cdf[-1] = 1 > u this is np.searchsorted(cdf, u, side="right"),
    ties included, so the sample stream does not depend on the branch.
    """
    if len(cdf) > _COUNT_MAX_ATOMS:
        return np.searchsorted(cdf, u, side="right")
    idx = np.zeros(u.shape, dtype=np.min_scalar_type(len(cdf) - 1))
    for c in cdf[:-1]:
        idx += u >= c
    return idx


def sample_indices(law: StepLaw, rng: np.random.Generator, size: int) -> np.ndarray:
    """Inverse-CDF sampling of size atom indices (lexicographic order).

    Index i is the number of cdf thresholds at or below the i-th uniform
    of rng.random(size), which equals np.searchsorted(cdf, u,
    side="right"); see _atom_indices.
    """
    _, cdf = _sampling_arrays(law)
    return _atom_indices(cdf, rng.random(size))


def mean_and_second_moment(law: StepLaw) -> tuple[np.ndarray, np.ndarray]:
    """(mean vector, matrix of second moments E[X_i X_j]), exact weighted sums.

    Exact laws yield object arrays of Fractions; float laws yield float64.
    Each atom adds only its terms with both coordinates nonzero: every sum
    starts at 0 and a skipped term is +-0, so the sums, the sign of a
    float zero included, are those of a loop over every coordinate pair,
    at a cost linear in the nonzero coordinates (srw(d) adds 2d terms, not
    2d^3).
    """
    if law.exact:
        mean = np.full(law.d, Fraction(0), dtype=object)
        second = np.full((law.d, law.d), Fraction(0), dtype=object)
    else:
        mean = np.zeros(law.d)
        second = np.zeros((law.d, law.d))
    for point, mass in law.atoms:
        nonzero = [(i, c) for i, c in enumerate(point) if c]
        for i, ci in nonzero:
            mean[i] += mass * ci
            for j, cj in nonzero:
                second[i, j] += mass * ci * cj
    return mean, second


# ---------------------------------------------------------------------------
# Checks shared by the engines
# ---------------------------------------------------------------------------

def _check_horizon(n: int) -> None:
    """BadParam unless the horizon n, a number of steps, is >= 0."""
    if n < 0:
        raise BadParam(f"horizon must be >= 0, got {n}")


def _check_alpha(alpha: float) -> None:
    """BadParam unless alpha is a finite power >= 0."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise BadParam(f"alpha must be finite and >= 0, got {alpha}")


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

def integer(value) -> int:
    """int(value), refusing booleans and numbers with a fractional part (a
    string is read as a decimal integer)."""
    if isinstance(value, (bool, np.bool_)) or (
            not isinstance(value, str) and int(value) != value):
        raise ValueError(f"{value!r} is not integral")
    return int(value)


def _list_of(cast):
    def convert(value):
        if not isinstance(value, list):
            raise TypeError(f"{value!r} is not a list")
        return [cast(x) for x in value]
    convert.__name__ = f"list of {cast.__name__}"
    return convert


def _convert(key: str, value, cast, error: type = ConfigError):
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise error(f"{key!r} = {value!r} is not a valid {cast.__name__}") from None


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
    "exact" is true, false, or null or absent to infer it: rational strings
    "a/b" (or decimal strings) select exact mode, plain floats float mode.
    An unknown key, or a value of the wrong type, is a ConfigError.
    """
    if not isinstance(obj, Mapping):
        raise ConfigError(f"law descriptor must be an object, got {type(obj).__name__}")
    if "family" not in obj:
        raise ConfigError("law descriptor needs a 'family' key")
    family = obj["family"]
    if family != "custom" and family not in _FAMILIES:
        raise ConfigError(f"unknown family {family!r}")
    ctor, keys = _FAMILIES.get(family, (None, ("atoms",)))
    extra = set(obj) - {"family", "d", "exact", *keys}
    if extra:
        raise ConfigError(f"unknown keys in law descriptor: {sorted(extra)}")
    exact = obj.get("exact")
    if exact is not None and not isinstance(exact, bool):
        raise ConfigError(f"'exact' must be true, false or null, got {exact!r}")
    d = None if obj.get("d") is None else _convert("d", obj["d"], integer)

    if family == "custom":
        if d is None or "atoms" not in obj:
            raise ConfigError("custom law needs 'd' and 'atoms'")
        raw = obj["atoms"]
        if not isinstance(raw, Sequence) or not raw:
            raise ConfigError("'atoms' must be a nonempty list")
        for entry in raw:
            if not isinstance(entry, Mapping) or set(entry) != {"x", "p"}:
                raise ConfigError(f"'atoms' entries must be objects with exactly keys x,p: {entry!r}")
        if exact is None:
            exact = all(isinstance(entry["p"], (str, int)) for entry in raw)
        atoms = [(_convert("x", entry["x"], _list_of(integer)),
                  _convert("p", entry["p"], _number(exact))) for entry in raw]
        return make_law(d, atoms, exact=exact)

    if exact is None:
        exact = isinstance(obj.get("p", obj.get("bias")), str)
    args = {"d": 1 if d is None else d}  # a missing or null d means 1
    for key in set(keys) - {"d"}:
        if key not in obj:
            raise BadParam(f"{family} needs parameter {key}")
        args[key] = _convert(key, obj[key], _list_of(integer) if key == "v" else _number(exact))
    implied = len(args["v"]) if family == "deterministic" else {"bernoulli": 1}.get(family)
    if implied is not None and d is not None and d != implied:
        raise ConfigError(f"{family} law has d={implied}, descriptor says d={obj['d']!r}")
    return ctor(*(args[key] for key in keys), exact=exact)


# ---------------------------------------------------------------------------
# Report formats
# ---------------------------------------------------------------------------

def _json_values(obj):
    """obj as plain JSON values: numpy arrays as lists, numpy scalars as
    Python numbers and every non-finite float as None (JSON has no NaN)."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_values(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_values(v) for v in obj]
    return obj


def json_bytes(obj) -> bytes:
    """The report format: strict JSON (non-finite floats as null), sorted
    keys, indent 2, one trailing newline."""
    text = json.dumps(_json_values(obj), sort_keys=True, indent=2, allow_nan=False)
    return text.encode() + b"\n"


def csv_text(records: Sequence[Mapping]) -> str:
    """The CSV format: one row per record, the columns every record key in
    first-seen order, floats as repr, missing cells empty."""
    cols = list(dict.fromkeys(key for rec in records for key in rec))
    lines = [",".join(cols)]
    for rec in records:
        cells = []
        for key in cols:
            v = rec.get(key, "")
            cells.append(repr(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
