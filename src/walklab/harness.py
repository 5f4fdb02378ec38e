"""Experiment driver: runs the limit-law experiments and renders verdicts.

Every report is a pure function of (law, parameters, seeds): records carry
their seeds, theory values carry their truncation errors, and each check
states the numbers it compared, so reruns byte-reproduce the output and a
reader can re-derive every verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from . import rng as rnglib
from .errors import BadParam
from .gamma import GammaEstimate, auto_gamma, return_tail
from .path import (_check_step_budget, l_alpha, sample_visited_local_time, simulate,
                   simulate_series)
from .steps import StepLaw, law_to_json, mean_and_second_moment
from .theory import _check_gamma, geometric_pmf, moment_limit

# Bucketing rule of geometric_chi_square.
CHI_TAIL_MASS = 1e-3
CHI_MIN_EXPECTED = 5.0


# ---------------------------------------------------------------------------
# Small statistics helpers
# ---------------------------------------------------------------------------

def tv_distance(p: Mapping[int, float], gamma: float) -> float:
    """Total variation distance between a finite law p and Geom(gamma).

    The geometric law lives on {1, 2, ...}; its tail mass beyond p's
    support enters as one term.  Raises BadParam unless p is nonnegative
    and sums to 1 within 1e-9.
    """
    if not p:
        raise BadParam("empty law")
    values = np.array([float(v) for v in p.values()])
    if (values < -1e-12).any():
        raise BadParam("negative mass in law")
    if abs(values.sum() - 1.0) > 1e-9:
        raise BadParam(f"law sums to {float(values.sum())!r}, not 1")
    top = max(max(p), 1)
    support = set(p) | set(range(1, top + 1))
    total = sum(abs(p.get(u, 0.0) - (geometric_pmf(gamma, u) if u >= 1 else 0.0))
                for u in support)
    return 0.5 * (total + (1.0 - gamma) ** top)


def _chi_square_sf(dof: int, x: float) -> float:
    """P(chi^2_dof > x) for an integer dof >= 1, in closed form.

    Abramowitz & Stegun 26.4.5 (even dof) is a finite Poisson sum and
    26.4.4 (odd dof) is erfc(sqrt(x/2)) plus a finite sum.  Every term is
    exp(-x/2) (x/2)^a / Gamma(a + 1) with a = k, or k + 1/2 for odd dof,
    taken in log space: a term recurrence that starts from exp(-x/2)
    underflows at large x although the sum does not.  fsum rounds the sum
    once, so the bytes do not depend on the order or the Python version.
    """
    if x <= 0:
        return 1.0
    half = 0.5 * x
    log_half = math.log(half)
    shift = 0.5 * (dof % 2)
    terms = [math.exp(-half + (k + shift) * log_half - math.lgamma(k + shift + 1))
             for k in range(dof // 2)]
    if shift:
        terms.append(math.erfc(math.sqrt(half)))
    return math.fsum(terms)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    pvalue: float
    dof: int
    buckets: tuple[dict, ...]


def geometric_chi_square(counts: Mapping[int, int], gamma: float) -> ChiSquareResult:
    """Chi-square fit of observed visit-count draws against Geom(gamma).

    Buckets {1..U, >U} with U chosen so the geometric tail beyond U is
    below CHI_TAIL_MASS; buckets with expected count below
    CHI_MIN_EXPECTED are merged from the right (standard validity
    conditions).  Raises BadParam unless gamma is in (0, 1] and there is
    at least one observation.
    """
    gamma = _check_gamma(gamma)
    total = sum(counts.values())
    if total < 1:
        raise BadParam("need at least one observation")
    if gamma == 1.0:
        u_cut = 1
    else:
        u_cut = max(1, math.ceil(math.log(CHI_TAIL_MASS) / math.log(1.0 - gamma)))
    probs = [geometric_pmf(gamma, u) for u in range(1, u_cut + 1)]
    probs.append((1.0 - gamma) ** u_cut)
    obs = [counts.get(u, 0) for u in range(1, u_cut + 1)]
    obs.append(total - sum(obs))
    labels = [str(u) for u in range(1, u_cut + 1)] + [f">{u_cut}"]
    while len(probs) > 1 and probs[-1] * total < CHI_MIN_EXPECTED:
        p_tail, o_tail, l_tail = probs.pop(), obs.pop(), labels.pop()
        probs[-1] += p_tail
        obs[-1] += o_tail
        labels[-1] = labels[-1] + "+" + l_tail
    expected = [pr * total for pr in probs]
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, expected) if e > 0)
    dof = len(probs) - 1
    pvalue = _chi_square_sf(dof, stat) if dof > 0 else 1.0
    buckets = tuple({"bucket": lb, "observed": int(o), "expected": float(e)}
                    for lb, o, e in zip(labels, obs, expected))
    return ChiSquareResult(statistic=float(stat), pvalue=pvalue, dof=dof,
                           buckets=buckets)


@dataclass(frozen=True)
class FitResult:
    """Least-squares power-law fit on log-log axes."""

    slope: float
    intercept: float
    residual_norm: float


def fit_exponent(points: Sequence[tuple[float, float]]) -> FitResult:
    """OLS fit of log v against log n."""
    if len(points) < 3:
        raise BadParam(f"need >= 3 points, got {len(points)}")
    if any(v <= 0 for _, v in points):
        raise BadParam("log-log fit needs positive values")
    xs = np.log([float(n) for n, _ in points])
    ys = np.log([float(v) for _, v in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return FitResult(slope=float(slope), intercept=float(intercept),
                     residual_norm=float(np.sqrt((resid ** 2).sum())))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _finite_or_none(obj):
    """obj with every non-finite float replaced by None (JSON has no NaN)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    return obj


def _to_py(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _finite_or_none(float(obj))
    if isinstance(obj, np.ndarray):
        return _finite_or_none(obj.tolist())
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def json_bytes(obj) -> bytes:
    """The report format: strict JSON (non-finite floats as null), sorted
    keys, indent 2, one trailing newline."""
    text = json.dumps(_finite_or_none(obj), sort_keys=True, indent=2,
                      default=_to_py, allow_nan=False)
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


@dataclass
class ExperimentReport:
    """Machine-readable outcome of one experiment."""

    kind: str
    law: dict
    params: dict
    seeds: tuple[int, ...]
    gamma: dict | None
    theory: dict
    records: list[dict]
    stats: dict
    checks: list[dict]
    tolerances: dict
    notes: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def failures(self) -> list[str]:
        return [c["name"] for c in self.checks if not c["ok"]]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "law": self.law,
            "params": self.params,
            "seeds": list(self.seeds),
            "gamma": self.gamma,
            "theory": self.theory,
            "records": self.records,
            "stats": self.stats,
            "checks": self.checks,
            "tolerances": self.tolerances,
            "notes": self.notes,
            "verdict": self.verdict,
        }

    def to_json_bytes(self) -> bytes:
        return json_bytes(self.to_json_dict())

    def to_csv(self) -> str:
        return csv_text(self.records)


def _low_dim_notes(law: StepLaw) -> dict:
    """The two alternative d in {1,2} assumptions, reported side by side."""
    if law.d > 2:
        return {}
    mean, second = mean_and_second_moment(law.to_float())
    tail = return_tail(law, 16, 512)
    return {
        "low_dim_assumptions": {
            "second_moment_finite": True,
            "drift": [float(x) for x in mean],
            "second_moment": [[float(x) for x in row] for row in second],
            "return_tail_eta_hat": tail.eta_hat,
        }
    }


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _rel_check(name: str, observed: float, expected: float, rel_tol: float) -> dict:
    """Check |observed - expected| <= rel_tol * expected, with the numbers compared."""
    return {"name": name, "observed": observed, "expected": expected,
            "rel_err": abs(observed - expected) / expected, "rel_tol": rel_tol,
            "ok": abs(observed - expected) <= rel_tol * expected}


def _slln_series(task):
    """One run_slln path's checkpoint series; task = (law, checkpoints, alphas, seed)."""
    return simulate_series(*task)


def run_slln(law: StepLaw, alphas: Sequence[float], checkpoints: Sequence[int],
             seeds: Sequence[int], gamma_est: GammaEstimate | None = None,
             rel_tol: float = 0.05, threads: int = 1) -> ExperimentReport:
    """Strong-law experiment: L_n(alpha)/n against the geometric moment sum.

    One path per seed; the verdict compares the final-checkpoint ratio
    for each alpha with the theory value at the estimated gamma, and the
    range ratio R(n)/n with gamma itself.  The relative tolerance is an
    engineering band: almost-sure convergence comes with no rate.  The
    paths run on threads worker processes (rng.replica_map), one task
    per seed, and are reduced in seed order.
    """
    if len(seeds) == 0:
        raise BadParam("run_slln needs at least one seed")
    alphas = [float(a) for a in alphas]
    gamma_est = gamma_est or auto_gamma(law)
    g = gamma_est.value
    theory = {}
    for a in alphas:
        pred = moment_limit(a, g)
        theory[str(a)] = {"value": pred.value, "truncation_error": pred.truncation_error}
    records = []
    checks = []
    n_final = int(checkpoints[-1])
    all_series = rnglib.replica_map(
        _slln_series, [(law, checkpoints, alphas, seed) for seed in seeds], threads)
    for seed, series in zip(seeds, all_series):
        records.extend({"seed": seed, **row} for row in series.records())
        for j, a in enumerate(series.alphas):
            checks.append(_rel_check(f"slln/seed={seed}/alpha={a}",
                                     float(series.l_table[-1][j]) / n_final,
                                     theory[str(a)]["value"], rel_tol))
        checks.append(_rel_check(f"slln/seed={seed}/range",
                                 series.ranges[-1] / n_final, g, rel_tol))
    return ExperimentReport(
        kind="slln", law=law_to_json(law),
        params={"alphas": [float(a) for a in alphas],
                "checkpoints": [int(c) for c in checkpoints]},
        seeds=tuple(int(s) for s in seeds),
        gamma=gamma_est.to_json_dict(), theory=theory, records=records,
        stats={}, checks=checks, tolerances={"rel_tol": rel_tol},
        notes=_low_dim_notes(law))


def _visit_counts(task) -> dict[int, int]:
    """Tally of one run_geometric path's m visit-count draws; task = (law, n, m, seed)."""
    law, n, m, seed = task
    fld = simulate(law, n, seed)
    draws = sample_visited_local_time(fld, rnglib.replica_generator(seed, 1), m)
    tally = np.bincount(draws)
    return {int(u): int(tally[u]) for u in np.flatnonzero(tally)}


def run_geometric(law: StepLaw, n: int, m: int, seeds: Sequence[int],
                  tv_bar: float = 0.02, p_floor: float = 1e-4,
                  threads: int = 1) -> ExperimentReport:
    """Limit-law experiment: empirical visit count at a uniform visited site.

    One path per seed, resampled m times; reports the total-variation
    distance of the empirical law to Geom(gamma), gamma from
    auto_gamma(law), and a chi-square over
    buckets holding all but CHI_TAIL_MASS of the geometric mass.  The
    paths run on threads worker processes (rng.replica_map), one task
    per seed, and are reduced in seed order.
    """
    if len(seeds) == 0:
        raise BadParam("run_geometric needs at least one seed")
    if m < 1:
        raise BadParam(f"resample count must be >= 1, got {m}")
    gamma_est = auto_gamma(law)
    g = gamma_est.value
    records = []
    checks = []
    stats: dict = {"per_seed": []}
    all_counts = rnglib.replica_map(
        _visit_counts, [(law, n, m, seed) for seed in seeds], threads)
    for seed, counts in zip(seeds, all_counts):
        emp = {u: c / m for u, c in counts.items()}
        tv = tv_distance(emp, g)
        chi = geometric_chi_square(counts, g)
        stats["per_seed"].append({"seed": seed, "tv": tv,
                                  "chi2": chi.statistic, "dof": chi.dof,
                                  "pvalue": chi.pvalue})
        for u in sorted(emp):
            records.append({"seed": seed, "u": u, "empirical": emp[u],
                            "theory": geometric_pmf(g, u)})
        checks.append({"name": f"geom/seed={seed}/tv", "observed": tv,
                       "bound": tv_bar, "ok": tv < tv_bar})
        checks.append({"name": f"geom/seed={seed}/chi2_p",
                       "observed": chi.pvalue, "bound": p_floor,
                       "ok": chi.pvalue > p_floor})
    return ExperimentReport(
        kind="geometric", law=law_to_json(law),
        params={"n": int(n), "M": int(m)},
        seeds=tuple(int(s) for s in seeds),
        gamma=gamma_est.to_json_dict(),
        theory={"pmf": "geometric", "gamma": g},
        records=records, stats=stats, checks=checks,
        tolerances={"tv_bar": tv_bar, "p_floor": p_floor})


_ENVELOPES: dict[int, tuple[str, Callable[[float], float]]] = {
    1: ("n^1.5*log(n)", lambda n: n ** 1.5 * math.log(n)),
    2: ("n*log(n)^2", lambda n: n * math.log(n) ** 2),
    3: ("n^1.5", lambda n: n ** 1.5),
    4: ("n*log(n)", lambda n: n * math.log(n)),
    5: ("n", lambda n: float(n)),
}


def variance_envelope(d: int) -> tuple[str, Callable[[float], float]]:
    """The dimension-dependent variance growth envelope."""
    return _ENVELOPES[min(d, 5)]


def _l_alpha_block(task) -> list[float]:
    """float(L_n(alpha)) of replicas lo..hi-1 at one grid point.

    task = (law, n, alpha, seed, base, lo, hi); replica i has seed
    mix64(seed, base + i), base being the grid index times M.  Each field
    is released only once the next one is built: released first, malloc
    hands its pages back to the OS and the next path faults them in again
    (six times the minor page faults at the bench's variance-scan size).
    """
    law, n, alpha, seed, base, lo, hi = task
    vals = []
    for i in range(lo, hi):
        fld = simulate(law, n, rnglib.mix64(seed, base + i))
        vals.append(float(l_alpha(fld, alpha)))
    return vals


def variance_scan(law: StepLaw, alpha: int, grid: Sequence[int], m: int,
                  seed: int, safety: float = 10.0,
                  slope_cap: float | None = None, threads: int = 1) -> ExperimentReport:
    """Sample-variance growth of L_n(alpha) against its envelope.

    m independent replicas per grid point (replica seeds are
    mix64(seed, flat index)); the envelope constant is calibrated at the
    smallest grid point and multiplied by the safety factor, since the
    bounds hold up to an unspecified constant.  Each grid point's
    replicas are split into threads blocks run by rng.replica_map, the
    largest n first so the workers finish together.
    """
    if not float(alpha).is_integer() or alpha < 1:
        raise BadParam(f"variance scan needs integer alpha >= 1, got {alpha}")
    if m < 3:
        raise BadParam(f"variance scan needs M >= 3 replicas for its jackknife, got {m}")
    alpha = int(alpha)
    grid = [int(n) for n in grid]
    if sorted(grid) != grid or len(set(grid)) != len(grid):
        raise BadParam("grid must be strictly increasing")
    if len(grid) < 3:
        raise BadParam(f"variance scan needs >= 3 grid points for its fit, got {len(grid)}")
    _check_step_budget(grid[-1])
    env_name, env = variance_envelope(law.d)
    split = rnglib.replica_blocks(m, threads)
    blocks = [(gi, lo, hi) for gi in reversed(range(len(grid))) for lo, hi in split]
    results = rnglib.replica_map(
        _l_alpha_block, [(law, grid[gi], alpha, seed, gi * m, lo, hi)
                         for gi, lo, hi in blocks], threads)
    samples = [np.empty(m) for _ in grid]
    for (gi, lo, hi), block in zip(blocks, results):
        samples[gi][lo:hi] = block
    records = []
    variances = []
    for n, vals in zip(grid, samples):
        var = float(np.var(vals, ddof=1))
        s1, s2 = vals.sum(), (vals ** 2).sum()
        loo = (s2 - vals ** 2 - (s1 - vals) ** 2 / (m - 1)) / (m - 2)
        se_jack = float(np.sqrt((m - 1) / m * ((loo - loo.mean()) ** 2).sum()))
        variances.append(var)
        records.append({"n": n, "variance": var, "jackknife_se": se_jack,
                        "mean_L": float(vals.mean()), "envelope": env(n)})
    c_cal = variances[0] / env(grid[0]) if env(grid[0]) > 0 else 0.0
    checks = []
    for rec in records:
        bound = safety * c_cal * rec["envelope"]
        checks.append({"name": f"variance/n={rec['n']}",
                       "observed": rec["variance"], "bound": bound,
                       "ok": rec["variance"] <= bound})
    fit = None
    if all(v > 0 for v in variances):
        fit = fit_exponent(list(zip(grid, variances)))
        if slope_cap is not None:
            checks.append({"name": "variance/slope", "observed": fit.slope,
                           "bound": slope_cap, "ok": fit.slope <= slope_cap})
    elif slope_cap is not None:
        checks.append({"name": "variance/slope",
                       "observed": None, "bound": slope_cap, "ok": True,
                       "note": "all variances zero; slope vacuous"})
    stats = {"calibration_constant": c_cal, "envelope": env_name}
    if fit is not None:
        stats["fit"] = {"slope": fit.slope, "intercept": fit.intercept,
                        "residual_norm": fit.residual_norm}
    return ExperimentReport(
        kind="variance_scan", law=law_to_json(law),
        params={"alpha": alpha, "grid": grid, "M": int(m)},
        seeds=(int(seed),), gamma=None,
        theory={"envelope": env_name},
        records=records, stats=stats, checks=checks,
        tolerances={"safety": safety, "slope_cap": slope_cap})
