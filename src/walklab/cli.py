"""Command-line interface.

Exit codes: 0 when every verdict passes, 2 when any verdict fails, 1 on
any error (bad arguments, bad config, resource limits).  All randomness
flows from --seed, so a rerun with the same flags and config reproduces
every output byte for byte.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import rng as rnglib
from .errors import ConfigError, WalklabError
from .gamma import (
    green_at_origin,
    mc_escape,
    return_tail,
    taboo_gamma_estimate,
    taboo_survival,
)
from .harness import ExperimentReport, auto_gamma, run_geometric, run_slln, variance_scan
from .oracle import enumerate_paths, exact_zn_law
from .path import simulate_series
from .steps import StepLaw, law_from_json
from .theory import (
    expected_qj_formula,
    geometric_pmf,
    green_cross_sum,
    moment_limit,
    qj_generating,
    qj_limit,
    sup_pmf,
)

_CONFIG_KEYS = {"law", "experiment", "seeds", "tolerances"}
_TOLERANCE_KEYS = {"rel_tol", "tv_bar", "p_floor", "safety", "slope_cap"}


class _Run:
    """Resolved global options + config file content."""

    def __init__(self):
        self.seed = 0
        self.out = None
        self.fmt = "json"
        self.threads = 1
        self.law_cfg = None
        self.experiment = {}
        self.seeds_cfg = None
        self.tolerances = {}


def _load_run(config, seed, out, fmt, threads) -> _Run:
    run = _Run()
    run.seed = 0 if seed is None else int(seed)
    run.out = Path(out) if out else None
    run.fmt = fmt
    run.threads = threads
    if config:
        with open(config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        run.law_cfg = data.get("law")
        run.experiment = data.get("experiment", {})
        if not isinstance(run.experiment, dict):
            raise ConfigError("config 'experiment' must be an object")
        run.seeds_cfg = data.get("seeds")
        tol = data.get("tolerances", {})
        bad = set(tol) - _TOLERANCE_KEYS
        if bad:
            raise ConfigError(f"unknown tolerance keys: {sorted(bad)}")
        run.tolerances = tol
    return run


def _resolve_law(run: _Run, law_text: str | None) -> StepLaw:
    if law_text:
        return law_from_json(json.loads(law_text))
    if run.law_cfg is not None:
        return law_from_json(run.law_cfg)
    raise ConfigError("no law given: pass --law '<json>' or a --config with a law")


def _options(run: _Run, table: dict) -> dict:
    """Each experiment key the command reads -> its flag, else config, else default.

    table maps key -> (flag value, default); None counts as not given.  A
    config key outside the table is rejected rather than silently ignored.
    """
    unknown = set(run.experiment) - set(table)
    if unknown:
        raise ConfigError(f"unknown experiment keys: {sorted(unknown)}")
    out = {}
    for key, (flag, default) in table.items():
        value = flag if flag is not None else run.experiment.get(key)
        out[key] = default if value is None else value
    return out


def _seeds(run: _Run, paths: int) -> list[int]:
    if run.seeds_cfg is not None:
        return [int(s) for s in run.seeds_cfg]
    return [rnglib.mix64(run.seed, i) for i in range(paths)]


def _write(run: _Run, name: str, body: bytes, csv_text: str | None) -> None:
    """Print the JSON body (or the CSV under --format csv); save both under --out."""
    if run.fmt == "csv" and csv_text is not None:
        click.echo(csv_text, nl=False)
    else:
        click.echo(body.decode(), nl=False)
    if run.out is not None:
        run.out.mkdir(parents=True, exist_ok=True)
        (run.out / f"{name}.json").write_bytes(body)
        if csv_text is not None:
            (run.out / f"{name}.csv").write_bytes(csv_text.encode())


def _emit(run: _Run, name: str, payload: dict, csv_text: str | None = None) -> None:
    body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write(run, name, body.encode(), csv_text)


def _finish_report(run: _Run, name: str, report: ExperimentReport) -> None:
    _write(run, name, report.to_json_bytes(), report.to_csv())
    if not report.verdict:
        click.echo(f"FAIL: {', '.join(report.failures())}", err=True)
        sys.exit(2)


def _parse_list(text: str | None, cast):
    return [cast(x) for x in text.split(",") if x.strip() != ""] if text else None


def _dyadic_checkpoints(n: int) -> list[int]:
    cks = []
    c = min(1024, n)
    while c < n:
        cks.append(c)
        c *= 2
    cks.append(n)
    return cks


@click.group()
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON config: {law, experiment, seeds, tolerances}.")
@click.option("--seed", type=int, default=None, help="Master seed (default 0).")
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="Directory for JSON report + CSV companion.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="json", show_default=True, help="Stdout format.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker processes for replica-parallel estimators.")
@click.pass_context
def cli(ctx, config, seed, out, fmt, threads):
    """Simulate transient lattice walks and verify their local-time laws.

    Exit codes: 0 all verdicts pass, 2 any verdict fails, 1 on error.

    \b
    Stable CSV columns:
      simulate, verify-slln   n,alpha,L,L_over_n,R,R_over_n (+seed)
      verify-geometric        seed,u,empirical,theory
      variance-scan           n,variance,jackknife_se,mean_L,envelope
    """
    ctx.obj = _load_run(config, seed, out, fmt, threads)


@cli.command()
@click.option("--law", "law_text", default=None, help="Law descriptor JSON.")
@click.option("--n", type=int, default=None, help="Final horizon.")
@click.option("--alphas", default=None, help="Comma-separated alpha list.")
@click.option("--checkpoints", default=None, help="Comma-separated horizons.")
@click.pass_obj
def simulate(run: _Run, law_text, n, alphas, checkpoints):
    """Simulate one path and report L_n(alpha), R(n) at checkpoints."""
    opt = _options(run, {"n": (n, 4096),
                         "alphas": (_parse_list(alphas, float), [0.0, 1.0, 2.0]),
                         "checkpoints": (_parse_list(checkpoints, int), None)})
    law = _resolve_law(run, law_text)
    n = int(opt["n"])
    cks = _dyadic_checkpoints(n) if opt["checkpoints"] is None else opt["checkpoints"]
    series = simulate_series(law, cks, opt["alphas"], run.seed)
    payload = {
        "law": law.describe(), "seed": run.seed,
        "checkpoints": list(series.checkpoints),
        "alphas": list(series.alphas),
        "records": [
            {"n": ck, "alpha": a, "L": float(series.l_table[i][j]),
             "L_over_n": float(series.l_table[i][j]) / ck,
             "R": series.ranges[i], "R_over_n": series.ranges[i] / ck}
            for i, ck in enumerate(series.checkpoints)
            for j, a in enumerate(series.alphas)],
    }
    _emit(run, "simulate", payload, series.to_csv())


@cli.command("estimate-gamma")
@click.option("--law", "law_text", default=None)
@click.option("--method", type=click.Choice(["mc", "dp", "green"]), required=True)
@click.option("--n", type=int, default=None, help="MC horizon (method mc).")
@click.option("--N", "big_n", type=int, default=None,
              help="Series/DP truncation (methods green, dp).")
@click.option("--M", "replicas", type=int, default=None,
              help="MC replica count (method mc).")
@click.pass_obj
def estimate_gamma(run: _Run, law_text, method, n, big_n, replicas):
    """Estimate the escape probability by one of the three methods."""
    opt = _options(run, {"n": (n, 10_000), "M": (replicas, 100_000)} if method == "mc"
                   else {"N": (big_n, 1000 if method == "dp" else None)})
    law = _resolve_law(run, law_text)
    if method == "mc":
        est = mc_escape(law, int(opt["n"]), int(opt["M"]), run.seed, threads=run.threads)
    elif method == "dp":
        est = taboo_gamma_estimate(law, int(opt["N"]))
    else:
        est = (green_at_origin(law, int(opt["N"])) if opt["N"] is not None
               else auto_gamma(law))
    payload = {"method": est.method, "value": est.value, "error": est.error,
               "params": est.params}
    if est.seed is not None:
        payload["seed"] = est.seed
    _emit(run, "estimate-gamma", payload)


def _frac_json(x):
    if isinstance(x, Fraction):
        return {"rational": f"{x.numerator}/{x.denominator}", "decimal": float(x)}
    return {"decimal": float(x)}


@cli.command()
@click.option("--law", "law_text", default=None)
@click.option("--what", type=click.Choice(
    ["moment", "qj", "geom", "qj-exact", "gf", "green-cross", "sup-pmf"]),
    required=True)
@click.option("--alpha", type=float, default=None)
@click.option("--j", "j_idx", type=int, default=None)
@click.option("--u", type=int, default=None)
@click.option("--s", type=float, default=None)
@click.option("--n", type=int, default=None)
@click.option("--N", "big_n", type=int, default=None)
@click.option("--gamma", "gamma_opt", type=float, default=None,
              help="Escape probability; estimated from the law if omitted.")
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.pass_obj
def predict(run: _Run, law_text, what, alpha, j_idx, u, s, n, big_n, gamma_opt, tol):
    """Evaluate one closed-form prediction."""
    _options(run, {})

    def need(value, flag):
        if value is None:
            raise ConfigError(f"predict --what {what} needs {flag}")
        return value

    def gamma_value():
        if gamma_opt is not None:
            return gamma_opt
        return auto_gamma(_resolve_law(run, law_text)).value

    if what == "moment":
        pred = moment_limit(need(alpha, "--alpha"), gamma_value(), tol=tol)
        payload = {"what": what, "inputs": pred.inputs, "value": pred.value,
                   "error": pred.truncation_error}
    elif what == "qj":
        g = gamma_value()
        payload = {"what": what, "inputs": {"j": need(j_idx, "--j"), "gamma": g},
                   "value": qj_limit(g, j_idx), "error": 0.0}
    elif what == "geom":
        g = gamma_value()
        payload = {"what": what, "inputs": {"u": need(u, "--u"), "gamma": g},
                   "value": geometric_pmf(g, u), "error": 0.0}
    elif what == "qj-exact":
        law = _resolve_law(run, law_text)
        n = need(n, "--n")
        ret = taboo_survival(law, n)
        value = expected_qj_formula(ret, need(j_idx, "--j"), n)
        payload = {"what": what, "inputs": {"j": j_idx, "n": n},
                   "value": _frac_json(value), "error": 0.0}
    elif what == "gf":
        law = _resolve_law(run, law_text)
        big_n = need(big_n, "--N")
        ret = taboo_survival(law, big_n)
        pred = qj_generating(ret, need(j_idx, "--j"), need(s, "--s"), big_n)
        payload = {"what": what, "inputs": pred.inputs, "value": pred.value,
                   "error": pred.truncation_error}
    elif what == "green-cross":
        law = _resolve_law(run, law_text)
        value = green_cross_sum(law, need(n, "--n"))
        payload = {"what": what, "inputs": {"n": n},
                   "value": float(value), "error": 0.0}
    else:
        law = _resolve_law(run, law_text)
        value = sup_pmf(law, need(n, "--n"))
        payload = {"what": what, "inputs": {"m": n},
                   "value": float(value), "error": 0.0}
    _emit(run, "predict", payload)


@cli.command()
@click.option("--law", "law_text", default=None)
@click.option("--n", type=int, default=None)
@click.option("--alphas", default=None,
              help="Integer powers for exact moments.  [default: 2,3]")
@click.pass_obj
def oracle(run: _Run, law_text, n, alphas):
    """Exact enumeration of all paths at a small horizon."""
    opt = _options(run, {"n": (n, 6), "alphas": (_parse_list(alphas, int), [2, 3])})
    law = _resolve_law(run, law_text)
    n = int(opt["n"])
    summary = enumerate_paths(law, n, tuple(int(a) for a in opt["alphas"]))
    payload = {
        "law": law.describe(), "n": n,
        "expected_q": {str(j): _frac_json(v) for j, v in summary.expected_q.items()},
        "expected_l": {str(a): _frac_json(v) for a, v in summary.expected_l.items()},
        "variance_l": {str(a): _frac_json(v) for a, v in summary.variance_l.items()},
        "zn_law": {str(u): _frac_json(p) for u, p in exact_zn_law(summary).items()},
        "gamma_seq": [_frac_json(g) for g in summary.gamma_seq],
    }
    _emit(run, "oracle", payload)


@cli.command("verify-slln")
@click.option("--law", "law_text", default=None)
@click.option("--n", type=int, default=None, help="Final horizon.")
@click.option("--alphas", default=None, help="Comma-separated alpha list.")
@click.option("--paths", type=int, default=None, help="Independent paths.")
@click.option("--gamma-n", type=int, default=None,
              help="Green-series truncation for the gamma estimate.")
@click.pass_obj
def verify_slln(run: _Run, law_text, n, alphas, paths, gamma_n):
    """Check L_n(alpha)/n against the geometric moment sum."""
    opt = _options(run, {"n": (n, 1_000_000),
                         "alphas": (_parse_list(alphas, float), [0.0, 2.0, 3.0, 0.5]),
                         "paths": (paths, 3), "gamma_n": (gamma_n, None),
                         "checkpoints": (None, None)})
    law = _resolve_law(run, law_text)
    n = int(opt["n"])
    cks = _dyadic_checkpoints(n) if opt["checkpoints"] is None else opt["checkpoints"]
    gamma_est = auto_gamma(law, int(opt["gamma_n"]) if opt["gamma_n"] else None)
    report = run_slln(law, opt["alphas"], cks, _seeds(run, int(opt["paths"])),
                      gamma_est=gamma_est,
                      rel_tol=float(run.tolerances.get("rel_tol", 0.05)))
    _finish_report(run, "verify-slln", report)


@cli.command("verify-geometric")
@click.option("--law", "law_text", default=None)
@click.option("--n", type=int, default=None)
@click.option("--M", "resamples", type=int, default=None)
@click.option("--paths", type=int, default=None)
@click.pass_obj
def verify_geometric(run: _Run, law_text, n, resamples, paths):
    """Check the law of the visit count at a uniform visited site."""
    opt = _options(run, {"n": (n, 100_000), "M": (resamples, 100_000),
                         "paths": (paths, 1)})
    law = _resolve_law(run, law_text)
    report = run_geometric(
        law, int(opt["n"]), int(opt["M"]), _seeds(run, int(opt["paths"])),
        tv_bar=float(run.tolerances.get("tv_bar", 0.02)),
        p_floor=float(run.tolerances.get("p_floor", 1e-4)))
    _finish_report(run, "verify-geometric", report)


@cli.command("variance-scan")
@click.option("--law", "law_text", default=None)
@click.option("--alpha", type=int, default=None)
@click.option("--n-min", type=int, default=None)
@click.option("--n-max", type=int, default=None)
@click.option("--M", "replicas", type=int, default=None)
@click.option("--slope-cap", type=float, default=None)
@click.pass_obj
def variance_scan_cmd(run: _Run, law_text, alpha, n_min, n_max, replicas, slope_cap):
    """Check the variance growth of L_n(alpha) against its envelope."""
    # a tolerances.slope_cap overrides experiment.slope_cap, the flag both
    opt = _options(run, {"alpha": (alpha, 2), "n_min": (n_min, 1 << 10),
                         "n_max": (n_max, 1 << 16), "M": (replicas, 200),
                         "slope_cap": (run.tolerances.get("slope_cap")
                                       if slope_cap is None else slope_cap, None)})
    law = _resolve_law(run, law_text)
    n_max = int(opt["n_max"])
    grid = []
    n = int(opt["n_min"])
    while n < n_max:
        grid.append(n)
        n *= 2
    grid.append(n_max)
    slope_cap = opt["slope_cap"]
    report = variance_scan(
        law, int(opt["alpha"]), grid, int(opt["M"]), run.seed,
        safety=float(run.tolerances.get("safety", 10.0)),
        slope_cap=None if slope_cap is None else float(slope_cap))
    _finish_report(run, "variance-scan", report)


@cli.command("return-tail")
@click.option("--law", "law_text", default=None)
@click.option("--n", type=int, default=16, show_default=True)
@click.option("--N", "big_n", type=int, default=2048, show_default=True)
@click.pass_obj
def return_tail_cmd(run: _Run, law_text, n, big_n):
    """Tail sum of return probabilities with fitted decay exponent."""
    _options(run, {})
    law = _resolve_law(run, law_text)
    diag = return_tail(law, n, big_n)
    payload = {
        "n": n, "N": big_n, "value": diag.value,
        "eta_hat": None if math.isinf(diag.eta_hat) else diag.eta_hat,
        "infinite_decay": math.isinf(diag.eta_hat),
        "windows": [{"start": s, "slope": (None if math.isinf(sl) else sl)}
                    for s, sl in diag.windows],
    }
    _emit(run, "return-tail", payload)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except WalklabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
