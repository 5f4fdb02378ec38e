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
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Callable

import click

from . import gamma, harness, path, steps, theory
from . import oracle as oraclelib  # the oracle command takes the plain name
from . import rng as rnglib
from .errors import ConfigError, ResourceLimit, WalklabError

_CONFIG_KEYS = {"law", "experiment", "seeds", "tolerances"}
_CSV_COMMANDS = ("simulate", "verify-slln", "verify-geometric", "variance-scan")


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
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    run.threads = threads
    if config:
        with open(config) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"config file {config} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        run.law_cfg = data.get("law")
        run.experiment = data.get("experiment", {})
        run.tolerances = data.get("tolerances", {})
        if not (isinstance(run.experiment, dict) and isinstance(run.tolerances, dict)):
            raise ConfigError("config 'experiment' and 'tolerances' must be objects")
        run.seeds_cfg = data.get("seeds")
    return run


def _resolve_law(run: _Run, law_text: str | None) -> steps.StepLaw:
    if law_text:
        try:
            descriptor = json.loads(law_text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--law is not valid JSON: {exc}") from None
        return steps.law_from_json(descriptor)
    if run.law_cfg is not None:
        return steps.law_from_json(run.law_cfg)
    raise ConfigError("no law given: pass --law '<json>' or a --config with a law")


def real(value) -> float:
    """float(value), refusing booleans and non-finite numbers."""
    if isinstance(value, bool) or not math.isfinite(float(value)):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _options(run: _Run, table: dict, tolerances: dict | None = None) -> dict:
    """Each config key the command reads -> its value, converted.

    table maps an experiment key, and tolerances a tolerance key, ->
    (flag value, default, cast).  A value is the flag, else the value in
    its config section, else the default; None counts as not given.  A
    config key outside the tables is rejected rather than silently
    ignored, and a flag or config value that cast refuses is a
    ConfigError naming the key.  A config seed list stands in for
    'paths', so only a command that reads 'paths' takes one.
    """
    if run.seeds_cfg is not None and "paths" not in table:
        raise ConfigError("config key 'seeds' is read only by verify-slln and "
                          "verify-geometric; this command takes its seed from --seed")
    out = {}
    for section, given, known in (("experiment", run.experiment, table),
                                  ("tolerance", run.tolerances, tolerances or {})):
        unknown = set(given) - set(known)
        if unknown:
            raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
        for key, (flag, default, cast) in known.items():
            value = next((v for v in (flag, given.get(key)) if v is not None), default)
            out[key] = None if value is None else steps._convert(key, value, cast)
    return out


def _reject_unread(command: str, flags: dict, reads) -> None:
    """Refuse a flag that is given (not None) but that the command does not read."""
    unread = [f"--{key}" for key, value in flags.items()
              if value is not None and key not in reads]
    if unread:
        raise ConfigError(f"{command} does not read {', '.join(unread)}")


def _seeds(run: _Run, paths: int) -> list[int]:
    """The config's seed list, else paths seeds mixed from --seed; never empty."""
    if run.seeds_cfg is not None:
        key, value = "seeds", run.seeds_cfg
        seeds = steps._convert(key, value, steps._list_of(steps.integer))
    else:
        key, value = "paths", paths
        seeds = [rnglib.mix64(run.seed, i) for i in range(paths)]
    if not seeds:
        raise ConfigError(f"{key!r} = {value!r}: the run needs at least one seed")
    return seeds


def _write(run: _Run, name: str, body: bytes, csv: Callable[[], str] | None) -> None:
    """Print the JSON body (or the CSV under --format csv); save both under --out.

    csv builds the CSV text; it is called only when the CSV is printed or saved.
    """
    text = csv() if csv is not None and (run.fmt == "csv" or run.out is not None) else None
    click.echo(text if run.fmt == "csv" else body.decode(), nl=False)
    if run.out is not None:
        run.out.mkdir(parents=True, exist_ok=True)
        (run.out / f"{name}.json").write_bytes(body)
        if text is not None:
            (run.out / f"{name}.csv").write_bytes(text.encode())


def _emit(run: _Run, name: str, payload: dict, csv: Callable[[], str] | None = None) -> None:
    _write(run, name, steps.json_bytes(payload), csv)


def _finish_report(run: _Run, name: str, report: harness.ExperimentReport) -> None:
    _write(run, name, report.to_json_bytes(), report.to_csv)
    if not report.verdict:
        click.echo(f"FAIL: {', '.join(report.failures())}", err=True)
        sys.exit(2)


@contextmanager
def _auto_gamma_horizon(advice: str):
    """Run a block that takes gamma from auto_gamma, whose horizon no flag
    sets: a pmf box refusal raised in it says so and names advice, what the
    command offers instead, in place of the horizon flags."""
    try:
        yield
    except ResourceLimit as exc:
        if gamma._LOWER_HORIZON not in str(exc):
            raise
        raise ResourceLimit(str(exc).replace(
            gamma._LOWER_HORIZON, f"gamma comes from auto_gamma's fixed horizon: {advice}")
        ) from None


def _parse_list(text: str | None):
    """A comma-separated flag as a list of strings; its table entry converts them."""
    return [x for x in text.split(",") if x.strip() != ""] if text else None


def _doubling(key: str, start: int, stop: int) -> list[int]:
    """start, 2 start, 4 start, ... while below stop, then stop itself."""
    if start < 1:
        raise ConfigError(f"{key!r} must be >= 1, got {start}")
    grid = []
    while start < stop:
        grid.append(start)
        start *= 2
    return grid + [stop]


def _checkpoints(opt: dict, default_n: int) -> list[int]:
    """The configured checkpoints, else dyadic ones from min(1024, n) up to n.

    n defaults to default_n; an n that is given must be the last checkpoint.
    """
    n, given = opt["n"], opt["checkpoints"]
    if given is None:
        n = default_n if n is None else n
        return _doubling("n", min(1024, n), n)
    if n is not None and given and n != given[-1]:
        raise ConfigError(f"'n' = {n} is not the last checkpoint {given[-1]}")
    return given


class _Command(click.Command):
    """A subcommand that executes walklab.gamma once its arguments parse.

    Reading an attribute executes an engine module (walklab/__init__.py).
    gamma goes first, whichever command runs: compiled after numpy had
    loaded, gamma.py raised every command's peak RSS by 1.0-1.5 MB.  click
    calls invoke after the subcommand has parsed its arguments, so
    `<command> --help` and usage errors execute no engine, and before the
    body, whose option tables already read steps.
    """

    def invoke(self, ctx):
        gamma.__name__
        return super().invoke(ctx)


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
    if fmt == "csv" and ctx.invoked_subcommand not in _CSV_COMMANDS:
        raise ConfigError(f"--format csv: {ctx.invoked_subcommand} has no CSV form; "
                          f"only {', '.join(_CSV_COMMANDS)} have one")
    ctx.obj = _load_run(config, seed, out, fmt, threads)


# every subcommand below is a _Command
cli.command_class = _Command


@cli.command()
@click.option("--law", "law_text", default=None, help="Law descriptor JSON.")
@click.option("--n", type=int, default=None, help="Final horizon.")
@click.option("--alphas", default=None, help="Comma-separated alpha list.")
@click.option("--checkpoints", default=None, help="Comma-separated horizons.")
@click.pass_obj
def simulate(run: _Run, law_text, n, alphas, checkpoints):
    """Simulate one path and report L_n(alpha), R(n) at checkpoints."""
    opt = _options(run, {
        "n": (n, None, steps.integer),
        "alphas": (_parse_list(alphas), [0.0, 1.0, 2.0], steps._list_of(real)),
        "checkpoints": (_parse_list(checkpoints), None, steps._list_of(steps.integer))})
    checkpoints = _checkpoints(opt, 4096)
    law = _resolve_law(run, law_text)
    series = path.simulate_series(law, checkpoints, opt["alphas"], run.seed)
    payload = {
        "law": steps.law_to_json(law), "seed": run.seed,
        "checkpoints": list(series.checkpoints),
        "alphas": list(series.alphas),
        "records": series.records(),
    }
    _emit(run, "simulate", payload, lambda: steps.csv_text(payload["records"]))


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
    flags = {"n": n, "N": big_n, "M": replicas}
    # method -> the keys it reads and their defaults
    reads = {"mc": {"n": 10_000, "M": 100_000}, "dp": {"N": 1000},
             "green": {"N": None}}[method]
    _reject_unread(f"estimate-gamma --method {method}", flags, reads)
    opt = _options(run, {key: (flags[key], default, steps.integer)
                         for key, default in reads.items()})
    law = _resolve_law(run, law_text)
    if method == "mc":
        est = gamma.mc_escape(law, opt["n"], opt["M"], run.seed, threads=run.threads)
    elif method == "dp":
        est = gamma.taboo_gamma_estimate(law, opt["N"])
    else:
        est = (gamma.green_at_origin(law, opt["N"]) if opt["N"] is not None
               else gamma.auto_gamma(law))
    _emit(run, "estimate-gamma", est.to_json_dict())


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
@click.option("--tol", type=float, default=None,
              help="Truncation tolerance of --what moment.  [default: 1e-10]")
@click.pass_obj
def predict(run: _Run, law_text, what, alpha, j_idx, u, s, n, big_n, gamma_opt, tol):
    """Evaluate one closed-form prediction."""
    _options(run, {})
    flags = {"alpha": alpha, "j": j_idx, "u": u, "s": s, "n": n, "N": big_n,
             "gamma": gamma_opt, "tol": tol}
    # what -> the flags it reads; all but --gamma and --tol are required
    reads = {"moment": ("alpha", "gamma", "tol"), "qj": ("j", "gamma"), "geom": ("u", "gamma"),
             "qj-exact": ("n", "j"), "gf": ("N", "j", "s"),
             "green-cross": ("n",), "sup-pmf": ("n",)}[what]
    _reject_unread(f"predict --what {what}", flags, reads)
    for key in reads:
        if flags[key] is None and key not in ("gamma", "tol"):
            raise ConfigError(f"predict --what {what} needs --{key}")

    def gamma_value():
        if gamma_opt is not None:
            return gamma_opt
        with _auto_gamma_horizon("pass --gamma instead"):
            return gamma.auto_gamma(_resolve_law(run, law_text)).value

    error = 0.0  # closed forms and exact values carry no truncation error
    law = None if what in ("moment", "qj", "geom") else _resolve_law(run, law_text)
    if what == "moment":
        pred = theory.moment_limit(alpha, gamma_value(),
                                   **({} if tol is None else {"tol": tol}))
        inputs, value, error = pred.inputs, pred.value, pred.truncation_error
    elif what == "qj":
        g = gamma_value()
        inputs, value = {"j": j_idx, "gamma": g}, theory.qj_limit(g, j_idx)
    elif what == "geom":
        g = gamma_value()
        inputs, value = {"u": u, "gamma": g}, theory.geometric_pmf(g, u)
    elif what == "qj-exact":
        theory._check_j(j_idx)  # before the DP, which may take seconds
        ret = gamma.taboo_survival(law, n)
        value = _frac_json(theory.expected_qj_formula(ret, j_idx, n))
        inputs = {"j": j_idx, "n": n}
    elif what == "gf":
        theory._check_j(j_idx)
        theory._check_s(s)
        ret = gamma.taboo_survival(law, big_n)
        pred = theory.qj_generating(ret, j_idx, s, big_n)
        inputs, value, error = pred.inputs, pred.value, pred.truncation_error
    elif what == "green-cross":
        value = theory.green_cross_sum(law, n)
        inputs = {"n": n}
    else:
        value = float(theory.sup_pmf_sequence(law, n)[n])
        inputs = {"m": n}
    _emit(run, "predict", {"what": what, "inputs": inputs, "value": value, "error": error})


@cli.command()
@click.option("--law", "law_text", default=None)
@click.option("--n", type=int, default=None)
@click.option("--alphas", default=None,
              help="Integer powers for exact moments.  [default: 2,3]")
@click.pass_obj
def oracle(run: _Run, law_text, n, alphas):
    """Exact enumeration of all paths at a small horizon."""
    opt = _options(run, {"n": (n, 6, steps.integer),
                         "alphas": (_parse_list(alphas), [2, 3],
                                    steps._list_of(steps.integer))})
    law = _resolve_law(run, law_text)
    n = opt["n"]
    summary = oraclelib.enumerate_paths(law, n, tuple(opt["alphas"]))
    payload = {
        "law": steps.law_to_json(law), "n": n,
        "expected_q": {str(j): _frac_json(v) for j, v in summary.expected_q.items()},
        "expected_l": {str(a): _frac_json(v) for a, v in summary.expected_l.items()},
        "variance_l": {str(a): _frac_json(v) for a, v in summary.variance_l.items()},
        "zn_law": {str(u): _frac_json(p) for u, p in oraclelib.exact_zn_law(summary).items()},
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
    opt = _options(run, {
        "n": (n, None, steps.integer),
        "alphas": (_parse_list(alphas), [0.0, 2.0, 3.0, 0.5], steps._list_of(real)),
        "paths": (paths, 3, steps.integer), "gamma_n": (gamma_n, None, steps.integer),
        "checkpoints": (None, None, steps._list_of(steps.integer))},
        tolerances={"rel_tol": (None, 0.05, real)})
    checkpoints = _checkpoints(opt, 1_000_000)
    seeds = _seeds(run, opt["paths"])
    law = _resolve_law(run, law_text)
    if opt["gamma_n"] is not None:
        gamma_est = gamma.green_at_origin(law, opt["gamma_n"])
    else:
        with _auto_gamma_horizon("set a lower one with --gamma-n"):
            gamma_est = gamma.auto_gamma(law)
    report = harness.run_slln(law, opt["alphas"], checkpoints, seeds,
                              gamma_est=gamma_est, rel_tol=opt["rel_tol"],
                              threads=run.threads)
    _finish_report(run, "verify-slln", report)


@cli.command("verify-geometric")
@click.option("--law", "law_text", default=None)
@click.option("--n", type=int, default=None)
@click.option("--M", "resamples", type=int, default=None)
@click.option("--paths", type=int, default=None)
@click.pass_obj
def verify_geometric(run: _Run, law_text, n, resamples, paths):
    """Check the law of the visit count at a uniform visited site."""
    opt = _options(run, {"n": (n, 100_000, steps.integer),
                         "M": (resamples, 100_000, steps.integer),
                         "paths": (paths, 1, steps.integer)},
                   tolerances={"tv_bar": (None, 0.02, real), "p_floor": (None, 1e-4, real)})
    seeds = _seeds(run, opt["paths"])
    law = _resolve_law(run, law_text)
    with _auto_gamma_horizon("no flag sets it"):
        report = harness.run_geometric(law, opt["n"], opt["M"], seeds,
                                       tv_bar=opt["tv_bar"], p_floor=opt["p_floor"],
                                       threads=run.threads)
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
    opt = _options(run, {"alpha": (alpha, 2, steps.integer),
                         "n_min": (n_min, 1 << 10, steps.integer),
                         "n_max": (n_max, 1 << 16, steps.integer),
                         "M": (replicas, 200, steps.integer)},
                   tolerances={"safety": (None, 10.0, real),
                               "slope_cap": (slope_cap, None, real)})
    law = _resolve_law(run, law_text)
    grid = _doubling("n_min", opt["n_min"], opt["n_max"])
    if len(grid) < 3:
        raise ConfigError(f"'n_min' = {opt['n_min']} and 'n_max' = {opt['n_max']} give "
                          f"the grid {grid}; variance-scan needs >= 3 points, "
                          "so n_max > 2 * n_min")
    report = harness.variance_scan(law, opt["alpha"], grid, opt["M"], run.seed,
                                   safety=opt["safety"], slope_cap=opt["slope_cap"],
                                   threads=run.threads)
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
    diag = gamma.return_tail(law, n, big_n)
    payload = {
        "n": n, "N": big_n, "value": diag.value,
        "eta_hat": diag.eta_hat,
        "infinite_decay": math.isinf(diag.eta_hat),
        "windows": [{"start": s, "slope": sl} for s, sl in diag.windows],
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
