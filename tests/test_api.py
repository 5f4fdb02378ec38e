import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import walklab

ROOT = Path(__file__).resolve().parent.parent

# Every public name walklab exports, submodules aside.  Adding or deleting
# an export is a deliberate edit of this set.
PUBLIC_NAMES = {
    "BadParam", "CheckpointSeries", "ChiSquareResult", "ConfigError", "ExactSummary",
    "ExperimentReport", "FitResult", "GammaEstimate", "InvariantViolation",
    "LocalTimeField", "PmfField", "Prediction", "QHistogram", "ResourceLimit",
    "ReturnLaw", "StepLaw", "SuspectedRecurrence", "TailDiagnostic", "WalklabError",
    "auto_gamma", "bernoulli", "deterministic", "drifted_srw", "enumerate_paths",
    "exact_return_law", "exact_zn_law", "expected_qj_formula", "fit_exponent",
    "generator", "geometric_chi_square", "geometric_pmf", "green_at_origin",
    "green_cross_sum", "l_alpha", "law_from_json", "law_to_json", "make_law",
    "mc_escape", "mean_and_second_moment", "mix64", "moment_limit", "pmf_evolve",
    "q_histogram", "qj_generating", "qj_limit", "replica_generator", "return_sequence",
    "return_tail", "run_geometric", "run_slln", "sample_visited_local_time", "simulate",
    "simulate_series", "srw", "sup_pmf_sequence", "taboo_gamma_estimate",
    "taboo_survival", "tv_distance", "validate", "variance_envelope", "variance_scan",
}

# Every parameter with a default (plus **kwargs) on the callables that
# walklab exports.  A new knob is a deliberate edit of this set.
OPTION_SURFACE = {
    "ExperimentReport.notes", "GammaEstimate.seed", "ReturnLaw.prune_loss",
    "bernoulli.exact", "deterministic.exact", "drifted_srw.exact",
    "enumerate_paths.alphas", "mc_escape.threads", "moment_limit.tol",
    "run_geometric.tv_bar", "run_geometric.p_floor",
    "run_geometric.threads", "run_slln.gamma_est", "run_slln.rel_tol",
    "run_slln.threads", "srw.exact", "variance_scan.safety",
    "variance_scan.slope_cap", "variance_scan.threads",
}


def _exported_parameters():
    """(callable name, parameter) for every function and class walklab exports."""
    for name in dir(walklab):
        obj = getattr(walklab, name)
        if name.startswith("_") or not callable(obj) or inspect.ismodule(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        for param in inspect.signature(obj).parameters.values():
            yield name, param


def test_public_names_are_pinned():
    exported = {name for name in dir(walklab) if not name.startswith("_")
                and not inspect.ismodule(getattr(walklab, name))}
    assert exported == PUBLIC_NAMES


def test_option_surface_is_pinned():
    surface = {f"{name}.{param.name}" for name, param in _exported_parameters()
               if param.default is not inspect.Parameter.empty
               or param.kind is param.VAR_KEYWORD}
    assert surface == OPTION_SURFACE


def test_no_budget_parameter_is_exported():
    assert not [f"{name}.{param.name}" for name, param in _exported_parameters()
                if "budget" in param.name]


# In a fresh interpreter at the repo root: the README's python quick tour,
# then one golden case through tests/golden/regen.py.  scipy stays
# importable, so a guarded import of it still shows in the module list.
DOCUMENTED_SURFACE = r"""
import importlib.util, json, re, sys, tempfile
from pathlib import Path
readme = Path("README.md").read_text()
tour = re.search(r"```python\n(.*?)```", readme, re.S)  # padded to README line numbers
exec(compile("\n" * readme.count("\n", 0, tour.start(1)) + tour[1], "README.md", "exec"), {})
spec = importlib.util.spec_from_file_location("regen", "tests/golden/regen.py")
regen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(regen)
with tempfile.TemporaryDirectory() as tmp:
    files = regen.run_case(regen.CASES[sys.argv[1]], Path(tmp))
print(json.dumps({"exit_code": files["exit_code"].decode(), "stdout": files["stdout"].decode(),
                  "golden_exit_code": regen.recorded(sys.argv[1])["exit_code"].decode(),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_documented_surface_loads_no_scipy():
    # verify-geometric-fail computes one chi-square p-value per seed, dof > 0
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", DOCUMENTED_SURFACE, "verify-geometric-fail"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout.splitlines()[-1])
    assert child["exit_code"] == child["golden_exit_code"]
    per_seed = json.loads(child["stdout"])["stats"]["per_seed"]
    assert per_seed and all(s["dof"] > 0 and 0.0 < s["pvalue"] < 1.0 for s in per_seed)
    assert child["scipy"] == []


# In a fresh interpreter: what `import walklab`, then the CLI's usage paths,
# then one estimate leave executed.  An engine module registered but not yet
# executed is still importlib.util's lazy module type, not a plain module.
STARTUP = r"""
import contextlib, io, json, sys, types
import walklab

def state():
    return {"numpy": "numpy" in sys.modules,
            "executed": sorted(name for name, m in sys.modules.items()
                               if name.startswith("walklab.") and type(m) is types.ModuleType)}

out = {"import": state()}
import walklab.cli
for key, argv in (("help", ["--help"]), ("unknown", ["no-such-command"]),
                  *((f"{command} --help", [command, "--help"])
                    for command in ("simulate", "estimate-gamma", "predict")),
                  ("green", ["estimate-gamma", "--law", '{"family": "srw", "d": 3}',
                             "--method", "green", "--N", "64"])):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            walklab.cli.main(argv)
        except SystemExit as exc:
            out[key] = {**state(), "exit": exc.code}
star = {}
exec("from walklab import *", star)
out["star"] = sorted(name for name in star if not name.startswith("_"))
try:
    walklab.no_such_name
except AttributeError as exc:
    out["missing"] = str(exc)
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def startup():
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", STARTUP], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_no_numpy(startup):
    assert startup["import"] == {"numpy": False, "executed": ["walklab.errors"]}


@pytest.mark.parametrize("key,code", [("help", 0), ("unknown", 1), ("simulate --help", 0),
                                      ("estimate-gamma --help", 0), ("predict --help", 0)])
def test_usage_loads_no_numpy_and_no_engine(startup, key, code):
    assert startup[key] == {"numpy": False, "executed": ["walklab.cli", "walklab.errors"],
                            "exit": code}


def test_estimate_gamma_leaves_harness_and_theory_unexecuted(startup):
    assert startup["green"]["exit"] == 0 and startup["green"]["numpy"]
    assert "walklab.gamma" in startup["green"]["executed"]
    assert not {"walklab.harness", "walklab.theory"} & set(startup["green"]["executed"])


def test_star_import_binds_every_public_name(startup):
    assert set(startup["star"]) == PUBLIC_NAMES


def test_unknown_name_is_attribute_error(startup):
    assert startup["missing"] == "module 'walklab' has no attribute 'no_such_name'"


def _moment_limit_within(terms: int):
    with mock.patch.object(walklab.theory, "MOMENT_MAX_TERMS", terms):
        return walklab.moment_limit(2.0, 0.5)


# Refusals of out-of-range arguments that no other test reaches: each
# raises its class with its message.
REFUSALS = [
    ("taboo_survival", lambda law: walklab.taboo_survival(law, -1),
     walklab.BadParam, "^horizon must be >= 0, got -1$"),
    ("return_sequence", lambda law: walklab.return_sequence(law, -1),
     walklab.BadParam, "^horizon must be >= 0, got -1$"),
    ("simulate", lambda law: walklab.simulate(law, -1, 0),
     walklab.BadParam, "^horizon must be >= 0, got -1$"),
    ("enumerate_paths", lambda law: walklab.enumerate_paths(law, -1),
     walklab.BadParam, "^horizon must be >= 0, got -1$"),
    ("pmf_evolve", lambda law: walklab.pmf_evolve(law, -1),
     walklab.BadParam, "^horizon must be >= 0, got -1$"),
    ("mc_escape", lambda law: walklab.mc_escape(law, 0, 10, 0),
     walklab.BadParam, "^mc_escape needs n >= 1 and m >= 1$"),
    ("simulate_series", lambda law: walklab.simulate_series(law, [0, 4], [2], 0),
     walklab.BadParam, "^checkpoints must be >= 1$"),
    ("variance_scan", lambda law: walklab.variance_scan(law, 2, [64, 32, 128], 4, 0),
     walklab.BadParam, "^grid must be strictly increasing$"),
    ("return_tail", lambda law: walklab.return_tail(law, 8, 8),
     walklab.BadParam, "^need 0 <= n < N$"),
    ("sup_pmf_sequence", lambda law: walklab.sup_pmf_sequence(law, -1),
     walklab.BadParam, "^horizon must be >= 0, got -1$"),
    ("green_cross_sum", lambda law: walklab.green_cross_sum(law, 0),
     walklab.BadParam, "^n must be >= 1, got 0$"),
    ("law_from_json", lambda law: walklab.law_from_json([]),
     walklab.ConfigError, "^law descriptor must be an object, got list$"),
    ("law_from_json-family", lambda law: walklab.law_from_json({}),
     walklab.ConfigError, "^law descriptor needs a 'family' key$"),
    ("law_from_json-custom", lambda law: walklab.law_from_json({"family": "custom", "d": 1}),
     walklab.ConfigError, "^custom law needs 'd' and 'atoms'$"),
    ("law_from_json-atoms",
     lambda law: walklab.law_from_json({"family": "custom", "d": 1, "atoms": []}),
     walklab.ConfigError, "^'atoms' must be a nonempty list$"),
    ("make_law-dimension", lambda law: walklab.make_law(2, [((1,), 1.0)], False),
     walklab.BadParam, r"^atom \(1,\) has dimension 1, law has d=2$"),
    ("make_law-coordinate", lambda law: walklab.make_law(1, [(((1 << 22) + 1,), 1.0)], False),
     walklab.BadParam, r"^atom coordinate exceeds \|c\| <= 4194304: \(4194305,\)$"),
    ("make_law-d", lambda law: walklab.make_law(0, [], False),
     walklab.BadParam, "^dimension must be >= 1, got 0$"),
    ("make_law-atoms", lambda law: walklab.make_law(1, [], False),
     walklab.BadParam, "^empty atom list$"),
    ("srw", lambda law: walklab.srw(0),
     walklab.BadParam, "^srw and drifted_srw need d >= 1, got 0$"),
    ("law_from_json-d", lambda law: walklab.law_from_json({"family": "srw", "d": 10 ** 30}),
     walklab.BadParam, f"^srw and drifted_srw need d <= {sys.maxsize}, got {10 ** 30}$"),
    ("drifted_srw", lambda law: walklab.drifted_srw(2 ** 63, 0.1),
     walklab.BadParam, f"^srw and drifted_srw need d <= {sys.maxsize}, got {2 ** 63}$"),
    ("enumerate_paths-alphas", lambda law: walklab.enumerate_paths(law, 2, (-1,)),
     walklab.BadParam, "^alphas must be nonnegative integers$"),
    ("sample_visited_local_time",
     lambda law: walklab.sample_visited_local_time(walklab.simulate(law, 4, 0),
                                                   walklab.generator(0), 0),
     walklab.BadParam, "^resample count must be >= 1, got 0$"),
    ("qj_generating", lambda law: walklab.qj_generating(walklab.taboo_survival(law, 4),
                                                        1, 0.5, 5),
     walklab.BadParam, "^ReturnLaw horizon 4 < N=5$"),
    ("moment_limit", lambda law: _moment_limit_within(3),
     walklab.BadParam, "^moment_limit did not converge within 3 terms$"),
    ("_refuse_recurrent", lambda law: walklab.green_at_origin(walklab.srw(2), 64),
     walklab.SuspectedRecurrence, r"^the law is recurrent \(d = 2 <= 2 and mean zero; "
                                  r"Chung & Fuchs 1951\): gamma = 0 and Green's series "
                                  "diverges$"),
    # +2 or -1, each with mass 1/2: returns only at multiples of 3
    ("_fitted_tail-window", lambda law: walklab.taboo_gamma_estimate(
        walklab.make_law(1, [((2,), 0.5), ((-1,), 0.5)], False), 4),
     walklab.BadParam, r"^no nonzero P\(S_m=0\) in the tail-fit window m = 4\.\.4; the law is "
                       "transient, so the horizon N = 4 is too short for the tail fit: "
                       "raise --N$"),
    ("tv_distance", lambda law: walklab.tv_distance({}, 0.5),
     walklab.BadParam, "^empty law$"),
    ("geometric_chi_square", lambda law: walklab.geometric_chi_square({}, 0.5),
     walklab.BadParam, "^need at least one observation$"),
    ("run_slln", lambda law: walklab.run_slln(law, [2], [8], []),
     walklab.BadParam, "^run_slln needs at least one seed$"),
    ("run_geometric", lambda law: walklab.run_geometric(law, 8, 4, []),
     walklab.BadParam, "^run_geometric needs at least one seed$"),
]


@pytest.mark.parametrize("call,error,message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusal_census(bern07_exact, call, error, message):
    with pytest.raises(error, match=message) as caught:
        call(bern07_exact)
    assert type(caught.value) is error
