"""Transient lattice random walks: local times and their limit laws.

The package simulates finite-support random walks on Z^d, computes
local-time functionals (range, power sums, visit-multiplicity counts),
estimates the escape probability by three independent methods, evaluates
the closed-form limit predictions, and cross-checks everything against an
exhaustive small-horizon oracle.

Importing walklab loads no numpy.  The engine modules (gamma, harness,
oracle, path, rng, steps, theory) are registered in sys.modules through
importlib.util.LazyLoader, so each one executes on its first attribute
access, and the public names they define (walklab.srw, walklab.run_slln,
...) are looked up by the module __getattr__ when first read.  Only the
exception classes of walklab.errors are bound at import.

Importing walklab sets OPENBLAS_NUM_THREADS to "1" in os.environ unless it
is already set.  That holds for the whole process, not only for walklab: a
host application that imports walklab before numpy gets single-threaded
OpenBLAS, and so do the child processes it starts.
"""

import importlib.util
import os
import sys

# One OpenBLAS thread unless the user set a count.  This must run before any
# submodule imports numpy, whose OpenBLAS starts a worker thread per extra
# CPU as it loads.  The idle worker cost CPU: `import numpy` took 0.17 s of
# CPU with it and 0.10 s without (medians of 9, 2-vCPU x86-64 Xeon,
# OpenBLAS 0.3.31).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    BadParam,
    ConfigError,
    InvariantViolation,
    ResourceLimit,
    SuspectedRecurrence,
    WalklabError,
)

# Engine module -> the public names walklab re-exports from it.
_EXPORTS = {
    "gamma": ("GammaEstimate", "PmfField", "ReturnLaw", "TailDiagnostic", "auto_gamma",
              "green_at_origin", "mc_escape", "pmf_evolve", "return_sequence",
              "return_tail", "taboo_gamma_estimate", "taboo_survival"),
    "harness": ("ChiSquareResult", "ExperimentReport", "FitResult", "fit_exponent",
                "geometric_chi_square", "run_geometric", "run_slln", "tv_distance",
                "variance_envelope", "variance_scan"),
    "oracle": ("ExactSummary", "enumerate_paths", "exact_return_law", "exact_zn_law"),
    "path": ("CheckpointSeries", "LocalTimeField", "QHistogram", "l_alpha", "q_histogram",
             "sample_visited_local_time", "simulate", "simulate_series"),
    "rng": ("generator", "mix64", "replica_generator"),
    "steps": ("StepLaw", "bernoulli", "deterministic", "drifted_srw", "law_from_json",
              "law_to_json", "make_law", "mean_and_second_moment", "srw", "validate"),
    "theory": ("Prediction", "expected_qj_formula", "geometric_pmf", "green_cross_sum",
               "moment_limit", "qj_generating", "qj_limit", "sup_pmf_sequence"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["BadParam", "ConfigError", "InvariantViolation", "ResourceLimit",
                  "SuspectedRecurrence", "WalklabError", *_HOME])


def _register_lazy(name: str):
    """walklab.<name> in sys.modules, executed on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _module in _EXPORTS:
    globals()[_module] = _register_lazy(_module)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_HOME[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
