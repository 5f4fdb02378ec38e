"""Transient lattice random walks: local times and their limit laws.

The package simulates finite-support random walks on Z^d, computes
local-time functionals (range, power sums, visit-multiplicity counts),
estimates the escape probability by three independent methods, evaluates
the closed-form limit predictions, and cross-checks everything against an
exhaustive small-horizon oracle.

Importing walklab sets OPENBLAS_NUM_THREADS to "1" in os.environ unless it
is already set.  That holds for the whole process, not only for walklab: a
host application that imports walklab before numpy gets single-threaded
OpenBLAS, and so do the child processes it starts.
"""

import os

# One OpenBLAS thread unless the user set a count.  This must run before any
# submodule imports numpy, whose OpenBLAS starts a worker thread per extra
# CPU as it loads.  The idle worker cost CPU: `import numpy` took 0.17 s of
# CPU with it and 0.10 s without (medians of 9, 2-vCPU x86-64 Xeon,
# OpenBLAS 0.3.31).  It also split every dot of more than 10 000 terms
# (theory.py's np.dot sums at large n), so those sums, and the report bytes
# built from them, depended on the number of CPUs.  And with one thread the
# --threads pool forks from a single-threaded process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    BadParam,
    ConfigError,
    InvariantViolation,
    ResourceLimit,
    SuspectedRecurrence,
    WalklabError,
)
from .gamma import (
    GammaEstimate,
    PmfField,
    ReturnLaw,
    TailDiagnostic,
    auto_gamma,
    green_at_origin,
    mc_escape,
    pmf_evolve,
    return_sequence,
    return_tail,
    taboo_gamma_estimate,
    taboo_survival,
)
from .harness import (
    ChiSquareResult,
    ExperimentReport,
    FitResult,
    fit_exponent,
    geometric_chi_square,
    run_geometric,
    run_slln,
    tv_distance,
    variance_envelope,
    variance_scan,
)
from .oracle import ExactSummary, enumerate_paths, exact_return_law, exact_zn_law
from .path import (
    CheckpointSeries,
    LocalTimeField,
    QHistogram,
    l_alpha,
    q_histogram,
    sample_visited_local_time,
    simulate,
    simulate_series,
)
from .rng import generator, mix64, replica_generator
from .steps import (
    StepLaw,
    bernoulli,
    deterministic,
    drifted_srw,
    law_from_json,
    law_to_json,
    make_law,
    mean_and_second_moment,
    srw,
    validate,
)
from .theory import (
    Prediction,
    expected_qj_formula,
    geometric_pmf,
    green_cross_sum,
    moment_limit,
    qj_generating,
    qj_limit,
    sup_pmf_sequence,
)

__version__ = "0.1.0"
