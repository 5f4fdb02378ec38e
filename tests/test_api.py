import inspect

import walklab

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
