"""The benchmark's workloads: which walklab CLI commands each one runs.

Every command gets the workload seed through ``--seed`` and runs with
``--threads 2``.  Two size sets exist: ``full`` for measured runs and
``smoke``, a seconds-long version of the same commands that keeps the
benchmark's own tests honest.  The diagonal-law leg of ``gamma`` keeps
N=128 in both, because that is where its known defect shows.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

SRW3 = json.dumps({"family": "srw", "d": 3})
SRW5 = json.dumps({"family": "srw", "d": 5})
BERNOULLI = json.dumps({"family": "bernoulli", "p": "7/10"})
DIAG3 = json.dumps({"family": "custom", "d": 3, "atoms": [
    {"x": list(v), "p": "1/8"} for v in itertools.product((1, -1), repeat=3)]})

# Escape probability of srw(3) (Watson's integral), the centre of the
# sanity band for Monte Carlo estimates at seeds without a recorded output.
GAMMA_SRW3 = 0.659462670
# green_at_origin(DIAG3, 128, engine="dense") at the seed commit: what the
# diagonal-law leg must print once its known defect is fixed.
DIAG3_DENSE_GAMMA = 0.7178443702912127

SIZES = {
    "full": {"slln_n": 10_000_000, "geom_n": 1_000_000, "geom_m": 100_000,
             "var_n_min": 1 << 10, "var_n_max": 1 << 16, "var_m": 200,
             "green_n": 512, "dp_n": 192, "mc_n": 4096, "mc_m": 10_000,
             "oracle_n": 17, "qj_n": 300},
    "smoke": {"slln_n": 50_000, "geom_n": 20_000, "geom_m": 2_000,
              "var_n_min": 1 << 8, "var_n_max": 1 << 11, "var_m": 40,
              "green_n": 64, "dp_n": 24, "mc_n": 256, "mc_m": 400,
              "oracle_n": 8, "qj_n": 40},
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    ``seeded`` names the top-level output keys that change with --seed;
    they are compared with the reference only at the reference seed.
    Every other key is compared at every seed.
    """

    key: str
    argv: tuple[str, ...]
    seeded: tuple[str, ...] = ()
    known_defect: bool = False
    mc_band: bool = False


def commands(workload: str, size: str) -> list[Command]:
    """The commands of one workload, in run order."""
    s = SIZES[size]
    report_seeded = ("seeds", "records", "checks", "stats")
    table = {
        "verify": [
            Command("verify-slln", (
                "verify-slln", "--law", SRW3, "--n", str(s["slln_n"]),
                "--paths", "1"), seeded=report_seeded),
            Command("verify-geometric", (
                "verify-geometric", "--law", SRW3, "--n", str(s["geom_n"]),
                "--M", str(s["geom_m"])),
                seeded=report_seeded),
        ],
        "variance": [
            Command("variance-scan", (
                "variance-scan", "--law", SRW5, "--alpha", "2",
                "--slope-cap", "1.15", "--n-min", str(s["var_n_min"]),
                "--n-max", str(s["var_n_max"]), "--M", str(s["var_m"])),
                seeded=report_seeded),
        ],
        "gamma": [
            Command("green", ("estimate-gamma", "--law", SRW3, "--method",
                              "green", "--N", str(s["green_n"]))),
            Command("dp", ("estimate-gamma", "--law", SRW3, "--method", "dp",
                           "--N", str(s["dp_n"]))),
            Command("mc", ("estimate-gamma", "--law", SRW3, "--method", "mc",
                           "--n", str(s["mc_n"]), "--M", str(s["mc_m"])),
                    seeded=("value", "error", "seed"), mc_band=True),
            Command("green-diag3", ("estimate-gamma", "--law", DIAG3,
                                    "--method", "green", "--N", "128"),
                    known_defect=True),
        ],
        "exact": [
            Command("oracle", ("oracle", "--law", BERNOULLI, "--n",
                               str(s["oracle_n"]), "--alphas", "2,3")),
            Command("qj-exact", ("predict", "--what", "qj-exact", "--law",
                                 BERNOULLI, "--n", str(s["qj_n"]), "--j", "3")),
        ],
    }
    return table[workload]


WORKLOADS = ("verify", "variance", "gamma", "exact")


def working_set(workload: str, size: str) -> dict[str, int]:
    """Computed (not measured) sizes of each workload's largest arrays, in bytes."""
    s = SIZES[size]
    if workload == "verify":
        return {"positions_per_slln_path": (s["slln_n"] + 1) * 3 * 8,
                "positions_per_geometric_path": (s["geom_n"] + 1) * 3 * 8}
    if workload == "variance":
        return {"positions_per_largest_replica": (s["var_n_max"] + 1) * 5 * 8,
                "positions_per_smallest_replica": (s["var_n_min"] + 1) * 5 * 8}
    if workload == "gamma":
        # Unpruned box bound of the dense DP; the Fourier grid follows the
        # sizing rule in gamma._fourier_return_sequence (complex128, two arrays).
        k = math.ceil(5 * 2 * math.sqrt(128) + 8)
        return {"dense_dp_box_bound": (2 * s["dp_n"] + 1) ** 3 * 8,
                "fourier_grid_diag3": 2 * k ** 3 * 16,
                "mc_block": 2048 * 3 * 8}
    return {"oracle_paths": 2 ** s["oracle_n"],
            "oracle_recursion_depth": s["oracle_n"]}
