"""Every bench command at bench size against bench/reference.json.

The commands are bench/workloads.py's own, so the tests run what the
benchmark runs.  Each runs once, with --seed 0 and --threads 2 (mc also
with --threads 1), and the tests check its stdout and its peak RSS.
Nothing under bench/ is written.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import gamma_reference
from report_compare import assert_close

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclass() looks the module up in sys.modules
    sys.modules[spec.name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text())["full"]

# Reports holding float sums over numpy ufunc outputs, and verify-geometric's
# chi-square p-value, which the reference recorded with scipy's chdtrc:
# their floats match to 1e-12 relative, all else exactly.
CLOSE = {"variance-scan", "verify-geometric", "verify-slln"}
# Peak RSS limits, MB.  The dp leg stores only the parity classes mass
# lands in, one buffer each, stepped in place (about 45 MB; two buffer
# sets took 51-56 MB, the whole box 98 MB), and heap layout alone moves
# one command's peak by up to about 6 MB.  The green-diag3 leg copies each
# step's classes for the next cross-sum (about 39.5 MB) and the mc leg
# peaks at 35-39 MB, so neither may pass the dp leg as the gamma
# workload's peak.  The path kernel
# holds about 9 bytes per step of the 1e7-step path, the int64 keys and
# one narrow array (about 127 MB in all; a second full-length 8-byte
# buffer would pass 160 MB).  simulate sorts its keys in place: the
# verify-geometric leg peaks at about 54 MB, and a sorted copy of its
# keys, as np.unique makes, would pass 62 MB.  The oracle leg enumerates
# its 2^17 paths in reused blocks of 2^14 positions and peaks about 1 MB
# above the 31 MB that importing walklab.cli takes.
PEAK_MB = {"dp": 51, "green-diag3": 46, "mc": 45, "verify-slln": 160,
           "verify-geometric": 62, "oracle": 36}

CASES = [(w, c, 2) for w in workloads.WORKLOADS for c in workloads.commands(w, "full")]
CASES += [(w, c, 1) for w, c, _ in CASES if c.key == "mc"]


# A child's ru_maxrss starts at its parent's peak RSS, because exec keeps
# the old address space's high-water mark, and this test process's peak
# can be far above the limits.  So each command runs as the child of a
# small launcher, which takes its rusage with os.wait4 and appends the
# peak, in KB, as the last line of stderr.
LAUNCHER = """\
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(child.returncode)
"""


class Run(NamedTuple):
    returncode: int
    stdout: bytes
    stderr: bytes
    peak_mb: float


def _run(argv, threads):
    cmd = [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "walklab.cli",
           "--seed", "0", "--threads", str(threads), *argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    launched = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT)
    stderr, _, peak_kb = launched.stderr.rstrip(b"\n").rpartition(b"\n")
    return Run(launched.returncode, launched.stdout, stderr, int(peak_kb) / 1024)


@pytest.fixture(scope="module")
def run():
    """run(command, threads=2): the command's Run, made once per module."""
    done = {}

    def run(command, threads=2):
        if (command, threads) not in done:
            done[command, threads] = _run(command.argv, threads)
        return done[command, threads]
    return run


@pytest.mark.parametrize("workload,command,threads", CASES,
                         ids=[f"{c.key}-threads{t}" for _, c, t in CASES])
def test_command_matches_reference(run, workload, command, threads):
    result = run(command, threads)
    assert result.returncode == 0, result.stderr.decode()
    report = json.loads(result.stdout)
    if command.key == "green-diag3":
        # its reference entry records the SuspectedRecurrence exit of older
        # code, with no stdout
        assert report["value"] == workloads.DIAG3_DENSE_GAMMA
    elif command.key in CLOSE:
        assert_close(report, REFERENCE[workload][command.key]["stdout"], command.key)
    else:
        assert report == REFERENCE[workload][command.key]["stdout"]
    assert result.peak_mb <= PEAK_MB.get(command.key, math.inf)


# The bench's Green and DP legs on laws whose gamma is known
TRUE_GAMMA = {workloads.SRW3: gamma_reference.KNOWN["srw3"].gamma,
              workloads.DIAG3: gamma_reference.KNOWN["diag3"].gamma}
GAMMA_LEGS = [c for c in workloads.commands("gamma", "full")
              if c.argv[c.argv.index("--method") + 1] != "mc"]


@pytest.mark.parametrize("command", GAMMA_LEGS, ids=[c.key for c in GAMMA_LEGS])
def test_gamma_leg_error_covers_true_gamma(run, command):
    report = json.loads(run(command).stdout)
    gamma = TRUE_GAMMA[command.argv[command.argv.index("--law") + 1]]
    assert gamma_reference.covers(report["value"], report["error"], gamma), report
