"""walklab runs numpy's OpenBLAS on one thread unless the user sets a count.

The package sets OPENBLAS_NUM_THREADS before numpy loads, so each check
runs in a fresh interpreter whose environment lacks the variable (this
process already holds walklab's default, and a child would inherit it).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import walklab

SRC = str(Path(walklab.__file__).resolve().parent.parent)
SRW3 = '{"family": "srw", "d": 3}'


def _env(threads: str | None) -> dict:
    """This environment with OPENBLAS_NUM_THREADS removed, or set to threads."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def _python(args: list[str], threads: str | None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_env(threads), check=True,
                          capture_output=True, text=True)


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):   # numpy < 1.26 has no mode="dicts"
        return ""


def test_green_cross_bytes_do_not_depend_on_blas_threads():
    # green_cross_sum(srw(3), 6000) is one np.dot of 11 999 terms, which a
    # multi-threaded OpenBLAS splits across its threads: with one worker
    # per CPU it printed 58.3023757956094 on two CPUs and
    # 58.30237579560939 on one
    argv = ["-m", "walklab.cli", "predict", "--what", "green-cross", "--law", SRW3,
            "--n", "6000"]
    assert _python(argv, None).stdout == _python(argv, "1").stdout


@pytest.mark.skipif(not (sys.platform.startswith("linux") and "openblas" in _blas_name()),
                    reason="counts threads in /proc/self/task, with OpenBLAS")
def test_import_starts_no_blas_thread():
    code = "import os, walklab; print(len(os.listdir('/proc/self/task')))"
    assert _python(["-c", code], None).stdout.strip() == "1"


def test_user_blas_thread_count_is_kept():
    code = "import os, walklab; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(["-c", code], "2").stdout.strip() == "2"


def test_pool_forks_from_a_single_threaded_process():
    # Python 3.12 warns (DeprecationWarning) when fork() runs in a process
    # with more than one thread, and an OpenBLAS worker counts; earlier
    # versions never warn, so there this only runs the pool
    argv = ["-W", "default::DeprecationWarning", "-m", "walklab.cli", "--threads", "2",
            "estimate-gamma", "--law", SRW3, "--method", "mc", "--n", "256", "--M", "400"]
    assert "multi-threaded" not in _python(argv, None).stderr
