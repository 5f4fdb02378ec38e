"""Golden CLI outputs: exit code, stdout, stderr and --out files of a fixed
set of walklab invocations at test sizes.

    PYTHONPATH=src python tests/golden/regen.py

reruns every case in CASES and rewrites tests/golden/<case>/ together with
fingerprint.json (numpy version and machine of the recording).

    PYTHONPATH=src python tests/golden/regen.py --check CASE...

reruns the named cases and writes nothing: it exits 1 and names each
case file, exit_code, stdout or stderr, that differs from the recorded
one.  A refusal's output is its stderr, so stderr is compared byte for
byte, as tests/test_golden.py compares it.

tests/test_golden.py reruns the same cases and compares them with these
files: byte for byte where the fingerprint matches, else through parsed
JSON and CSV, with floats to a relative 1e-12 and everything else exact.

A change that moves report bytes on purpose reruns this script and says
so; the diff of the golden files shows what moved.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

SRW3 = '{"family": "srw", "d": 3}'
SRW1 = '{"family": "srw", "d": 1}'
SRW2 = '{"family": "srw", "d": 2}'
BERN = '{"family": "bernoulli", "p": 0.7}'
BERN_EXACT = '{"family": "bernoulli", "p": "7/10"}'
DET = '{"family": "deterministic", "d": 1, "v": [1]}'
# the eight diagonal steps (+-1, +-1, +-1): not axis-decomposable, so its
# return probabilities come from the half-horizon box DP
DIAG3 = json.dumps({"family": "custom", "d": 3, "atoms": [
    {"x": [a, b, c], "p": "1/8"} for a in (1, -1) for b in (1, -1) for c in (1, -1)]})

# case name -> CLI arguments; "{out}" stands for a fresh --out directory.
CASES = {
    "simulate-json": ["--seed", "1", "--out", "{out}", "simulate", "--law", SRW3,
                      "--n", "3000", "--alphas", "0,1,2,0.5"],
    "simulate-csv": ["--seed", "2", "--format", "csv", "simulate", "--law", BERN,
                     "--n", "100", "--checkpoints", "10,50,100", "--alphas", "1,2.5"],
    "estimate-gamma-green": ["estimate-gamma", "--law", SRW3, "--method", "green",
                             "--N", "256"],
    "estimate-gamma-green-auto": ["estimate-gamma", "--law", BERN, "--method", "green"],
    "estimate-gamma-dp": ["estimate-gamma", "--law", BERN, "--method", "dp",
                          "--N", "200"],
    "estimate-gamma-dp-srw3": ["estimate-gamma", "--law", SRW3, "--method", "dp",
                               "--N", "40"],
    "estimate-gamma-green-diag3": ["estimate-gamma", "--law", DIAG3, "--method", "green",
                                   "--N", "32"],
    "estimate-gamma-mc": ["--seed", "5", "estimate-gamma", "--law", SRW3,
                          "--method", "mc", "--n", "200", "--M", "500"],
    "estimate-gamma-recurrent": ["estimate-gamma", "--law", SRW1, "--method", "green",
                                 "--N", "1024"],
    "estimate-gamma-dp-recurrent": ["estimate-gamma", "--law", SRW2, "--method", "dp",
                                    "--N", "64"],
    "predict-moment": ["predict", "--what", "moment", "--law", SRW3, "--alpha", "2"],
    "predict-qj": ["predict", "--what", "qj", "--gamma", "0.4", "--j", "2"],
    "predict-geom": ["predict", "--what", "geom", "--law", BERN, "--u", "3"],
    "predict-qj-exact": ["predict", "--what", "qj-exact", "--law", BERN_EXACT,
                         "--j", "2", "--n", "20"],
    "predict-gf": ["predict", "--what", "gf", "--law", BERN, "--j", "1",
                   "--s", "0.5", "--N", "100"],
    "predict-green-cross": ["predict", "--what", "green-cross", "--law", BERN_EXACT,
                            "--n", "10"],
    "predict-sup-pmf": ["predict", "--what", "sup-pmf", "--law", SRW3, "--n", "12"],
    "predict-sup-pmf-diag3": ["predict", "--what", "sup-pmf", "--law", DIAG3,
                              "--n", "12"],
    "predict-missing-flag": ["predict", "--what", "qj", "--gamma", "0.4"],
    "oracle": ["oracle", "--law", BERN_EXACT, "--n", "6", "--alphas", "1,2,3"],
    "return-tail": ["return-tail", "--law", BERN, "--n", "16", "--N", "512"],
    "verify-slln": ["--seed", "3", "--out", "{out}", "verify-slln", "--law", SRW3,
                    "--n", "20000", "--paths", "2"],
    "verify-geometric": ["--seed", "2", "verify-geometric", "--law", DET,
                         "--n", "64", "--M", "500"],
    "verify-geometric-fail": ["--seed", "7", "--out", "{out}", "verify-geometric",
                              "--law", SRW3, "--n", "20000", "--M", "2000",
                              "--paths", "2"],
    "variance-scan": ["--seed", "4", "--format", "csv", "--out", "{out}",
                      "variance-scan", "--law", SRW3, "--n-min", "64",
                      "--n-max", "512", "--M", "20", "--slope-cap", "1.5"],
}


def fingerprint() -> dict:
    """What float bytes depend on besides the code: numpy build and CPU."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def run_case(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Run one invocation in-process; its outputs as file name -> bytes.

    The names are exit_code, stdout, stderr and out/<file> for every file
    the command wrote under --out.
    """
    from walklab.cli import main

    out_dir = workdir / "out"
    argv = [str(out_dir) if a == "{out}" else a for a in argv]
    streams = [io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
               for _ in range(2)]
    with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
        try:
            main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    for s in streams:
        s.flush()
    files = {"exit_code": f"{code}\n".encode(),
             "stdout": streams[0].buffer.getvalue(),
             "stderr": streams[1].buffer.getvalue()}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            files[f"out/{path.name}"] = path.read_bytes()
    return files


def recorded(case: str) -> dict[str, bytes]:
    """The golden files of one case, in run_case's naming."""
    root = HERE / case
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def check(cases: list[str]) -> int:
    """1 if some case's exit code, stdout or stderr differs from its golden
    files, each such file named on stderr, else 0."""
    bad = []
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(CASES[case], Path(tmp))
        want = recorded(case)
        bad += [f"{case}/{name}" for name in ("exit_code", "stdout", "stderr")
                if got[name] != want[name]]
    for name in bad:
        print(f"{name} differs from tests/golden", file=sys.stderr)
    return 1 if bad else 0


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Rewrite tests/golden, or check cases against it.")
    parser.add_argument("--check", nargs="+", choices=sorted(CASES), metavar="CASE",
                        help="rerun these cases and compare their exit code, stdout "
                        "and stderr")
    args = parser.parse_args()
    if args.check:
        sys.exit(check(args.check))
    for case, argv in CASES.items():
        target = HERE / case
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(argv, Path(tmp))
        shutil.rmtree(target, ignore_errors=True)
        for name, data in files.items():
            path = target / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        print(f"{case}: exit {files['exit_code'].decode().strip()}, "
              f"{len(files)} files", file=sys.stderr)
    (HERE / "fingerprint.json").write_text(
        json.dumps(fingerprint(), sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    main()
