#!/usr/bin/env python3
"""walklab benchmark: time to verdict of CLI workloads, and per-layer self time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke     # every workload once at tiny sizes
    python3 bench/run.py --record    # rewrite bench/reference.json at seed 0

Run it from anywhere; it finds the package under ``src/`` next to this
directory and runs it as ``python -m walklab.cli`` with ``PYTHONPATH=src``,
one fresh process per command, so import time is part of every number.

``--trace 0`` spawns ``walklab --help`` a few times (set-up), then runs
repetitions of the workload's commands, in order, for about ``--seconds``
seconds (at least two, so output bytes can be compared across them).  It
reports medians of ``wall_s``, ``setup_s``, ``cpu_s`` and ``peak_rss_mb``.

``--trace 1`` runs the same repetitions, then one more in which every
command runs under ``bench/tracer.py`` and reports per-layer self times
and work counts, plus the ``python -X importtime`` breakdown.

Every command's output is checked: its exit code, stdout and stderr
against ``reference.json``, and its bytes across repetitions.  One
command run is one operation; ``fail_frac`` (failed over attempted) is
printed per workload and travels in the result line as ``failed`` and
``attempted``.  The gamma workload's diagonal-law leg fails today as
recorded, so it counts as failed while ``correct`` stays true.  Human-
readable lines come first on stdout; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import (DIAG3_DENSE_GAMMA, GAMMA_SRW3, SIZES, WORKLOADS,
                       Command, commands, working_set)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
REF_SEED = 0
THREADS = 2
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
COMMAND_TIMEOUT_S = 120.0
REL_TOL = 1e-9

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Spans whose summed self time is reported as <name>.self_s.
SELF_TIMED = (
    "cli.main", "steps.sample_indices",
    "path.simulate", "path.simulate_series", "path.l_alpha",
    "path.sample_visited_local_time",
    "gamma.return_sequence", "gamma.green_at_origin", "gamma.taboo_survival",
    "gamma.taboo_gamma_estimate", "gamma.mc_escape",
    "theory.expected_qj_formula", "theory.moment_limit",
    "oracle.enumerate_paths",
    "harness.auto_gamma", "harness.run_slln", "harness.run_geometric",
    "harness.variance_scan", "harness.geometric_chi_square",
    "harness.to_json_bytes",
)
COUNTED = (
    "steps.sample_indices.draws", "path.steps", "path.sites",
    "gamma.taboo_survival.steps", "gamma.mc_escape.replicas",
    "oracle.enumerate_paths.leaves", "harness.report_bytes",
)
IMPORTED = {"cli.import_s": "walklab.cli", "cli.import.scipy_stats_s": "scipy.stats",
            "cli.import.numpy_s": "numpy", "cli.import.click_s": "click"}
PER_LAYER = {
    **{name: "s" for name in IMPORTED},
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{name: "count" for name in COUNTED},
    "path.simulate.calls": "count",
    "gamma.green_at_origin.raised": "count",
    "gamma.mc_escape.worker_cpu_s": "s",
    "gamma.mc_escape.escape_ratio": "ratio",
    "oracle.leaf_us": "us",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    rc: int
    out: bytes
    err: bytes
    wall: float
    cpu: float
    rss_mb: float
    side: bytes = b""


def _env() -> dict:
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def spawn(argv: list[str], side_channel: bool = False) -> Proc:
    """Run argv to completion; time it from spawn to exit and take its rusage.

    With side_channel, the child gets the write end of a pipe as its first
    argument after the program, and what it writes there is returned.
    """
    rfd = wfd = None
    if side_channel:
        rfd, wfd = os.pipe()
        argv = argv[:2] + [str(wfd)] + argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE,
                            pass_fds=(wfd,) if side_channel else ())
    if side_channel:
        os.close(wfd)
    streams = {"out": proc.stdout, "err": proc.stderr}
    if side_channel:
        streams["side"] = os.fdopen(rfd, "rb")
    data: dict[str, bytes] = {}
    readers = [threading.Thread(target=lambda k, f: data.__setitem__(k, f.read()),
                                args=item) for item in streams.items()]
    for reader in readers:
        reader.start()
    killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    for stream in streams.values():
        stream.close()
    return Proc(rc=proc.returncode, out=data["out"], err=data["err"], wall=wall,
                cpu=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0, side=data.get("side", b""))


def cli_argv(cmd: Command, seed: int) -> list[str]:
    return ["--seed", str(seed), "--threads", str(THREADS), *cmd.argv]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def close(ref: float, got: float) -> bool:
    return ref == got or abs(ref - got) <= REL_TOL * max(abs(ref), abs(got))


def mismatches(ref, got, path: str = "$") -> list[str]:
    """Where got misses ref: exact for verdicts, integers and strings (the
    rationals), relative REL_TOL for floats.  Keys absent from ref are
    not compared, so new output fields are not mismatches."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in ref.items():
            if key in got:
                out += mismatches(value, got[key], f"{path}.{key}")
            else:
                out.append(f"{path}.{key}: missing")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        return [m for i, (r, g) in enumerate(zip(ref, got))
                for m in mismatches(r, g, f"{path}[{i}]")]
    if (isinstance(ref, float) and isinstance(got, (int, float))
            and not isinstance(got, bool)):
        return [] if close(ref, float(got)) else [f"{path}: {got!r} != {ref!r}"]
    if type(ref) is type(got) and ref == got:
        return []
    return [f"{path}: {got!r} != {ref!r}"]


OK, DEFECT, WRONG = "ok", "known defect", "wrong"


def check(cmd: Command, proc: Proc, ref: dict, seed: int) -> tuple[str, str]:
    """Judge one command's output against its reference entry.

    DEFECT marks the documented failure of a known-defect command: the
    operation failed, but exactly as recorded.  WRONG is anything else
    that misses the reference.
    """
    if cmd.known_defect:
        if (proc.rc, proc.err.decode(errors="replace"), proc.out) == (
                ref["rc"], ref["stderr"], b""):
            return DEFECT, f"exit {proc.rc}: {ref['stderr'].strip()}"
        if proc.rc == 0:
            try:
                value = json.loads(proc.out)["value"]
            except (ValueError, KeyError, TypeError):
                return WRONG, "unparseable output"
            if isinstance(value, float) and close(DIAG3_DENSE_GAMMA, value):
                return OK, "known defect fixed"
            return WRONG, f"value {value!r} != dense-engine {DIAG3_DENSE_GAMMA!r}"
        return WRONG, f"exit {proc.rc}, stderr {proc.err[-200:]!r}"
    if proc.rc != ref["rc"]:
        return WRONG, f"exit {proc.rc}, expected {ref['rc']}: {proc.err[-200:]!r}"
    if proc.err.decode(errors="replace") != ref["stderr"]:
        return WRONG, f"stderr {proc.err[-200:]!r}"
    try:
        got = json.loads(proc.out)
    except ValueError:
        return WRONG, "stdout is not JSON"
    expected = ref["stdout"]
    if seed != REF_SEED:
        expected = {k: v for k, v in expected.items() if k not in cmd.seeded}
    found = mismatches(expected, got)
    if cmd.mc_band:
        value, error = got.get("value"), got.get("error")
        if not (isinstance(value, float) and isinstance(error, float)
                and abs(value - GAMMA_SRW3) <= 5 * error + 0.01):
            found.append(f"$.value: {value!r} outside the band around {GAMMA_SRW3}")
    if found:
        return WRONG, "; ".join(found[:3])
    return OK, ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)

    def add(self, status: str, what: str) -> None:
        self.attempted += 1
        if status != OK:
            self.failed += 1
        if status == WRONG:
            self.correct = False
        if status != OK and what not in self.problems:
            self.problems.append(what)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup(samples: int, tally: Tally) -> list[float]:
    walls = []
    for _ in range(samples):
        proc = spawn([sys.executable, "-m", "walklab.cli", "--help"])
        if proc.rc != 0 or not proc.out.startswith(b"Usage:"):
            tally.correct = False
            tally.problems.append(f"--help: exit {proc.rc} {proc.err[-200:]!r}")
        walls.append(proc.wall)
    return walls


def run_repetitions(cmds: list[Command], seed: int, seconds: float,
                    min_reps: int = 2) -> list[list[Proc]]:
    """Repetitions of the commands, in order, until about `seconds` passed."""
    reps: list[list[Proc]] = []
    start = time.perf_counter()
    while True:
        reps.append([spawn([sys.executable, "-m", "walklab.cli",
                            *cli_argv(cmd, seed)]) for cmd in cmds])
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed + elapsed / len(reps) / 2 > seconds:
            return reps


def judge(cmds: list[Command], reps: list[list[Proc]], refs: dict, seed: int,
          tally: Tally) -> list[tuple[str, str]]:
    """Check the first repetition against the reference, the rest against it.

    Returns each command's (status, detail) from the first repetition.
    """
    verdicts = []
    for i, cmd in enumerate(cmds):
        first = reps[0][i]
        status, detail = check(cmd, first, refs[cmd.key], seed)
        verdicts.append((status, detail))
        for rep in reps:
            proc = rep[i]
            if (proc.rc, proc.out, proc.err) == (first.rc, first.out, first.err):
                tally.add(status, f"{cmd.key}: {detail}")
            else:
                tally.add(WRONG, f"{cmd.key}: output bytes differ between repetitions")
    return verdicts


def import_times(samples: int) -> dict[str, float]:
    """Median cumulative import time of the CLI and its heavy dependencies."""
    found: dict[str, list[float]] = {name: [] for name in IMPORTED}
    for _ in range(samples):
        proc = spawn([sys.executable, "-X", "importtime", "-c", "import walklab.cli"])
        cumulative = {}
        for line in proc.err.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        for name, module in IMPORTED.items():
            found[name].append(cumulative.get(module, 0.0))
    return {name: statistics.median(v) for name, v in found.items()}


def traced_repetition(cmds: list[Command], seed: int, untraced: list[Proc],
                      verdicts: list[tuple[str, str]], tally: Tally) -> tuple[dict, float]:
    """One repetition under the tracer; returns summed per-layer data and wall."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    raised: dict[str, int] = {}
    wall = 0.0
    for cmd, plain, (status, detail) in zip(cmds, untraced, verdicts):
        proc = spawn([sys.executable, str(BENCH / "tracer.py"), "--",
                      *cli_argv(cmd, seed)], side_channel=True)
        wall += proc.wall
        if (proc.rc, proc.out, proc.err) == (plain.rc, plain.out, plain.err):
            tally.add(status, f"{cmd.key}: {detail}")
        else:
            tally.add(WRONG, f"{cmd.key}: traced output differs from untraced")
        try:
            summary = json.loads(proc.side)
        except ValueError:
            tally.correct = False
            tally.problems.append(f"{cmd.key}: tracer wrote no summary")
            continue
        for target, source in ((self_s, "self_s"), (calls, "calls"),
                               (counts, "counts"), (raised, "raised")):
            for key, value in summary[source].items():
                target[key] = target.get(key, 0) + value
    metrics = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED}
    metrics.update({name: counts.get(name, 0) for name in COUNTED})
    metrics["path.simulate.calls"] = calls.get("path.simulate", 0)
    metrics["gamma.green_at_origin.raised"] = raised.get("gamma.green_at_origin", 0)
    metrics["gamma.mc_escape.worker_cpu_s"] = counts.get("gamma.mc_escape.worker_cpu_s", 0.0)
    replicas = counts.get("gamma.mc_escape.replicas", 0)
    metrics["gamma.mc_escape.escape_ratio"] = (
        counts.get("gamma.mc_escape.escapes", 0) / replicas if replicas else 0.0)
    leaves = counts.get("oracle.enumerate_paths.leaves", 0)
    metrics["oracle.leaf_us"] = (
        1e6 * self_s.get("oracle.enumerate_paths", 0.0) / leaves if leaves else 0.0)
    return metrics, wall


@dataclass
class Result:
    tally: Tally
    samples: dict[str, list[float]]
    end_to_end: dict[str, float]
    per_layer: dict[str, float]


def run_workload(workload: str, seed: int, seconds: float, size: str,
                 setup_samples: int, trace: bool) -> Result:
    refs = json.loads(REFERENCE.read_text())[size][workload]
    cmds = commands(workload, size)
    tally = Tally()
    samples: dict[str, list[float]] = {}
    if setup_samples:
        samples["setup_s"] = measure_setup(setup_samples, tally)
    per_layer = import_times(1 if size == "smoke" else IMPORT_SAMPLES) if trace else {}
    reps = run_repetitions(cmds, seed, seconds)
    verdicts = judge(cmds, reps, refs, seed, tally)
    samples["wall_s"] = [sum(p.wall for p in rep) for rep in reps]
    samples["cpu_s"] = [sum(p.cpu for p in rep) for rep in reps]
    samples["peak_rss_mb"] = [max(p.rss_mb for p in rep) for rep in reps]
    end_to_end = {name: statistics.median(v) for name, v in samples.items()}
    if trace:
        layers, traced_wall = traced_repetition(cmds, seed, reps[0], verdicts, tally)
        per_layer.update(layers)
        per_layer["trace.overhead_s"] = traced_wall - end_to_end["wall_s"]
    return Result(tally, samples, end_to_end, per_layer)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _sysfs_cache(index: int) -> str:
    try:
        return Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").read_text().strip()
    except OSError:
        return "unknown"


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache": _sysfs_cache(2),
        "l3_cache": _sysfs_cache(3),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def tail_percentile(values: list[float]) -> str:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(ordered) * (1 - p / 100) >= 10:
            return f"p{p:g}={ordered[math.ceil(p / 100 * len(ordered)) - 1]:.4f}"
    return "no percentile has 10 samples beyond it"


def report(workload: str, size: str, result: Result) -> None:
    tally = result.tally
    print(f"[{workload}] working set, computed: {json.dumps(working_set(workload, size))}")
    for name, values in result.samples.items():
        print(f"[{workload}] {name:<12} median {statistics.median(values):.4f} "
              f"{END_TO_END[name]}  n={len(values)}  {tail_percentile(values)}")
    print(f"[{workload}] fail_frac    {tally.failed / tally.attempted:.4f} 1  "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"[{workload}] failed: {problem}")
    for name, value in result.per_layer.items():
        print(f"[{workload}] {name:<40} {value:.6g} {PER_LAYER[name]}")


def result_line(result: Result, names: dict[str, str], values: dict) -> str:
    return json.dumps({
        "correct": result.tally.correct,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names.items()},
    })


def record() -> None:
    """Write reference.json from the code as it is now, at REF_SEED."""
    refs: dict = {}
    for size in SIZES:
        refs[size] = {}
        for workload in WORKLOADS:
            refs[size][workload] = {}
            for cmd in commands(workload, size):
                proc = spawn([sys.executable, "-m", "walklab.cli",
                              *cli_argv(cmd, REF_SEED)])
                entry = {"rc": proc.rc, "stderr": proc.err.decode()}
                if proc.rc == 0:
                    entry["stdout"] = json.loads(proc.out)
                refs[size][workload][cmd.key] = entry
                print(f"{size}/{workload}/{cmd.key}: exit {proc.rc} {proc.wall:.2f} s")
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes, traced")
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from the current code")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "walklab" / "cli.py").is_file():
        print(f"error: no walklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    print(f"machine: {json.dumps(machine())}")
    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            result = run_workload(workload, REF_SEED, 0.0, "smoke", 1, True)
            report(workload, "smoke", result)
            ok = ok and result.tally.correct
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, "full",
                          0 if args.trace else SETUP_SAMPLES, bool(args.trace))
    report(args.workload, "full", result)
    if args.trace:
        print(result_line(result, PER_LAYER, result.per_layer))
    else:
        print(result_line(result, END_TO_END, result.end_to_end))
    return 0


if __name__ == "__main__":
    sys.exit(main())
