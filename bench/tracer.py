"""Run one walklab CLI command in this process with spans around its layers.

Usage: python3 bench/tracer.py FD -- [CLI ARGS...]

The command runs through ``walklab.cli.main`` exactly as ``python -m
walklab.cli`` would run it, with the same stdout, stderr and exit code.
Before it starts, each public function in ``TRACED`` is replaced, under
every ``walklab.*`` module name that binds it, by a wrapper that records
a span (name, start, end, parent).  Calls between layers therefore nest:
``harness.run_slln`` -> ``path.simulate_series`` -> ``steps.sample_indices``.
A layer's self time is its span's duration minus the time its direct
children cover.  On exit the per-layer totals are written as one JSON
object to the inherited file descriptor FD.  Nothing in the package is
edited; spans inside the layers need instrumentation in the package itself.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time

TRACED = {
    "cli": ("main",),
    "steps": ("sample_indices",),
    "path": ("simulate", "simulate_series", "l_alpha",
             "sample_visited_local_time"),
    "gamma": ("return_sequence", "green_at_origin", "taboo_survival",
              "taboo_gamma_estimate", "mc_escape"),
    "theory": ("expected_qj_formula", "moment_limit"),
    "oracle": ("enumerate_paths",),
    "harness": ("auto_gamma", "run_slln", "run_geometric", "variance_scan",
                "geometric_chi_square"),
}

# Work counts taken at the same boundaries: span name -> f(arguments, result).
COUNTERS = {
    "steps.sample_indices": lambda a, r: {"steps.sample_indices.draws": int(a["size"])},
    "path.simulate": lambda a, r: {"path.steps": int(a["n"]), "path.sites": r.range},
    "path.simulate_series": lambda a, r: {"path.steps": int(r.checkpoints[-1]),
                                          "path.sites": int(r.ranges[-1])},
    "gamma.taboo_survival": lambda a, r: {"gamma.taboo_survival.steps": int(a["n"])},
    "gamma.mc_escape": lambda a, r: {"gamma.mc_escape.replicas": int(a["m"]),
                                     "gamma.mc_escape.escapes": round(r.value * int(a["m"]))},
    "oracle.enumerate_paths": lambda a, r: {
        "oracle.enumerate_paths.leaves": len(a["law"].atoms) ** int(a["n"])},
    "harness.to_json_bytes": lambda a, r: {"harness.report_bytes": len(r)},
}

# Spans whose CPU time in reaped child processes is recorded (worker pools).
CHILD_CPU = {"gamma.mc_escape": "gamma.mc_escape.worker_cpu_s"}


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Recorder:
    """Spans of one process, kept in memory until it exits."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.raised: dict[str, int] = {}

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)
        child_cpu = CHILD_CPU.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, 0.0, 0.0, parent]
            self.spans.append(span)
            self.stack.append(idx)
            cpu0 = _children_cpu() if child_cpu else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = time.perf_counter()
                self.raised[name] = self.raised.get(name, 0) + 1
                raise
            else:
                span[2] = time.perf_counter()
            finally:
                self.stack.pop()
            if child_cpu:
                self._add({child_cpu: _children_cpu() - cpu0})
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._add(counter(bound.arguments, result))
            return result

        return traced

    def _add(self, counts: dict) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def summary(self) -> dict:
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
            calls[name] = calls.get(name, 0) + 1
        return {"self_s": self_s, "calls": calls, "counts": self.counts,
                "raised": self.raised}


def install(recorder: Recorder) -> None:
    """Swap each traced function for its wrapper in every walklab module."""
    import walklab.cli  # noqa: F401  (imports every layer)
    from walklab.harness import ExperimentReport

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "walklab" or n.startswith("walklab."))]
    for short, names in TRACED.items():
        home = sys.modules[f"walklab.{short}"]
        for fname in names:
            original = getattr(home, fname)
            wrapper = recorder.wrap(f"{short}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
    ExperimentReport.to_json_bytes = recorder.wrap(
        "harness.to_json_bytes", ExperimentReport.to_json_bytes)


def main() -> None:
    fd = int(sys.argv[1])
    if sys.argv[2] != "--":
        raise SystemExit("usage: tracer.py FD -- [CLI ARGS...]")
    recorder = Recorder()
    install(recorder)
    import walklab.cli

    code = 0
    try:
        walklab.cli.main(sys.argv[3:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        with os.fdopen(fd, "w") as side:
            json.dump(recorder.summary(), side)
    sys.exit(code)


if __name__ == "__main__":
    main()
