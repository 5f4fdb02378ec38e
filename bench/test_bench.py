"""Tests of the benchmark itself, on the smoke sizes.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import DIAG3_DENSE_GAMMA, WORKLOADS, commands

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFS = json.loads(run.REFERENCE.read_text())
COUNTS = run.COUNTED + ("path.simulate.calls", "gamma.green_at_origin.raised")


@pytest.fixture(scope="module")
def smoke():
    return {w: run.run_workload(w, run.REF_SEED, 0.0, "smoke", 1, True)
            for w in WORKLOADS}


def test_smoke_outputs_match_the_reference(smoke):
    for workload, result in smoke.items():
        assert result.tally.correct, (workload, result.tally.problems)
    for workload in ("verify", "variance", "exact"):
        assert smoke[workload].tally.failed == 0
    # The diagonal-law leg is one of the four gamma commands.
    gamma = smoke["gamma"].tally
    assert gamma.failed * 4 == gamma.attempted
    assert smoke["gamma"].per_layer["gamma.green_at_origin.raised"] == 1


def test_every_declared_metric_is_emitted(smoke):
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    for result in smoke.values():
        assert set(result.end_to_end) == set(end_to_end)
        assert set(result.per_layer) == set(per_layer)
        assert all(v > 0 for v in result.end_to_end.values())


def test_layers_show_up_where_they_run(smoke):
    layers = {w: r.per_layer for w, r in smoke.items()}
    for w in ("verify", "variance"):
        assert layers[w]["path.steps"] == layers[w]["steps.sample_indices.draws"] > 0
        assert layers[w]["harness.report_bytes"] > 0
    for w in ("gamma", "exact"):
        assert layers[w]["path.steps"] == layers[w]["steps.sample_indices.draws"] == 0
    assert layers["variance"]["path.simulate.calls"] == 4 * 40
    assert layers["gamma"]["gamma.mc_escape.replicas"] == 400
    assert 0 < layers["gamma"]["gamma.mc_escape.escape_ratio"] < 1
    assert layers["exact"]["oracle.enumerate_paths.leaves"] == 2 ** 8
    assert layers["exact"]["oracle.leaf_us"] > 0
    assert layers["exact"]["gamma.taboo_survival.steps"] == 40
    assert layers["gamma"]["gamma.taboo_survival.steps"] == 24
    for w in ("verify", "variance", "exact"):
        assert layers[w]["gamma.mc_escape.replicas"] == 0
    for w, values in layers.items():
        assert values["cli.import_s"] >= values["cli.import.scipy_stats_s"] > 0, w


def test_counts_repeat_between_traced_runs(smoke):
    for workload in WORKLOADS:
        cmds = commands(workload, "smoke")
        tally = run.Tally()
        reps = run.run_repetitions(cmds, run.REF_SEED, 0.0, min_reps=1)
        verdicts = run.judge(cmds, reps, REFS["smoke"][workload], run.REF_SEED, tally)
        layers, _ = run.traced_repetition(cmds, run.REF_SEED, reps[0], verdicts, tally)
        assert tally.correct, tally.problems
        for name in COUNTS:
            assert layers[name] == smoke[workload].per_layer[name], (workload, name)


def test_mismatches_applies_the_tolerance_rule():
    assert run.mismatches({"x": 0.5}, {"x": 0.5 * (1 + 1e-12)}) == []
    assert run.mismatches({"x": 0.5}, {"x": 0.5 * (1 + 1e-7)})
    assert run.mismatches({"n": 3}, {"n": 3.0})
    assert run.mismatches({"verdict": True}, {"verdict": 1})
    assert run.mismatches({"r": "7/10"}, {"r": "7/11"})
    assert run.mismatches({"l": [1, 2]}, {"l": [1]})
    assert run.mismatches({"a": 1}, {"a": 1, "added": 2}) == []
    assert run.mismatches({"a": 1}, {}) == ["$.a: missing"]


def _proc(rc: int, out: bytes = b"", err: bytes = b"") -> run.Proc:
    return run.Proc(rc=rc, out=out, err=err, wall=1.0, cpu=1.0, rss_mb=1.0)


def test_check_separates_the_known_defect_from_wrong_output():
    gamma = {c.key: c for c in commands("gamma", "smoke")}
    refs = REFS["smoke"]["gamma"]
    diag, diag_ref = gamma["green-diag3"], refs["green-diag3"]
    assert diag_ref["rc"] == 1
    recorded = _proc(1, err=diag_ref["stderr"].encode())
    assert run.check(diag, recorded, diag_ref, 0)[0] == run.DEFECT
    fixed = _proc(0, json.dumps({"value": DIAG3_DENSE_GAMMA}).encode())
    assert run.check(diag, fixed, diag_ref, 0)[0] == run.OK
    off = _proc(0, json.dumps({"value": 0.9}).encode())
    assert run.check(diag, off, diag_ref, 0)[0] == run.WRONG
    green, green_ref = gamma["green"], refs["green"]
    good = _proc(0, json.dumps(green_ref["stdout"]).encode())
    assert run.check(green, good, green_ref, 5)[0] == run.OK
    assert run.check(green, _proc(2, good.out), green_ref, 0)[0] == run.WRONG
    changed = dict(green_ref["stdout"], value=green_ref["stdout"]["value"] * 1.001)
    assert run.check(green, _proc(0, json.dumps(changed).encode()), green_ref, 0)[0] == run.WRONG


def test_judge_flags_bytes_that_differ_between_repetitions():
    cmd = commands("gamma", "smoke")[0]
    ref = REFS["smoke"]["gamma"][cmd.key]
    body = json.dumps(ref["stdout"]).encode()
    tally = run.Tally()
    run.judge([cmd], [[_proc(0, body)], [_proc(0, body + b" ")]], {cmd.key: ref}, 0, tally)
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
