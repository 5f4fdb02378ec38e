"""CLI outputs against the golden files of tests/golden (see regen.py there)."""

import importlib.util
import json
from pathlib import Path

import pytest

from report_compare import assert_close

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

SAME_BUILD = json.loads((regen.HERE / "fingerprint.json").read_text()) == regen.fingerprint()


def _cell(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parsed(data: bytes):
    """JSON as parsed; any other text as lines of comma-separated cells."""
    text = data.decode()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]


@pytest.mark.parametrize("case", sorted(regen.CASES))
def test_cli_output_matches_golden(case, tmp_path):
    got = regen.run_case(regen.CASES[case], tmp_path)
    want = regen.recorded(case)
    assert sorted(got) == sorted(want)
    for name in want:
        if SAME_BUILD or name in ("exit_code", "stderr"):
            assert got[name] == want[name], f"{case}/{name}"
        else:
            assert_close(_parsed(got[name]), _parsed(want[name]), f"{case}/{name}")
