import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import walklab

# Builds one broken instance of each checked type and reports which raised
# InvariantViolation; run under -O, where assert statements are stripped.
CODE = """
import sys
from fractions import Fraction
import numpy as np
import walklab as wl

cases = {
    "LocalTimeField": lambda: wl.LocalTimeField(
        n=5, counts=np.array([2, 1])).check_invariants(),
    "ExactSummary": lambda: wl.ExactSummary(
        n=1, expected_q={1: Fraction(1)}, expected_l={}, variance_l={},
        joint_law={(1, 1): Fraction(1)}, gamma_seq=(Fraction(1),)).check_invariants(),
    "ReturnLaw": lambda: wl.ReturnLaw(
        horizon=2, gamma_seq=(1.0, 0.5, 0.7), exact=False, denom=1).check_invariants(),
    # bernoulli(7/10)'s gamma(2) = 29/50 is not a multiple of 1/5**2
    "ReturnLaw.denom": lambda: wl.ReturnLaw(
        horizon=2, gamma_seq=(Fraction(1), Fraction(1), Fraction(29, 50)), exact=True,
        denom=5).check_invariants(),
    "GammaEstimate": lambda: wl.GammaEstimate(
        value=1.5, error=0.1, method="m", params={}),
    "Prediction": lambda: wl.Prediction(
        kind="k", inputs={}, value=-1.0, truncation_error=0.0),
}
caught = []
for name, broken in cases.items():
    try:
        broken()
    except wl.InvariantViolation:
        caught.append(name)
print(sys.flags.optimize, *caught)
"""


def test_invariants_hold_under_python_O():
    src = str(Path(walklab.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", CODE],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["1", "LocalTimeField", "ExactSummary", "ReturnLaw",
                           "ReturnLaw.denom", "GammaEstimate", "Prediction"]


@pytest.mark.parametrize("cls,build", [
    ("ReturnLaw", lambda law: walklab.taboo_survival(law, 4)),
    ("ReturnLaw", lambda law: walklab.exact_return_law(law, 4)),
    ("ExactSummary", lambda law: walklab.enumerate_paths(law, 4)),
], ids=["taboo_survival", "exact_return_law", "enumerate_paths"])
def test_builders_run_the_invariants(monkeypatch, bern07_exact, cls, build):
    # the CLI's ReturnLaw and ExactSummary builders check what they return
    def broken(self, *args):
        raise walklab.InvariantViolation(f"{cls} checked")
    monkeypatch.setattr(getattr(walklab, cls), "check_invariants", broken)
    with pytest.raises(walklab.InvariantViolation, match=f"{cls} checked"):
        build(bern07_exact)


def test_package_has_no_assert():
    # python -O strips assert statements, so no invariant may rest on one
    package = Path(walklab.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
