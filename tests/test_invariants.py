import os
import subprocess
import sys
from pathlib import Path

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
        n=5, sites=np.array([[0], [1]]), counts=np.array([2, 1])).check_invariants(),
    "ExactSummary": lambda: wl.ExactSummary(
        n=1, expected_q={1: Fraction(1)}, expected_l={}, variance_l={},
        joint_law={(1, 1): Fraction(1)}, gamma_seq=(Fraction(1),)).check_invariants(),
    "ReturnLaw": lambda: wl.ReturnLaw(
        horizon=2, gamma_seq=(1.0, 0.5, 0.7), exact=False).check_invariants(),
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
                           "GammaEstimate", "Prediction"]
