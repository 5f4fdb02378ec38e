"""README figures that restate a pinned quantity agree with the pin.

A figure that README gives as a limit must equal the test's pin; one it
gives as a measurement ("about") must lie within the pin.  Sentences
wrap across lines, so the text is read with its whitespace collapsed.
"""

import re
from pathlib import Path

from test_bench_pins import PEAK_MB
from test_evolver import TABOO_PEAK_MIB
from test_oracle import ONE_ATOM_PEAK_BYTES
from test_path import FIELD_PEAK_BYTES, RANKED_PEAK_BYTES, SERIES_PEAK_BYTES

README = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())


def test_leg_peak_limits_are_the_pins():
    # a leg's limit stated in MB ("the `dp` leg may peak at 51 MB") is its pin
    stated = re.findall(r"`([a-z0-9-]+)`(?: leg)?(?: may peak)? at (\d+) MB", README)
    assert {leg: int(mb) for leg, mb in stated} == {leg: PEAK_MB[leg] for leg, _ in stated}
    # and the legs README says PEAK_MB caps are the pinned ones
    [legs] = re.findall(r"`PEAK_MB` caps the peak RSS of the (.*?) legs", README)
    assert set(re.findall(r"`([a-z0-9-]+)`", legs)) == set(PEAK_MB)


def test_measured_peaks_within_the_pins():
    [slln] = re.findall(r"`verify-slln --n 10000000 --paths 1` on srw\(3\) peaks at "
                        r"about (\d+) MB of RSS", README)
    assert int(slln) <= PEAK_MB["verify-slln"]
    [(dp, limit)] = re.findall(r"peaks at about ([\d.]+) MiB of traced allocations, "
                               r"under the (\d+) MiB that `tests/test_evolver.py` allows it",
                               README)
    assert float(dp) <= int(limit) == TABOO_PEAK_MIB


# Each bytes-per-step figure README states, as a measurement, and its pin.
BYTES_PER_STEP = {
    r"That path is held whole, at about (\d+) bytes per step": ONE_ATOM_PEAK_BYTES,
    r"A checkpoint series costs about (\d+) bytes per step": SERIES_PEAK_BYTES,
    r"one int64 run end per visited site, about (\d+) bytes per step": FIELD_PEAK_BYTES,
    r"about (\d+) bytes per step for a series and \d+ for a field": RANKED_PEAK_BYTES,
    r"about \d+ bytes per step for a series and (\d+) for a field": RANKED_PEAK_BYTES,
}


def test_bytes_per_step_within_the_pins():
    for pattern, pin in BYTES_PER_STEP.items():
        [figure] = re.findall(pattern, README)
        assert int(figure) <= pin, pattern
    # and README states no bytes-per-step figure beyond these
    assert README.count("bytes per step") == 4
