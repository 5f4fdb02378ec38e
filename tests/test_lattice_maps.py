"""Lattice-map relations: every engine against itself on a mapped law.

An integer map A with det A != 0 sends a law's atoms a to A a, so the
mapped walk is A S_m, and A x = 0 only at x = 0.  Every visit count,
L_n(alpha), R(n), Q_j(n) and gamma is therefore the same for both laws
(metamorphic testing: Chen, Cheung & Yiu, HKUST-CS98-01, 1998).  A
lower-triangular A with a positive diagonal also keeps the lexicographic
order of sites, which make_law sorts the atoms by: atom i maps to atom
i, the same seed draws the same walk, and sites keep their order.  So
the relations below are equalities, with no tolerance, except for float
return probabilities, which the mapped laws may sum in another order.  A
signed permutation P of the axes reorders the atoms, so it is applied
only to the engines that draw nothing.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import walklab as wl
from walklab import path
from walklab.gamma import MC_BLOCK, _axis_decomposition, _mc_lanes
from walklab.steps import _sampling_arrays

SHEAR = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
# a signed permutation of the axes per dimension
SIGNED_PERMUTATION = {2: np.array([[0, 1], [-1, 0]]),
                      3: np.array([[0, -1, 0], [0, 0, 1], [1, 0, 0]])}
# units in the last place a mapped law's return probability may move by:
# the box DP sums its cross terms over other boxes, and P folds an axis
# law's lines in another order (at most 5 ulps here)
RETURN_ULPS = 8


def _maps(d: int) -> dict[str, np.ndarray]:
    """The identity, the shear S, 2I and 3S, cut to d dimensions."""
    s = SHEAR[:d, :d]
    eye = np.eye(d, dtype=np.int64)
    return {"I": eye, "S": s, "2I": 2 * eye, "3S": 3 * s}


def mapped(law, a: np.ndarray):
    """The law of A S_1: atom p moved to A p, with its mass."""
    return wl.make_law(law.d, [(tuple(int(c) for c in a @ np.array(p)), m)
                               for p, m in law.atoms], law.exact)


LAWS = {
    "srw3": wl.srw(3),
    "drifted3": wl.drifted_srw(3, 0.1),
    "diag3": wl.make_law(3, [(v, 0.125) for v in itertools.product((1, -1), repeat=3)],
                         False),
    "long-atoms": wl.make_law(2, [((3, 0), 0.3), ((0, 3), 0.3), ((-1, -1), 0.4)], False),
}
AXIS_LAWS = ["srw3", "drifted3"]


def _family(name: str, permuted: bool = False) -> dict[str, object]:
    """The law under each map of _maps, and under P if permuted."""
    law = LAWS[name]
    maps = _maps(law.d) | ({"P": SIGNED_PERMUTATION[law.d]} if permuted else {})
    return {m: mapped(law, a) for m, a in maps.items()}


@pytest.mark.parametrize("name", LAWS)
def test_maps_keep_atom_order(name):
    law = LAWS[name]
    for a in _maps(law.d).values():
        image = mapped(law, a)
        assert [p for p, _ in image.atoms] == [
            tuple(int(c) for c in a @ np.array(p)) for p, _ in law.atoms]
        assert [m for _, m in image.atoms] == [m for _, m in law.atoms]


@pytest.mark.parametrize("name", LAWS)
def test_paths_equal(name, monkeypatch):
    """simulate's counts and simulate_series's records, with the key route
    each series took: at 2^17 or 2^18 steps the scaled maps move every
    3-D series here from the lane pass to the fold, so both routes are
    compared."""
    lane_keys, lanes = path._lane_keys, []

    def spy(*args):
        lanes.append(lane_keys(*args))
        return lanes[-1]
    monkeypatch.setattr(path, "_lane_keys", spy)
    family = _family(name).values()
    counts = [wl.simulate(law, 2 ** 16, seed=7).counts.tolist() for law in family]
    assert all(c == counts[0] for c in counts)
    crossed = False
    for n in (2 ** 17, 2 ** 18):
        records, routes = [], []
        for law in family:
            lanes.clear()
            records.append(wl.simulate_series(law, [1000, n // 3, n], [0.0, 2.0, 3.0, 0.5],
                                              seed=7).records())
            routes.append("lane" if lanes == [True] else "fold")
        assert all(r == records[0] for r in records)
        crossed |= routes[0] == "lane" and "fold" in routes
    assert crossed or LAWS[name].d == 2


# two blocks, so the escape bound is read once on every lane layout
MC_STEPS = MC_BLOCK + 64


def _assert_mc_equal(family: dict) -> None:
    values = {m: wl.mc_escape(law, MC_STEPS, 1000, seed=7).value for m, law in family.items()}
    assert len(set(values.values())) == 1, values


@pytest.mark.parametrize("name", LAWS)
def test_mc_escape_equal(name):
    _assert_mc_equal(_family(name))


def test_mc_escape_equal_across_lane_counts():
    # 300 srw(3) packs its three axes into one lane, and under 2I and 3S
    # into two, so a return must be read from every lane
    law = mapped(wl.srw(3), 300 * np.eye(3, dtype=np.int64))
    family = {m: mapped(law, a) for m, a in _maps(3).items()}
    lanes = {m: len(_mc_lanes(_sampling_arrays(image)[0], MC_STEPS))
             for m, image in family.items()}
    assert lanes == {"I": 1, "S": 1, "2I": 2, "3S": 2}
    _assert_mc_equal(family)


@pytest.mark.parametrize("name", LAWS)
def test_taboo_survival_bitwise(name):
    seqs = {m: wl.taboo_survival(law, 24).gamma_seq
            for m, law in _family(name, permuted=True).items()}
    assert len(set(seqs.values())) == 1, seqs


@pytest.mark.parametrize("name", LAWS)
def test_return_sequence_within_ulps(name):
    # an axis law takes the axis fold under every map, the others the
    # half-horizon box DP, whose boxes the maps reshape
    seqs = {m: wl.return_sequence(law, 64) for m, law in _family(name, permuted=True).items()}
    want = seqs["I"]
    for m, got in seqs.items():
        ulps = np.abs(got - want) / np.spacing(np.maximum(got, want))
        assert ulps.max() <= RETURN_ULPS, (m, ulps.max())


def test_exact_engines_equal():
    # exact srw(3): the oracle's Fractions and the exact taboo DP, under P too
    law = wl.srw(3, exact=True)
    summaries, seqs = set(), set()
    for a in [*_maps(3).values(), SIGNED_PERMUTATION[3]]:
        image = mapped(law, a)
        s = wl.enumerate_paths(image, 5, (2, 3))
        summaries.add((tuple(s.expected_q.items()), tuple(s.expected_l.items()),
                       tuple(s.variance_l.items()), tuple(s.joint_law.items()), s.gamma_seq))
        seqs.add(wl.taboo_survival(image, 16).gamma_seq)
    assert len(summaries) == 1 and len(seqs) == 1


@pytest.mark.parametrize("name", AXIS_LAWS)
def test_auto_gamma_bitwise(name):
    # the mapped laws are axis laws in another basis, so they take the
    # axis fold at the same horizon and fold their lines in the same order
    estimates = {m: wl.auto_gamma(law) for m, law in _family(name).items()}
    assert all(_axis_decomposition(law) is not None for law in _family(name).values())
    assert len({(e.value, e.error, e.params["N"]) for e in estimates.values()}) == 1


def test_non_axis_laws_stay_dense():
    # diag3 has four lines in Z^3, the long-atom law three in Z^2
    for name in ("diag3", "long-atoms"):
        assert all(_axis_decomposition(law) is None for law in _family(name).values())


@pytest.mark.parametrize("k", [2, 3])
def test_scaled_law_runs_as_its_gcd_reduction(k):
    # k diag3 has gcd k on every axis, so the deterministic engines run on
    # diag3 itself: the same box, the same sums, bit for bit.  Unreduced,
    # the box DP would keep a box about k^3 times larger (3 diag3 passes
    # CELL_BUDGET at N = 128) and sum in another order
    law, image = LAWS["diag3"], mapped(LAWS["diag3"], k * np.eye(3, dtype=np.int64))
    assert wl.return_sequence(image, 128).tobytes() == wl.return_sequence(law, 128).tobytes()
    assert wl.taboo_survival(image, 64) == wl.taboo_survival(law, 64)


def test_auto_gamma_of_scaled_dense_law_bitwise():
    # unreduced, 2 diag3's box would pass CELL_BUDGET at auto_gamma's horizon
    law = LAWS["diag3"]
    want, got = wl.auto_gamma(law), wl.auto_gamma(mapped(law, 2 * np.eye(3, dtype=np.int64)))
    assert (got.value, got.error, got.params) == (want.value, want.error, want.params)
