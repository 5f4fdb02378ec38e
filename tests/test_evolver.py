"""The parity-class box DP against the whole-box evolver it replaced.

Every comparison is equality: floats bit for bit, Fractions exactly, and
the keys of a pmf in the same (lexicographic) order.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import evolver_reference as ref
import walklab as wl
from test_gamma import diag3, long2
from walklab.gamma import DenseEvolver, _dense_return_sequence, _evolution


def lazy_srw2():
    return wl.make_law(2, [((0, 0), 0.2), ((1, 0), 0.2), ((-1, 0), 0.2),
                           ((0, 1), 0.2), ((0, -1), 0.2)], False)


def drift2(exact=False):
    """Every atom moves the first coordinate forward, so the box moves:
    its lowest first coordinate rises by one each step."""
    masses = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)) if exact else (0.5, 0.25, 0.25)
    return wl.make_law(2, list(zip([(1, 0), (1, 1), (2, -1)], masses)), exact)


# law, horizon, number of stored classes from step 2 on; each float
# horizon runs several trims that prune cells
LAWS = {
    "srw1": (lambda: wl.srw(1), 200, 1),
    "srw2": (lambda: wl.srw(2), 96, 2),
    "srw3": (lambda: wl.srw(3), 64, 4),
    "diag3": (diag3, 48, 1),
    "bernoulli": (lambda: wl.bernoulli(0.7), 200, 1),
    "bernoulli-exact": (lambda: wl.bernoulli("7/10", exact=True), 60, 1),
    "lazy-srw2": (lazy_srw2, 96, 4),
    "drifted-srw2": (lambda: wl.drifted_srw(2, 0.3), 96, 2),
    "long2": (long2, 24, 4),
    "drift2": (drift2, 96, 4),
    "drift2-exact": (lambda: drift2(True), 40, 4),
}
NAMES = sorted(LAWS)


@pytest.mark.parametrize("name", NAMES)
def test_stored_classes(name):
    """A class is stored once mass lands in it, over every box point of
    its residue: srw(3) at step 1 stores the three classes of +-e_j, and
    lazy srw(2) and long2 all four classes of Z^2 from step 2 on.  No
    trim runs before step 8, so the pmf's support is the mass's."""
    make, _, count = LAWS[name]
    law = make()
    ev = DenseEvolver(law)
    for m in range(1, 7):
        ev.step()
        residues = {tuple(c % 2 for c in x) for x in ref.pmf_masses(law, m)}
        assert set(ev.classes) == residues
        if m >= 2:
            assert len(residues) == count
        for r, arr in ev.classes.items():
            assert arr.shape == tuple(sum(x % 2 == c for x in range(l, l + n))
                                      for c, l, n in zip(r, ev.lo, ev.shape))


@pytest.mark.parametrize("name", NAMES)
def test_taboo_survival_and_prune_loss(name):
    make, n, _ = LAWS[name]
    law = make()
    seq, pruned = ref.taboo_survival(law, n)
    got = wl.taboo_survival(law, n)
    assert got.gamma_seq == seq
    assert got.prune_loss == pruned
    if not law.exact:
        assert pruned > 0


@pytest.mark.parametrize("name", NAMES)
def test_pmf_masses_in_key_order(name):
    make, n, _ = LAWS[name]
    law = make()
    for m in sorted({0, 1, 7, 8, 9, n // 2, n}):
        want = ref.pmf_masses(law, m)
        got = wl.pmf_evolve(law, m).masses
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("name", NAMES)
def test_sup_pmf_sequence(name):
    make, n, _ = LAWS[name]
    law = make()
    assert np.array_equal(wl.sup_pmf_sequence(law, n), ref.sup_pmf_sequence(law, n))


@pytest.mark.parametrize("name", NAMES)
def test_dense_return_sequence(name):
    make, n, _ = LAWS[name]
    law = make()
    assert np.array_equal(_dense_return_sequence(law, 2 * n),
                          ref._dense_return_sequence(law, 2 * n))


@pytest.mark.parametrize("name", NAMES)
def test_blocked_adds(name, monkeypatch):
    """A step fills each target buffer _DP_BLOCK cells at a time; 97-cell
    blocks cut the terms of every law at many places, and no bit moves.
    One-cell blocks leave the in-place step no slack: each block is
    written max|D| + 1 cells behind the read front, the least lag at
    which no block overwrites a source cell that it or a later block
    still reads.  They cost one Python-level pass per cell, so they run
    a third of the horizon."""
    make, horizon, _ = LAWS[name]
    law = make()
    for block, n in ((97, horizon // 2), (1, horizon // 6)):
        monkeypatch.setattr(wl.gamma, "_DP_BLOCK", block)
        assert wl.taboo_survival(law, n).gamma_seq == ref.taboo_survival(law, n)[0]
        assert list(wl.pmf_evolve(law, n).masses.items()) == list(ref.pmf_masses(law, n).items())
        assert np.array_equal(_dense_return_sequence(law, n), ref._dense_return_sequence(law, n))


@pytest.mark.parametrize("name", NAMES)
def test_box_is_the_whole_box(name):
    """The box's lo and shape are the whole box's; each stored class is
    the whole box's stride-2 slice at its residue, and every slice of a
    class not stored is zero."""
    make, n, _ = LAWS[name]
    law = make()
    for ev, want in zip(_evolution(law, n // 2), ref._evolution(law, n // 2)):
        assert np.array_equal(ev.lo, want.lo)
        assert ev.shape == want.arr.shape
        for r, _, view in want.classes():
            if r in ev.classes:
                arr = ev.classes[r]
                assert arr.dtype == view.dtype and np.array_equal(arr, view)
            else:
                assert not view.any()


@pytest.mark.parametrize("name", NAMES)
def test_budget_refusal_step_and_message(name, monkeypatch):
    make, n, _ = LAWS[name]
    law = make()
    *_, ev = ref._evolution(law, n)
    monkeypatch.setattr(wl.gamma, "CELL_BUDGET", ev.arr.size * 4 // 5)
    with pytest.raises(wl.ResourceLimit) as want:
        ref.pmf_masses(law, n)
    with pytest.raises(wl.ResourceLimit) as got:
        wl.pmf_evolve(law, n)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith(" cells; lower the horizon (--N, --n or --gamma-n)")


def test_return_sequence_holds_only_the_stored_classes():
    """The cross-sums of diag3, an eighth of whose box is stored, peak at
    about 5.4 MiB on the classes alone (7.3 MiB with a second buffer set
    for the targets); rebuilding the whole box each step took about
    40 MiB."""
    law = diag3()
    tracemalloc.start()
    try:
        _dense_return_sequence(law, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * 2 ** 20


# Traced MiB that the bench's DP leg may allocate at its peak (README quotes it).
TABOO_PEAK_MIB = 14


def test_taboo_survival_peak_memory():
    """The bench's DP leg: one buffer per stored class of srw(3), four of
    frame + lag cells, and a fifth while a reframe moves them, about
    12.9 MiB.  Two frame-sized buffer sets, sources and targets, took
    about 19.4 MiB."""
    law = wl.srw(3)
    tracemalloc.start()
    try:
        wl.taboo_survival(law, 192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= TABOO_PEAK_MIB * 2 ** 20


def test_product_buffers_per_class_slot():
    """drifted_srw(3, 0.5) has three distinct weights, so each stored
    class needs two product buffers.  Its walk is periodic: the four
    classes it stores are four residues at odd steps and four others at
    even ones.  One set of products per class slot peaks at about
    9.9 MiB; a set per residue seen peaked at about 16.4 MiB."""
    law = wl.drifted_srw(3, 0.5)
    tracemalloc.start()
    try:
        wl.taboo_survival(law, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2 ** 20


@pytest.mark.parametrize("name", NAMES)
def test_frames_cover_the_boxes_within_budget(name, monkeypatch):
    """Under the lowered budget of the refusal test, each frame starts at
    the hull of the boxes from its step to its last one and covers it with
    at most one lattice point to spare per axis; the hull holds at most
    CELL_BUDGET cells, unless the frame spans one step of a box that
    drifts (the union of two boxes, neither over the budget).  Some frame
    must have its lookahead cut, or the budget would go untested."""
    make, n, _ = LAWS[name]
    law = make()
    *_, want = ref._evolution(law, n)
    monkeypatch.setattr(wl.gamma, "CELL_BUDGET", want.arr.size * 4 // 5)
    frames = []
    reframe = DenseEvolver._reframe

    def record(ev):
        reframe(ev)
        frames.append((ev.m, ev.frame_end, ev.lo, ev.shape, ev.frame_lo, ev.frame_shape))
    monkeypatch.setattr(DenseEvolver, "_reframe", record)
    with pytest.raises(wl.ResourceLimit):
        wl.pmf_evolve(law, n)
    offsets = np.array([p for p, _ in law.atoms])
    mins, maxs = offsets.min(axis=0), offsets.max(axis=0)
    drifts = bool(((mins > 0) | (maxs < 0)).any())
    cut = False
    for m, end, lo, shape, frame_lo, frame_shape in frames:
        ahead = end - m
        cut |= ahead < DenseEvolver.TRIM_EVERY - m % DenseEvolver.TRIM_EVERY
        boxes = [(np.add(lo, i * mins), np.add(shape, i * (maxs - mins)))
                 for i in range(ahead + 1)]
        low = np.min([b for b, _ in boxes], axis=0)
        extent = np.max([b + s for b, s in boxes], axis=0) - low
        assert np.array_equal(frame_lo, low)
        assert set((2 * np.array(frame_shape) - extent).tolist()) <= {0, 1}
        assert np.prod(extent) <= wl.gamma.CELL_BUDGET or (ahead == 1 and drifts)
    assert cut
