"""Positions-based reference for the path kernel.

This is the straightforward construction that walklab.path avoids for
speed: it materialises S_0..S_n as an (n+1, d) array, packs rows into
mixed-radix keys, and orders equal keys by time with a stable argsort.
The tests compare the package against it byte for byte.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from walklab import rng as rnglib
from walklab.errors import ResourceLimit
from walklab.path import _running_l
from walklab.steps import StepLaw, _sampling_arrays, sample_indices


def positions(law: StepLaw, n: int, seed: int) -> np.ndarray:
    """S_0..S_n as an (n+1, d) int64 array, from the simulate sample stream."""
    coords, _ = _sampling_arrays(law)
    out = np.zeros((n + 1, law.d), dtype=np.int64)
    if n > 0:
        idx = sample_indices(law, rnglib.generator(seed), n)
        np.cumsum(coords[idx], axis=0, out=out[1:])
    return out


def pack_rows(points: np.ndarray) -> np.ndarray:
    """Mixed-radix encode integer rows into one int64 key per row."""
    lo = points.min(axis=0)
    spans = points.max(axis=0) - lo + 1
    total_bits = int(np.sum(np.ceil(np.log2(spans.astype(float) + 1))))
    if total_bits > 62:
        raise ResourceLimit("coordinate ranges too wide to pack into 64-bit keys")
    keys = np.zeros(len(points), dtype=np.int64)
    for j in range(points.shape[1]):
        keys *= int(spans[j])
        keys += points[:, j] - lo[j]
    return keys


def field(law: StepLaw, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(sites, counts) of one path: first occurrence of each packed key."""
    pos = positions(law, n, seed)
    _, first, counts = np.unique(pack_rows(pos), return_index=True,
                                 return_counts=True)
    return pos[first], counts


def occurrence_numbers(keys: np.ndarray) -> np.ndarray:
    """k[t] = how many times keys[t] has appeared among keys[0..t]."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new_group = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    starts = np.flatnonzero(new_group)
    sizes = np.diff(np.r_[starts, len(keys)])
    ranks = np.arange(len(keys)) - np.repeat(starts, sizes)
    k = np.empty(len(keys), dtype=np.int64)
    k[order] = ranks + 1
    return k


def series(keys: np.ndarray, checkpoints: Sequence[int],
           alphas: Sequence[float]) -> tuple[tuple, tuple]:
    """(l_table, ranges) as CheckpointSeries lays them out, from path keys."""
    k = occurrence_numbers(keys)
    idx = np.asarray(checkpoints)
    running_range = np.cumsum(k == 1)
    ranges = tuple(int(v) for v in running_range[idx])
    l_rows = []
    for a in alphas:
        running = (running_range if a == 0 else _running_l(k, a))[idx]
        l_rows.append(tuple(
            int(v) if float(a).is_integer() else float(v) for v in running))
    l_table = tuple(tuple(row[i] for row in l_rows)
                    for i in range(len(checkpoints)))
    return l_table, ranges
