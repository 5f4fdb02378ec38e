"""Deterministic random-number plumbing.

All stochastic code in the package draws from numpy PCG64 generators that
are seeded either directly or through :func:`mix64`, so a (seed, task)
pair maps to one bit-reproducible stream on every platform.  Replica
loops run through :func:`replica_map`, so their results do not depend on
the number of worker processes.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

import numpy as np

from .errors import BadParam

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(seed: int, index: int) -> int:
    """Derive an independent 64-bit stream seed from (master seed, index).

    SplitMix64 finalizer applied to ``seed + (index + 1) * GOLDEN``; the
    finalizer has full avalanche, so consecutive indices give statistically
    independent seeds.  Replica i of any parallel computation uses
    ``mix64(master_seed, i)``, which makes results independent of worker
    scheduling.
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def generator(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def replica_generator(master_seed: int, index: int) -> np.random.Generator:
    """Generator for replica ``index`` of a run with the given master seed."""
    return generator(mix64(master_seed, index))


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise BadParam(f"threads must be >= 1, got {threads}")


def replica_blocks(m: int, threads: int) -> list[tuple[int, int]]:
    """range(m) cut at np.linspace(0, m, parts + 1) into nonempty [lo, hi) blocks.

    parts = min(threads, m), so there are never more blocks than replicas.
    """
    _check_threads(threads)
    bounds = np.linspace(0, m, min(threads, m) + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def replica_map(fn: Callable, tasks: Iterable, threads: int) -> list:
    """[fn(task) for task in tasks], on at most threads worker processes.

    Runs inline for threads == 1 or fewer than two tasks; otherwise on a
    process pool of the platform's default start method, one task per
    dispatch.  The pool has min(threads, len(tasks), CPUs) workers, so a
    large threads never forks more processes than there are CPUs.
    Results come back in task order, so a caller whose tasks are pure
    functions of their arguments (replica seeds from mix64) gets the same
    results for every threads.  fn and the tasks must be picklable, with
    fn defined at module top level, so spawn works too.
    """
    _check_threads(threads)
    tasks = list(tasks)
    if threads == 1 or len(tasks) < 2:
        return [fn(task) for task in tasks]
    from multiprocessing import Pool
    with Pool(min(threads, len(tasks), _cpus())) as pool:
        return pool.map(fn, tasks, chunksize=1)
