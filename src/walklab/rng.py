"""Deterministic random-number plumbing.

All stochastic code in the package draws from numpy PCG64 generators that
are seeded either directly or through :func:`mix64`, so a (seed, task)
pair maps to one bit-reproducible stream on every platform.  Replica
loops run through :func:`replica_map`, so their results do not depend on
the number of worker processes.

A single generator is seeded by numpy, through a SeedSequence.  A block of
replica generators (_replica_generators) gets the same streams without a
SeedSequence each: the mix64 seeds and numpy's SeedSequence hash of each
into PCG64's four state words are computed for many replicas in one
vectorised uint64/uint32 pass, and each PCG64 reads its precomputed words.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import BadParam

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
# the two multipliers of the SplitMix64 finalizer in mix64
_MIX64_M1, _MIX64_M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hash (O'Neill's seed_seq_fe, numpy/random/bit_generator.pyx):
# the multipliers of the entropy hash (A), the state-word hash (B) and the
# pool mix (L, R)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Replicas whose state words _replica_generators computes in one pass.  The
# pass holds about 100 bytes per replica (1e6 replicas at once peaked at
# 103 MB), and on a 2-vCPU Xeon the words of 10 000 replicas took 2.7 ms
# in passes of 1024, against 0.7 ms in one pass and 60 ms in passes of 32.
_SEED_PASS = 1024


def mix64(seed: int, index: int) -> int:
    """Derive an independent 64-bit stream seed from (master seed, index).

    SplitMix64 finalizer applied to ``seed + (index + 1) * GOLDEN``; the
    finalizer has full avalanche, so consecutive indices give statistically
    independent seeds.  Replica i of any parallel computation uses
    ``mix64(master_seed, i)``, which makes results independent of worker
    scheduling.
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX64_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX64_M2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def generator(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def replica_generator(master_seed: int, index: int) -> np.random.Generator:
    """Generator for replica ``index`` of a run with the given master seed."""
    return generator(mix64(master_seed, index))


def _mix64_block(seed: int, lo: int, hi: int) -> np.ndarray:
    """[mix64(seed, i) for i in range(lo, hi)] as one uint64 array."""
    z = (np.arange(lo + 1, hi + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
         + np.uint64(seed & _MASK64))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX64_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX64_M2)
    return z ^ (z >> np.uint64(31))


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """Row k: SeedSequence(seeds[k]).generate_state(4, np.uint64).

    numpy's hash, on whole columns: the seed's little-endian 32-bit words
    are hashed into a pool of 4 (absent words hash as 0, so a seed below
    2**32 needs no branch), every pool word is mixed with the hash of
    every other, and the pool, cycled twice and hashed again, gives 8
    uint32 words read as 4 little-endian uint64.  The hash constants walk
    the same sequence for every seed, so they stay Python ints.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = [(seeds & np.uint64(_MASK32)).astype(np.uint32),
               (seeds >> np.uint64(32)).astype(np.uint32), zero, zero]
    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                         - np.uint32(_MIX_MULT_R) * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = np.empty((len(seeds), 8), dtype="<u4")
    hash_const = _INIT_B
    for k in range(8):
        value = pool[k % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, k] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


def _replica_generators(master_seed: int, lo: int,
                        hi: int) -> Iterator[np.random.Generator]:
    """replica_generator(master_seed, i) for i = lo..hi-1, built in turn.

    The seeds and state words come from vectorised passes over _SEED_PASS
    replicas at a time (_mix64_block, _seed_words); each PCG64 then reads
    its row, at about a fifth of the cost of numpy's own seeding.
    """
    # imported here: numpy loads numpy.random on first use, and commands
    # that draw nothing (oracle, predict) never load it
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """Seed sequence that hands PCG64 its four precomputed state words."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    for start in range(lo, hi, _SEED_PASS):
        seeds = _mix64_block(master_seed, start, min(start + _SEED_PASS, hi))
        for words in _seed_words(seeds):
            yield np.random.Generator(np.random.PCG64(StateWords(words)))


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
