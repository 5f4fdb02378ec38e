"""Per-replica reference for the Monte Carlo escape kernel.

This is the loop walklab.gamma._escape_range replaced: one replica at a
time, MC_BLOCK steps per block drawn by steps.sample_indices, positions
as a (block, d) prefix sum.  A replica stops at a hit of the origin, or
once a coordinate is too far out to cross back to 0.  The kernel stops
a replica by a bound on its packed lanes instead, which may fire at
another block; both bounds stop only replicas that cannot return, so the
escape counts agree.  The tests compare the batched kernel against it for
equal escape counts.
"""

from __future__ import annotations

import numpy as np

from walklab import rng as rnglib
from walklab.gamma import MC_BLOCK
from walklab.steps import StepLaw, _sampling_arrays, sample_indices


def replica_escapes(law: StepLaw, n: int, seed: int) -> bool:
    """True iff one walk stays off the origin for steps 1..n (drawn MC_BLOCK at a time)."""
    coords, _ = _sampling_arrays(law)
    max_step = np.abs(coords).max(axis=0)
    gen = rnglib.generator(seed)
    pos = np.zeros(law.d, dtype=np.int64)
    done = 0
    while done < n:
        b = min(MC_BLOCK, n - done)
        idx = sample_indices(law, gen, b)
        path = np.cumsum(coords[idx], axis=0)
        path += pos
        if (path == 0).all(axis=1).any():
            return False
        pos = path[-1]
        done += b
        remaining = n - done
        # a coordinate too far out to cross back to 0 settles the replica
        if (np.abs(pos) > remaining * max_step).any():
            return True
    return True


def escape_range(law: StepLaw, n: int, master_seed: int, lo: int, hi: int) -> int:
    """Escapes among replicas lo..hi-1, replica i seeded by mix64(master_seed, i)."""
    return sum(replica_escapes(law, n, rnglib.mix64(master_seed, i))
               for i in range(lo, hi))
