"""Block seeding of replica generators against numpy's own seeding.

rng._replica_generators builds replica i's PCG64 from state words that
rng._seed_words computes for a whole block at once; these tests pin that
route to rng.replica_generator, which seeds through numpy's SeedSequence.
"""

import numpy as np
import pytest

from walklab import rng

# --seed -1 and --seed 2**64 + 5 reach mix64 as they are; the others are
# the edges of the one- and two-word SeedSequence entropy
MASTERS = [0, 1, -1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5]
# the last block spans two seed-word passes
BLOCKS = [(0, 40), (37, 70), (1000, 1003), (2 ** 20 - 1, 2 ** 20 + 1),
          (7, 7 + rng._SEED_PASS + 5)]


@pytest.mark.parametrize("master", MASTERS)
@pytest.mark.parametrize("lo,hi", BLOCKS)
def test_mix64_block_equals_scalar(master, lo, hi):
    block = rng._mix64_block(master, lo, hi)
    assert block.dtype == np.uint64
    assert [int(z) for z in block] == [rng.mix64(master, i) for i in range(lo, hi)]


@pytest.mark.parametrize("master", MASTERS)
def test_seed_words_equal_seed_sequence(master):
    seeds = rng._mix64_block(master, 0, 200)
    # seeds below 2**32 are one word of SeedSequence entropy, the rest two
    edges = np.array([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    seeds = np.concatenate([seeds, edges])
    words = rng._seed_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    for seed, row in zip(seeds, words):
        want = np.random.SeedSequence(int(seed)).generate_state(4, np.uint64)
        assert row.tolist() == want.tolist(), int(seed)


@pytest.mark.parametrize("master", MASTERS)
@pytest.mark.parametrize("lo,hi", BLOCKS)
def test_block_generators_draw_replica_streams(master, lo, hi):
    gens = list(rng._replica_generators(master, lo, hi))
    assert len(gens) == hi - lo
    for i, gen in zip(range(lo, hi), gens):
        want = rng.replica_generator(master, i)
        assert gen.random(5).tolist() == want.random(5).tolist(), i
        assert gen.bit_generator.state == want.bit_generator.state, i
