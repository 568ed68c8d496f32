import itertools

import numpy as np
import pytest

from deeptrees.rng import generator, permutations

SEEDS = (0, 2**32 - 1, 2**64 - 1, 2**130)
IDS = (1, 2**32 - 1, 2**32, 2**64 + 3, 2**200)


def per_node_permutations(seeds, tag, ids, n):
    """The rows permutations() must give: each node's own stream, drawn alone."""
    rows = [generator(seed, tag, node_id).permutation(n) for seed, node_id in zip(seeds, ids)]
    return np.array(rows, dtype=np.int64).reshape(len(ids), n)


@pytest.mark.parametrize("n", [1, 2, 8, 30])
@pytest.mark.parametrize("seed", SEEDS)
def test_permutations_equal_per_node_streams(seed, n):
    seeds = [seed] * len(IDS)
    batch = permutations(seeds, "node", IDS, n)
    assert batch.dtype == np.int64
    assert np.array_equal(batch, per_node_permutations(seeds, "node", IDS, n))
    for node_id, row in zip(IDS, batch):  # a frontier of one, as best-first growth has
        assert np.array_equal(permutations([seed], "node", [node_id], n), row[None])


@pytest.mark.parametrize("n", [1, 8])
def test_empty_batch(n):
    batch = permutations([], "node", [], n)
    assert batch.shape == (0, n) and batch.dtype == np.int64


@pytest.mark.parametrize("tag", ["node", 0, 2**40])
def test_batch_mixing_seeds(tag):
    pairs = list(itertools.product(SEEDS + (7, 2**64), IDS + (0, 5)))
    seeds = [seed for seed, _ in pairs]
    ids = [node_id for _, node_id in pairs]
    batch = permutations(seeds, tag, ids, 8)
    assert np.array_equal(batch, per_node_permutations(seeds, tag, ids, 8))
    # numpy integer seeds and ids name the same streams as Python ints
    assert np.array_equal(
        permutations(np.array([3, 9], dtype=np.uint64), tag, np.array([4, 4]), 5),
        per_node_permutations([3, 9], tag, [4, 4], 5),
    )


def test_negative_id_rejected():
    with pytest.raises(ValueError):
        permutations([1, 1], "node", [3, -1], 4)
