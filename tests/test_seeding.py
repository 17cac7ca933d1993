"""Batched seeding: derive_seeds and philox_keys against numpy's SeedSequence
and Philox, and the batched particle draw against fresh Philox generators."""

import numpy as np
import pytest

from caplab.polytope import PerturbationBudget, _uniform_particles, init_particles
from caplab.seeding import derive_seed, derive_seeds, philox_keys

BASES = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130)


def reference_seeds(base, prefix, ids):
    return np.array([derive_seed(base, *prefix, int(i)) for i in ids], dtype=np.uint64)


@pytest.mark.parametrize("base", BASES)
def test_derive_seeds_equals_derive_seed(base):
    rng = np.random.default_rng(base % 2**32)
    ids = np.concatenate(
        [
            np.arange(200, dtype=np.uint64),
            rng.integers(0, 2**64 - 1, 200, dtype=np.uint64, endpoint=True),
            np.array([2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64),
        ]
    )
    # epoch-like prefixes, multi-word entries and a prefix longer than the pool
    for prefix in ((), (5,), (5, 1), (7, 150), (2**40, 3), (1, 2, 3, 4, 5)):
        assert np.array_equal(derive_seeds(base, prefix, ids), reference_seeds(base, prefix, ids))


def test_derive_seeds_accepts_ids_beyond_64_bits():
    ids = [3, 2**64, 2**100 + 1]
    assert np.array_equal(derive_seeds(9, (5, 2), ids), reference_seeds(9, (5, 2), ids))


def test_philox_keys_equal_numpy_philox():
    fixed = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 5]
    rand = np.random.default_rng(0).integers(0, 2**64 - 1, 10_000, dtype=np.uint64, endpoint=True)
    for seeds in (fixed, rand):
        want = np.array([np.random.Philox(int(s)).state["state"]["key"] for s in seeds])
        assert np.array_equal(philox_keys(seeds), want)


def test_batched_particles_equal_fresh_generators():
    # N * d = 21 doubles leaves the last 4-word Philox block partly used
    budget = PerturbationBudget(0.3)
    seeds = derive_seeds(4, (5, 1), np.arange(12))
    got = _uniform_particles(seeds, 7, 3, budget.epsilon)
    want = np.stack(
        [
            np.clip(np.random.Generator(np.random.Philox(int(s))).uniform(-0.3, 0.3, (7, 3)), -0.3, 0.3)
            for s in seeds
        ]
    )
    assert np.array_equal(got, want)
    stacked = np.stack([init_particles(int(s), 7, 3, budget).particles for s in seeds])
    assert np.array_equal(got, stacked)


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 - 1, 2**128 + 5, np.uint64(2**63)])
def test_one_seed_draw_equals_fresh_generator_and_batched_draw(seed):
    # a batch of one builds its own Philox instead of hashing the key
    want = np.random.Generator(np.random.Philox(int(seed))).uniform(-0.3, 0.3, (7, 3))
    got = _uniform_particles([seed], 7, 3, 0.3)
    assert got.shape == (1, 7, 3)
    assert np.array_equal(got[0], np.clip(want, -0.3, 0.3))
    assert np.array_equal(got[0], _uniform_particles([seed, seed], 7, 3, 0.3)[1])


@pytest.mark.parametrize(
    "call",
    [
        lambda: derive_seeds(-1, (5,), [1]),
        lambda: derive_seeds(0, (-5,), [1]),
        lambda: derive_seeds(0, (5,), [1, -2]),
        lambda: derive_seeds(0, (5,), [-1, 2**63]),
        lambda: derive_seeds(0, (5,), np.array([-1], dtype=np.int64)),
        lambda: philox_keys([-3]),
        lambda: init_particles(-1, 3, 2, PerturbationBudget(0.1)),
        lambda: _uniform_particles(np.array([-1]), 3, 2, 0.1),
    ],
)
def test_negative_seed_or_id_is_value_error(call):
    # as derive_seed(-1, ...) does; an OverflowError would escape the CLI as exit 1
    with pytest.raises(ValueError, match="non-negative|integers"):
        call()
