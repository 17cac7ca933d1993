"""Counter-keyed particle streams: the Philox key of a seed, the counter rows,
and the batched particle draw against fresh Philox generators."""

import itertools

import numpy as np
import pytest

from caplab.polytope import PerturbationBudget, _philox_key, _uniform_particles, init_particles
from caplab.seeding import COUNTER_ZERO, derive_seed, stream_counters

BASES = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130)


def fresh_draw(key, counter, shape, eps=0.3):
    gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return np.clip(gen.uniform(-eps, eps, shape), -eps, eps)


def test_philox_keys_equal_numpy_philox():
    fixed = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 5, *BASES]
    rand = np.random.default_rng(0).integers(0, 2**64 - 1, 10_000, dtype=np.uint64, endpoint=True)
    for s in [*fixed, *rand.tolist()]:
        assert np.array_equal(_philox_key(s), np.random.Philox(s).state["state"]["key"])


def test_counter_rows():
    got = stream_counters(np.array([3, 0, 2**40], dtype=np.int64), 2, 5)
    assert got.dtype == np.uint64
    assert got.tolist() == [[0, 3, 2, 5], [0, 0, 2, 5], [0, 2**40, 2, 5]]
    assert stream_counters([], 1, 5).shape == (0, 4)
    assert COUNTER_ZERO.tolist() == [[0, 0, 0, 0]]


def test_batched_particles_equal_fresh_generators():
    # N * d = 21 doubles leaves the last 4-word Philox block partly used
    counters = stream_counters(np.arange(12), 1, 5)
    got = _uniform_particles(4, counters, 7, 3, 0.3)
    want = np.stack([fresh_draw(_philox_key(4), c, (7, 3)) for c in counters])
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "seed", [0, 7, 2**32, 2**64 - 1, 2**128 + 5, np.uint64(2**63), 1, 2**32 - 1, 2**64 + 3, 2**130]
)
def test_one_seed_draw_equals_fresh_generator_and_batched_draw(seed):
    # counter 0 is np.random.Philox(seed) itself: the bytes of init_particles,
    # find_corners and PGD's random start
    want = fresh_draw(np.random.Philox(int(seed)).state["state"]["key"], 0, (7, 3))
    fresh = np.random.Generator(np.random.Philox(int(seed))).uniform(-0.3, 0.3, (7, 3))
    assert np.array_equal(want, np.clip(fresh, -0.3, 0.3))
    got = _uniform_particles(seed, COUNTER_ZERO, 7, 3, 0.3)
    assert got.shape == (1, 7, 3)
    assert np.array_equal(got[0], want)
    assert np.array_equal(init_particles(seed, 7, 3, PerturbationBudget(0.3)).particles, want)
    others = np.concatenate([stream_counters([4], 1, 5), COUNTER_ZERO])
    assert np.array_equal(_uniform_particles(seed, others, 7, 3, 0.3)[1], want)


def test_sample_draw_does_not_depend_on_its_batch():
    counters = stream_counters([9, 0, 4, 17, 2], 3, 5)
    batch = _uniform_particles(11, counters, 5, 2, 0.2)
    order = np.random.default_rng(1).permutation(len(counters))
    shuffled = _uniform_particles(11, counters[order], 5, 2, 0.2)
    for b in range(len(counters)):
        alone = _uniform_particles(11, counters[b : b + 1], 5, 2, 0.2)[0]
        assert np.array_equal(batch[b], alone)
        assert np.array_equal(shuffled[list(order).index(b)], alone)
        among = np.concatenate([counters[:b], stream_counters([99], 4, 7), counters[b : b + 1]])
        assert np.array_equal(_uniform_particles(11, among, 5, 2, 0.2)[-1], alone)


def test_distinct_streams_draw_distinct_particles():
    ids = itertools.product(range(4), range(3), (0, 5, 7))
    rows = [stream_counters([i], e, k) for i, e, k in ids]
    draws = _uniform_particles(2, np.concatenate(rows), 4, 2, 0.5)
    values = draws.reshape(len(rows), -1)
    # no two streams share a single coordinate, let alone a whole draw
    assert len(np.unique(values)) == values.size
    # the same counter under another seed's key is another stream too
    assert not np.array_equal(draws[5], _uniform_particles(3, rows[5], 4, 2, 0.5)[0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: derive_seed(-1, 5),
        lambda: derive_seed(0, -5),
        lambda: stream_counters([1, -2], 1, 5),
        lambda: stream_counters(np.array([-1], dtype=np.int64), 1, 5),
        lambda: stream_counters([1], -1, 5),
        lambda: stream_counters([1.5], 1, 5),
        lambda: init_particles(-1, 3, 2, PerturbationBudget(0.1)),
        lambda: _uniform_particles(-1, COUNTER_ZERO, 3, 2, 0.1),
    ],
)
def test_negative_seed_or_id_is_value_error(call):
    # an OverflowError would escape the CLI as exit 1
    with pytest.raises(ValueError, match="non-negative|integers"):
        call()
