"""Counter-keyed particle streams: the Philox key of a seed, and the batched
particle draw of a named stream (sample id, epoch, stream) against fresh
Philox generators at hand-written counters (0, id, epoch, stream)."""

import ast
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

import caplab
from caplab.nn import init_mlp
from caplab.polytope import (
    CornerConfig,
    PerturbationBudget,
    _seed_sequence,
    _uniform_particles,
    corner_search_batch,
    find_corners,
    init_particles,
)
from caplab.seeding import derive_seed

BASES = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130)


def key_of(seed):
    """The (2,) uint64 key that ``np.random.Philox(seed)`` uses."""
    return np.random.Philox(int(seed)).state["state"]["key"]


def fresh_draw(key, counter, shape, eps=0.3):
    gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return np.clip(gen.uniform(-eps, eps, shape), -eps, eps)


def test_philox_keys_equal_numpy_philox():
    fixed = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 5, *BASES]
    rand = np.random.default_rng(0).integers(0, 2**64 - 1, 10_000, dtype=np.uint64, endpoint=True)
    for s in [*fixed, *rand.tolist()]:
        got = np.random.Philox(_seed_sequence(s)).state["state"]["key"]
        assert np.array_equal(got, key_of(s))


def test_counter_rows():
    got = _uniform_particles(4, np.array([3, 0, 2**40], dtype=np.int64), 2, 5, 7, 3, 0.3)
    counters = np.array([[0, 3, 2, 5], [0, 0, 2, 5], [0, 2**40, 2, 5]], dtype=np.uint64)
    assert np.array_equal(got, np.stack([fresh_draw(key_of(4), c, (7, 3)) for c in counters]))
    assert _uniform_particles(4, [], 1, 5, 7, 3, 0.3).shape == (0, 7, 3)


def test_batched_particles_equal_fresh_generators():
    # N * d = 21 doubles leaves the last 4-word Philox block partly used
    counters = [np.array([0, i, 1, 5], dtype=np.uint64) for i in range(12)]
    want = np.stack([fresh_draw(key_of(4), c, (7, 3)) for c in counters])
    for ids in (
        np.arange(12),
        list(range(12)),
        np.arange(12, dtype=np.int32),
        np.arange(12, dtype=np.uint64),
        range(12),
    ):
        assert np.array_equal(_uniform_particles(4, ids, 1, 5, 7, 3, 0.3), want), type(ids)


@pytest.mark.parametrize(
    "seed", [0, 7, 2**32, 2**64 - 1, 2**128 + 5, np.uint64(2**63), 1, 2**32 - 1, 2**64 + 3, 2**130]
)
def test_one_seed_draw_equals_fresh_generator_and_batched_draw(seed):
    # id 0 at (0, 0) is counter 0, np.random.Philox(seed) itself: the bytes
    # of init_particles, find_corners and PGD's random start
    want = fresh_draw(key_of(seed), 0, (7, 3))
    fresh = np.random.Generator(np.random.Philox(int(seed))).uniform(-0.3, 0.3, (7, 3))
    assert np.array_equal(want, np.clip(fresh, -0.3, 0.3))
    got = _uniform_particles(seed, [0], 0, 0, 7, 3, 0.3)
    assert got.shape == (1, 7, 3)
    assert np.array_equal(got[0], want)
    assert np.array_equal(init_particles(seed, 7, 3, PerturbationBudget(0.3)).particles, want)
    assert np.array_equal(_uniform_particles(seed, [4, 0], 0, 0, 7, 3, 0.3)[1], want)


def test_sample_draw_does_not_depend_on_its_batch():
    ids = np.array([9, 0, 4, 17, 2])
    batch = _uniform_particles(11, ids, 3, 5, 5, 2, 0.2)
    order = np.random.default_rng(1).permutation(len(ids))
    shuffled = _uniform_particles(11, ids[order], 3, 5, 5, 2, 0.2)
    for b in range(len(ids)):
        alone = _uniform_particles(11, ids[b : b + 1], 3, 5, 5, 2, 0.2)[0]
        assert np.array_equal(batch[b], alone)
        assert np.array_equal(shuffled[list(order).index(b)], alone)
        among = [*ids[:b], 99, ids[b]]
        assert np.array_equal(_uniform_particles(11, among, 3, 5, 5, 2, 0.2)[-1], alone)


def test_distinct_streams_draw_distinct_particles():
    names = list(itertools.product(range(4), range(3), (0, 5, 7)))
    draws = np.stack([_uniform_particles(2, [i], e, k, 4, 2, 0.5)[0] for i, e, k in names])
    values = draws.reshape(len(names), -1)
    # no two streams share a single coordinate, let alone a whole draw
    assert len(np.unique(values)) == values.size
    # the same stream name under another seed's key is another stream too
    i, e, k = names[5]
    assert not np.array_equal(draws[5], _uniform_particles(3, [i], e, k, 4, 2, 0.5)[0])


def search_one(ids, X=np.zeros((1, 2)), **stream):
    cfg = CornerConfig(3, 1, 0.02, PerturbationBudget(0.1), seed=1)
    return corner_search_batch(init_mlp(0, [2, 3, 2]), X, ids, cfg, **stream)


@pytest.mark.parametrize(
    "call",
    [
        lambda: derive_seed(-1, 5),
        lambda: derive_seed(0, -5),
        lambda: _uniform_particles(0, [1, -2], 1, 5, 3, 2, 0.1),
        lambda: _uniform_particles(0, np.array([-1], dtype=np.int64), 1, 5, 3, 2, 0.1),
        lambda: _uniform_particles(0, [1], -1, 5, 3, 2, 0.1),
        lambda: _uniform_particles(0, [1.5], 1, 5, 3, 2, 0.1),
        lambda: init_particles(-1, 3, 2, PerturbationBudget(0.1)),
        lambda: _uniform_particles(-1, [0], 0, 0, 3, 2, 0.1),
        # ids built by hand: a signed -1 would wrap to 2**64 - 1 and a
        # float 1.7 truncate to 1 on the way to uint64
        lambda: search_one(np.array([-1])),
        lambda: search_one(np.array([1.7])),
        lambda: search_one([-1]),
        lambda: search_one([0], epoch=-1),
        lambda: search_one([0], stream=-1),
    ],
)
def test_negative_seed_or_id_is_value_error(call):
    # an OverflowError would escape the CLI as exit 1; the message is the
    # seed, sample-id or counter-word rule's own
    with pytest.raises(
        ValueError,
        match="^(expected non-negative integer|sample ids must be (non-negative|1-D integers)"
        "|(epoch|stream) must be >= 0, got -1$)",
    ):
        call()


@pytest.mark.parametrize(
    "stream, match",
    [
        # 1.5 would truncate to epoch 1 and draw its particles
        (dict(epoch=1.5), "^epoch must be an integer, got 1.5"),
        (dict(stream=5.0), "^stream must be an integer, got 5.0"),
        # 2**64 would escape as an OverflowError on its way to uint64
        (dict(epoch=2**64), "^epoch must be < 18446744073709551616"),
        (dict(stream=2**64 + 5), "^stream must be < 18446744073709551616"),
        (dict(epoch=-1), "^epoch must be >= 0, got -1"),
        (dict(stream=-1), "^stream must be >= 0, got -1"),
        # a comparison with 0 would escape as a TypeError
        (dict(epoch="a"), "^epoch must be an integer, got 'a'"),
        (dict(stream=None), "^stream must be an integer, got None"),
    ],
    ids=[
        "float-epoch",
        "float-stream",
        "epoch-2**64",
        "stream-above-2**64",
        "negative-epoch",
        "negative-stream",
        "str-epoch",
        "none-stream",
    ],
)
def test_epoch_and_stream_are_counter_words(stream, match):
    name = {"epoch": 1, "stream": 5, **stream}
    with pytest.raises(ValueError, match=match):
        _uniform_particles(0, [0], name["epoch"], name["stream"], 3, 2, 0.1)
    with pytest.raises(ValueError, match=match):
        search_one([0], **stream)


def test_largest_counter_words_are_valid_names():
    top = 2**64 - 1
    counter = np.array([0, top, top, top], dtype=np.uint64)
    want = fresh_draw(key_of(4), counter, (7, 3))
    assert np.array_equal(_uniform_particles(4, [top], top, top, 7, 3, 0.3)[0], want)
    assert search_one([0], epoch=top, stream=top)[0].shape == (1, 3, 2)


@pytest.mark.parametrize("ids", [[0, 1], [0, 1, 2, 3], [[0], [1], [2]], 0])
def test_one_id_per_row_is_required(ids):
    with pytest.raises(ValueError, match="^ids must hold one sample id per row of X"):
        search_one(ids, X=np.zeros((3, 2)))


def test_draw_reads_no_os_entropy(monkeypatch):
    # np.random.Philox(key=...) seeds an unused SeedSequence from OS entropy
    # each time it is built; the draw builds its Philox from a SeedSequence
    model = init_mlp(0, [2, 8, 3])
    cfg = CornerConfig(10, 2, 0.02, PerturbationBudget(0.1), seed=12345)
    find_corners(model, np.zeros(2), CornerConfig(2, 1, 0.02, PerturbationBudget(0.1)))
    calls = []
    urandom = random._urandom
    monkeypatch.setattr(random, "_urandom", lambda n: calls.append(n) or urandom(n))
    find_corners(model, np.zeros(2), cfg)
    X = np.random.default_rng(0).normal(0.0, 0.2, (128, 2))
    corner_search_batch(model, X, np.arange(128), cfg, 3, 5)
    assert calls == []


def test_only_the_draw_lays_out_counter_rows():
    # a stream is named by (ids, epoch, stream) everywhere else, so no
    # caller can ask for a counter that overlaps another sample's stream
    def counter_keys(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Constant) and n.value == "counter"]

    total = 0
    for path in sorted(Path(caplab.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "COUNTER_ZERO" not in text and "stream_counters" not in text, path.name
        tree = ast.parse(text)
        total += len(counter_keys(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_uniform_particles":
                in_draw = len(counter_keys(node))
    assert total == in_draw == 1
