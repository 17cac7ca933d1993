"""Deterministic seed derivation.

All randomness in a run flows from one global seed. Sub-streams (weight init,
epoch shuffles, per-sample particle inits, attack random starts, ...) are
derived with numpy's SeedSequence spawn-key mechanism, so adding or removing
one consumer never shifts the draws seen by another.

``derive_seed`` builds one SeedSequence per call. The per-sample streams of
the corner search (one seed per sample, one Philox key per seed) are made a
whole batch at a time by ``derive_seeds`` and ``philox_keys``, a numpy
implementation of SeedSequence's documented hash. They return the same bits
as ``derive_seed`` and as ``np.random.Philox(seed)``; tests check both.
"""

from __future__ import annotations

import functools
import operator
from typing import Sequence

import numpy as np

# Fixed stream identifiers. Values are part of the reproducibility contract:
# changing them changes every derived stream.
STREAM_DATA_TRAIN = 1
STREAM_DATA_TEST = 2
STREAM_MODEL_INIT = 3
STREAM_SHUFFLE = 4
STREAM_PARTICLES = 5
STREAM_ATTACK = 6
STREAM_PROBE = 7
STREAM_EVAL = 8

# SeedSequence's hash (numpy.random.bit_generator). Every constant is a
# numpy unsigned scalar, so the uint32 arithmetic wraps the same way under
# any numpy casting rules.
_POOL_SIZE = 4
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def derive_seed(base_seed: int, *key: int) -> int:
    """Derive a 64-bit sub-seed from ``base_seed`` and an integer key path."""
    ss = np.random.SeedSequence(int(base_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def derive_seeds(base_seed: int, key_prefix: Sequence[int], ids) -> np.ndarray:
    """``derive_seed(base_seed, *key_prefix, i)`` for every i in ``ids``, as a
    uint64 array, bit-identical to the per-call form."""
    base = _words(base_seed)
    # with a non-empty spawn key, SeedSequence zero-pads the entropy to the pool size
    prefix = base + [0] * (_POOL_SIZE - len(base)) + [w for k in key_prefix for w in _words(k)]
    return _seed_sequence_state(prefix, ids, 1)[:, 0]


def philox_keys(seeds) -> np.ndarray:
    """The (B, 2) uint64 keys that ``np.random.Philox(seed)`` uses for each
    seed, i.e. ``SeedSequence(seed).generate_state(2, np.uint64)``."""
    return _seed_sequence_state([], seeds, 2)


def _words(n: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a non-negative integer."""
    n = int(n)
    if n < 0:
        raise ValueError(f"seed values must be non-negative, got {n}")
    out = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        out.append(n & 0xFFFFFFFF)
        n >>= 32
    return out


def _value_words(values) -> tuple[np.ndarray, np.ndarray]:
    """(B, k) uint32 words of each value, and how many of them each one uses."""
    # a list may mix small and 64-bit integers, for which numpy would infer float64
    v = np.asarray(values, dtype=object if isinstance(values, (list, tuple)) else None)
    if v.ndim != 1:
        raise ValueError(f"seed values must be a 1-D sequence, got shape {v.shape}")
    if v.dtype.kind in "iu" or v.size == 0:
        if v.dtype.kind == "i" and (v < 0).any():
            raise ValueError(f"seed values must be non-negative, got {int(v.min())}")
        words = v.astype("<u8").view("<u4").reshape(-1, 2)
        return words, 1 + (words[:, 1] > 0)
    if v.dtype.kind != "O":
        raise ValueError(f"seed values must be integers, got dtype {v.dtype}")
    try:
        rows = [_words(operator.index(x)) for x in v.tolist()]
    except TypeError:
        raise ValueError("seed values must be integers") from None
    width = max(len(r) for r in rows)
    words = np.array([r + [0] * (width - len(r)) for r in rows], dtype=np.uint32)
    return words, np.array([len(r) for r in rows])


def _seed_sequence_state(prefix: list[int], values, n_words64: int) -> np.ndarray:
    """``SeedSequence`` over the entropy words ``prefix + words(value)``, for
    every value: its ``generate_state(n_words64, np.uint64)`` as (B, n) uint64.

    Each sample's entropy length sets the order of its hash steps, so the
    samples are hashed in groups of equal length.
    """
    words, lengths = _value_words(values)
    out = np.empty((words.shape[0], n_words64), dtype=np.uint64)
    for n in np.unique(lengths):
        rows = lengths == n
        entropy = np.empty((int(rows.sum()), len(prefix) + n), dtype=np.uint32)
        entropy[:, : len(prefix)] = prefix
        entropy[:, len(prefix) :] = words[rows, :n]
        state = _generate_state(_mix_entropy(entropy), 2 * n_words64)
        # generate_state's own uint64 view: little-endian word pairs
        out[rows] = np.ascontiguousarray(state, dtype="<u4").view("<u8")
    return out


@functools.lru_cache(maxsize=64)
def _multipliers(init: int, mult: int, n_steps: int) -> np.ndarray:
    """The running multiplier of n hash steps: entry j is its value before
    step j, so entry j + 1 is the one step j multiplies by."""
    consts = [init]
    for _ in range(n_steps):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    out = np.array(consts, dtype=np.uint32)
    out.flags.writeable = False
    return out


# mix_entropy's step index of (source lane, destination lane) in the round
# that mixes every lane into the others; the diagonal is never used.
_ROUND_STEP = np.array(
    [
        [_POOL_SIZE + (_POOL_SIZE - 1) * i + d - (d > i) if d != i else 0 for d in range(_POOL_SIZE)]
        for i in range(_POOL_SIZE)
    ]
)


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    value = value ^ before
    value *= after
    value ^= value >> _XSHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x
    result -= _MIX_MULT_R * y
    result ^= result >> _XSHIFT
    return result


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence.mix_entropy for a (B, L) uint32 entropy array: the (B, 4)
    pools. All hash steps advance one shared multiplier in the reference
    loop order; steps that do not depend on each other run as one numpy
    operation over the pool lanes."""
    B, L = entropy.shape
    extra = max(L - _POOL_SIZE, 0)
    hc = _multipliers(int(_INIT_A), int(_MULT_A), _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * extra)
    first = np.zeros((B, _POOL_SIZE), dtype=np.uint32)
    first[:, : L - extra] = entropy[:, : L - extra]
    pool = _hashmix(first, hc[:_POOL_SIZE], hc[1 : _POOL_SIZE + 1])
    before, after = hc[_ROUND_STEP], hc[_ROUND_STEP + 1]
    for i in range(_POOL_SIZE):
        # lane i feeds the other three and is itself left unchanged
        mixed = _mix(pool, _hashmix(pool[:, i, None], before[i], after[i]))
        mixed[:, i] = pool[:, i]
        pool = mixed
    # entropy words beyond the pool size mix into every lane
    for k in range(extra):
        j = _POOL_SIZE * (_POOL_SIZE + k)
        word = entropy[:, _POOL_SIZE + k, None]
        pool = _mix(pool, _hashmix(word, hc[j : j + _POOL_SIZE], hc[j + 1 : j + _POOL_SIZE + 1]))
    return pool


def _generate_state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence.generate_state(n_words, np.uint32) from (B, 4) pools."""
    hc = _multipliers(int(_INIT_B), int(_MULT_B), n_words)
    return _hashmix(pool[:, np.arange(n_words) % _POOL_SIZE], hc[:-1], hc[1:])
