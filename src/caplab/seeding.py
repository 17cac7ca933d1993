"""Deterministic seed derivation.

All randomness in a run flows from one global seed. Sub-streams (weight init,
epoch shuffles, attack random starts, ...) are derived with numpy's
SeedSequence spawn-key mechanism, so adding or removing one consumer never
shifts the draws seen by another.

The corner search's particles come from counter-keyed Philox streams
instead: one key per search seed (the key ``np.random.Philox(seed)`` uses)
and one counter per sample. Philox is counter-based, so distinct counters
give independent streams without hashing a seed per sample. Callers name a
stream by sample id i, epoch e and stream k; ``stream_counters`` lays it
out as the counter (0, i, e, k), and the particle draw
(``polytope._uniform_particles``) is its only caller. Counter 0 is the
stream of ``np.random.Philox(seed)`` itself. A draw advances only the first
counter word, by far less than 2**64 blocks, so the streams never overlap.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import _INDEX

# an epoch or stream is one 64-bit Philox counter word
_COUNTER_WORD = dataclasses.replace(_INDEX, high=2**64)

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


def derive_seed(base_seed: int, *key: int) -> int:
    """Derive a 64-bit sub-seed from ``base_seed`` and an integer key path."""
    ss = np.random.SeedSequence(int(base_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def stream_counters(ids, epoch: int, stream: int) -> np.ndarray:
    """The (B, 4) uint64 Philox counters (0, i, epoch, stream), one row per
    sample id i. ValueError unless the ids are 1-D integers >= 0 and epoch
    and stream are integers in [0, 2**64)."""
    ids = np.asarray(ids)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError(f"sample ids must be 1-D integers, got {ids.dtype} {ids.shape}")
    if ids.size and ids.min() < 0:
        raise ValueError("sample ids must be non-negative")
    _COUNTER_WORD.check(epoch, "epoch")
    _COUNTER_WORD.check(stream, "stream")
    out = np.zeros((ids.size, 4), dtype=np.uint64)
    out[:, 1] = ids
    out[:, 2:] = epoch, stream
    return out

