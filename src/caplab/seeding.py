"""Deterministic seed derivation.

All randomness in a run flows from one global seed. Sub-streams (weight init,
epoch shuffles, attack random starts, ...) are derived with numpy's
SeedSequence spawn-key mechanism, so adding or removing one consumer never
shifts the draws seen by another.

The corner search's particle streams are laid out in
``polytope._uniform_particles``.
"""

from __future__ import annotations

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


def derive_seed(base_seed: int, *key: int) -> int:
    """Derive a 64-bit sub-seed from ``base_seed`` and an integer key path."""
    ss = np.random.SeedSequence(int(base_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])

