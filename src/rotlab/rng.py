"""Deterministic randomness for protocol simulation.

Every protocol run draws from counter-based Philox streams, one stream per
party, keyed by (seed, stream id).  Party independence makes it possible to
replace one side's behaviour with an adversarial variant without disturbing
the other side's draws.  Monte-Carlo harnesses derive one seed per trial by
mixing the master seed and then the trial index, so trial blocks can be split
across workers and recombined exactly.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream identifiers.  The *_AUX streams cover draws made outside the core
# exchange, e.g. the coin-flip wrapper's announced bit.
ALICE = 0
BOB = 1
ALICE_AUX = 2
BOB_AUX = 3


def party_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one party's private randomness."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_bit(gen: np.random.Generator) -> int:
    return int(gen.integers(0, 2))


def splitmix64(value: int) -> int:
    """splitmix64 finalizer; full-period 64-bit mixing."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Per-trial seed: the mixed master seed plus the trial index, mixed again.

    Mixing the master seed before adding the index keeps distinct master
    seeds from sharing trial seeds, so they give independent replicates.
    Depends only on (master_seed, trial_index), never on how trials are
    batched, which is what makes split-and-concatenate runs reproducible.
    """
    base = splitmix64(master_seed & _MASK64)
    return splitmix64((base + trial_index) & _MASK64)
