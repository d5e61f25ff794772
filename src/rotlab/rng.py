"""Deterministic randomness for protocol simulation.

Every protocol run draws from counter-based Philox streams, one stream per
party, keyed by (seed, stream id).  Party independence makes it possible to
replace one side's behaviour with an adversarial variant without disturbing
the other side's draws.  Monte-Carlo harnesses derive one seed per trial by
mixing the master seed and then the trial index, so trial blocks can be split
across workers and recombined exactly.

The block engine evaluates whole arrays of trials at once.  Because Philox
is counter-based, a trial's draws are a pure function of (trial seed,
stream, counter): :func:`philox_block` computes numpy's Philox4x64-10 output
for an array of keys at any counter, and :class:`BlockStream` hands its
words out the way ``numpy.random.Generator`` consumes them, so a block of
trials sees exactly the draws of the scalar streams.  Bounded draws
(``integers`` and ``choice``) use Lemire's multiply-shift, which draws
again with probability below ``high / 2**32``; the block form flags those
trials instead, for a replay through the scalar streams.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1

# Stream identifiers.  The *_AUX streams cover draws made outside the core
# exchange, e.g. the coin-flip wrapper's announced bit.
ALICE = 0
BOB = 1
ALICE_AUX = 2
BOB_AUX = 3

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)

# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_MUL = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_WEYL = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


class _PhiloxKey(ISeedSequence):
    # Hands Philox the key [seed, stream] as its seed state.  Philox(key=...)
    # would first gather OS entropy for a SeedSequence it then discards.

    def __init__(self, seed: int, stream: int):
        self._key = (seed & _MASK64, stream & _MASK64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is two uint64 words, not {n_words} x {np.dtype(dtype)}")
        return np.array(self._key, dtype=np.uint64)


def party_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one party's private randomness: the
    stream of ``Generator(Philox(key=[seed, stream]))``."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(seed, stream)))


def draw_bit(gen: np.random.Generator) -> int:
    return int(gen.integers(0, 2))


def splitmix64(value: int) -> int:
    """splitmix64 finalizer; full-period 64-bit mixing."""
    z = (value + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _SPLITMIX_MUL[0]) & _MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_MUL[1]) & _MASK64
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


def trial_seeds(master_seed: int, offset: int, count: int) -> np.ndarray:
    """``trial_seed(master_seed, offset + i)`` for i in range(count), as uint64."""
    start = (splitmix64(master_seed & _MASK64) + offset) & _MASK64
    with np.errstate(over="ignore"):
        z = np.uint64(start) + np.arange(count, dtype=np.uint64) + np.uint64(_SPLITMIX_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_SPLITMIX_MUL[0])
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SPLITMIX_MUL[1])
    return z ^ (z >> np.uint64(31))


def _mulhilo(multiplier: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The high and low 64-bit words of multiplier * x.  The high word comes
    # from 32-bit partial products, each sum below 2**64.
    m_lo, m_hi = multiplier & _LOW32, multiplier >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    middle = m_hi * x_lo + ((m_lo * x_lo) >> _SHIFT32)
    cross = m_lo * x_hi + (middle & _LOW32)
    return m_hi * x_hi + (middle >> _SHIFT32) + (cross >> _SHIFT32), multiplier * x


def philox_block(seeds: np.ndarray, stream: int, counter=1) -> np.ndarray:
    """Philox4x64-10 output block at counter ``[counter, 0, 0, 0]`` under the
    key ``[seed, stream]``, for every seed.

    ``Philox(key=[seed, stream])`` hands out the block at counter ``b + 1``
    as its words ``4b .. 4b + 3``, so counter 1 is a fresh generator's first
    ``random_raw(4)``.  ``counter`` broadcasts against ``seeds``; the shape
    is ``(4,)`` followed by the broadcast shape.
    """
    k0 = np.asarray(seeds, dtype=np.uint64)
    k1 = np.uint64(stream & _MASK64)
    counter = np.asarray(counter, dtype=np.uint64)
    # The rounds only read c1..c3, so one zero array serves all three.
    c1 = c2 = c3 = np.zeros(np.broadcast_shapes(k0.shape, counter.shape), dtype=np.uint64)
    c0 = counter + c1
    with np.errstate(over="ignore"):
        for round_index in range(_PHILOX_ROUNDS):
            if round_index:
                k0, k1 = k0 + _PHILOX_WEYL[0], k1 + _PHILOX_WEYL[1]
            hi0, lo0 = _mulhilo(_PHILOX_MUL[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_MUL[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3))


class BlockStream:
    """The draws of ``party_stream(seed, stream)`` for an array of seeds.

    Holds the first ``words`` 64-bit words of each seed's stream, rounded up
    to whole Philox blocks and computed in one :func:`philox_block` call,
    and hands them out the way ``Generator`` consumes them.  A 32-bit value
    comes from the buffered high half of the last word split, if there is
    one, and otherwise from the low half of a fresh word, whose high half is
    then buffered.  :meth:`draw_bit` is :func:`draw_bit` (``integers(0, 2)``),
    the top bit of a 32-bit value.  :meth:`bounded` is ``integers(0, high + 1)``
    and the draws of ``Generator.choice``: Lemire's multiply-shift on one
    32-bit value each.  :meth:`random` is ``Generator.random()``: the next
    whole word as ``(word >> 11) * 2**-53``, leaving the 32-bit buffer
    alone.  Asking for more words than it holds raises IndexError.
    """

    def __init__(self, seeds: np.ndarray, stream: int, words: int = 4):
        blocks = -(-words // 4)
        if blocks <= 1:
            # The single-transfer flows' case, kept on one-dimensional arrays.
            self._words = philox_block(seeds, stream)
        else:
            out = philox_block(seeds, stream, np.arange(1, blocks + 1, dtype=np.uint64)[:, None])
            self._words = out.swapaxes(0, 1).reshape(4 * blocks, out.shape[-1])
        self._used = 0
        self._buffered: np.ndarray | None = None  # the word whose high half is next

    def _take(self, count: int) -> np.ndarray:
        if self._used + count > len(self._words):
            raise IndexError(f"stream holds {len(self._words)} words, asked for word {self._used + count}")
        words = self._words[self._used : self._used + count]
        self._used += count
        return words

    def _next_word(self) -> np.ndarray:
        word = self._words[self._used]
        self._used += 1
        return word

    def _halves(self, count: int) -> np.ndarray:
        """The next ``count`` 32-bit values, shape ``(count, len(seeds))``."""
        parts = []
        if count and self._buffered is not None:
            parts.append(self._buffered[None] >> _SHIFT32)
            count -= 1
            self._buffered = None
        words = self._take((count + 1) // 2)
        if count % 2:
            self._buffered = words[-1]
        split = np.stack((words & _LOW32, words >> _SHIFT32), axis=1).reshape(2 * len(words), words.shape[-1])
        parts.append(split[:count])
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def draw_bits(self, count: int) -> np.ndarray:
        return (self._halves(count) >> np.uint64(31)).astype(np.intp)

    def draw_bit(self) -> np.ndarray:
        if self._buffered is not None:
            bits, self._buffered = self._buffered >> np.uint64(63), None
        else:
            word = self._next_word()
            bits, self._buffered = (word >> np.uint64(31)) & np.uint64(1), word
        return bits.astype(np.intp)

    def bounded(self, highs) -> tuple[np.ndarray, np.ndarray]:
        """One draw in ``[0, high]`` per entry of ``highs`` (each at least 1),
        in order: ``(values, rejected)``, values shaped ``(len(highs), len(seeds))``.

        Lemire's method takes ``(u * (high + 1)) >> 32`` of a 32-bit value
        ``u`` and draws again while the low 32 bits of that product fall
        below ``(2**32 - 1 - high) mod (high + 1)``.  ``rejected`` marks the
        seeds where a draw fell below it; their values and every later draw
        are not the generator's, so those seeds must be replayed through
        ``party_stream``.  A draw is rejected with probability below
        ``high / 2**32``.
        """
        span = np.asarray(highs, dtype=np.uint64)[:, None] + np.uint64(1)
        product = self._halves(len(span)) * span
        threshold = (_LOW32 - (span - np.uint64(1))) % span
        rejected = ((product & _LOW32) < threshold).any(axis=0)
        return (product >> _SHIFT32).astype(np.intp), rejected

    def randoms(self, count: int) -> np.ndarray:
        return (self._take(count) >> np.uint64(11)) * 2.0**-53

    def random(self) -> np.ndarray:
        return (self._next_word() >> np.uint64(11)) * 2.0**-53
