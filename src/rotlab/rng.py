"""Deterministic randomness for protocol simulation.

Every protocol run draws from counter-based Philox streams, one stream per
party, keyed by (seed, stream id).  Party independence makes it possible to
replace one side's behaviour with an adversarial variant without disturbing
the other side's draws.  Monte-Carlo harnesses derive one seed per trial by
mixing the master seed and then the trial index, so trial blocks can be split
across workers and recombined exactly.

The draw contract is numpy's: stream ``(seed, stream)`` gives the draws a
numpy generator over ``Philox(key=[seed, stream])`` makes.  Because Philox
is counter-based, a trial's draws are a pure function of (trial seed,
stream, counter): :func:`philox_block` computes numpy's Philox4x64-10
output for arrays of seeds, streams and counters, and :class:`BlockStream`
hands its words out the way the numpy generator consumes them.  A stream's
words depend only on (seed, stream, counter), however streams are grouped
into calls, so :func:`block_streams` keys all of a flow's party streams in
one kernel call.  Every flow evaluates an array of seeds at once; a single
run is the same flow on a one-element array.  Bounded draws (``integers``
and ``choice``) use Lemire's multiply-shift, which draws again with
probability below ``high / 2**32``.  A one-seed stream draws again
exactly as numpy does; a stream over many seeds flags those seeds instead,
for a replay of the flow on each of them alone.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream identifiers.  The *_AUX streams cover draws made outside the core
# exchange, e.g. the coin-flip wrapper's announced bit.
ALICE = 0
BOB = 1
ALICE_AUX = 2
BOB_AUX = 3

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Philox4x64 round multipliers, each with its 32-bit halves, and Weyl key
# increments (Salmon et al., SC'11).
_PHILOX_ROUNDS = 10
_PHILOX_MUL = tuple(
    (np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
    for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)
)
_PHILOX_WEYL = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
# The same constants stacked as columns, one row per lane pair: row 0
# multiplies c0 and bumps k0, row 1 multiplies c2 and bumps k1.
_STACKED_MUL = tuple(np.array([[a], [b]], dtype=np.uint64) for a, b in zip(*_PHILOX_MUL))
_STACKED_WEYL = np.array([[w] for w in _PHILOX_WEYL], dtype=np.uint64)
# Columns per pass of the stacked rounds: wide enough to spread each ufunc
# call's fixed cost, narrow enough to keep a round's temporaries in cache.
_COLUMNS = 4096


def seed_array(seed: int) -> np.ndarray:
    """A run's seed, reduced mod 2**64, as the one-element uint64 array the
    flows take."""
    return np.array([operator.index(seed) & _MASK64], dtype=np.uint64)


def splitmix64(value: int) -> int:
    """splitmix64 finalizer; full-period 64-bit mixing."""
    z = (value + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _SPLITMIX_MUL[0]) & _MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_MUL[1]) & _MASK64
    return z ^ (z >> 31)


def trial_seeds(master_seed: int, offset: int, count: int) -> np.ndarray:
    """The seeds of trials offset .. offset + count - 1, as uint64: for
    trial i, ``splitmix64`` of the mixed master seed plus i, mod 2**64.

    Mixing the master seed before adding the index keeps distinct master
    seeds from sharing trial seeds, so they give independent replicates.
    A trial's seed depends only on (master_seed, i), never on how trials
    are batched, which is what makes split-and-concatenate runs
    reproducible.
    """
    start = (splitmix64(master_seed & _MASK64) + offset) & _MASK64
    with np.errstate(over="ignore"):
        z = np.uint64(start) + np.arange(count, dtype=np.uint64) + np.uint64(_SPLITMIX_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_SPLITMIX_MUL[0])
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SPLITMIX_MUL[1])
    return z ^ (z >> np.uint64(31))


def _mulhilo(multiplier, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The high and low 64-bit words of m * x, for multiplier = (m, its low
    # half, its high half).  The high word comes from 32-bit partial
    # products, each sum below 2**64.
    m, m_lo, m_hi = multiplier
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    middle = m_hi * x_lo + ((m_lo * x_lo) >> _SHIFT32)
    cross = m_lo * x_hi + (middle & _LOW32)
    return m_hi * x_hi + (middle >> _SHIFT32) + (cross >> _SHIFT32), m * x


def philox_block(seeds: np.ndarray, stream, counter=1) -> np.ndarray:
    """Philox4x64-10 output block at counter ``[counter, 0, 0, 0]`` under the
    key ``[seed, stream]``, for every seed.

    ``Philox(key=[seed, stream])`` hands out the block at counter ``b + 1``
    as its words ``4b .. 4b + 3``, so counter 1 is a fresh generator's first
    ``random_raw(4)``.  ``stream`` and ``counter`` broadcast against
    ``seeds``; the shape is ``(4,)`` followed by the broadcast shape.
    """
    k0 = np.asarray(seeds, dtype=np.uint64)
    k1 = np.asarray(stream, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    shape = np.broadcast_shapes(k0.shape, k1.shape, counter.shape)
    if k0.size == k1.size == counter.size == 1:
        # A single block runs its rounds on numpy scalars, at a fifth of
        # the stacked rounds' cost.
        block = _single_rounds(k0.ravel()[0], k1.ravel()[0], counter.ravel()[0])
        return np.stack(block).reshape((4,) + shape)
    key = np.stack([np.broadcast_to(k, shape).ravel() for k in (k0, k1)])
    counter = np.broadcast_to(counter, shape).ravel()
    out = np.empty((4, counter.size), dtype=np.uint64)
    for start in range(0, counter.size, _COLUMNS):
        columns = slice(start, start + _COLUMNS)
        out[0::2, columns], out[1::2, columns] = _stacked_rounds(key[:, columns], counter[columns])
    return out.reshape((4,) + shape)


def _single_rounds(k0, k1, c0) -> tuple:
    # The ten rounds on one block's words c0..c3.
    (mul0, mul1), (weyl0, weyl1) = _PHILOX_MUL, _PHILOX_WEYL
    c1 = c2 = c3 = np.uint64(0)
    with np.errstate(over="ignore"):
        for round_index in range(_PHILOX_ROUNDS):
            if round_index:
                k0, k1 = k0 + weyl0, k1 + weyl1
            hi0, lo0 = _mulhilo(mul0, c0)
            hi1, lo1 = _mulhilo(mul1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _stacked_rounds(key: np.ndarray, counter: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The ten rounds on the lane pairs even = (c0, c2) and odd = (c1, c3),
    # each shaped (2, columns) like key = (k0, k1).  A round multiplies c0
    # and c2 by their own multipliers in one stacked product, then sets
    # (c0, c2) = (hi(c2) ^ c1 ^ k0, hi(c0) ^ c3 ^ k1) and
    # (c1, c3) = (lo(c2), lo(c0)).  The constants are spread to full rows:
    # numpy multiplies two contiguous arrays about twice as fast as it
    # broadcasts a column against one.
    width = key.shape[1]
    mul = tuple(np.repeat(c, width, axis=1) for c in _STACKED_MUL)
    weyl = np.repeat(_STACKED_WEYL, width, axis=1)
    even = np.zeros_like(key)
    even[0] = counter
    odd = np.zeros_like(key)
    with np.errstate(over="ignore"):
        for round_index in range(_PHILOX_ROUNDS):
            if round_index:
                key = key + weyl
            hi, lo = _mulhilo(mul, even)
            even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return even, odd


class BlockStream:
    """The draws of stream ``(seed, stream)`` for an array of seeds.

    Holds the first ``words`` 64-bit words of each seed's stream, rounded up
    to whole Philox blocks and computed in one :func:`philox_block` call
    (with a flow's other streams, when :func:`block_streams` builds it),
    and hands them out the way numpy's generator consumes them.  A 32-bit
    value comes from the buffered high half of the last word split, if there
    is one, and otherwise from the low half of a fresh word, whose high half
    is then buffered.  :meth:`draw_bit` is ``integers(0, 2)``, the top bit
    of a 32-bit value.  :meth:`bounded` is ``integers(0, high + 1)`` and the
    draws of ``choice``: Lemire's multiply-shift on one 32-bit value each.
    :meth:`random` is ``random()``: the next whole word as
    ``(word >> 11) * 2**-53``, leaving the 32-bit buffer alone.  Asking for
    more words than it holds raises IndexError, unless a one-seed stream
    has drawn again: it then extends itself by whole Philox blocks.
    """

    def __init__(self, seeds: np.ndarray, stream: int, words: int = 4):
        self._seeds = seeds
        self._stream = stream
        self._hold(self._blocks(0, -(-words // 4)))

    @classmethod
    def _holding(cls, seeds: np.ndarray, stream: int, words: np.ndarray) -> "BlockStream":
        # The stream over words already computed, shape (4 * blocks, len(seeds)).
        self = cls.__new__(cls)
        self._seeds = seeds
        self._stream = stream
        self._hold(words)
        return self

    def _hold(self, words: np.ndarray) -> None:
        self._words = words
        self._used = 0
        self._buffered: np.ndarray | None = None  # the word whose high half is next
        self._extends = False

    def _blocks(self, first: int, count: int) -> np.ndarray:
        # Philox blocks first .. first + count - 1 as words, shape (4 * count, len(seeds)).
        if count <= 1:
            # One block needs no counter axis.
            return philox_block(self._seeds, self._stream, first + 1)
        counters = np.arange(first + 1, first + count + 1, dtype=np.uint64)[:, None]
        out = philox_block(self._seeds, self._stream, counters)
        return out.swapaxes(0, 1).reshape(4 * count, out.shape[-1])

    def _take(self, count: int) -> np.ndarray:
        held = len(self._words)
        if self._used + count > held:
            if not self._extends:
                raise IndexError(f"stream holds {held} words, asked for word {self._used + count}")
            extra = self._blocks(held // 4, -(-(self._used + count - held) // 4))
            self._words = np.concatenate((self._words, extra))
        words = self._words[self._used : self._used + count]
        self._used += count
        return words

    def _next_word(self) -> np.ndarray:
        return self._take(1)[0]

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
        below ``(2**32 - 1 - high) mod (high + 1)``, which happens with
        probability below ``high / 2**32``.  A one-seed stream draws again,
        so its values and later draws are the generator's, and ``rejected``
        is False.  Over many seeds, ``rejected`` marks the seeds where a
        draw fell below the threshold; their values and every later draw are
        not the generator's, so the flow must be run again on each of them
        alone.
        """
        span = np.asarray(highs, dtype=np.uint64)[:, None] + np.uint64(1)
        threshold = (_LOW32 - (span - np.uint64(1))) % span
        start = self._used, self._buffered
        product = self._halves(len(span)) * span
        rejected = ((product & _LOW32) < threshold).any(axis=0)
        if rejected.size == 1 and rejected[0]:
            # Draw again from the start, one 32-bit value at a time.
            self._used, self._buffered = start
            self._extends = True
            for index in range(len(span)):
                product[index] = self._halves(1)[0] * span[index]
                while (product[index, 0] & _LOW32) < threshold[index, 0]:
                    product[index] = self._halves(1)[0] * span[index]
            rejected[0] = False
        return (product >> _SHIFT32).astype(np.intp), rejected

    def randoms(self, count: int) -> np.ndarray:
        return (self._take(count) >> np.uint64(11)) * 2.0**-53

    def random(self) -> np.ndarray:
        return (self._next_word() >> np.uint64(11)) * 2.0**-53


def block_streams(seeds: np.ndarray, streams) -> tuple[BlockStream, ...]:
    """One :class:`BlockStream` per ``(stream, words)`` pair of ``streams``,
    all over ``seeds``, in order.

    Over many seeds, every stream's blocks are computed in one
    :func:`philox_block` call: each stream contributes its own rows of
    (stream, counter), as many as its ``words`` need, so no stream is padded
    to the longest.  A stream's words depend only on (seed, stream,
    counter), so each is the :class:`BlockStream` built on its own.  A
    single seed builds its streams one by one, so a one-block stream keeps
    the kernel's scalar rounds.
    """
    if seeds.size == 1:
        return tuple(BlockStream(seeds, stream, words) for stream, words in streams)
    blocks = [-(-words // 4) for _, words in streams]
    ids = np.repeat(np.array([stream for stream, _ in streams], dtype=np.uint64), blocks)
    counters = np.concatenate([np.arange(1, count + 1, dtype=np.uint64) for count in blocks])
    out = philox_block(seeds, ids[:, None], counters[:, None])
    # Rows 4r .. 4r + 3 hold block row r: each stream's words are one slice.
    words = out.swapaxes(0, 1).reshape(4 * ids.size, seeds.size)
    ends = 4 * np.cumsum(blocks)
    return tuple(
        BlockStream._holding(seeds, stream, words[end - 4 * count : end])
        for (stream, _), count, end in zip(streams, blocks, ends.tolist())
    )
