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
one kernel call.  Of the ten Philox rounds, round 1 never reads the seed
and round 2 reads it through one product, so the kernel computes their
(stream, counter) half, the seed-free prologue, apart from the seeds and
keeps it as read-only arrays keyed by the stream and counter values: a
flow's fixed layout of (stream, counter) rows costs it once per process,
the seed half costs one product per seed, and only rounds 3 to 10 run on
every (seed, stream, counter) cell.  Every flow evaluates an array of
seeds at once; a single run is the same flow on a one-element array, whose
one-block streams run all ten rounds on Python ints.  Bounded draws
(``integers`` and ``choice``) use Lemire's multiply-shift, which draws
again with probability below ``high / 2**32``.  A one-seed stream draws
again exactly as numpy does; a stream over many seeds flags those seeds
instead, for a replay of the flow on each of them alone.
"""

from __future__ import annotations

import operator
from functools import lru_cache

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

# Philox4x64 round multipliers and Weyl key increments (Salmon et al.,
# SC'11), as Python ints for the one-block rounds.
_PHILOX_ROUNDS = 10
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# Each multiplier with its 32-bit halves, as _mulhilo takes it.
_PHILOX_MUL = tuple((np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)) for m in _MULTIPLIERS)
# The key increments as uint64, and twice them: round r runs under the key
# [s + (r - 1) W0, t + (r - 1) W1], mod 2**64.
_KEY_STEP = tuple(np.uint64(w) for w in _WEYL)
_KEY_STEP2 = tuple(np.uint64(2 * w & _MASK64) for w in _WEYL)
# The same constants stacked as columns, one row per lane pair: row 0
# multiplies c0 and bumps k0, row 1 multiplies c2 and bumps k1.
_STACKED_MUL = tuple(np.array([[a], [b]], dtype=np.uint64) for a, b in zip(*_PHILOX_MUL))
_STACKED_WEYL = np.array([[w] for w in _KEY_STEP], dtype=np.uint64)
# Columns per pass of the stacked rounds: wide enough to spread each ufunc
# call's fixed cost, narrow enough to keep a round's temporaries in cache.
_COLUMNS = 4096
# Distinct (stream, counter) layouts, and seed-free prologues, kept cached.
_LAYOUTS = 32


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

    Rounds 1 and 2 are split by what they depend on.  Round 1 never reads
    the seed and round 2 reads it through one product, so their
    (stream, counter) half, the seed-free prologue, is computed over the
    broadcast stream and counter arrays alone, and the seed half once per
    seed; only rounds 3 to 10 run on every (seed, stream, counter) cell.
    The prologue is cached as read-only arrays, keyed by the stream and
    counter values, so the fixed layouts of :func:`block_streams` and
    :class:`BlockStream` compute it once.  A single block runs all ten
    rounds on Python ints.
    """
    k0 = np.asarray(seeds, dtype=np.uint64)
    k1 = np.asarray(stream, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    if k0.size == k1.size == counter.size == 1:
        # A single block runs its rounds on Python ints, at a twentieth of
        # the stacked rounds' cost; every axis of its shape is 1.
        block = _single_rounds(int(k0.ravel()[0]), int(k1.ravel()[0]), int(counter.ravel()[0]))
        return np.array(block, dtype=np.uint64).reshape((4,) + (1,) * max(k0.ndim, k1.ndim, counter.ndim))
    return _seeded_rounds(k0, _prologue(k1.shape, k1.tobytes(), counter.shape, counter.tobytes()))


def _single_rounds(k0: int, k1: int, c0: int) -> tuple[int, int, int, int]:
    # The ten rounds on one block's words c0..c3.
    (mul0, mul1), (weyl0, weyl1) = _MULTIPLIERS, _WEYL
    c1 = c2 = c3 = 0
    for round_index in range(_PHILOX_ROUNDS):
        if round_index:
            k0, k1 = (k0 + weyl0) & _MASK64, (k1 + weyl1) & _MASK64
        p0, p1 = mul0 * c0, mul1 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
    return c0, c1, c2, c3


@lru_cache(maxsize=_LAYOUTS)
def _prologue(stream_shape, stream_bytes, counter_shape, counter_bytes) -> tuple[np.ndarray, ...]:
    # The seed-free half of rounds 1 and 2, broadcast over the uint64
    # stream ids t and counters c given by their shapes and bytes, and
    # read-only, since every call with these values shares it.  Round 1 on
    # [c, 0, 0, 0] under key [s, t] leaves the lanes
    # (s, 0, hi(M0 c) ^ t, lo(M0 c)), so round 2 leaves
    #   (hi(M1 x) ^ (s + W0), lo(M1 x), hi(M0 s) ^ lo(M0 c) ^ (t + W1), lo(M0 s))
    # for x = hi(M0 c) ^ t.  Returns hi(M1 x), lo(M1 x), lo(M0 c) ^ (t + W1)
    # and round 3's key word t + 2 W1.
    t, c = np.broadcast_arrays(
        np.frombuffer(stream_bytes, dtype=np.uint64).reshape(stream_shape),
        np.frombuffer(counter_bytes, dtype=np.uint64).reshape(counter_shape),
    )
    with np.errstate(over="ignore"):
        hi0, lo0 = _mulhilo(_PHILOX_MUL[0], c)
        hi1, lo1 = _mulhilo(_PHILOX_MUL[1], hi0 ^ t)
        rows = tuple(np.asarray(row) for row in (hi1, lo1, lo0 ^ (t + _KEY_STEP[1]), t + _KEY_STEP2[1]))
    for row in rows:
        row.flags.writeable = False
    return rows


@lru_cache(maxsize=_LAYOUTS)
def _layout(runs: tuple[tuple[int, int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    # The (stream, counter) rows of runs of blocks, one row per block and in
    # order: a run (stream, first, count) holds blocks first .. first +
    # count - 1 of its stream.  Shaped (rows, 1) to broadcast against
    # seeds, and read-only, since every call with these runs shares them.
    streams = np.repeat(np.array([stream for stream, _, _ in runs], dtype=np.uint64), [n for _, _, n in runs])
    counters = np.concatenate([np.arange(n, dtype=np.uint64) + np.uint64(first + 1) for _, first, n in runs])
    rows = streams[:, None], counters[:, None]
    for row in rows:
        row.flags.writeable = False
    return rows


def _seeded_rounds(seeds: np.ndarray, prologue: tuple) -> np.ndarray:
    # Rounds 2 to 10 for every cell of seeds broadcast against a prologue.
    # Round 2's seed product is taken once per seed, and its lanes are
    # written straight into the output, where rounds 3 to 10 then run a
    # column pass at a time.
    shape = np.broadcast_shapes(seeds.shape, prologue[0].shape)
    out = np.empty((4,) + shape, dtype=np.uint64)
    key = np.empty((2,) + shape, dtype=np.uint64)
    with np.errstate(over="ignore"):
        hi, lo = _mulhilo(_PHILOX_MUL[0], seeds)
        np.bitwise_xor(prologue[0], seeds + _KEY_STEP[0], out=out[0])
        out[1] = prologue[1]
        np.bitwise_xor(prologue[2], hi, out=out[2])
        out[3] = lo
        np.add(seeds, _KEY_STEP2[0], out=key[0])
        key[1] = prologue[3]
    lanes, key = out.reshape(4, out[0].size), key.reshape(2, out[0].size)
    for start in range(0, lanes.shape[1], _COLUMNS):
        columns = slice(start, start + _COLUMNS)
        lanes[0::2, columns], lanes[1::2, columns] = _stacked_rounds(
            key[:, columns], lanes[0::2, columns], lanes[1::2, columns]
        )
    return out


def _stacked_rounds(key: np.ndarray, even: np.ndarray, odd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Rounds 3 to 10 on the lane pairs even = (c0, c2) and odd = (c1, c3),
    # each shaped (2, columns) like round 3's key = (k0, k1).  A round
    # multiplies c0 and c2 by their own multipliers in one stacked product,
    # then sets (c0, c2) = (hi(c2) ^ c1 ^ k0, hi(c0) ^ c3 ^ k1) and
    # (c1, c3) = (lo(c2), lo(c0)).  The constants are spread to full rows:
    # numpy multiplies two contiguous arrays about twice as fast as it
    # broadcasts a column against one.
    width = key.shape[1]
    mul = tuple(np.repeat(c, width, axis=1) for c in _STACKED_MUL)
    weyl = np.repeat(_STACKED_WEYL, width, axis=1)
    with np.errstate(over="ignore"):
        for round_index in range(2, _PHILOX_ROUNDS):
            if round_index > 2:
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
        _, counters = _layout(((self._stream, first, count),))
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
    to the longest.  These rows depend on ``streams`` alone, so they are
    built once per layout, and the kernel's seed-free prologue for them is
    cached with them.  A stream's words depend only on (seed, stream,
    counter), so each is the :class:`BlockStream` built on its own.  A
    single seed builds its streams one by one, so a one-block stream keeps
    the kernel's scalar rounds.
    """
    if seeds.size == 1:
        return tuple(BlockStream(seeds, stream, words) for stream, words in streams)
    runs = tuple((stream, 0, -(-words // 4)) for stream, words in streams)
    out = philox_block(seeds, *_layout(runs))
    # Rows 4r .. 4r + 3 hold block row r: each stream's words are one slice.
    words = out.swapaxes(0, 1).reshape(4 * out.shape[1], seeds.size)
    ends = 4 * np.cumsum([count for _, _, count in runs])
    return tuple(
        BlockStream._holding(seeds, stream, words[end - 4 * count : end])
        for (stream, _, count), end in zip(runs, ends.tolist())
    )
