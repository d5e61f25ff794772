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
stream, counter).  :func:`philox_block` is the one way into the
Philox4x64-10 kernel: for an array of seeds it computes the blocks named by
runs ``(stream, first, count)``, and :func:`block_streams` turns one such
call into a flow's party streams, each a :class:`BlockStream` that hands
its words out the way the numpy generator consumes them, through four
draws that each take a run of values in one call: ``draw_bits``,
``draw_bit_pairs``, ``bounded`` and ``randoms``.  Of the ten Philox
rounds, round 1 never reads the seed and round 2 reads it through one
product, so their (stream, counter) half, the seed-free prologue, is cached
per layout of runs: a flow's fixed runs cost it once per process, the seed
half costs one product per seed, and only rounds 3 to 10 run on every
(seed, stream, counter) cell.  Every flow evaluates an array of seeds at
once; a single run is the same flow on a one-element array, whose
one-block streams run all ten rounds on Python ints.  Bounded draws
(``integers`` and ``choice``) use Lemire's multiply-shift, which draws
again with probability below ``high / 2**32``.  A one-seed stream draws
again exactly as numpy does; a stream over many seeds hands each seed that
drew again to a one-seed stream of its own, so every seed of every stream
gets the generator's values and no flow sees a redraw.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import as_integer

_MASK64 = (1 << 64) - 1

# Stream identifiers.  BOB_AUX covers Bob's draws made outside the core
# exchange: the coin-flip wrapper's announced bit.
ALICE = 0
BOB = 1
BOB_AUX = 3

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# The shifts that bring a word's low and high 32-bit halves down, as a
# column to broadcast against words.
_HALF_SHIFTS = np.array([[0], [32]], dtype=np.uint64)
_HALF_SHIFTS.setflags(write=False)

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
# Columns per pass of the stacked rounds: wide enough to spread each ufunc
# call's fixed cost, narrow enough to keep a round's temporaries in cache.
_COLUMNS = 4096
# Distinct layouts of runs kept cached, each with its seed-free prologue,
# and distinct lists of bounded draws' ranges, each with its Lemire bounds.
_LAYOUTS = 32
_RANGES = 32


def _spread(row0: np.uint64, row1: np.uint64) -> np.ndarray:
    # _COLUMNS copies of row0 and then of row1, read-only.  The middle
    # 2 * width entries are the rows of a pass of width columns, contiguous:
    # numpy multiplies two contiguous arrays about twice as fast as it
    # broadcasts a column against one or steps through a strided view.
    spread = np.repeat(np.array((row0, row1), dtype=np.uint64), _COLUMNS)
    spread.setflags(write=False)
    return spread


# The same constants spread for a pass over both lane pairs: row 0
# multiplies c0 and bumps k0, row 1 multiplies c2 and bumps k1.
_STACKED_MUL = tuple(_spread(*pair) for pair in zip(*_PHILOX_MUL))
_STACKED_WEYL = _spread(*_KEY_STEP)


def seed_array(seed: int) -> np.ndarray:
    """A run's seed, reduced mod 2**64, as the one-element uint64 array the
    flows take: any integer but a bool, else
    :class:`~rotlab.linalg.ValidationError`."""
    return np.array([as_integer("seed", seed) & _MASK64], dtype=np.uint64)


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


def philox_block(seeds: np.ndarray, runs: tuple[tuple[int, int, int], ...]) -> np.ndarray:
    """The Philox4x64-10 words of the blocks ``runs`` names, under the key
    ``[seed, stream]`` for every seed: shape ``(4 * blocks, len(seeds))``.

    A run ``(stream, first, count)`` names the blocks of its stream at
    counters ``first + 1 .. first + count``, in order, and the runs follow
    each other.  ``Philox(key=[seed, stream])`` hands out the block at
    counter ``b + 1`` as its words ``4b .. 4b + 3``, so a run
    ``(stream, 0, count)`` holds a fresh generator's first ``4 * count``
    words.

    Rounds 1 and 2 are split by what they depend on.  Round 1 never reads
    the seed and round 2 reads it through one product, so their
    (stream, counter) half, the seed-free prologue, is computed once per
    layout of runs and cached with it, and the seed half once per seed;
    only rounds 3 to 10 run on every (seed, stream, counter) cell.  One
    seed whose runs are each one block runs all ten rounds on Python ints.
    """
    if seeds.size == 1 and all(count == 1 for _, _, count in runs):
        # At a twentieth of the stacked rounds' cost per block.
        seed = int(seeds[0])
        blocks = [_single_rounds(seed, stream, first + 1) for stream, first, _ in runs]
        return np.array(blocks, dtype=np.uint64).reshape(4 * len(runs), 1)
    out = _seeded_rounds(seeds, _layout(runs))
    # Rows 4r .. 4r + 3 hold block r.
    return out.swapaxes(0, 1).reshape(4 * out.shape[1], seeds.size)


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
def _layout(runs: tuple[tuple[int, int, int], ...]) -> tuple[np.ndarray, ...]:
    # The seed-free prologue of the blocks runs name, one row per block and
    # in order, shaped (rows, 1) to broadcast against seeds, and read-only,
    # since every call with these runs shares it.  Round 1 on [c, 0, 0, 0]
    # under key [s, t] leaves the lanes (s, 0, hi(M0 c) ^ t, lo(M0 c)), so
    # round 2 leaves
    #   (hi(M1 x) ^ (s + W0), lo(M1 x), hi(M0 s) ^ lo(M0 c) ^ (t + W1), lo(M0 s))
    # for x = hi(M0 c) ^ t.  Returns hi(M1 x), lo(M1 x), lo(M0 c) ^ (t + W1)
    # and round 3's key word t + 2 W1.
    t = np.repeat(np.array([stream for stream, _, _ in runs], dtype=np.uint64), [n for _, _, n in runs])[:, None]
    c = np.concatenate([np.arange(n, dtype=np.uint64) + np.uint64(first + 1) for _, first, n in runs])[:, None]
    with np.errstate(over="ignore"):
        hi0, lo0 = _mulhilo(_PHILOX_MUL[0], c)
        hi1, lo1 = _mulhilo(_PHILOX_MUL[1], hi0 ^ t)
        rows = hi1, lo1, lo0 ^ (t + _KEY_STEP[1]), t + _KEY_STEP2[1]
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
    # (c1, c3) = (lo(c2), lo(c0)), against the stacked constants' rows.
    width = key.shape[1]
    middle = slice(_COLUMNS - width, _COLUMNS + width)
    mul = tuple(c[middle].reshape(2, width) for c in _STACKED_MUL)
    weyl = _STACKED_WEYL[middle].reshape(2, width)
    with np.errstate(over="ignore"):
        for round_index in range(2, _PHILOX_ROUNDS):
            if round_index > 2:
                key = key + weyl
            hi, lo = _mulhilo(mul, even)
            even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return even, odd


class BlockStream:
    """The draws of stream ``(seed, stream)`` for an array of seeds.

    Holds the first whole Philox blocks of each seed's stream, which
    :func:`block_streams` computes with a flow's other streams in one
    :func:`philox_block` call, and hands their words out the way numpy's
    generator consumes them.  A 32-bit value comes from the buffered high
    half of the last word split, if there is one, and otherwise from the
    low half of a fresh word, whose high half is then buffered.

    It hands values out through four draws, each taking ``count`` values,
    or one per range, in one call, shaped ``(count, len(seeds))``:
    :meth:`draw_bits` is ``integers(0, 2)``, the top bit of a 32-bit value;
    :meth:`draw_bit_pairs` takes such bits two at a time, both from one
    word when none is buffered; :meth:`bounded` is ``integers(0, high + 1)``
    and the draws of ``choice``, Lemire's multiply-shift on one 32-bit
    value each; and :meth:`randoms` is ``random()``, the next whole word as
    ``(word >> 11) * 2**-53``, leaving the 32-bit buffer alone.  A single
    value is a call for one.  Asking for more words than it holds raises
    IndexError, unless a one-seed stream has drawn again: it then extends
    itself by whole Philox blocks.

    Where a stream over many seeds meets a Lemire rejection, the seed's
    lane gets a one-seed stream of its own, its words fresh from the
    kernel, which takes the call again from where it started and draws
    again as the generator does; from then on every draw splices that
    lane's values from its own stream.
    """

    def __init__(self, seeds: np.ndarray, stream: int, words: np.ndarray):
        # words: the stream's first blocks, shape (4 * blocks, len(seeds)).
        self._seeds = seeds
        self._stream = stream
        self._words = words
        self._used = 0
        self._buffered: int | None = None  # the word whose high half is next
        self._extends = False
        self._alone: dict[int, BlockStream] = {}  # the lanes that drew again

    def _take(self, count: int) -> np.ndarray:
        held = len(self._words)
        if self._used + count > held:
            if not self._extends:
                raise IndexError(f"stream holds {held} words, asked for word {self._used + count}")
            blocks = -(-(self._used + count - held) // 4)
            extra = philox_block(self._seeds, ((self._stream, held // 4, blocks),))
            self._words = np.concatenate((self._words, extra))
        words = self._words[self._used : self._used + count]
        self._used += count
        return words

    def _halves(self, count: int) -> np.ndarray:
        """The next ``count`` 32-bit values, shape ``(count, len(seeds))``.
        A lone value splits off no half it does not return: it is the
        buffered high half, or a fresh word's low half."""
        parts = []
        if count and self._buffered is not None:
            parts.append(self._words[self._buffered][None] >> _SHIFT32)
            count -= 1
            self._buffered = None
        if count or not parts:  # unless the buffered half was all it asked for
            words = self._take((count + 1) // 2)
            if count % 2:
                self._buffered = self._used - 1
            if count == 1:
                parts.append(words & _LOW32)
            else:
                split = (words[:, None] >> _HALF_SHIFTS).reshape(2 * len(words), words.shape[-1])
                parts.append(split[:count] & _LOW32)
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def _splice(self, values: np.ndarray, draw, arg) -> np.ndarray:
        # values, with each lane that drew again taking draw(arg) from its
        # own stream.
        for lane, alone in self._alone.items():
            values[:, lane] = draw(alone, arg)[:, 0]
        return values

    def _bits(self, count: int) -> np.ndarray:
        return (self._halves(count) >> np.uint64(31)).astype(np.intp)

    def draw_bits(self, count: int) -> np.ndarray:
        return self._splice(self._bits(count), BlockStream.draw_bits, count)

    def draw_bit_pairs(self, count: int) -> np.ndarray:
        """The next ``2 * count`` bits as ``count`` pair indices ``2 * b + c``
        of consecutive bits ``b, c``, shape ``(count, len(seeds))``.  With no
        half word buffered, a pair is the top bits of one word's two halves,
        its bits 31 and 63."""
        if self._buffered is not None:
            bits = self._bits(2 * count)
            pairs = 2 * bits[0::2] + bits[1::2]
        else:
            words = self._take(count)
            pairs = (((words >> np.uint64(30)) & np.uint64(2)) | (words >> np.uint64(63))).astype(np.intp)
        return self._splice(pairs, BlockStream.draw_bit_pairs, count)

    def bounded(self, highs) -> np.ndarray:
        """One draw in ``[0, high]`` per entry of ``highs``, a sequence of
        ints each at least 1, in order, shaped ``(len(highs), len(seeds))``.

        Lemire's method takes ``(u * (high + 1)) >> 32`` of a 32-bit value
        ``u`` and draws again while the low 32 bits of that product fall
        below ``(2**32 - 1 - high) mod (high + 1)``, which happens with
        probability below ``high / 2**32``.  A one-seed stream draws again,
        so its values and later draws are the generator's.  Over many
        seeds, a seed where a draw fell below the threshold is handed to a
        one-seed stream that takes the call again from its start.
        """
        span, threshold = _lemire_bounds(tuple(highs))
        start = self._used, self._buffered
        product = self._halves(len(span)) * span
        rejected = ((product & _LOW32) < threshold).any(axis=0)
        if self._seeds.size == 1 and rejected[0]:
            # Draw again from the start, one 32-bit value at a time.
            self._used, self._buffered = start
            self._extends = True
            for index in range(len(span)):
                product[index] = self._halves(1)[0] * span[index]
                while (product[index, 0] & _LOW32) < threshold[index, 0]:
                    product[index] = self._halves(1)[0] * span[index]
        else:
            for lane in np.flatnonzero(rejected).tolist():
                if lane not in self._alone:
                    # The lane's own stream, as many fresh blocks as this
                    # one holds, at the call's start.
                    seed = self._seeds[lane : lane + 1]
                    words = philox_block(seed, ((self._stream, 0, len(self._words) // 4),))
                    alone = BlockStream(seed, self._stream, words)
                    alone._used, alone._buffered = start
                    self._alone[lane] = alone
        return self._splice((product >> _SHIFT32).astype(np.intp), BlockStream.bounded, highs)

    def randoms(self, count: int) -> np.ndarray:
        return self._splice((self._take(count) >> np.uint64(11)) * 2.0**-53, BlockStream.randoms, count)


@lru_cache(maxsize=_RANGES)
def _lemire_bounds(highs: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    # Lemire's span high + 1 and rejection threshold per entry of highs,
    # shaped (len(highs), 1) to broadcast against seeds, and read-only.
    span = np.array(highs, dtype=np.uint64)[:, None] + np.uint64(1)
    threshold = (_LOW32 - (span - np.uint64(1))) % span
    span.flags.writeable = threshold.flags.writeable = False
    return span, threshold


def block_streams(seeds: np.ndarray, streams) -> tuple[BlockStream, ...]:
    """One :class:`BlockStream` per ``(stream, words)`` pair of ``streams``,
    all over ``seeds``, in order, each holding at least its ``words``.

    Every stream's blocks come from one :func:`philox_block` call: stream
    ``s`` needing ``words`` is the run ``(s, 0, ceil(words / 4))``, so no
    stream is padded to the longest, and the flow's runs, fixed by
    ``streams``, find their prologue cached after the first call.  A
    stream's words depend only on (seed, stream, counter), so each is the
    stream a call for it alone would give.
    """
    runs = tuple((stream, 0, -(-words // 4)) for stream, words in streams)
    words = philox_block(seeds, runs)
    ends = 4 * np.cumsum([count for _, _, count in runs])
    return tuple(
        BlockStream(seeds, stream, words[end - 4 * count : end])
        for (stream, _, count), end in zip(runs, ends.tolist())
    )
