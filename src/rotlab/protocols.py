"""Executable two-party protocol state machines.

Each run function simulates one honest execution end to end, records every
message exchanged in a :class:`Transcript`, and returns the honest parties'
outputs.  Runs are deterministic functions of (protocol, seed): each party
draws from its own counter-based stream, so transcripts replay exactly and
an adversarial variant can replace one side without perturbing the other.

The five flows:

* ``run_bad_classical``  - Bob announces the bit or NULL on his own coin.
* ``run_bad_qubit``      - Bob sends the bit as a basis state; Alice's coin
  decides between measuring and discarding.
* ``run_qutrit``         - the two-qutrit exchange: Alice's entangled probe,
  Bob's phase encoding of a permuted bit pair, Alice's two-outcome
  measurement, whose outcome is the bit at her position, and Bob's
  permutation announcement.
* ``run_sequence``       - Bob ships a batch of two-qubit states, Alice
  spot-checks a square-root-sized sample and decodes one bit per remaining
  state; Bob declares per state which bit counts.
* ``run_coinflip_reduction`` - wraps any of the above into a coin flip:
  Bob checks Alice's claimed output, and :func:`coin_flip_results`, the
  rule the coin-flip cheating strategies read too, decides the result.

Each flow is written once, as a block form over an array of trial seeds:
the three single-transfer forms in ``ROT_EXECUTORS``, and
``sequence_setup_block``, ``sequence_spot_check_block`` and
``play_sequence_block`` for the sequence flow, which the cheating and
detection runs share.  They draw from :class:`~rotlab.rng.BlockStream`,
taking a party's consecutive draws of one kind in one call, and sample
each two-outcome measurement with one comparison, against the
thresholds that :func:`~rotlab.linalg.sampling_thresholds` builds from a
table of its Born weights.  Those tables depend on nothing else, so they
are read-only module constants, built at import.  The sequence forms step
through no slot or draw one at a time: Alice's test set, Floyd's picks, is
settled for all of its draws at once (see :func:`sequence_setup_block`),
and her spot check and untested-slot decode each look their thresholds
and outputs up in flat tables, by pair index.  :func:`slot_pairs` reads
each seed's pair at given slots, so no other module indexes a slot of an
``(n_states, seeds)`` table.  The spot check draws and gathers nothing
itself but takes the tested slots' uniforms and the pair indices sent
and announced at those slots, each shaped like the test set.  So the
honest flow draws all of Alice's uniforms in one call, and a detection
run only the tested slots' ones, modelling Bob's lie as an edit of rows
of the tested slots' pairs.  A run is its block form on one seed, with
the transcript rendered from the bits it drew; the Monte-Carlo harness
calls the block forms and builds no transcript.

Each protocol fact is defined here once, in the form the flows read.  The
cheating strategies share Alice's qutrit probe (``QUTRIT_PROBES``, one row
per choice bit), Bob's phase encoding (``QUTRIT_ENCODING_SIGNS``, signs
that multiply the amplitudes of his qutrit), his permutation of the bit
pair (``OT_PAIR_INDEX``, the pair index per (y, z_dummy, p)) and the bit a
sequence pair holds at a declared index (:func:`pair_bit`).  Alice's Z and
X bases are one stack indexed like the tables, 0 for Z and 1 for X, and
her untested-slot decode is the table ``SEQUENCE_DECODE``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import (
    ValidationError,
    as_integer,
    projections,
    projective_measurement,
    sampling_thresholds,
)
from .rng import ALICE, BOB, BOB_AUX, BlockStream, block_streams, seed_array


def _read_only(table: np.ndarray) -> np.ndarray:
    # The table, made read-only: every run shares it.
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class Message:
    index: int
    sender: str  # "A" or "B"
    label: str
    payload: object  # JSON-serialisable


class Transcript:
    """Ordered log of the messages exchanged during one run."""

    def __init__(self):
        self._messages: list[Message] = []

    def record(self, sender: str, label: str, payload) -> None:
        self._messages.append(Message(len(self._messages), sender, label, payload))

    @property
    def messages(self) -> tuple[Message, ...]:
        return tuple(self._messages)

    def to_jsonl(self) -> str:
        # One JSON object per message, its fields in Message's order.
        return "\n".join(json.dumps(asdict(msg)) for msg in self._messages) + "\n"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transcript):
            return NotImplemented
        return self.messages == other.messages

    def __repr__(self) -> str:
        return f"Transcript({len(self._messages)} messages)"


def _state_payload(amplitudes, subsystem: str | None = None, **extra) -> dict:
    payload = dict(extra)
    payload["dim"] = len(amplitudes)
    # + 0.0 renders a -0.0 part, which Bob's sign flips leave, as 0.0.
    payload["amplitudes"] = [[float(z.real) + 0.0, float(z.imag) + 0.0] for z in np.asarray(amplitudes)]
    if subsystem is not None:
        payload["subsystem"] = subsystem
    return payload


@dataclass(frozen=True)
class RotOutcome:
    """Honest Alice's output of one transfer: the received bit or NULL."""

    g_hat: int | None
    assert_bit: int
    bob_bit: int | None
    aborted: bool = False

    def __post_init__(self):
        expected = 0 if self.g_hat is not None else 1
        if self.assert_bit != expected:
            raise ValidationError("assert_bit must be 0 exactly when a bit was received")
        if self.g_hat not in (0, 1, None):
            raise ValidationError(f"g_hat must be 0, 1 or None, got {self.g_hat!r}")
        if self.bob_bit is None and not self.aborted:
            raise ValidationError("bob_bit may only be missing on an abort sentinel")

    @classmethod
    def received(cls, bit: int, bob_bit: int) -> "RotOutcome":
        return cls(g_hat=bit, assert_bit=0, bob_bit=bob_bit)

    @classmethod
    def null(cls, bob_bit: int) -> "RotOutcome":
        return cls(g_hat=None, assert_bit=1, bob_bit=bob_bit)

    @classmethod
    def abort_sentinel(cls) -> "RotOutcome":
        return cls(g_hat=None, assert_bit=1, bob_bit=None, aborted=True)


# Bob's bit pair (x0, x1) as the index 2 * x0 + x1, per (y, z_dummy, p): his
# data bit y at position p and z_dummy at the other.
OT_PAIR_INDEX = _read_only(np.array([[[2 * y + z_dummy, 2 * z_dummy + y] for z_dummy in (0, 1)] for y in (0, 1)]))


class CoinResult(Enum):
    HEADS = "HEADS"
    TAILS = "TAILS"
    ABORT = "ABORT"


@dataclass(frozen=True)
class CoinOutcome:
    result: CoinResult
    a: int
    b: int

    def __post_init__(self):
        heads = self.result is CoinResult.HEADS
        if heads != (self.result is not CoinResult.ABORT and self.a == self.b):
            raise ValidationError("HEADS exactly when no abort and a == b")


# The smallest sequence batch, and the largest.  One run holds about
# 2 * n_states words per party, so the largest keeps a single run as small
# as a default engine block.
MIN_SEQUENCE_STATES = 4
MAX_SEQUENCE_STATES = 1 << 16


@dataclass(frozen=True)
class SequenceConfig:
    """Batch size and derived spot-check size for the sequence protocol."""

    n_states: int

    def __post_init__(self):
        object.__setattr__(self, "n_states", as_integer("n_states", self.n_states))
        if self.n_states < MIN_SEQUENCE_STATES:
            raise ValidationError(f"sequence protocol needs at least {MIN_SEQUENCE_STATES} states")
        if self.n_states > MAX_SEQUENCE_STATES:
            raise ValidationError(f"sequence protocol takes at most {MAX_SEQUENCE_STATES} states")

    @property
    def test_size(self) -> int:
        """floor(sqrt(n_states)) slots are spot-checked."""
        return math.isqrt(self.n_states)


# --------------------------------------------------------------------------
# Qutrit protocol building blocks
# --------------------------------------------------------------------------


# Alice's probe per choice bit a: the equal superposition of |aa> and |22>
# on two qutrits, amplitude 3 * i + j for her |i> and Bob's |j>.
QUTRIT_PROBES = np.zeros((2, 9), dtype=np.complex128)
QUTRIT_PROBES[[0, 1], [0, 4]] = 1.0 / math.sqrt(2.0)
QUTRIT_PROBES[:, 8] = 1.0 / math.sqrt(2.0)
QUTRIT_PROBES.setflags(write=False)


# Bob's phase encoding diag((-1)^x0, (-1)^x1, 1), per pair index 2 * x0 + x1.
QUTRIT_ENCODING_SIGNS = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])
QUTRIT_ENCODING_SIGNS.setflags(write=False)


def _encode_qutrit(pairs, amplitudes: np.ndarray) -> np.ndarray:
    # Bob's phase encoding of the pair indices on two-qutrit amplitudes,
    # index 3 * i + j for Alice's |i> and his |j>: each amplitude times the
    # sign of his j.
    return np.tile(QUTRIT_ENCODING_SIGNS[pairs], 3) * amplitudes


# Alice's two-outcome check per choice bit: the projector onto her probe
# against the rest.
QUTRIT_CHECKS = _read_only(
    np.array(
        [
            projective_measurement((pi0, np.eye(9) - pi0))
            for pi0 in QUTRIT_PROBES[:, :, None] * QUTRIT_PROBES[:, None].conj()
        ]
    )
)


# --------------------------------------------------------------------------
# Sequence protocol building blocks
# --------------------------------------------------------------------------

# Bob's state per bit pair (x0, x1), in row 2 * x0 + x1: |00>, |++>, |-->
# and |11>, as read-only amplitudes.
SEQUENCE_STATES = np.array(
    [[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5], [0.5, -0.5, -0.5, 0.5], [0.0, 0.0, 0.0, 1.0]],
    dtype=np.complex128,
)
SEQUENCE_STATES.setflags(write=False)

# Alice's single-qubit measurements, per basis, 0 for Z and 1 for X, and
# outcome; and their lifts to the two-qubit space, per qubit, basis and
# outcome.
_QUBIT_BASES = _read_only(
    np.array(
        [
            projective_measurement((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))),
            projective_measurement((np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]]))),
        ]
    )
)
_QUBIT_LIFTS = _read_only(np.array([np.kron(_QUBIT_BASES, np.eye(2)), np.kron(np.eye(2), _QUBIT_BASES)]))

# Untested-index decode: qubit 1 read in Z, qubit 2 in X.  Each outcome pair
# rules out two of the four states and pins one bit of the pair:
# [m1, m2] -> (which bit is learned, its value).
SEQUENCE_DECODE = _read_only(np.array([[[0, 0], [1, 0]], [[1, 1], [0, 1]]]))


# --------------------------------------------------------------------------
# Block forms of the single-transfer runs
# --------------------------------------------------------------------------


class RotOutcomeBlock(NamedTuple):
    """Honest Alice's outputs over a block of trials, one array entry per
    trial as :class:`RotOutcome` gives them; ``g_hat`` is meaningful only
    where ``assert_bit`` is 0."""

    g_hat: np.ndarray
    assert_bit: np.ndarray
    bob_bit: np.ndarray


def _bad_classical_block(seeds: np.ndarray) -> RotOutcomeBlock:
    (bob,) = block_streams(seeds, ((BOB, 4),))
    y, keep = bob.draw_bits(2)
    return RotOutcomeBlock(g_hat=y, assert_bit=keep, bob_bit=y)


# Born weights of Alice's Z measurement, per Bob's bit: on the rows of the
# identity, the basis states |0> and |1>; and her outcome-1 threshold.
_BAD_QUBIT_WEIGHTS = _read_only(projections(np.eye(2), _QUBIT_BASES[0])[1])
_BAD_QUBIT_THRESHOLDS = sampling_thresholds(_BAD_QUBIT_WEIGHTS)


def _bad_qubit_block(seeds: np.ndarray) -> RotOutcomeBlock:
    alice, bob = block_streams(seeds, ((ALICE, 4), (BOB, 4)))
    (y,) = bob.draw_bits(1)
    (discard,) = alice.draw_bits(1)
    # Drawn for every trial; it is Alice's last draw, used only where she measures.
    outcome = (alice.randoms(1)[0] >= _BAD_QUBIT_THRESHOLDS[y]).astype(np.intp)
    return RotOutcomeBlock(g_hat=outcome, assert_bit=discard, bob_bit=y)


# Born weights of Alice's measurement, per (a, y, z_dummy, p, outcome): the
# outcome distribution run_qutrit samples from in each classical context;
# and her outcome-1 threshold, per (a, y, z_dummy, p).
_QUTRIT_WEIGHTS = _read_only(
    projections(_encode_qutrit(np.arange(4), QUTRIT_PROBES[:, None]), QUTRIT_CHECKS[:, None])[1][:, OT_PAIR_INDEX]
)
_QUTRIT_THRESHOLDS = sampling_thresholds(_QUTRIT_WEIGHTS)


def _qutrit_draws(seeds: np.ndarray) -> tuple[tuple[np.ndarray, ...], RotOutcomeBlock]:
    # Alice's choice bit a and Bob's (y, z_dummy, p), per seed, and honest
    # Alice's outputs.  Bob's phase flips the |aa> term of her probe exactly
    # when x_a = 1, so her outcome is x_a, the bit she receives when a = p.
    alice, bob = block_streams(seeds, ((ALICE, 4), (BOB, 4)))
    (a,) = alice.draw_bits(1)
    y, z_dummy, p = bob.draw_bits(3)
    outcome = (alice.randoms(1)[0] >= _QUTRIT_THRESHOLDS[a, y, z_dummy, p]).astype(np.intp)
    return (a, y, z_dummy, p), RotOutcomeBlock(g_hat=outcome, assert_bit=(a != p).astype(np.intp), bob_bit=y)


def _qutrit_block(seeds: np.ndarray) -> RotOutcomeBlock:
    return _qutrit_draws(seeds)[1]


# --------------------------------------------------------------------------
# Block forms of the sequence flow
# --------------------------------------------------------------------------
#
# A bit pair (x0, x1) is the row 2 * x0 + x1 of SEQUENCE_STATES, and a
# basis is 0 for Z and 1 for X, so the test basis of a pair is x0 ^ x1.


class SequenceSetupBlock(NamedTuple):
    """The start every sequence flow shares, over a block of seeds: both
    party streams, ``pairs``, Bob's pair index per slot, shape
    ``(n_states, seeds)``, ``tested``, Alice's sorted test set, shape
    ``(test_size, seeds)``, and ``is_tested``, the same set as a mask shaped
    like ``pairs``.  ``slot_pairs(pairs, tested)`` reads the tested slots'
    pairs, shaped like ``tested``."""

    alice: BlockStream
    bob: BlockStream
    pairs: np.ndarray
    tested: np.ndarray
    is_tested: np.ndarray


class SequenceBlock(NamedTuple):
    """The honest sequence flow over a block of seeds.  ``pairs`` and
    ``tested`` are as in :class:`SequenceSetupBlock`; ``failed`` is the
    first failing tested slot, or -1; ``declared`` holds Bob's declared bit
    index and ``outcomes`` Alice's output, one row per untested slot, in
    order, meaningful only where ``failed`` is -1."""

    pairs: np.ndarray
    tested: np.ndarray
    failed: np.ndarray
    declared: np.ndarray
    outcomes: RotOutcomeBlock


def _two_qubit_weights(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Born weights of qubit 1, per (state, basis), and of qubit 2 on the
    # state qubit 1's outcome m1 leaves, per (state, basis, m1, basis of
    # qubit 2).  An outcome of weight 0 is never sampled; it leaves no
    # state, and its second weights are 0.
    projected, first = projections(states[:, None], _QUBIT_LIFTS[0])
    norms = np.sqrt(first)[..., None]
    after = np.divide(projected, norms, out=np.zeros_like(projected), where=norms > 0.0)
    second = projections(after[..., None, :], _QUBIT_LIFTS[1])[1]
    return _read_only(first), _read_only(second)


# The Born weights of the two qubits of each pair's state, and Alice's
# untested-slot decode, per (m1, m2), as (learned index, learned value).
_SEQUENCE_TABLES = (*_two_qubit_weights(SEQUENCE_STATES), SEQUENCE_DECODE)
# The outcome-1 thresholds of qubit 1, per (pair, basis), and of qubit 2,
# per (pair, basis, m1, basis of qubit 2).
_SEQUENCE_THRESHOLDS = tuple(sampling_thresholds(weights) for weights in _SEQUENCE_TABLES[:2])


def pair_bit(pairs: np.ndarray, index) -> np.ndarray:
    """Bit ``index`` of each pair index 2 * x0 + x1: x0 at index 0, x1 at
    index 1."""
    return (pairs >> (1 - np.asarray(index))) & 1


def _flat_index(rows: np.ndarray) -> np.ndarray:
    # Where each seed's entry at ``rows`` sits in a flattened (rows, seeds)
    # table, the last axis of ``rows`` running over the seeds: row r of
    # seed i is entry r * seeds + i.
    return rows * rows.shape[-1] + np.arange(rows.shape[-1])


def slot_pairs(pairs: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Each seed's pair index at ``slots``, shaped like ``slots``, from
    ``pairs``, shape ``(n_states, seeds)``: the last axis of ``slots`` runs
    over the seeds."""
    return pairs.take(_flat_index(slots))


def _spot_check_tables(first: np.ndarray, second: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    # Alice's check of a tested slot, per 4 * sent + announced pair index,
    # from the sequence thresholds of qubit 1 and of qubit 2: both read in
    # the announced pair's test basis x0 ^ x1, and the outcome both must
    # show, the announced x0.  Qubit 2's outcome only counts where qubit 1
    # showed that one, so its threshold is the one on the state that
    # outcome leaves.
    sent, announced = np.divmod(np.arange(16), 4)
    basis = pair_bit(announced, 0) ^ pair_bit(announced, 1)
    expected = pair_bit(announced, 0)
    thresholds = (_read_only(first[sent, basis]), _read_only(second[sent, basis, expected, basis]))
    return thresholds, _read_only(expected.astype(bool))


_SPOT_CHECK_TABLES = _spot_check_tables(*_SEQUENCE_THRESHOLDS)


def _tested_fails(sent: np.ndarray, announced: np.ndarray, rand: np.ndarray) -> np.ndarray:
    # Whether each tested slot fails Alice's check, for the pair indices
    # sent and announced, shape (test_size, seeds), and her uniforms, two
    # per slot in order: a slot passes when both qubits show the expected
    # outcome.
    (first, second), expected = _SPOT_CHECK_TABLES
    index = 4 * sent
    index += announced
    expected = expected.take(index)
    fails = rand[0::2] >= first.take(index)
    fails ^= expected
    second_fails = rand[1::2] >= second.take(index)
    second_fails ^= expected
    fails |= second_fails
    return fails


def _decode_tables(first, second, decode) -> tuple[np.ndarray, np.ndarray, RotOutcomeBlock]:
    # Alice's untested-slot reading, qubit 1 in Z and qubit 2 in X, as flat
    # tables, from the sequence thresholds and decode: qubit 1's outcome-1
    # threshold, per pair; qubit 2's, per 2 * pair + m1; and her outputs,
    # per 2 * (4 * pair + 2 * m1 + m2) + declared, from the decode of
    # (m1, m2).
    pair, m1, m2, declared = np.indices((4, 2, 2, 2)).reshape(4, -1)
    learned_index, learned_value = decode[m1, m2].T
    outputs = (learned_value, (learned_index != declared).astype(np.intp), pair_bit(pair, declared))
    return first[:, 0], _read_only(second[:, 0, :, 1].ravel()), RotOutcomeBlock(*map(_read_only, outputs))


_DECODE_TABLES = _decode_tables(*_SEQUENCE_THRESHOLDS, SEQUENCE_DECODE)


def _untested_outcomes(sent: np.ndarray, declared: np.ndarray, rand: np.ndarray) -> RotOutcomeBlock:
    # Alice's outputs on the untested slots, for the pair indices sent and
    # Bob's declared indices, shape (n_states - test_size, seeds), and her
    # uniforms, two per slot in order.
    first, second, outputs = _DECODE_TABLES
    code = 2 * sent
    code += rand[0::2] >= first.take(sent)
    m2 = rand[1::2] >= second.take(code)
    code <<= 2
    code += 2 * m2 + declared
    return RotOutcomeBlock(*(table.take(code) for table in outputs))


@lru_cache(maxsize=32)
def _choice_highs(n: int, k: int) -> tuple[int, ...]:
    # The ranges [0, high] of choice(n, k, replace=False)'s draws: Floyd's
    # j from n - k to n - 1, then the shuffle's i from k - 1 down to 1.
    return tuple(range(n - k, n)) + tuple(range(k - 1, 0, -1))


@lru_cache(maxsize=None)
def _earlier(k: int) -> np.ndarray:
    # [t, s, 0] is True where s < t: the draws before draw t; read-only,
    # since every call with k shares it.
    return _read_only(np.tri(k, k, -1, dtype=bool)[..., None])


def _floyd_test_sets(draws: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # Floyd's picks from its k draws per seed, draws shape (k, seeds): each
    # seed's sorted, shape (k, seeds), and as a mask, shape (n, seeds).
    # Draw t lies in [0, j] for j = n - k + t, and gives way to j when it is
    # already picked, that is when an earlier draw equals it, or when it
    # equals the j of an earlier draw that gave way.  A draw d >= n - k
    # links to draw d - (n - k), the one whose j is d (itself when d = j),
    # and a smaller draw to draw 0, which never gives way, so the draws
    # that gave way are the repeats and the draws whose chain of links
    # reaches one.  Each pass follows every link one step, over all draws
    # at once, until no more give way: one pass more than the longest chain
    # that matters, at most k.
    k, width = draws.shape
    gave_way = ((draws[:, None] == draws) & _earlier(k)).any(axis=1)
    links = np.maximum(draws, n - k)
    links -= n - k
    links = _flat_index(links)
    before, count = -1, np.count_nonzero(gave_way)
    while count > before:
        gave_way |= gave_way.take(links)
        before, count = count, np.count_nonzero(gave_way)
    picks = np.where(gave_way, np.arange(n - k, n)[:, None], draws)
    # Each seed's picks as a row of a (seeds, n) mask, whose set entries,
    # row after row, are the test sets, sorted.
    offsets = n * np.arange(width)
    picks += offsets
    chosen = np.zeros(width * n, dtype=bool)
    chosen[picks] = True
    tested = (np.flatnonzero(chosen).reshape(width, k) - offsets[:, None]).T
    return np.ascontiguousarray(tested), chosen.reshape(width, n).T


def sequence_setup_block(
    cfg: SequenceConfig, seeds: np.ndarray, alice_words: int = 0, bob_words: int = 0
) -> SequenceSetupBlock:
    """Both party streams, Bob's ``n_states`` bit pairs and Alice's sorted
    test set, for an array of seeds; the streams also hold the
    ``alice_words`` and ``bob_words`` 64-bit words each party draws after
    them.

    Bob's pair at a slot is two bits, the top bits of one word's halves.
    Alice's test set is ``choice(n, k, replace=False)``: Floyd's algorithm,
    one Lemire draw in ``[0, j]`` for each j from n - k to n - 1, a draw
    already picked giving way to j itself, followed by a Fisher-Yates
    shuffle of the k picks, one draw in ``[0, i]`` for each i from k - 1
    down to 1.  The test set is sorted, so the shuffle draws are taken but
    their order is unused.  Those 2k - 1 32-bit values fill k words.
    Floyd's steps are not run one after another: which draws gave way is
    decided for all of them at once, from the draws they equal and the
    chains of draws that equal an earlier step's j.
    """
    n, k = cfg.n_states, cfg.test_size
    alice, bob = block_streams(seeds, ((ALICE, k + alice_words), (BOB, n + bob_words)))
    pairs = bob.draw_bit_pairs(n)
    draws = alice.bounded(_choice_highs(n, k))
    return SequenceSetupBlock(alice, bob, pairs, *_floyd_test_sets(draws[:k], n))


def sequence_spot_check_block(rand: np.ndarray, tested, sent, announced) -> np.ndarray:
    """Alice's consistency check of the tested slots, in order: the first
    failing tested slot per seed, or -1.  ``rand`` holds her uniforms for
    the tested slots, two per slot in order, shape ``(2 * test_size,
    seeds)``; ``tested`` holds the tested slots, shape ``(test_size,
    seeds)``, and ``sent`` and ``announced``, shaped like it, the pair
    index whose state Bob sent at each tested slot and the one he
    announces for it.  Every tested slot takes its two uniforms; the
    outcomes after the first failure are not used, as the check stops
    there."""
    fails = _tested_fails(sent, announced, rand)
    first = np.where(fails, tested, MAX_SEQUENCE_STATES).min(axis=0)
    return np.where(first < MAX_SEQUENCE_STATES, first, -1)


def play_sequence_block(cfg: SequenceConfig, seeds: np.ndarray) -> SequenceBlock:
    """The honest sequence flow for an array of seeds: each seed's pairs,
    test set and failed slot and, where it passed, Bob's declarations and
    Alice's outcomes.  Alice draws two uniforms per tested slot and then two
    per untested slot, in one call; Bob declares after his pairs, one bit
    per untested slot."""
    n, k = cfg.n_states, cfg.test_size
    setup = sequence_setup_block(cfg, seeds, alice_words=2 * n, bob_words=(n - k + 1) // 2)
    rand = setup.alice.randoms(2 * n)
    tested_pairs = slot_pairs(setup.pairs, setup.tested)
    failed = sequence_spot_check_block(rand[: 2 * k], setup.tested, tested_pairs, tested_pairs)
    # Each seed's untested slots, in order: n - k of them for every seed.
    sent = np.ascontiguousarray(setup.pairs.T[~setup.is_tested.T].reshape(seeds.size, n - k).T)
    declared = setup.bob.draw_bits(n - k)
    outcomes = _untested_outcomes(sent, declared, rand[2 * k :])
    return SequenceBlock(setup.pairs, setup.tested, failed, declared, outcomes)


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------
#
# Each run is its block form on a one-element seed array; the transcript is
# rendered from the bits that block form drew.


def _outcome(block: RotOutcomeBlock, index) -> RotOutcome:
    # The RotOutcome of one trial of a block.
    bob_bit = int(block.bob_bit[index])
    if block.assert_bit[index] == 0:
        return RotOutcome.received(int(block.g_hat[index]), bob_bit)
    return RotOutcome.null(bob_bit)


def run_bad_classical(seed: int) -> tuple[Transcript, RotOutcome]:
    """Fully classical strawman: Bob's coin decides whether he announces y."""
    out = _bad_classical_block(seed_array(seed))
    outcome = _outcome(out, 0)
    transcript = Transcript()
    transcript.record("B", "announce", {"g": outcome.g_hat})
    return transcript, outcome


def run_bad_qubit(seed: int) -> tuple[Transcript, RotOutcome]:
    """Bob sends |y>; Alice's coin decides between measuring and discarding."""
    out = _bad_qubit_block(seed_array(seed))
    transcript = Transcript()
    transcript.record("B", "qubit", _state_payload(np.eye(2)[out.bob_bit[0]]))
    return transcript, _outcome(out, 0)


def run_qutrit(seed: int) -> tuple[Transcript, RotOutcome]:
    """The two-qutrit exchange with a permuted phase-encoded bit pair."""
    (a, y, z_dummy, p), out = _qutrit_draws(seed_array(seed))
    transcript = Transcript()
    psi = QUTRIT_PROBES[a[0]]
    transcript.record("A", "qutrit_to_bob", _state_payload(psi, subsystem="B"))
    psi = _encode_qutrit(OT_PAIR_INDEX[y[0], z_dummy[0], p[0]], psi)
    transcript.record("B", "qutrit_to_alice", _state_payload(psi, subsystem="B"))
    transcript.record("B", "permutation", {"p": int(p[0])})
    return transcript, _outcome(out, 0)


def run_sequence(cfg: SequenceConfig, seed: int) -> tuple[Transcript, list[RotOutcome]]:
    """Batched transfer: spot-check a sample, decode one bit per survivor.

    On an inconsistent spot check the run aborts and the outcome list holds
    a single abort sentinel.
    """
    block = play_sequence_block(cfg, seed_array(seed))
    pairs = block.pairs[:, 0].tolist()
    tested = block.tested[:, 0].tolist()
    transcript = Transcript()
    for slot, pair in enumerate(pairs):
        transcript.record("B", "state", _state_payload(SEQUENCE_STATES[pair], slot=slot))
    transcript.record("A", "test_set", {"slots": tested})
    for slot in tested:
        transcript.record("B", "announce", {"slot": slot, "bits": list(divmod(pairs[slot], 2))})
        if slot == block.failed[0]:
            transcript.record("A", "abort", {"slot": slot})
            return transcript, [RotOutcome.abort_sentinel()]
    untested = sorted(set(range(cfg.n_states)) - set(tested))
    for slot, declared in zip(untested, block.declared[:, 0].tolist()):
        transcript.record("B", "declare", {"slot": slot, "bit_index": declared})
    return transcript, [_outcome(block.outcomes, (row, 0)) for row in range(len(untested))]


# Each single-transfer protocol's run and the block form of its outcomes,
# which the Monte-Carlo harness evaluates.  The sequence protocol's block
# form is play_sequence_block, which also takes the batch size.
ROT_EXECUTORS = {
    "bad_classical": (run_bad_classical, _bad_classical_block),
    "bad_qubit": (run_bad_qubit, _bad_qubit_block),
    "qutrit": (run_qutrit, _qutrit_block),
}
# Every protocol id, the single transfers' and then the sequence protocol's.
PROTOCOL_IDS = (*ROT_EXECUTORS, "sequence")


def coin_flip_results(assert_bit, accepted, b) -> np.ndarray:
    """The coin flip's rule, on arrays or single values: each flip's index
    into ``CoinResult``, ABORT where Bob rejected Alice's reveal, else HEADS
    where her assert bit a equals his coin bit b, else TAILS."""
    return np.where(accepted, assert_bit != b, 2)


def run_coinflip_reduction(rot: str, seed: int) -> tuple[Transcript, CoinOutcome]:
    """Coin flip built on one transfer: Bob accepts Alice's reveal of a
    NULL, which ``RotOutcome`` lets carry no bit, or of a receipt of his
    data bit, and :func:`coin_flip_results` decides.  The sequence transfer
    is the first untested slot of a ``MIN_SEQUENCE_STATES`` batch."""
    if not isinstance(rot, str) or rot not in PROTOCOL_IDS:
        raise ValidationError(f"unknown protocol id {rot!r}")
    if rot == "sequence":
        transcript, (outcome, *_) = run_sequence(SequenceConfig(MIN_SEQUENCE_STATES), seed)
    else:
        transcript, outcome = ROT_EXECUTORS[rot][0](seed)
    a = outcome.assert_bit
    (aux,) = block_streams(seed_array(seed), ((BOB_AUX, 4),))
    b = int(aux.draw_bits(1)[0, 0])
    transcript.record("B", "coin_bit", {"b": b})
    transcript.record("A", "reveal", {"assert_bit": a, "g": outcome.g_hat})
    accepted = not outcome.aborted and (a == 1 or outcome.g_hat == outcome.bob_bit)
    transcript.record("B", "verdict", {"accept": accepted})
    return transcript, CoinOutcome(list(CoinResult)[coin_flip_results(a, accepted, b)], a, b)
