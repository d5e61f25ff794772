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
* ``run_coinflip_reduction`` - wraps any of the above into a coin flip with
  a consistency check on Alice's claimed output.

Each flow is written once, as a block form over an array of trial seeds:
the three single-transfer forms in ``ROT_EXECUTORS``, and
``sequence_setup_block``, ``sequence_spot_check_block`` and
``play_sequence_block`` for the sequence flow, which the cheating and
detection runs share.  They draw from :class:`~rotlab.rng.BlockStream` and
sample each measurement with one comparison, against the thresholds that
:func:`~rotlab.linalg.cumulative_thresholds` builds once from a table of
its Born weights.  A run is its block form on one seed, with the
transcript rendered from the bits it drew; the Monte-Carlo harness calls
the block forms and builds no transcript.

Each protocol fact the cheating strategies share is defined here once:
Bob's phase encoding (``QUTRIT_ENCODING_SIGNS``), his permutation of the
bit pair (``OT_PAIR_INDEX``, from :meth:`OtPair.draw`) and the bit a
sequence pair holds at a declared index (:func:`pair_bit`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import (
    ComplexMatrix,
    ProjectiveMeasurement,
    ValidationError,
    as_integer,
    cumulative_thresholds,
    projections,
)
from .rng import ALICE, BOB, BOB_AUX, BlockStream, block_streams, seed_array


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

    def extend_from(self, other: "Transcript") -> None:
        for msg in other.messages:
            self.record(msg.sender, msg.label, msg.payload)

    @property
    def messages(self) -> tuple[Message, ...]:
        return tuple(self._messages)

    def to_jsonl(self) -> str:
        lines = []
        for msg in self._messages:
            lines.append(
                json.dumps(
                    {
                        "index": msg.index,
                        "sender": msg.sender,
                        "label": msg.label,
                        "payload": msg.payload,
                    }
                )
            )
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transcript):
            return NotImplemented
        return self.messages == other.messages

    def __repr__(self) -> str:
        return f"Transcript({len(self._messages)} messages)"


def _state_payload(amplitudes, subsystem: str | None = None, **extra) -> dict:
    payload = dict(extra)
    payload["dim"] = len(amplitudes)
    payload["amplitudes"] = [[float(z.real), float(z.imag)] for z in np.asarray(amplitudes)]
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


@dataclass(frozen=True)
class OtPair:
    """Bob's permuted bit pair: the data bit hides at position p."""

    x0: int
    x1: int
    p: int
    z_dummy: int
    y: int

    def __post_init__(self):
        expected = (self.y, self.z_dummy) if self.p == 0 else (self.z_dummy, self.y)
        if (self.x0, self.x1) != expected:
            raise ValidationError("(x0, x1) must equal the permuted (y, z_dummy)")

    @classmethod
    def draw(cls, y: int, z_dummy: int, p: int) -> "OtPair":
        x0, x1 = (y, z_dummy) if p == 0 else (z_dummy, y)
        return cls(x0=x0, x1=x1, p=p, z_dummy=z_dummy, y=y)


# Bob's bit pair as the index 2 * x0 + x1, per (y, z_dummy, p).
OT_PAIR_INDEX = np.array(
    [2 * pair.x0 + pair.x1 for pair in (OtPair.draw(*context) for context in np.ndindex(2, 2, 2))]
).reshape(2, 2, 2)
OT_PAIR_INDEX.setflags(write=False)


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


# The largest sequence batch.  One run holds about 2 * n_states words per
# party, so this keeps a single run as small as a default engine block.
MAX_SEQUENCE_STATES = 1 << 16


@dataclass(frozen=True)
class SequenceConfig:
    """Batch size and derived spot-check size for the sequence protocol."""

    n_states: int

    def __post_init__(self):
        object.__setattr__(self, "n_states", as_integer("n_states", self.n_states))
        if self.n_states < 4:
            raise ValidationError("sequence protocol needs at least 4 states")
        if self.n_states > MAX_SEQUENCE_STATES:
            raise ValidationError(f"sequence protocol takes at most {MAX_SEQUENCE_STATES} states")

    @property
    def test_size(self) -> int:
        """floor(sqrt(n_states)) slots are spot-checked."""
        return math.isqrt(self.n_states)


# --------------------------------------------------------------------------
# Qutrit protocol building blocks
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def qutrit_entangled_state(a: int) -> np.ndarray:
    """Alice's probe: equal superposition of |aa> and |22> on two qutrits,
    as read-only amplitudes."""
    amps = np.zeros(9, dtype=np.complex128)
    amps[3 * a + a] = 1.0 / math.sqrt(2.0)
    amps[3 * 2 + 2] = 1.0 / math.sqrt(2.0)
    amps.setflags(write=False)
    return amps


# Bob's phase encoding diag((-1)^x0, (-1)^x1, 1), per pair index 2 * x0 + x1.
QUTRIT_ENCODING_SIGNS = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])
QUTRIT_ENCODING_SIGNS.setflags(write=False)


@lru_cache(maxsize=None)
def qutrit_unitary(x0: int, x1: int) -> ComplexMatrix:
    """Bob's phase encoding: diag((-1)^x0, (-1)^x1, 1) on his qutrit."""
    return ComplexMatrix.diagonal(QUTRIT_ENCODING_SIGNS[2 * x0 + x1])


@lru_cache(maxsize=None)
def _qutrit_pair_unitary(x0: int, x1: int) -> np.ndarray:
    # Bob's phase encoding on both qutrits, read-only: the identity on Alice's.
    unitary = np.kron(np.eye(3), qutrit_unitary(x0, x1).data)
    unitary.setflags(write=False)
    return unitary


@lru_cache(maxsize=None)
def qutrit_measurement(a: int) -> ProjectiveMeasurement:
    """Alice's two-outcome check: projector onto her probe state vs the rest."""
    probe = qutrit_entangled_state(a)
    pi0 = np.outer(probe, probe.conj())
    return ProjectiveMeasurement((ComplexMatrix(pi0), ComplexMatrix(np.eye(9) - pi0)))


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

_Z_PROJS = ProjectiveMeasurement(
    (ComplexMatrix(np.diag([1.0, 0.0])), ComplexMatrix(np.diag([0.0, 1.0])))
)
_X_PROJS = ProjectiveMeasurement(
    (ComplexMatrix(np.full((2, 2), 0.5)), ComplexMatrix(np.array([[0.5, -0.5], [-0.5, 0.5]])))
)
# Single-qubit measurements lifted to the two-qubit space, per qubit and basis.
_QUBIT1 = {
    basis: ProjectiveMeasurement(tuple(map(ComplexMatrix, np.kron(projs.stack, np.eye(2)))))
    for basis, projs in (("Z", _Z_PROJS), ("X", _X_PROJS))
}
_QUBIT2 = {
    basis: ProjectiveMeasurement(tuple(map(ComplexMatrix, np.kron(np.eye(2), projs.stack))))
    for basis, projs in (("Z", _Z_PROJS), ("X", _X_PROJS))
}

# Untested-index decode: qubit 1 read in Z, qubit 2 in X.  Each outcome pair
# rules out two of the four states and pins one bit of the pair:
# (m1, m2) -> (which bit is learned, its value).
SEQUENCE_DECODE: dict[tuple[int, int], tuple[int, int]] = {
    (0, 0): (0, 0),
    (0, 1): (1, 0),
    (1, 0): (1, 1),
    (1, 1): (0, 1),
}


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
    y = bob.draw_bit()
    keep = bob.draw_bit()
    return RotOutcomeBlock(g_hat=y, assert_bit=keep, bob_bit=y)


def _bad_qubit_weights() -> np.ndarray:
    # Born weights of Alice's Z measurement, per Bob's bit: on the rows of
    # the identity, the basis states |0> and |1>.
    return projections(np.eye(2), _Z_PROJS)[1]


@lru_cache(maxsize=None)
def _bad_qubit_thresholds() -> np.ndarray:
    # Alice's outcome-1 threshold, per Bob's bit.
    return cumulative_thresholds(_bad_qubit_weights())[..., 0]


def _bad_qubit_block(seeds: np.ndarray) -> RotOutcomeBlock:
    alice, bob = block_streams(seeds, ((ALICE, 4), (BOB, 4)))
    y = bob.draw_bit()
    discard = alice.draw_bit()
    # Drawn for every trial; it is Alice's last draw, used only where she measures.
    outcome = (alice.random() >= _bad_qubit_thresholds()[y]).astype(np.intp)
    return RotOutcomeBlock(g_hat=outcome, assert_bit=discard, bob_bit=y)


@lru_cache(maxsize=None)
def _qutrit_weights() -> np.ndarray:
    # Born weights of Alice's measurement, per (a, y, z_dummy, p, outcome):
    # the outcome distribution run_qutrit samples from in each classical context.
    unitaries = np.array([_qutrit_pair_unitary(*divmod(pair, 2)) for pair in range(4)])
    by_pair = np.array([projections(unitaries @ qutrit_entangled_state(a), qutrit_measurement(a))[1] for a in (0, 1)])
    return by_pair[:, OT_PAIR_INDEX]


@lru_cache(maxsize=None)
def _qutrit_thresholds() -> np.ndarray:
    # Alice's outcome-1 threshold, per (a, y, z_dummy, p).
    return cumulative_thresholds(_qutrit_weights())[..., 0]


def _qutrit_draws(seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    # Alice's choice bit a, Bob's (y, z_dummy, p) and Alice's measurement
    # outcome, per seed.
    alice, bob = block_streams(seeds, ((ALICE, 4), (BOB, 4)))
    a = alice.draw_bit()
    y = bob.draw_bit()
    z_dummy = bob.draw_bit()
    p = bob.draw_bit()
    outcome = (alice.random() >= _qutrit_thresholds()[a, y, z_dummy, p]).astype(np.intp)
    return a, y, z_dummy, p, outcome


def _qutrit_block(seeds: np.ndarray) -> RotOutcomeBlock:
    # Bob's phase flips the |aa> term of Alice's probe exactly when x_a = 1,
    # so her outcome is x_a: the bit she receives.
    a, y, _, p, outcome = _qutrit_draws(seeds)
    return RotOutcomeBlock(g_hat=outcome, assert_bit=(a != p).astype(np.intp), bob_bit=y)


# --------------------------------------------------------------------------
# Block forms of the sequence flow
# --------------------------------------------------------------------------
#
# A bit pair (x0, x1) is the row 2 * x0 + x1 of SEQUENCE_STATES, and a
# basis is 0 for Z and 1 for X, so the test basis of a pair is x0 ^ x1.


class SequenceSetupBlock(NamedTuple):
    """The start every sequence flow shares, over a block of seeds: both
    party streams, ``pairs``, Bob's pair index per slot, shape
    ``(n_states, seeds)``, and ``tested``, Alice's sorted test set, shape
    ``(test_size, seeds)``.  ``rejected`` marks the seeds whose ``choice``
    hit a Lemire rejection: nothing drawn for them is the generator's, so
    the flow must be run again on each of them alone."""

    alice: BlockStream
    bob: BlockStream
    pairs: np.ndarray
    tested: np.ndarray
    rejected: np.ndarray


class SequenceBlock(NamedTuple):
    """The honest sequence flow over a block of seeds.  ``pairs`` and
    ``tested`` are as in :class:`SequenceSetupBlock`; ``failed`` is the
    first failing tested slot, or -1; ``declared`` holds Bob's declared bit
    index and ``outcomes`` Alice's output, one row per untested slot, in
    order, meaningful only where ``failed`` is -1; ``rejected`` marks the
    seeds to run again alone."""

    pairs: np.ndarray
    tested: np.ndarray
    failed: np.ndarray
    declared: np.ndarray
    outcomes: RotOutcomeBlock
    rejected: np.ndarray


@lru_cache(maxsize=None)
def _sequence_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Born weights of qubit 1, per (pair, basis); of qubit 2 on the state
    # qubit 1's outcome m1 leaves, per (pair, basis, m1, basis of qubit 2);
    # and Alice's untested-slot decode, per (m1, m2), as (learned index,
    # learned value).  An outcome of weight 0 is never sampled; it leaves
    # no state, and its second weights are 0.
    by_basis = [projections(SEQUENCE_STATES, _QUBIT1[basis]) for basis in "ZX"]
    projected = np.stack([vectors for vectors, _ in by_basis], axis=1)
    first = np.stack([weights for _, weights in by_basis], axis=1)
    norms = np.sqrt(first)[..., None]
    after = np.divide(projected, norms, out=np.zeros_like(projected), where=norms > 0.0)
    second = np.stack([projections(after, _QUBIT2[b])[1] for b in "ZX"], axis=-2)
    decode = np.array([[SEQUENCE_DECODE[(m1, m2)] for m2 in (0, 1)] for m1 in (0, 1)])
    return first, second, decode


@lru_cache(maxsize=None)
def _sequence_thresholds() -> tuple[np.ndarray, np.ndarray]:
    # The outcome-1 thresholds of qubit 1, per (pair, basis), and of qubit
    # 2, per (pair, basis, m1, basis of qubit 2).
    first, second, _ = _sequence_tables()
    return cumulative_thresholds(first)[..., 0], cumulative_thresholds(second)[..., 0]


def _measure_qubits_block(pairs, first_basis, second_basis, rand1, rand2):
    # A measurement of qubit 1, then of qubit 2 on the state it leaves, for
    # arrays of pair indices, bases and uniforms that broadcast together:
    # (m1, m2).
    first, second = _sequence_thresholds()
    m1 = (rand1 >= first[pairs, first_basis]).astype(np.intp)
    m2 = (rand2 >= second[pairs, first_basis, m1, second_basis]).astype(np.intp)
    return m1, m2


def pair_bit(pairs: np.ndarray, index) -> np.ndarray:
    """Bit ``index`` of each pair index 2 * x0 + x1: x0 at index 0, x1 at
    index 1."""
    return (pairs >> (1 - np.asarray(index))) & 1


def sequence_setup_block(
    cfg: SequenceConfig, seeds: np.ndarray, alice_words: int = 0, bob_words: int = 0
) -> SequenceSetupBlock:
    """Both party streams, Bob's ``n_states`` bit pairs and Alice's sorted
    test set, for an array of seeds; the streams also hold the
    ``alice_words`` and ``bob_words`` 64-bit words each party draws after
    them.

    ``choice(n, k, replace=False)`` is Floyd's algorithm, one Lemire draw
    in ``[0, j]`` for each j from n - k to n - 1, a draw already picked
    giving way to j itself, followed by a Fisher-Yates shuffle of the k
    picks, one draw in ``[0, i]`` for each i from k - 1 down to 1.  The
    test set is sorted, so the shuffle draws are taken but their order is
    unused.  Those 2k - 1 32-bit values fill k words.
    """
    n, k = cfg.n_states, cfg.test_size
    alice, bob = block_streams(seeds, ((ALICE, k + alice_words), (BOB, n + bob_words)))
    bits = bob.draw_bits(2 * n)
    pairs = 2 * bits[0::2] + bits[1::2]
    draws, rejected = alice.bounded(np.concatenate((np.arange(n - k, n), np.arange(k - 1, 0, -1))))
    picks = np.empty((k, draws.shape[1]), dtype=np.intp)
    for t, j in enumerate(range(n - k, n)):
        taken = (picks[:t] == draws[t]).any(axis=0)
        picks[t] = np.where(taken, j, draws[t])
    return SequenceSetupBlock(alice, bob, pairs, np.sort(picks, axis=0), rejected)


def sequence_spot_check_block(alice: BlockStream, tested, sent, announced) -> np.ndarray:
    """Alice's consistency check of the tested slots, in order: the first
    failing tested slot per seed, or -1.  ``sent`` holds the pair index per
    slot whose state Bob sent, ``announced`` the one he announces for it.
    Every tested slot takes its two uniforms; the outcomes after the first
    failure are not used, as the check stops there."""
    sent = np.take_along_axis(sent, tested, axis=0)
    announced = np.take_along_axis(announced, tested, axis=0)
    rand = alice.randoms(2 * len(tested))
    basis = pair_bit(announced, 0) ^ pair_bit(announced, 1)
    expected = pair_bit(announced, 0)
    m1, m2 = _measure_qubits_block(sent, basis, basis, rand[0::2], rand[1::2])
    fails = (m1 != expected) | (m2 != expected)
    first = fails.argmax(axis=0)
    return np.where(fails.any(axis=0), tested[first, np.arange(tested.shape[1])], -1)


def play_sequence_block(cfg: SequenceConfig, seeds: np.ndarray) -> SequenceBlock:
    """The honest sequence flow for an array of seeds: each seed's pairs,
    test set and failed slot and, where it passed, Bob's declarations and
    Alice's outcomes.  Alice draws two uniforms per tested slot and then two
    per untested slot; Bob declares after his pairs, one bit per untested
    slot."""
    n, k = cfg.n_states, cfg.test_size
    setup = sequence_setup_block(cfg, seeds, alice_words=2 * n, bob_words=(n - k + 1) // 2)
    failed = sequence_spot_check_block(setup.alice, setup.tested, setup.pairs, setup.pairs)
    is_tested = np.zeros(setup.pairs.shape, dtype=bool)
    is_tested[setup.tested, np.arange(setup.pairs.shape[1])] = True
    # Each seed's untested slots, in order: n - k of them for every seed.
    sent = setup.pairs.T[~is_tested.T].reshape(-1, n - k).T
    rand = setup.alice.randoms(2 * (n - k))
    m1, m2 = _measure_qubits_block(sent, 0, 1, rand[0::2], rand[1::2])
    *_, decode = _sequence_tables()
    learned_index, learned_value = np.moveaxis(decode[m1, m2], -1, 0)
    declared = setup.bob.draw_bits(n - k)
    outcomes = RotOutcomeBlock(
        g_hat=learned_value,
        assert_bit=(learned_index != declared).astype(np.intp),
        bob_bit=pair_bit(sent, declared),
    )
    return SequenceBlock(setup.pairs, setup.tested, failed, declared, outcomes, setup.rejected)


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
    a, y, z_dummy, p, outcome = (int(draw[0]) for draw in _qutrit_draws(seed_array(seed)))
    transcript = Transcript()
    psi = qutrit_entangled_state(a)
    transcript.record("A", "qutrit_to_bob", _state_payload(psi, subsystem="B"))
    pair = OtPair.draw(y, z_dummy, p)
    psi = _qutrit_pair_unitary(pair.x0, pair.x1) @ psi
    transcript.record("B", "qutrit_to_alice", _state_payload(psi, subsystem="B"))
    transcript.record("B", "permutation", {"p": p})
    if a == p:
        return transcript, RotOutcome.received(outcome, y)
    return transcript, RotOutcome.null(y)


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


def _run_sequence_single(seed: int) -> tuple[Transcript, RotOutcome]:
    # Coin-flip adapter: smallest valid batch, first surviving outcome.
    transcript, outcomes = run_sequence(SequenceConfig(4), seed)
    return transcript, outcomes[0]


# Each single-transfer protocol's run and the block form of its outcomes,
# which the Monte-Carlo harness evaluates.  The sequence protocol's block
# form is play_sequence_block, which also takes the batch size.
ROT_EXECUTORS = {
    "bad_classical": (run_bad_classical, _bad_classical_block),
    "bad_qubit": (run_bad_qubit, _bad_qubit_block),
    "qutrit": (run_qutrit, _qutrit_block),
}

# The transfer a coin flip can wrap, per protocol.
COINFLIP_TRANSFERS = {name: run for name, (run, _) in ROT_EXECUTORS.items()}
COINFLIP_TRANSFERS["sequence"] = _run_sequence_single


def run_coinflip_reduction(rot: str, seed: int) -> tuple[Transcript, CoinOutcome]:
    """Coin flip built on one transfer: HEADS when Alice's assert bit matches
    Bob's announced bit, with Bob checking the claimed output first.

    A claimed receipt must match Bob's data bit, and a claimed NULL must come
    with no bit at all; anything else aborts.
    """
    try:
        run = COINFLIP_TRANSFERS[rot]
    except KeyError:
        raise ValidationError(f"unknown protocol id {rot!r}") from None
    transcript = Transcript()
    sub_transcript, outcome = run(seed)
    transcript.extend_from(sub_transcript)

    a = outcome.assert_bit
    (aux,) = block_streams(seed_array(seed), ((BOB_AUX, 4),))
    b = int(aux.draw_bit()[0])
    transcript.record("B", "coin_bit", {"b": b})
    transcript.record("A", "reveal", {"assert_bit": a, "g": outcome.g_hat})

    if outcome.aborted:
        aborted = True
    elif a == 0:
        aborted = outcome.g_hat != outcome.bob_bit
    else:
        aborted = outcome.g_hat is not None
    transcript.record("B", "verdict", {"accept": not aborted})

    if aborted:
        result = CoinResult.ABORT
    elif a == b:
        result = CoinResult.HEADS
    else:
        result = CoinResult.TAILS
    return transcript, CoinOutcome(result, a, b)
