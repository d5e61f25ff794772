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
  measurement, and Bob's permutation announcement.
* ``run_sequence``       - Bob ships a batch of two-qubit states, Alice
  spot-checks a square-root-sized sample and decodes one bit per remaining
  state; Bob declares per state which bit counts.  The flow itself is
  ``play_sequence``, built from ``sequence_setup`` and
  ``sequence_spot_check``, which the cheating and detection runs share;
  it returns plain values and ``run_sequence`` renders the transcript.
* ``run_coinflip_reduction`` - wraps any of the above into a coin flip with
  a consistency check on Alice's claimed output.

``ROT_BLOCK_EXECUTORS`` holds array forms of the three single-transfer runs
for the Monte-Carlo harness: they draw the same words from
:class:`~rotlab.rng.BlockStream` and sample from the same Born weights, so
each trial of a block has its scalar run's outcome, without a transcript.
"""

from __future__ import annotations

import itertools
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
    PureState,
    ValidationError,
    born_weights,
    invert_cumulative_block,
    kron,
    measure_pure,
)
from .rng import ALICE, BOB, BOB_AUX, BlockStream, draw_bit, party_stream


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

    def bit(self, index: int) -> int:
        return self.x0 if index == 0 else self.x1


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


@dataclass(frozen=True)
class SequenceConfig:
    """Batch size and derived spot-check size for the sequence protocol."""

    n_states: int
    test_size: int | None = None

    def __post_init__(self):
        if self.n_states < 4:
            raise ValidationError("sequence protocol needs at least 4 states")
        expected = math.isqrt(self.n_states)
        if self.test_size is None:
            object.__setattr__(self, "test_size", expected)
        elif self.test_size != expected:
            raise ValidationError(
                f"test_size must be floor(sqrt(n_states)) = {expected}, got {self.test_size}"
            )


# --------------------------------------------------------------------------
# Qutrit protocol building blocks
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def qutrit_entangled_state(a: int) -> PureState:
    """Alice's probe: equal superposition of |aa> and |22> on two qutrits."""
    amps = np.zeros(9)
    amps[3 * a + a] = 1.0 / math.sqrt(2.0)
    amps[3 * 2 + 2] = 1.0 / math.sqrt(2.0)
    return PureState(amps)


@lru_cache(maxsize=None)
def qutrit_unitary(x0: int, x1: int) -> ComplexMatrix:
    """Bob's phase encoding: diag((-1)^x0, (-1)^x1, 1) on his qutrit."""
    return ComplexMatrix.diagonal([(-1.0) ** x0, (-1.0) ** x1, 1.0])


@lru_cache(maxsize=None)
def _qutrit_pair_unitary(x0: int, x1: int) -> ComplexMatrix:
    return kron(ComplexMatrix.identity(3), qutrit_unitary(x0, x1))


@lru_cache(maxsize=None)
def qutrit_measurement(a: int) -> ProjectiveMeasurement:
    """Alice's two-outcome check: projector onto her probe state vs the rest."""
    pi0 = qutrit_entangled_state(a).projector()
    pi1 = ComplexMatrix(np.eye(9) - pi0.data)
    return ProjectiveMeasurement((pi0, pi1))


def qutrit_born_probabilities(a: int, x0: int, x1: int) -> tuple[float, float]:
    """Outcome distribution of Alice's measurement for one classical context:
    the Born weights ``run_qutrit`` samples from."""
    evolved = _qutrit_pair_unitary(x0, x1).data @ qutrit_entangled_state(a).amplitudes
    p0, p1 = born_weights(PureState(evolved), qutrit_measurement(a))
    return p0, p1


@lru_cache(maxsize=None)
def _qutrit_decode_table() -> dict:
    # The honest outcome distribution is deterministic in every classical
    # context, which pins a unique outcome -> bit map; building the map from
    # the simulated distributions avoids hand-picking a phase convention.
    table = {}
    for a in (0, 1):
        for outcome in (0, 1):
            values = set()
            for x0 in (0, 1):
                for x1 in (0, 1):
                    probs = qutrit_born_probabilities(a, x0, x1)
                    if abs(probs[outcome] - 1.0) > 1e-12 and abs(probs[outcome]) > 1e-12:
                        raise RuntimeError("honest qutrit measurement is not deterministic")
                    if probs[outcome] > 0.5:
                        values.add(x0 if a == 0 else x1)
            if len(values) != 1:
                raise RuntimeError("qutrit decode map is ambiguous")
            table[(a, outcome)] = values.pop()
    return table


def qutrit_decode(a: int, outcome: int) -> int:
    """Bit value Alice infers from her measurement outcome."""
    return _qutrit_decode_table()[(a, outcome)]


# --------------------------------------------------------------------------
# Sequence protocol building blocks
# --------------------------------------------------------------------------

SEQUENCE_STATES: dict[tuple[int, int], PureState] = {
    (0, 0): PureState([1.0, 0.0, 0.0, 0.0]),
    (0, 1): PureState([0.5, 0.5, 0.5, 0.5]),
    (1, 0): PureState([0.5, -0.5, -0.5, 0.5]),
    (1, 1): PureState([0.0, 0.0, 0.0, 1.0]),
}

_Z_PROJS = ProjectiveMeasurement(
    (ComplexMatrix(np.diag([1.0, 0.0])), ComplexMatrix(np.diag([0.0, 1.0])))
)
_X_PROJS = ProjectiveMeasurement(
    (ComplexMatrix(np.full((2, 2), 0.5)), ComplexMatrix(np.array([[0.5, -0.5], [-0.5, 0.5]])))
)
_I2 = ComplexMatrix.identity(2)

# Single-qubit measurements lifted to the two-qubit space, per qubit and basis.
_QUBIT1 = {
    basis: ProjectiveMeasurement(tuple(kron(p, _I2) for p in projs))
    for basis, projs in (("Z", _Z_PROJS), ("X", _X_PROJS))
}
_QUBIT2 = {
    basis: ProjectiveMeasurement(tuple(kron(_I2, p) for p in projs))
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


def sequence_test_basis(x0: int, x1: int) -> str:
    """Basis in which both qubits of the announced state are checked."""
    return "Z" if x0 == x1 else "X"


def sequence_expected_outcome(x0: int, x1: int) -> int:
    """Outcome both tested qubits must show for a consistent announcement."""
    return x0


def sequence_decode(m1: int, m2: int) -> tuple[int, int]:
    return SEQUENCE_DECODE[(m1, m2)]


def sequence_setup(cfg: SequenceConfig, seed: int):
    """The start every sequence flow shares: both party streams, Bob's
    ``n_states`` bit pairs and Alice's sorted test set, as
    ``(alice, bob, pairs, tested)``."""
    alice = party_stream(seed, ALICE)
    bob = party_stream(seed, BOB)
    pairs = [(draw_bit(bob), draw_bit(bob)) for _ in range(cfg.n_states)]
    tested = sorted(int(j) for j in alice.choice(cfg.n_states, size=cfg.test_size, replace=False))
    return alice, bob, pairs, tested


def sequence_spot_check(alice, tested, sent, announced) -> int | None:
    """Alice's consistency check of the tested slots, in order: the first
    slot that fails, or None.  ``sent[slot]`` is the bit pair whose state
    Bob sent, ``announced[slot]`` the pair he announces for it."""
    for slot in tested:
        x0, x1 = announced[slot]
        basis = sequence_test_basis(x0, x1)
        expected = sequence_expected_outcome(x0, x1)
        m1, amps = measure_pure(SEQUENCE_STATES[sent[slot]], _QUBIT1[basis], alice.random())
        m2, _ = measure_pure(PureState(amps), _QUBIT2[basis], alice.random())
        if m1 != expected or m2 != expected:
            return slot
    return None


# --------------------------------------------------------------------------
# Honest runs
# --------------------------------------------------------------------------


def run_bad_classical(seed: int) -> tuple[Transcript, RotOutcome]:
    """Fully classical strawman: Bob's coin decides whether he announces y."""
    transcript = Transcript()
    bob = party_stream(seed, BOB)
    y = draw_bit(bob)
    keep = draw_bit(bob)  # 0 -> announce y, 1 -> announce NULL
    if keep == 0:
        transcript.record("B", "announce", {"g": y})
        outcome = RotOutcome.received(y, y)
    else:
        transcript.record("B", "announce", {"g": None})
        outcome = RotOutcome.null(y)
    return transcript, outcome


def run_bad_qubit(seed: int) -> tuple[Transcript, RotOutcome]:
    """Bob sends |y>; Alice's coin decides between measuring and discarding."""
    transcript = Transcript()
    bob = party_stream(seed, BOB)
    alice = party_stream(seed, ALICE)
    y = draw_bit(bob)
    state = PureState.basis(2, y)
    transcript.record("B", "qubit", _state_payload(state.amplitudes))
    discard = draw_bit(alice)  # 0 -> measure, 1 -> accept NULL
    if discard == 0:
        outcome_bit, _ = measure_pure(state, _Z_PROJS, alice.random())
        outcome = RotOutcome.received(outcome_bit, y)
    else:
        outcome = RotOutcome.null(y)
    return transcript, outcome


def run_qutrit(seed: int) -> tuple[Transcript, RotOutcome]:
    """The two-qutrit exchange with a permuted phase-encoded bit pair."""
    transcript = Transcript()
    alice = party_stream(seed, ALICE)
    bob = party_stream(seed, BOB)

    a = draw_bit(alice)
    psi = qutrit_entangled_state(a).amplitudes
    transcript.record("A", "qutrit_to_bob", _state_payload(psi, subsystem="B"))

    y = draw_bit(bob)
    z_dummy = draw_bit(bob)
    p = draw_bit(bob)
    pair = OtPair.draw(y, z_dummy, p)
    psi = _qutrit_pair_unitary(pair.x0, pair.x1).data @ psi
    transcript.record("B", "qutrit_to_alice", _state_payload(psi, subsystem="B"))

    outcome_index, _ = measure_pure(PureState(psi), qutrit_measurement(a), alice.random())
    learned = qutrit_decode(a, outcome_index)

    transcript.record("B", "permutation", {"p": p})
    if a == p:
        outcome = RotOutcome.received(learned, y)
    else:
        outcome = RotOutcome.null(y)
    return transcript, outcome


def play_sequence(cfg: SequenceConfig, seed: int):
    """The honest sequence flow, without a transcript:
    ``(pairs, tested, failed, declarations, outcomes)``.

    ``failed`` is the first tested slot that failed the spot check, or None.
    On a failure ``declarations`` is empty and ``outcomes`` holds a single
    abort sentinel; otherwise both hold one entry per untested slot, in
    order: Bob's ``(slot, bit_index)`` and Alice's output.
    """
    alice, bob, pairs, tested = sequence_setup(cfg, seed)
    failed = sequence_spot_check(alice, tested, pairs, pairs)
    if failed is not None:
        return pairs, tested, failed, [], [RotOutcome.abort_sentinel()]

    tested_set = set(tested)
    declarations = []
    outcomes = []
    for slot in range(cfg.n_states):
        if slot in tested_set:
            continue
        m1, amps = measure_pure(SEQUENCE_STATES[pairs[slot]], _QUBIT1["Z"], alice.random())
        m2, _ = measure_pure(PureState(amps), _QUBIT2["X"], alice.random())
        learned_index, learned_value = sequence_decode(m1, m2)
        declared = draw_bit(bob)
        declarations.append((slot, declared))
        true_bit = pairs[slot][declared]
        if learned_index == declared:
            outcomes.append(RotOutcome.received(learned_value, true_bit))
        else:
            outcomes.append(RotOutcome.null(true_bit))
    return pairs, tested, failed, declarations, outcomes


def run_sequence(cfg: SequenceConfig, seed: int) -> tuple[Transcript, list[RotOutcome]]:
    """Batched transfer: spot-check a sample, decode one bit per survivor.

    On an inconsistent spot check the run aborts and the outcome list holds
    a single abort sentinel.
    """
    pairs, tested, failed, declarations, outcomes = play_sequence(cfg, seed)
    transcript = Transcript()
    for slot, bits in enumerate(pairs):
        transcript.record(
            "B", "state", _state_payload(SEQUENCE_STATES[bits].amplitudes, slot=slot)
        )
    transcript.record("A", "test_set", {"slots": tested})
    for slot in tested:
        transcript.record("B", "announce", {"slot": slot, "bits": list(pairs[slot])})
        if slot == failed:
            transcript.record("A", "abort", {"slot": slot})
            return transcript, outcomes
    for slot, declared in declarations:
        transcript.record("B", "declare", {"slot": slot, "bit_index": declared})
    return transcript, outcomes


def _run_sequence_single(seed: int) -> tuple[Transcript, RotOutcome]:
    # Coin-flip adapter: smallest valid batch, first surviving outcome.
    transcript, outcomes = run_sequence(SequenceConfig(4), seed)
    return transcript, outcomes[0]


ROT_EXECUTORS = {
    "bad_classical": run_bad_classical,
    "bad_qubit": run_bad_qubit,
    "qutrit": run_qutrit,
    "sequence": _run_sequence_single,
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
    bob = BlockStream(seeds, BOB)
    y = bob.draw_bit()
    keep = bob.draw_bit()
    return RotOutcomeBlock(g_hat=y, assert_bit=keep, bob_bit=y)


@lru_cache(maxsize=None)
def _bad_qubit_weights() -> np.ndarray:
    # Born weights of Alice's Z measurement, per Bob's bit.
    return np.array([born_weights(PureState.basis(2, y), _Z_PROJS) for y in (0, 1)])


def _bad_qubit_block(seeds: np.ndarray) -> RotOutcomeBlock:
    bob = BlockStream(seeds, BOB)
    alice = BlockStream(seeds, ALICE)
    y = bob.draw_bit()
    discard = alice.draw_bit()
    # Drawn for every trial; it is Alice's last draw, used only where she measures.
    outcome = invert_cumulative_block(_bad_qubit_weights()[y], alice.random())
    return RotOutcomeBlock(g_hat=outcome, assert_bit=discard, bob_bit=y)


@lru_cache(maxsize=None)
def _qutrit_tables() -> tuple[np.ndarray, np.ndarray]:
    # Born weights of Alice's measurement, per (a, y, z_dummy, p); and her
    # decoded bit, per (a, outcome).
    weights = np.empty((2, 2, 2, 2, 2))
    for a, y, z_dummy, p in itertools.product((0, 1), repeat=4):
        pair = OtPair.draw(y, z_dummy, p)
        weights[a, y, z_dummy, p] = qutrit_born_probabilities(a, pair.x0, pair.x1)
    decoded = np.array([[qutrit_decode(a, outcome) for outcome in (0, 1)] for a in (0, 1)])
    return weights, decoded


def _qutrit_block(seeds: np.ndarray) -> RotOutcomeBlock:
    weights, decoded = _qutrit_tables()
    alice = BlockStream(seeds, ALICE)
    bob = BlockStream(seeds, BOB)
    a = alice.draw_bit()
    y = bob.draw_bit()
    z_dummy = bob.draw_bit()
    p = bob.draw_bit()
    outcome = invert_cumulative_block(weights[a, y, z_dummy, p], alice.random())
    return RotOutcomeBlock(g_hat=decoded[a, outcome], assert_bit=(a != p).astype(np.intp), bob_bit=y)


# The runs the Monte-Carlo harness evaluates a block of trial seeds at a
# time; each gives, trial by trial, the outcome of its ROT_EXECUTORS entry.
ROT_BLOCK_EXECUTORS = {
    "bad_classical": _bad_classical_block,
    "bad_qubit": _bad_qubit_block,
    "qutrit": _qutrit_block,
}


def run_coinflip_reduction(rot: str, seed: int) -> tuple[Transcript, CoinOutcome]:
    """Coin flip built on one transfer: HEADS when Alice's assert bit matches
    Bob's announced bit, with Bob checking the claimed output first.

    A claimed receipt must match Bob's data bit, and a claimed NULL must come
    with no bit at all; anything else aborts.
    """
    try:
        executor = ROT_EXECUTORS[rot]
    except KeyError:
        raise ValidationError(f"unknown protocol id {rot!r}") from None
    transcript = Transcript()
    sub_transcript, outcome = executor(seed)
    transcript.extend_from(sub_transcript)

    a = outcome.assert_bit
    bob_aux = party_stream(seed, BOB_AUX)
    b = draw_bit(bob_aux)
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
