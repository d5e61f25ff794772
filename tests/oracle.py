"""Reference flows for the differential tests, one run at a time on numpy's
``Generator``.

The library writes every flow once, as a block form over an array of trial
seeds, on its own Philox kernel (``rotlab.rng.BlockStream``).  Here the same
flows draw from ``Generator(Philox(key=[seed, stream]))`` itself: a bit is
``integers(0, 2)``, a uniform ``random()``, a test set ``choice``, and each
measurement is sampled by ``measure_pure``, one state and one uniform at a
time.  The library's flows must give these outcomes and transcripts trial
by trial.  Nothing here draws from ``BlockStream`` or ``philox_block``.

It also holds two references built one state at a time: every Born table
the library samples from, each weight ``||P_k psi||^2`` taken with
``np.vdot`` from ``proj @ psi``, which the library's stacked tables must
equal exactly; and the density path of the cheating parties, from its own
checked states, mixtures summed one outer product at a time, and its own
checked ``helstrom_prob`` and ``helstrom_projectors`` (priors in [0, 1]
summing to 1, each state Hermitian, of unit trace and positive
semidefinite) on numpy's ``eigvalsh`` and ``eigh``.  The library's stacked
evaluator must give its qutrit values exactly, and the cheating Born
tables and runs here measure with its projectors, not the library's.  Its
partial trace, one index sum at a time, is the reference for Bob's reduced
qutrit states.  Bob's phase encoding is applied here as a 9 x 9 ``kron``
matrix of its own signs, where the library multiplies the amplitudes of his
qutrit by ``QUTRIT_ENCODING_SIGNS``.

From ``rotlab.protocols`` it takes only the protocol's definitions, Alice's
probes and Bob's sequence states, and the types results come in; a layout
rule holds this.  Every protocol fact derived from them is derived here
again: Bob's permuted bit pair (:func:`ot_pair`), Alice's Z and X
measurements from the Pauli matrices, lifted to two qubits by ``np.kron``,
her qutrit checks from her probes, her untested-slot decode
(:func:`sequence_decode`), the payload a state is sent as
(:func:`state_payload`) and the coin flip's rule (:func:`coin_result`),
which its scalar coin flip and both coin-flip runners read.  It also
writes its own trial-seed mixer, :func:`splitmix64` on Python ints, and
its own default cheating probe, :data:`BALANCED_TRIPLE`: from
``rotlab.adversary`` it takes only ``AmplitudeTriple``, the type a triple
is checked and passed in.
"""

import itertools
import json
import math
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from rotlab.adversary import AmplitudeTriple
from rotlab.linalg import (
    DERIVED_TOL,
    MAX_DIM,
    STRUCTURAL_TOL,
    DimensionError,
    ValidationError,
    projective_measurement,
)
from rotlab.protocols import (
    QUTRIT_PROBES,
    SEQUENCE_STATES,
    CoinOutcome,
    CoinResult,
    RotOutcome,
    SequenceConfig,
    Transcript,
)
from rotlab.rng import ALICE, BOB, BOB_AUX

_MASK64 = (1 << 64) - 1


# --------------------------------------------------------------------------
# Party streams
# --------------------------------------------------------------------------


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
    """Vigna's splitmix64 output for the state ``value``: the state
    advanced by the golden-ratio increment, then mixed."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(master_seed: int, trial_index: int) -> int:
    """The seed of one trial: the mixed master seed plus the trial index,
    mixed again."""
    base = splitmix64(master_seed & _MASK64)
    return splitmix64((base + trial_index) & _MASK64)


# --------------------------------------------------------------------------
# States, mixtures and the partial trace
# --------------------------------------------------------------------------


def pure_state(amplitudes) -> np.ndarray:
    """A unit vector of 1 to 16 finite complex amplitudes."""
    psi = np.array(amplitudes, dtype=np.complex128)
    if psi.ndim != 1 or not 1 <= psi.size <= 16:
        raise DimensionError(f"a state is 1 to 16 amplitudes, not shape {psi.shape}")
    if not abs(float(np.linalg.norm(psi)) - 1.0) <= 1e-12:
        raise ValidationError("a state has unit norm")
    return psi


def basis_state(dim: int, index: int) -> np.ndarray:
    return pure_state(np.eye(dim)[index])


def mixture(components) -> np.ndarray:
    """The density matrix of ``(weight, amplitudes)`` pairs, summed one
    outer product at a time, in order."""
    return sum(weight * np.outer(psi, psi.conj()) for weight, psi in components)


def partial_trace(rho: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """The reduced state of subsystem ``keep``, "A" (the first factor) or
    "B", of a state on dim_a x dim_b, summed one index at a time."""
    if dim_a * dim_b != len(rho):
        raise DimensionError(f"factorisation {dim_a}x{dim_b} does not match dimension {len(rho)}")
    if keep not in ("A", "B"):
        raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")
    kept, traced = (dim_a, dim_b) if keep == "A" else (dim_b, dim_a)
    reduced = np.zeros((kept, kept), dtype=np.complex128)
    for i, j, k in itertools.product(range(kept), range(kept), range(traced)):
        row, col = (i * dim_b + k, j * dim_b + k) if keep == "A" else (k * dim_b + i, k * dim_b + j)
        reduced[i, j] += rho[row, col]
    return reduced


# --------------------------------------------------------------------------
# Measurement sampling
# --------------------------------------------------------------------------


def invert_cumulative(weights: list[float], rand: float) -> int:
    """The sampling rule: the first outcome, in ascending order, whose
    cumulative weight exceeds ``rand``, weights at or below ``DERIVED_TOL``
    counting as 0; the last outcome of weight above it when rounding leaves
    the total below."""
    cumulative = 0.0
    positive = [k for k, weight in enumerate(weights) if weight > DERIVED_TOL]
    for k in positive:
        cumulative += weights[k]
        if rand < cumulative:
            return k
    return positive[-1] if positive else len(weights) - 1


# The projectors of each read-only stack measured so far, as a tuple of
# arrays, by the stack's id.  Each entry holds its stack, so no id is reused.
_PROJECTORS: dict[int, tuple[np.ndarray, tuple[np.ndarray, ...]]] = {}


def _checked(measurement, dim: int, rand: float) -> tuple[np.ndarray, ...]:
    # The per-call checks, and the projectors as a tuple.  A read-only stack
    # is taken as projective_measurement returned it; any other projectors
    # are validated here.
    if not (0.0 <= rand < 1.0):
        raise ValidationError(f"rand must lie in [0, 1), got {rand}")
    if isinstance(measurement, np.ndarray) and not measurement.flags.writeable:
        stack, projectors = _PROJECTORS.get(id(measurement), (None, ()))
        if stack is not measurement:
            projectors = tuple(measurement)
            _PROJECTORS[id(measurement)] = (measurement, projectors)
    else:
        projectors = tuple(projective_measurement(measurement))
    if len(projectors[0]) != dim:
        raise DimensionError("projector dimensions must match the state")
    return projectors


def measure(rho, measurement, rand: float) -> int:
    """Sample a projective measurement of a density matrix: outcome k has
    weight ``tr(P_k rho)``.  Projectors given as a sequence or a writable
    array go through ``projective_measurement``, so they are checked on
    every call, and so are ``rand`` and the state's dimension."""
    measurement = _checked(measurement, len(rho), rand)
    return invert_cumulative([float(np.einsum("ij,ji->", proj, rho).real) for proj in measurement], rand)


def measure_pure(psi, measurement, rand: float) -> tuple[int, np.ndarray]:
    """Sample a projective measurement of the amplitudes ``psi`` with the
    checks of :func:`measure`: the outcome, by the sampling rule on the
    one-state :func:`born_weights`, and its :func:`post_measurement`
    amplitudes."""
    measurement = _checked(measurement, len(psi), rand)
    outcome = invert_cumulative(born_weights(psi, measurement), rand)
    return outcome, post_measurement(psi, measurement, outcome)


# --------------------------------------------------------------------------
# Born tables, one state at a time
# --------------------------------------------------------------------------


def born_weights(amplitudes, measurement) -> list[float]:
    """The Born weights of one state: ``np.vdot`` of each ``proj @ psi``."""
    return [float(np.vdot(v, v).real) for v in (proj @ amplitudes for proj in measurement)]


def post_measurement(amplitudes, measurement, outcome: int) -> np.ndarray:
    """The state outcome ``outcome`` leaves: ``P_k psi / ||P_k psi||``."""
    v = measurement[outcome] @ amplitudes
    return v / math.sqrt(float(np.vdot(v, v).real))


# --------------------------------------------------------------------------
# Protocol facts, derived here
# --------------------------------------------------------------------------


def ot_pair(y: int, z_dummy: int, p: int) -> tuple[int, int]:
    """Bob's permuted bit pair (x0, x1): y at position p, z_dummy at the other."""
    return (y, z_dummy) if p == 0 else (z_dummy, y)


# Alice's one-qubit measurement per basis, outcome m the projector
# (I + (-1)^m sigma) / 2 of the basis's Pauli matrix sigma; and lifted to
# the two-qubit space by ``np.kron``, on qubit 1 (the first factor) and on
# qubit 2.
_PAULIS = {"Z": np.diag([1.0, -1.0]), "X": np.array([[0.0, 1.0], [1.0, 0.0]])}
QUBIT_MEASUREMENTS = {
    basis: projective_measurement([(np.eye(2) + sign * pauli) / 2.0 for sign in (1.0, -1.0)])
    for basis, pauli in _PAULIS.items()
}
QUBIT1 = {
    basis: projective_measurement([np.kron(proj, np.eye(2)) for proj in m])
    for basis, m in QUBIT_MEASUREMENTS.items()
}
QUBIT2 = {
    basis: projective_measurement([np.kron(np.eye(2), proj) for proj in m])
    for basis, m in QUBIT_MEASUREMENTS.items()
}


# Honest Alice's check of Bob's reply, per choice bit: the projector onto
# her probe, and the rest.
QUTRIT_CHECKS = [
    projective_measurement((onto, np.eye(9) - onto))
    for onto in (np.outer(probe, probe.conj()) for probe in QUTRIT_PROBES)
]


def state_payload(amplitudes, subsystem: str | None = None, slot: int | None = None) -> dict:
    """A state as a transcript payload: its slot, if it has one, its
    dimension, each amplitude as [real, imaginary] with -0.0 written 0.0,
    and the subsystem it travels as, if named."""
    payload = {} if slot is None else {"slot": slot}
    payload["dim"] = len(amplitudes)
    payload["amplitudes"] = [[float(z.real) or 0.0, float(z.imag) or 0.0] for z in amplitudes]
    if subsystem is not None:
        payload["subsystem"] = subsystem
    return payload


def qutrit_born_probabilities(a: int, x0: int, x1: int) -> tuple[float, float]:
    """Outcome distribution of honest Alice's qutrit measurement in one
    classical context."""
    evolved = encoding_unitary(x0, x1) @ QUTRIT_PROBES[a]
    p0, p1 = born_weights(evolved, QUTRIT_CHECKS[a])
    return p0, p1


def bad_qubit_weights() -> np.ndarray:
    """Alice's Z measurement, per Bob's bit."""
    return np.array([born_weights(basis_state(2, y), QUBIT_MEASUREMENTS["Z"]) for y in (0, 1)])


def qutrit_weights() -> np.ndarray:
    """Honest Alice's qutrit measurement, per (a, y, z_dummy, p)."""
    weights = np.empty((2, 2, 2, 2, 2))
    for a, y, z_dummy, p in itertools.product((0, 1), repeat=4):
        weights[a, y, z_dummy, p] = qutrit_born_probabilities(a, *ot_pair(y, z_dummy, p))
    return weights


def sequence_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Qubit 1, per (pair, basis); qubit 2 on the state qubit 1's outcome m1
    leaves, per (pair, basis, m1, basis of qubit 2), 0 where m1 has weight
    0; and the untested-slot decode, per (m1, m2)."""
    first = np.zeros((4, 2, 2))
    second = np.zeros((4, 2, 2, 2, 2))
    for pair, state in enumerate(SEQUENCE_STATES):
        for basis, name in enumerate("ZX"):
            first[pair, basis] = born_weights(state, QUBIT1[name])
            for m1 in (0, 1):
                if first[pair, basis, m1] > 0.0:
                    after = post_measurement(state, QUBIT1[name], m1)
                    for second_basis, second_name in enumerate("ZX"):
                        second[pair, basis, m1, second_basis] = born_weights(after, QUBIT2[second_name])
    decode = np.array([[sequence_decode(m1, m2) for m2 in (0, 1)] for m1 in (0, 1)])
    return first, second, decode


def alice_qutrit_weights(params: dict) -> np.ndarray:
    """Cheating Alice's :func:`alice_qutrit_measurements`, per Bob's
    (y, z_dummy, p)."""
    encoded = _encoded_probes(_strategy_triple(params))
    measurements = alice_qutrit_measurements(params)
    weights = np.empty((2, 2, 2, 2))
    for y, z_dummy, p in itertools.product((0, 1), repeat=3):
        weights[y, z_dummy, p] = born_weights(encoded[ot_pair(y, z_dummy, p)], measurements[p])
    return weights


def alice_sequence_weights() -> np.ndarray:
    """Cheating Alice's :func:`alice_sequence_measurements` of a stored
    state, per (pair, declared bit)."""
    measurements = alice_sequence_measurements()
    return np.array(
        [[born_weights(state, measurements[bit]) for bit in (0, 1)] for state in SEQUENCE_STATES]
    )


def bob_qutrit_weights() -> np.ndarray:
    """Cheating Bob's :func:`bob_qutrit_measurement` of his half of the
    probe, per Alice's bit."""
    lifted = lift_to_bob(bob_qutrit_measurement())
    return np.array([born_weights(QUTRIT_PROBES[a], lifted) for a in (0, 1)])


# --------------------------------------------------------------------------
# Honest runs
# --------------------------------------------------------------------------


def run_bad_classical(seed: int) -> tuple[Transcript, RotOutcome]:
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
    transcript = Transcript()
    bob = party_stream(seed, BOB)
    alice = party_stream(seed, ALICE)
    y = draw_bit(bob)
    state = basis_state(2, y)
    transcript.record("B", "qubit", state_payload(state))
    discard = draw_bit(alice)  # 0 -> measure, 1 -> accept NULL
    if discard == 0:
        outcome_bit, _ = measure_pure(state, QUBIT_MEASUREMENTS["Z"], alice.random())
        outcome = RotOutcome.received(outcome_bit, y)
    else:
        outcome = RotOutcome.null(y)
    return transcript, outcome


def run_qutrit(seed: int) -> tuple[Transcript, RotOutcome]:
    transcript = Transcript()
    alice = party_stream(seed, ALICE)
    bob = party_stream(seed, BOB)

    a = draw_bit(alice)
    psi = QUTRIT_PROBES[a]
    transcript.record("A", "qutrit_to_bob", state_payload(psi, subsystem="B"))

    y = draw_bit(bob)
    z_dummy = draw_bit(bob)
    p = draw_bit(bob)
    psi = encoding_unitary(*ot_pair(y, z_dummy, p)) @ psi
    transcript.record("B", "qutrit_to_alice", state_payload(psi, subsystem="B"))

    # Outcome 1 means Bob's phase flipped the |aa> term: x_a = 1.
    learned, _ = measure_pure(psi, QUTRIT_CHECKS[a], alice.random())

    transcript.record("B", "permutation", {"p": p})
    if a == p:
        outcome = RotOutcome.received(learned, y)
    else:
        outcome = RotOutcome.null(y)
    return transcript, outcome


def sequence_state(bits: tuple[int, int]) -> np.ndarray:
    """Bob's state for the bit pair ``bits``."""
    return SEQUENCE_STATES[2 * bits[0] + bits[1]]


def sequence_test_basis(x0: int, x1: int) -> str:
    """Basis in which both qubits of the announced state are checked."""
    return "Z" if x0 == x1 else "X"


def sequence_expected_outcome(x0: int, x1: int) -> int:
    """Outcome both tested qubits must show for a consistent announcement."""
    return x0


def sequence_decode(m1: int, m2: int) -> tuple[int, int]:
    """What Alice learns from qubit 1 read in Z and qubit 2 in X, as (which
    bit, its value).  m1 rules out |11> (m1 = 0) or |00> (m1 = 1), and m2
    rules out |--> (m2 = 0) or |++> (m2 = 1); the two states left share bit
    m1 ^ m2, and its value is m1."""
    return m1 ^ m2, m1


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
        m1, amps = measure_pure(sequence_state(sent[slot]), QUBIT1[basis], alice.random())
        m2, _ = measure_pure(amps, QUBIT2[basis], alice.random())
        if m1 != expected or m2 != expected:
            return slot
    return None


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
        m1, amps = measure_pure(sequence_state(pairs[slot]), QUBIT1["Z"], alice.random())
        m2, _ = measure_pure(amps, QUBIT2["X"], alice.random())
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
    pairs, tested, failed, declarations, outcomes = play_sequence(cfg, seed)
    transcript = Transcript()
    for slot, bits in enumerate(pairs):
        transcript.record("B", "state", state_payload(sequence_state(bits), slot=slot))
    transcript.record("A", "test_set", {"slots": tested})
    for slot in tested:
        transcript.record("B", "announce", {"slot": slot, "bits": list(pairs[slot])})
        if slot == failed:
            transcript.record("A", "abort", {"slot": slot})
            return transcript, outcomes
    for slot, declared in declarations:
        transcript.record("B", "declare", {"slot": slot, "bit_index": declared})
    return transcript, outcomes


# The single-transfer runs, by protocol id.
ROT_RUNS = {
    "bad_classical": run_bad_classical,
    "bad_qubit": run_bad_qubit,
    "qutrit": run_qutrit,
}


def coin_bit(seed: int) -> int:
    """Bob's announced bit in the coin flip built on a transfer."""
    return draw_bit(party_stream(seed, BOB_AUX))


def coin_result(a: int, accepted: bool, b: int) -> CoinResult:
    """The coin flip's result: ABORT where Bob rejects Alice's reveal, else
    HEADS where her assert bit a equals his coin bit b, else TAILS."""
    if not accepted:
        return CoinResult.ABORT
    return CoinResult.HEADS if a == b else CoinResult.TAILS


def run_coinflip(rot: str, seed: int) -> tuple[Transcript, CoinOutcome]:
    """The coin flip built on one transfer, the sequence transfer being the
    first outcome of a run at the smallest batch, 4 states.  Bob announces
    his coin bit, Alice reveals her assert bit and claimed bit, and Bob
    accepts a NULL with no bit or a receipt of his data bit."""
    if rot == "sequence":
        transcript, outcomes = run_sequence(SequenceConfig(4), seed)
        outcome = outcomes[0]
    else:
        transcript, outcome = ROT_RUNS[rot](seed)
    a, b = outcome.assert_bit, coin_bit(seed)
    transcript.record("B", "coin_bit", {"b": b})
    transcript.record("A", "reveal", {"assert_bit": a, "g": outcome.g_hat})
    if outcome.aborted:
        accepted = False
    elif a == 1:
        accepted = outcome.g_hat is None
    else:
        accepted = outcome.g_hat == outcome.bob_bit
    transcript.record("B", "verdict", {"accept": accepted})
    return transcript, CoinOutcome(coin_result(a, accepted, b), a, b)


# --------------------------------------------------------------------------
# The checked density path: trace norms and Helstrom discrimination
# --------------------------------------------------------------------------


def _hermitian(m) -> np.ndarray:
    # m as a complex array, once checked square, of side 1 to 16, finite
    # and Hermitian within STRUCTURAL_TOL.
    m = np.array(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not 1 <= len(m) <= MAX_DIM:
        raise DimensionError(f"an operator is square, of side 1 to {MAX_DIM}, not shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("operator entries must be finite")
    if not np.max(np.abs(m - m.conj().T)) <= STRUCTURAL_TOL:
        raise ValidationError(f"operator must be Hermitian within {STRUCTURAL_TOL}")
    return m


def trace_norm(m) -> float:
    """The sum of the absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(_hermitian(m))).sum())


def _density_matrix(rho) -> np.ndarray:
    # rho once checked Hermitian, of unit trace and with no eigenvalue
    # below -DERIVED_TOL.
    rho = _hermitian(rho)
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= STRUCTURAL_TOL:
        raise ValidationError(f"density matrix trace {tr!r} is not 1 within {STRUCTURAL_TOL}")
    smallest = np.linalg.eigvalsh(rho)[0]
    if not smallest >= -DERIVED_TOL:
        raise ValidationError(f"density matrix has eigenvalue {smallest} < -{DERIVED_TOL}")
    return rho


def _discrimination_operator(p0: float, rho0, p1: float, rho1) -> np.ndarray:
    # p0 rho0 - p1 rho1, once the priors and both states are checked.
    if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
        raise ValidationError(f"priors must lie in [0, 1], got ({p0}, {p1})")
    if not abs(p0 + p1 - 1.0) <= STRUCTURAL_TOL:
        raise ValidationError(f"priors must sum to 1 within {STRUCTURAL_TOL}, got {p0 + p1!r}")
    rho0, rho1 = _density_matrix(rho0), _density_matrix(rho1)
    if rho0.shape != rho1.shape:
        raise DimensionError("states to discriminate must share a dimension")
    return p0 * rho0 - p1 * rho1


def helstrom_prob(p0: float, rho0, p1: float, rho1) -> float:
    """Optimal success probability of distinguishing the density matrix
    rho0 (prior p0) from rho1 (prior p1): (1 + ||p0 rho0 - p1 rho1||_1) / 2."""
    operator = _discrimination_operator(p0, rho0, p1, rho1)
    return 0.5 * (1.0 + float(np.abs(np.linalg.eigvalsh(operator)).sum()))


def helstrom_projectors(p0: float, rho0, p1: float, rho1) -> tuple[np.ndarray, np.ndarray]:
    """Projector pair realising that optimum: outcome 1 on the strictly
    negative eigenspace of p0 rho0 - p1 rho1, outcome 0 on the rest, its
    null space included."""
    w, v = np.linalg.eigh(_discrimination_operator(p0, rho0, p1, rho1))
    negative = v[:, w < -STRUCTURAL_TOL]
    pi1 = negative @ negative.conj().T
    return np.eye(len(w)) - pi1, pi1


# --------------------------------------------------------------------------
# Cheating Alice's qutrit objective
# --------------------------------------------------------------------------


def encoding_signs(x0: int, x1: int) -> np.ndarray:
    """The diagonal of Bob's phase encoding diag((-1)^x0, (-1)^x1, 1)."""
    return np.array(((-1.0) ** x0, (-1.0) ** x1, 1.0))


def encoding_unitary(x0: int, x1: int) -> np.ndarray:
    """Bob's phase encoding on both qutrits, as a 9 x 9 matrix: the
    identity on Alice's qutrit, the first factor, and diag(encoding_signs)
    on his."""
    return np.kron(np.eye(3), np.diag(encoding_signs(x0, x1)))


def _bit_mixtures(encoded: dict[tuple[int, int], np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    # Per permutation value, the two equal-weight mixtures of the encodings
    # whose selected bit (x0, then x1) is 0 and 1.
    pairs = []
    for perm in (0, 1):
        groups: dict[int, list[np.ndarray]] = {0: [], 1: []}
        for bits, state in encoded.items():
            groups[bits[perm]].append(state)
        pairs.append(tuple(mixture([(0.5, s) for s in groups[bit]]) for bit in (0, 1)))
    return pairs


def probe_cheat_prob(encoded: dict[tuple[int, int], np.ndarray]) -> float:
    """Alice's Helstrom success, averaged over the permutation value, given
    Bob's four encodings ``encoded[(x0, x1)]`` of her probe: per value, the
    equal-prior discrimination of the two equal-weight mixtures of the
    encodings whose selected bit (x0, then x1) is 0 and 1."""
    return float(np.mean([helstrom_prob(0.5, rho0, 0.5, rho1) for rho0, rho1 in _bit_mixtures(encoded)]))


def _encoded_probes(triple) -> dict[tuple[int, int], np.ndarray]:
    amplitudes = np.array(triple.as_tuple())
    return {(x0, x1): pure_state(encoding_signs(x0, x1) * amplitudes) for x0 in (0, 1) for x1 in (0, 1)}


def alice_qutrit_cheat_prob(triple) -> float:
    """The density path of ``adversary.alice_qutrit_cheat_prob``."""
    return probe_cheat_prob(_encoded_probes(triple))


def _helstrom_measurements(encoded: dict[tuple[int, int], np.ndarray]) -> list[np.ndarray]:
    # Per bit index, the Helstrom measurement telling apart the two
    # equal-weight mixtures of the states whose bit at that index is 0 and 1.
    return [projective_measurement(helstrom_projectors(0.5, rho0, 0.5, rho1)) for rho0, rho1 in _bit_mixtures(encoded)]


# The equal-weight probe (1/2, 1/2, 1/sqrt 2), the cheating strategies'
# default triple.
BALANCED_TRIPLE = (0.5, 0.5, math.sqrt(0.5))


def _strategy_triple(params: dict):
    return AmplitudeTriple.coerce(params.get("triple", BALANCED_TRIPLE))


def alice_qutrit_measurements(params: dict) -> list[np.ndarray]:
    """Cheating Alice's Helstrom measurement of Bob's encoding of her probe,
    per permutation value."""
    return _helstrom_measurements(_encoded_probes(_strategy_triple(params)))


def alice_sequence_measurements() -> list[np.ndarray]:
    """Cheating Alice's Helstrom measurement of a stored state, per declared
    bit."""
    return _helstrom_measurements({bits: sequence_state(bits) for bits in itertools.product((0, 1), repeat=2)})


def bob_qutrit_measurement() -> tuple[np.ndarray, np.ndarray]:
    """Cheating Bob's Helstrom measurement of the qutrit he receives: of
    Alice's two probes, each traced over her own qutrit."""
    red0, red1 = (partial_trace(mixture([(1.0, QUTRIT_PROBES[a])]), 3, 3, keep="B") for a in (0, 1))
    return helstrom_projectors(0.5, red0, 0.5, red1)


def lift_to_bob(measurement) -> np.ndarray:
    """A measurement of Bob's qutrit, the second factor, as one of both."""
    return projective_measurement([np.kron(np.eye(3), proj) for proj in measurement])


def qutrit_cheat_operators(triple) -> np.ndarray:
    """The density path's (2, 3, 3) complex operators 0.5 rho_0 - 0.5 rho_1
    per permutation value, whose trace norms ``helstrom_prob`` takes."""
    mixtures = _bit_mixtures(_encoded_probes(triple))
    return np.array([0.5 * rho0 - 0.5 * rho1 for rho0, rho1 in mixtures])


# --------------------------------------------------------------------------
# Cheating runs
# --------------------------------------------------------------------------


def _alice_qutrit_runner(params: dict):
    encoded = _encoded_probes(_strategy_triple(params))
    measurements = alice_qutrit_measurements(params)

    def run(seed: int) -> bool:
        alice = party_stream(seed, ALICE)
        bob = party_stream(seed, BOB)
        y, z_dummy, p = draw_bit(bob), draw_bit(bob), draw_bit(bob)
        guess, _ = measure_pure(encoded[ot_pair(y, z_dummy, p)], measurements[p], alice.random())
        return guess == y

    return run


def _alice_sequence_runner(params: dict):
    cfg = SequenceConfig(params["n_states"])
    measurements = alice_sequence_measurements()

    def run(seed: int) -> bool:
        # Alice attacks the first untested slot.  Bob declares the slots in
        # order, so only his first declaration is drawn.
        alice, bob, pairs, tested = sequence_setup(cfg, seed)
        slot = next(j for j in range(cfg.n_states) if j not in tested)
        declared = draw_bit(bob)
        guess, _ = measure_pure(sequence_state(pairs[slot]), measurements[declared], alice.random())
        return guess == pairs[slot][declared]

    return run


def _alice_coinflip_runner(params: dict):
    # Alice wants HEADS, so she reveals a = b.  She defers her measurement:
    # Bob accepts her NULL on b = 1 always, and her claimed receipt on b = 0
    # exactly when her measurement recovers his data bit.
    recovers_bit = _alice_qutrit_runner(params)

    def run(seed: int) -> bool:
        b = coin_bit(seed)
        return coin_result(b, b == 1 or recovers_bit(seed), b) is CoinResult.HEADS

    return run


def _bob_qutrit_runner(params: dict):
    # Bob guesses Alice's choice bit a from his half of her probe and aligns
    # the permutation with his guess.  Honest Alice asserts receipt exactly
    # when a == p, so he calls her assert bit exactly when his guess is
    # right.
    lifted = lift_to_bob(bob_qutrit_measurement())

    def run(seed: int) -> bool:
        alice = party_stream(seed, ALICE)
        bob = party_stream(seed, BOB)
        a = draw_bit(alice)
        a_guess, _ = measure_pure(QUTRIT_PROBES[a], lifted, bob.random())
        y, z_dummy, p = draw_bit(bob), draw_bit(bob), a_guess
        return a == p

    return run


def _bob_coinflip_runner(params: dict):
    # Bob plays his qutrit attack, so honest Alice's assert bit is 0 exactly
    # where he calls it right; he announces b = 0 and accepts any reveal.
    calls_assert_bit = _bob_qutrit_runner(params)

    def run(seed: int) -> bool:
        a = 0 if calls_assert_bit(seed) else 1
        return coin_result(a, True, 0) is CoinResult.HEADS

    return run


# (party, protocol) -> runner factory, one per library strategy.
RUNNERS = {
    ("alice", "qutrit"): _alice_qutrit_runner,
    ("bob", "qutrit"): _bob_qutrit_runner,
    ("alice", "sequence"): _alice_sequence_runner,
    ("alice", "coinflip"): _alice_coinflip_runner,
    ("bob", "coinflip"): _bob_coinflip_runner,
}


@lru_cache(maxsize=None)
def _runner(cache_key: tuple[str, str, str]):
    party, protocol, params_json = cache_key
    return RUNNERS[(party, protocol)](json.loads(params_json))


def execute_cheat(strategy, seed: int) -> bool:
    """One cheating run of a ``CheatStrategy``; True when it succeeds."""
    return bool(_runner(strategy.cache_key())(seed))


def run_detection_trial(cfg: SequenceConfig, seed: int, variant: str) -> bool:
    """Whether a run with Bob's ``variant`` aborts: Bob's preparation plus
    Alice's spot checks; the abort statistic is decided entirely by the
    testing phase, so the untested decode is skipped here."""
    alice, bob, pairs, tested = sequence_setup(cfg, seed)
    sent = announced = pairs
    if variant == "send-orthogonal":
        # Flipping both bits gives the orthogonal partner within the same
        # basis; a tested corrupted state then fails the check with certainty.
        corrupt = int(bob.integers(0, cfg.n_states))
        sent = list(pairs)
        sent[corrupt] = (1 - pairs[corrupt][0], 1 - pairs[corrupt][1])
    elif variant == "announce-wrong-state":
        slot = tested[int(bob.integers(0, cfg.test_size))]
        alternatives = [divmod(pair, 2) for pair in range(4) if divmod(pair, 2) != pairs[slot]]
        announced = list(pairs)
        announced[slot] = alternatives[int(bob.integers(0, len(alternatives)))]
    return sequence_spot_check(alice, tested, sent, announced) is not None
