"""Optimal-cheating evaluators and executable cheating strategies.

Every cheating value but Bob's large-batch sequence limit, a literal, is a
Helstrom value (1 + ||p0 rho0 - p1 rho1||_1) / 2 of one discrimination
operator per classical context, and each executable
strategy samples the Helstrom measurement of that same operator, so a value
and its strategy read one definition.  Each operator is 0.5 rho_0 -
0.5 rho_1 of two equal-weight mixtures: of the states a protocol sends,
split by one bit of the pair (:func:`_bit_operator`, on
``protocols.pair_bit``), or of the two qutrits Bob can receive.  Cheating
Alice's qutrit operators have one builder: Bob's phase encoding makes
each of them one of two fixed sign patterns, the bit operators of
``protocols.QUTRIT_ENCODING_SIGNS`` themselves, times the probe's outer
product v v^T (:func:`_qutrit_cheat_operators`), which her strategy
measures and the optimizer's ascent splits.  Each pattern couples two
levels and is 0 on the third, so a value takes the trace norm of each
operator's 2 x 2 block on its coupled levels, the same products of the
pattern's entries and fl(v_i v_j) on Python floats.  A value takes each
trace norm in closed form with :func:`~rotlab.linalg.trace_norm_2x2`,
with no eigensolve and no array, and finishes through one Helstrom
formula, :func:`_helstrom_value`, and one mean over the permutation
value; its reference, the density-matrix path, is in ``tests/oracle.py``.
The best probe is not searched for but certified: the value depends on
the probe only through its weights w = v^2, and
:func:`optimize_alice_qutrit` ascends over them on the operators of
sqrt(w) until a weak-duality bound, read off the same eigendecomposition
(:func:`_qutrit_certificate`), meets the value.

Each executable strategy is written once, as a block form over an array
of trial seeds (``cheat_block``), so the Monte-Carlo harness can
cross-check every analytic value empirically; ``execute_cheat`` runs it on
one seed.  Each samples its two-outcome measurement with one comparison,
against thresholds its factory builds once with
:func:`~rotlab.linalg.sampling_thresholds` from the Born weights
:func:`_helstrom_weights` gives for all the states it can measure at once,
gathered per classical context through the protocol's own tables
(``protocols.OT_PAIR_INDEX``, ``protocols.pair_bit``).  Both coin-flip
strategies take their result from the rule the honest coin flip reads,
``protocols.coin_flip_results``; Bob's plays his qutrit attack and
announces b = 0.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    NumericError,
    ValidationError,
    as_integer,
    helstrom_measurement,
    positive_parts,
    projections,
    sampling_thresholds,
    trace_norm_2x2,
    trace_norms,
)
from .protocols import (
    MIN_SEQUENCE_STATES,
    OT_PAIR_INDEX,
    QUTRIT_ENCODING_SIGNS,
    QUTRIT_PROBES,
    SEQUENCE_STATES,
    CoinResult,
    SequenceConfig,
    coin_flip_results,
    pair_bit,
    sequence_setup_block,
    slot_pairs,
)
from .rng import ALICE, BOB, BOB_AUX, BlockStream, block_streams, seed_array

OPTIMIZER_TOLERANCE = 1e-9  # one value for every caller: one cached optimum
_ASCENT_STEPS = 1000  # the most steps the certified ascent may take


class UnsupportedStrategyError(ValidationError):
    """No implemented cheating strategy: a (party, protocol) pair without
    one, or a strategy that is not a :class:`CheatStrategy`."""


@dataclass(frozen=True)
class AmplitudeTriple:
    """Cheating Alice's qutrit amplitudes (alpha, beta, gamma_amp): real
    numbers (not bools), each in [0, 1], with unit squared sum."""

    alpha: float
    beta: float
    gamma_amp: float

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta), ("gamma_amp", self.gamma_amp)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"{name} must be a real number, not {type(value).__name__}")
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must be a finite amplitude in [0, 1], got {value}")
        norm_sq = self.alpha**2 + self.beta**2 + self.gamma_amp**2
        if not abs(norm_sq - 1.0) <= 1e-12:
            raise ValidationError(f"squared amplitudes sum to {norm_sq!r}, expected 1")

    @classmethod
    def coerce(cls, triple) -> "AmplitudeTriple":
        """``triple`` itself, or the triple of the three values it unpacks to."""
        if isinstance(triple, cls):
            return triple
        try:
            alpha, beta, gamma_amp = triple
        except (TypeError, ValueError):
            raise ValidationError("triple must be a list of three amplitudes") from None
        return cls(alpha, beta, gamma_amp)

    @classmethod
    def balanced(cls) -> "AmplitudeTriple":
        """The equal-weight probe (1/2, 1/2, 1/sqrt 2)."""
        return cls(0.5, 0.5, math.sqrt(0.5))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma_amp)


# --------------------------------------------------------------------------
# Discrimination operators
# --------------------------------------------------------------------------


def _bit_operator(states: np.ndarray, index: int) -> np.ndarray:
    """0.5 rho_0 - 0.5 rho_1 for a (4, d) stack of states, one per pair
    index 2 * x0 + x1: rho_b is the equal-weight mixture of the states whose
    bit ``index`` is b, summed in pair-index order."""
    bits = pair_bit(np.arange(4), index)
    mixtures = [0.5 * np.einsum("ki,kj->ij", states[bits == bit], states[bits == bit].conj()) for bit in (0, 1)]
    return 0.5 * mixtures[0] - 0.5 * mixtures[1]


def _helstrom_value(norm):
    """The optimal success (1 + ||p0 rho0 - p1 rho1||_1) / 2 from the trace
    norm of p0 rho0 - p1 rho1, a Python float."""
    return 0.5 * (1.0 + norm)


def _helstrom_weights(operators: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The Born weights of the Helstrom measurement of each operator of a
    (k, d, d) stack on each state of an (..., d) stack, shape (..., k, 2):
    outcome b guesses that the state came from rho_b."""
    measurements = np.array([helstrom_measurement(operator) for operator in operators])
    return projections(states[..., None, :], measurements)[1]


# --------------------------------------------------------------------------
# Qutrit protocol: cheating Alice
# --------------------------------------------------------------------------


# Encoding x maps the probe v to s_x * v, and v v^T to (s_x s_x^T) * v v^T,
# so each operator is a fixed pattern times v v^T: the bit operator of the
# sign vectors themselves, per permutation value p.
_SIGN_PATTERNS = np.stack([_bit_operator(QUTRIT_ENCODING_SIGNS, p) for p in (0, 1)])
_SIGN_PATTERNS.setflags(write=False)


def _qutrit_cheat_operators(v) -> np.ndarray:
    """The (2, 3, 3) operators 0.5 rho_0 - 0.5 rho_1 of the probe v, per
    value p, rho_b mixing equally the encodings with x_p = b: each is its
    sign pattern times v v^T, entry by entry, so each is exactly the
    density path's, real and exactly symmetric."""
    return _SIGN_PATTERNS * np.multiply.outer(v, v)


# Each pattern couples two levels, (0, 2) for p = 0 and (1, 2) for p = 1,
# and is 0 on the third, so an operator's trace norm is that of its 2 x 2
# block on those levels.  Per pattern: the lower triangle (a, b, d) of its
# block, as Python floats, and the coupled levels (i, j), its nonzero
# columns.
_BLOCK_TERMS = tuple(
    ((pattern[i][i], pattern[j][i], pattern[j][j]), (i, j))
    for pattern, (i, j) in ((s.tolist(), np.flatnonzero(s.any(axis=0)).tolist()) for s in _SIGN_PATTERNS)
)


def alice_qutrit_cheat_prob(triple: AmplitudeTriple) -> float:
    """Success probability of the probe-state attack on the qutrit protocol,
    averaged over the uniform permutation value.

    The Helstrom value of the two bit mixtures, from their trace-norm
    distance; the closed form 1/2 + (alpha + beta) * gamma_amp / 2 is its
    cross-check.  Each operator is 0 off the two levels its sign pattern
    couples, so its trace norm is that of its 2 x 2 block on them, the
    pattern's entries times fl(v_i v_j), taken in closed form by
    ``trace_norm_2x2``; the value is built and finished on Python floats,
    with no eigensolve and no array.
    """
    v = list(map(float, AmplitudeTriple.coerce(triple).as_tuple()))
    norm0, norm1 = [
        trace_norm_2x2(a * (v[i] * v[i]), b * (v[j] * v[i]), d * (v[j] * v[j])) for (a, b, d), (i, j) in _BLOCK_TERMS
    ]
    return 0.5 * (_helstrom_value(norm0) + _helstrom_value(norm1))


# Bob's encodings are diagonal, so the encoded ensemble, and with it the
# attack's value, depends only on the probe's weights w = v^2: it is
# 1/2 + f(w) / 2 with f(w) = avg_p ||D S_p D||_1, D = diag(sqrt w) and S_p
# the sign pattern of value p.  f is concave on the simplex (the value of
# an SDP whose feasible set is jointly convex in its variables and W =
# diag w), and any split S_p = A_p - B_p with A_p, B_p PSD bounds its
# maximum by max_i avg_p (A_p + B_p)_ii: weak duality.  The split
# A_p = D^-1 (D S_p D)_+ D^-1 makes that bound max_i g_i, where
# g_i = avg_p |D S_p D|_ii / w_i is the gradient of f and sum_i w_i g_i = f.


def _qutrit_step(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positive parts (D S_p D)_+, shape (2, 3, 3), and the gradient g
    of f at the weights, both from one stacked eigendecomposition."""
    operators = _qutrit_cheat_operators(np.sqrt(weights))
    positive = positive_parts(operators)
    absolute = 2.0 * positive - operators
    return positive, np.diagonal(absolute, axis1=-2, axis2=-1).mean(axis=0) / weights


def _qutrit_certificate(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The split S_p = A_p - B_p at positive weights, A_p = D^-1 (D S_p
    D)_+ D^-1 and B_p = A_p - S_p, each of shape (2, 3, 3), and the upper
    bound 1/2 + max_i avg_p (A_p + B_p)_ii / 2 on the attack's value over
    every probe that it proves."""
    positive, gradient = _qutrit_step(weights)
    inverse = 1.0 / np.sqrt(weights)
    upper = positive * (inverse[:, None] * inverse[None, :])
    return upper, upper - _SIGN_PATTERNS, _helstrom_value(float(gradient.max()))


@lru_cache(maxsize=8)
def optimize_alice_qutrit(tolerance: float) -> tuple[AmplitudeTriple, float]:
    """Maximise the probe-state attack over every probe, certified from
    above.

    From uniform weights, a multiplicative ascent w <- w g / f
    (Silvey-Titterington-Torsney) climbs f, and each step's
    eigendecomposition gives both the value 1/2 + f / 2 and the
    weak-duality bound 1/2 + max_i g_i / 2 of :func:`_qutrit_certificate`.
    The ascent stops once the bound is within ``tolerance`` of the value,
    so the optimum is proved, not assumed; it raises
    :class:`~rotlab.linalg.NumericError` if ``_ASCENT_STEPS`` steps do not
    get there.  The triple returned is sqrt(w), and the value
    :func:`alice_qutrit_cheat_prob` at it.
    """
    if isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real):
        raise ValidationError(f"tolerance must be a real number, not {type(tolerance).__name__}")
    if not (0.0 < tolerance <= 1e-3):
        raise ValidationError(f"tolerance must lie in (0, 1e-3], got {tolerance}")
    weights = np.full(3, 1.0 / 3.0)
    for _ in range(_ASCENT_STEPS):
        gradient = _qutrit_step(weights)[1]
        value = weights @ gradient
        if 0.5 * (gradient.max() - value) <= tolerance:
            break
        weights = weights * gradient / value
    else:
        raise NumericError(f"the ascent did not certify its optimum within {tolerance} in {_ASCENT_STEPS} steps")
    triple = AmplitudeTriple(*np.sqrt(weights).tolist())
    return triple, alice_qutrit_cheat_prob(triple)


# --------------------------------------------------------------------------
# Qutrit protocol: cheating Bob
# --------------------------------------------------------------------------


# Alice's probe per choice bit as a 3 x 3 array whose row i is the
# unnormalised qutrit Bob holds beside her |i>: the qutrit he receives is the
# mixture of the rows, her probe's partial trace over her own qutrit.
_BOB_QUTRIT_ROWS = QUTRIT_PROBES.reshape(2, 3, 3)
# 0.5 rho_0 - 0.5 rho_1 of the two qutrits Bob can receive.
_BOB_QUTRIT_OPERATOR = np.subtract(*(0.5 * np.einsum("aki,akj->aij", _BOB_QUTRIT_ROWS, _BOB_QUTRIT_ROWS.conj())))
_BOB_QUTRIT_OPERATOR.setflags(write=False)


def bob_qutrit_cheat_prob() -> float:
    """Bob's best chance of reading Alice's choice bit off the qutrit he
    receives: minimum-error discrimination of the two reduced states."""
    return _helstrom_value(trace_norms(_BOB_QUTRIT_OPERATOR).tolist())


# --------------------------------------------------------------------------
# Sequence protocol
# --------------------------------------------------------------------------


# 0.5 rho_0 - 0.5 rho_1 of a stored state, per declared bit.
_SEQUENCE_OPERATORS = np.stack([_bit_operator(SEQUENCE_STATES, bit) for bit in (0, 1)])
_SEQUENCE_OPERATORS.setflags(write=False)


def alice_sequence_cheat_prob(declared_bit: int = 0) -> float:
    """Success probability of storing a batch state and measuring only after
    Bob declares which bit counts; identical for either declared bit and
    independent of the batch size."""
    if as_integer("declared_bit", declared_bit) not in (0, 1):
        raise ValidationError(f"declared_bit must be 0 or 1, got {declared_bit}")
    return _helstrom_value(trace_norms(_SEQUENCE_OPERATORS[declared_bit]).tolist())


def bob_sequence_cheat_prob() -> float:
    """Bob's cheating probability against the sequence protocol in the
    large-batch limit.  This is a limit value only: no finite-batch
    optimality is claimed."""
    return 0.75


# --------------------------------------------------------------------------
# Executable strategies
# --------------------------------------------------------------------------


class CheatStrategy:
    """One dishonest party's tactic for one protocol.

    ``parameters`` is strategy-specific: the probe amplitudes for the
    qutrit and coin-flip Alice attacks, which default to the balanced
    triple, and the batch size for the sequence attack, which defaults to
    the smallest batch.  Unknown parameter names are rejected.  The
    parameters are fixed at construction, defaults included, when the
    cache key that selects the strategy's block form, built once per key,
    is computed.
    """

    def __init__(self, party: str, protocol: str, parameters: dict | None = None):
        if not isinstance(party, str) or not isinstance(protocol, str):
            raise ValidationError("party and protocol must be strings")
        if (party, protocol) not in _STRATEGIES:
            raise UnsupportedStrategyError(f"no strategy for party={party!r}, protocol={protocol!r}")
        if parameters is not None and not isinstance(parameters, dict):
            raise ValidationError("parameters must be an object")
        parameters = dict(parameters or {})
        names = _STRATEGIES[(party, protocol)][0]
        unknown = set(parameters) - names
        if unknown:
            raise ValidationError(f"unknown strategy parameters: {sorted(unknown)}")
        if "triple" in names:
            triple = AmplitudeTriple.coerce(parameters.get("triple", AmplitudeTriple.balanced()))
            parameters["triple"] = [float(v) for v in triple.as_tuple()]
        if "n_states" in names:
            parameters["n_states"] = SequenceConfig(parameters.get("n_states", MIN_SEQUENCE_STATES)).n_states
        self.party = party
        self.protocol = protocol
        self.parameters = parameters
        self._cache_key = (party, protocol, json.dumps(parameters, sort_keys=True))

    def cache_key(self) -> tuple[str, str, str]:
        return self._cache_key

    def __eq__(self, other) -> bool:
        if not isinstance(other, CheatStrategy):
            return NotImplemented
        return self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def __repr__(self) -> str:
        return f"CheatStrategy({self.party!r}, {self.protocol!r}, {self.parameters!r})"


def _alice_recovers_bit(params: dict):
    # Alice measures Bob's encoding of her probe with the Helstrom
    # measurement of the evaluator's operator for the announced permutation
    # value, and guesses his data bit: whether the guess is right, from both
    # party streams.  Her Born weights per pair index and value are gathered
    # per Bob's (y, z_dummy, p).
    vector = np.array(params["triple"])
    weights = _helstrom_weights(_qutrit_cheat_operators(vector), QUTRIT_ENCODING_SIGNS * vector)
    thresholds = sampling_thresholds(weights[OT_PAIR_INDEX, [0, 1]])

    def recovers_bit(alice: BlockStream, bob: BlockStream) -> np.ndarray:
        y, z_dummy, p = bob.draw_bits(3)
        return (alice.randoms(1)[0] >= thresholds[y, z_dummy, p]) == y

    return recovers_bit


def _alice_qutrit_block(params: dict):
    recovers_bit = _alice_recovers_bit(params)

    def run(seeds: np.ndarray) -> np.ndarray:
        return recovers_bit(*block_streams(seeds, ((ALICE, 4), (BOB, 4))))

    return run


def _alice_sequence_block(params: dict):
    # Alice stores the first untested slot's state and measures it with the
    # Helstrom measurement of the operator for Bob's declared bit, sampled
    # per (pair index, declared bit).  Bob declares the slots in order, so
    # only his first declaration is drawn.
    cfg = SequenceConfig(params["n_states"])
    thresholds = sampling_thresholds(_helstrom_weights(_SEQUENCE_OPERATORS, SEQUENCE_STATES))

    def run(seeds: np.ndarray) -> np.ndarray:
        setup = sequence_setup_block(cfg, seeds, alice_words=1, bob_words=1)
        # The first untested slot's pair.
        pair = slot_pairs(setup.pairs, setup.is_tested.argmin(axis=0))
        (declared,) = setup.bob.draw_bits(1)
        guess = setup.alice.randoms(1)[0] >= thresholds[pair, declared]
        return guess == pair_bit(pair, declared)

    return run


_HEADS = list(CoinResult).index(CoinResult.HEADS)  # coin_flip_results' index of HEADS


def _alice_coinflip_block(params: dict):
    # Alice wants HEADS, so she reveals a = b.  She defers her measurement:
    # Bob accepts her NULL on b = 1 always, and her claimed receipt on b = 0
    # exactly when her measurement recovers his data bit.
    recovers_bit = _alice_recovers_bit(params)

    def run(seeds: np.ndarray) -> np.ndarray:
        aux, alice, bob = block_streams(seeds, ((BOB_AUX, 4), (ALICE, 4), (BOB, 4)))
        (b,) = aux.draw_bits(1)
        return coin_flip_results(b, (b == 1) | recovers_bit(alice, bob), b) == _HEADS

    return run


def _bob_qutrit_block(params: dict):
    # Bob guesses Alice's choice bit a from his half of her probe and aligns
    # the permutation with it; honest Alice asserts receipt exactly when
    # a == p, so he calls her assert bit where his guess is right.  His Born
    # weights per choice bit sum those of the rows of her probe.
    weights = _helstrom_weights(_BOB_QUTRIT_OPERATOR[None], _BOB_QUTRIT_ROWS).sum(axis=1)[:, 0]
    thresholds = sampling_thresholds(weights)

    def run(seeds: np.ndarray) -> np.ndarray:
        # Bob's data and dummy bits, drawn after his measurement, do not
        # change whether his guess is right.
        alice, bob = block_streams(seeds, ((ALICE, 4), (BOB, 4)))
        (a,) = alice.draw_bits(1)
        return (bob.randoms(1)[0] >= thresholds[a]) == a

    return run


def _bob_coinflip_block(params: dict):
    # Bob plays his qutrit attack, so honest Alice's assert bit is 0 exactly
    # where his guess is right; he announces b = 0 and accepts any reveal.
    guess_is_right = _bob_qutrit_block(params)
    return lambda seeds: coin_flip_results(~guess_is_right(seeds), True, 0) == _HEADS


# (party, protocol) -> (parameter names, block factory).  A block form maps
# a uint64 array of trial seeds to whether each trial's cheat succeeds.
_STRATEGIES = {
    ("alice", "qutrit"): ({"triple"}, _alice_qutrit_block),
    ("bob", "qutrit"): (set(), _bob_qutrit_block),
    ("alice", "sequence"): ({"n_states"}, _alice_sequence_block),
    ("alice", "coinflip"): ({"triple"}, _alice_coinflip_block),
    ("bob", "coinflip"): (set(), _bob_coinflip_block),
}


@lru_cache(maxsize=128)
def _compiled(cache_key: tuple[str, str, str]):
    # One block form per strategy and parameters.
    party, protocol, params_json = cache_key
    return _STRATEGIES[(party, protocol)][1](json.loads(params_json))


def cheat_block(strategy: CheatStrategy):
    """The block form of :func:`execute_cheat` for ``strategy``.

    The block form maps a uint64 array of trial seeds to a boolean array
    holding, trial by trial, what ``execute_cheat`` returns for each seed.
    Its outcome tables are built on first use.
    """
    if not isinstance(strategy, CheatStrategy):
        raise UnsupportedStrategyError(f"strategy must be a CheatStrategy, not {type(strategy).__name__}")
    return _compiled(strategy.cache_key())


def execute_cheat(strategy: CheatStrategy, seed: int) -> bool:
    """Simulate one cheating run; True when the dishonest party succeeds.

    Success follows each protocol's cheating definition: Alice-type
    strategies must recover Bob's relevant bit, Bob-type strategies must
    call honest Alice's assert bit, and coin-flip strategies must land
    HEADS.  The run is the strategy's block form on one seed.
    """
    return bool(cheat_block(strategy)(seed_array(seed))[0])
