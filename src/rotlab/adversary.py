"""Optimal-cheating evaluators and executable cheating strategies.

The evaluators compute each dishonest party's best success probability
analytically (trace-norm discrimination of the relevant state mixtures);
``execute_cheat`` turns the same strategies into seeded single runs so the
Monte-Carlo harness can cross-check every analytic value empirically.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    ComplexMatrix,
    DensityMatrix,
    ProjectiveMeasurement,
    PureState,
    ValidationError,
    born_weights,
    helstrom_prob,
    helstrom_projectors,
    invert_cumulative_block,
    kron,
    measure_pure,
    partial_trace,
)
from .protocols import (
    SEQUENCE_STATES,
    OtPair,
    SequenceConfig,
    qutrit_entangled_state,
    sequence_setup,
)
from .rng import ALICE, BOB, BOB_AUX, BlockStream, draw_bit, party_stream
from .security import CheatProfile

GRID_POINTS = 200


class UnsupportedStrategyError(ValueError):
    """The (party, protocol) pair has no implemented cheating strategy."""


@dataclass(frozen=True)
class AmplitudeTriple:
    """Cheating Alice's qutrit amplitudes (alpha, beta, gamma_amp), each in
    [0, 1], with unit squared sum."""

    alpha: float
    beta: float
    gamma_amp: float

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta), ("gamma_amp", self.gamma_amp)):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must be a finite amplitude in [0, 1], got {value}")
        norm_sq = self.alpha**2 + self.beta**2 + self.gamma_amp**2
        if not abs(norm_sq - 1.0) <= 1e-12:
            raise ValidationError(f"squared amplitudes sum to {norm_sq!r}, expected 1")

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "AmplitudeTriple":
        """Spherical chart of the nonnegative octant, theta/phi in [0, pi/2]."""
        return cls(
            alpha=math.sin(theta) * math.cos(phi),
            beta=math.sin(theta) * math.sin(phi),
            gamma_amp=math.cos(theta),
        )

    @classmethod
    def balanced(cls) -> "AmplitudeTriple":
        """The equal-weight probe (1/2, 1/2, 1/sqrt 2)."""
        return cls(0.5, 0.5, math.sqrt(0.5))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma_amp)


# --------------------------------------------------------------------------
# Qutrit protocol: cheating Alice
# --------------------------------------------------------------------------


def _encoded_state(triple: AmplitudeTriple, x0: int, x1: int) -> PureState:
    signs = ((-1.0) ** x0, (-1.0) ** x1, 1.0)
    return PureState(np.array(signs) * np.array(triple.as_tuple()))


def _bit_mixtures(triple: AmplitudeTriple, perm: int) -> tuple[DensityMatrix, DensityMatrix]:
    """The two equal-weight mixtures Alice must tell apart once the
    permutation value is announced: encodings with the selected bit 0 vs 1."""
    groups: dict[int, list[PureState]] = {0: [], 1: []}
    for x0 in (0, 1):
        for x1 in (0, 1):
            bit = x0 if perm == 0 else x1
            groups[bit].append(_encoded_state(triple, x0, x1))
    rho0 = DensityMatrix.mixture([(0.5, s) for s in groups[0]])
    rho1 = DensityMatrix.mixture([(0.5, s) for s in groups[1]])
    return rho0, rho1


def alice_qutrit_cheat_prob(triple: AmplitudeTriple) -> float:
    """Success probability of the probe-state attack on the qutrit protocol,
    averaged over the uniform permutation value.

    Evaluated through the density-matrix path (mixtures and trace norms);
    the closed form 1/2 + (alpha + beta) * gamma_amp / 2 is its cross-check.
    """
    if not isinstance(triple, AmplitudeTriple):
        triple = AmplitudeTriple(*triple)
    values = []
    for perm in (0, 1):
        rho0, rho1 = _bit_mixtures(triple, perm)
        values.append(helstrom_prob(0.5, rho0, 0.5, rho1))
    return float(np.mean(values))


def _simplex_maximise(fn, start, step, tolerance, max_iter=500):
    # Reflection-based Nelder-Mead on two coordinates; stops once the
    # simplex diameter falls below the tolerance.
    pts = [
        np.array(start, dtype=float),
        np.array([start[0] + step, start[1]], dtype=float),
        np.array([start[0], start[1] + step], dtype=float),
    ]
    vals = [fn(p) for p in pts]
    for _ in range(max_iter):
        order = sorted(range(3), key=lambda i: -vals[i])
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        diameter = max(
            np.linalg.norm(pts[0] - pts[1]),
            np.linalg.norm(pts[0] - pts[2]),
            np.linalg.norm(pts[1] - pts[2]),
        )
        if diameter < tolerance:
            break
        centroid = (pts[0] + pts[1]) / 2.0
        worst = pts[2]
        reflected = centroid + (centroid - worst)
        f_reflected = fn(reflected)
        if f_reflected > vals[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_expanded = fn(expanded)
            if f_expanded > f_reflected:
                pts[2], vals[2] = expanded, f_expanded
            else:
                pts[2], vals[2] = reflected, f_reflected
        elif f_reflected > vals[1]:
            pts[2], vals[2] = reflected, f_reflected
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            f_contracted = fn(contracted)
            if f_contracted > vals[2]:
                pts[2], vals[2] = contracted, f_contracted
            else:
                for i in (1, 2):
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    vals[i] = fn(pts[i])
    best = int(np.argmax(vals))
    return pts[best], vals[best]


def _qutrit_cheat_grid(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """The objective of :func:`alice_qutrit_cheat_prob` on a theta x phi grid.

    Batched over the grid: the two bit-difference operators of every triple
    are stacked and their trace norms come from one ``eigvalsh`` call each.
    """
    tt, ff = np.meshgrid(thetas, phis, indexing="ij")
    alpha = (np.sin(tt) * np.cos(ff)).ravel()
    beta = (np.sin(tt) * np.sin(ff)).ravel()
    gamma_amp = np.cos(tt).ravel()
    vecs = np.empty((alpha.size, 2, 2, 3))
    for x0 in range(2):
        for x1 in range(2):
            vecs[:, x0, x1, 0] = alpha * (1.0 - 2.0 * x0)
            vecs[:, x0, x1, 1] = beta * (1.0 - 2.0 * x1)
            vecs[:, x0, x1, 2] = gamma_amp
    outers = np.einsum("mxyi,mxyj->mxyij", vecs, vecs)
    delta0 = 0.5 * (outers[:, 0, 0] + outers[:, 0, 1] - outers[:, 1, 0] - outers[:, 1, 1])
    delta1 = 0.5 * (outers[:, 0, 0] + outers[:, 1, 0] - outers[:, 0, 1] - outers[:, 1, 1])
    norms0 = np.abs(np.linalg.eigvalsh(delta0)).sum(axis=1)
    norms1 = np.abs(np.linalg.eigvalsh(delta1)).sum(axis=1)
    values = 0.5 * ((0.5 + 0.25 * norms0) + (0.5 + 0.25 * norms1))
    return values.reshape(thetas.size, phis.size)


@lru_cache(maxsize=8)
def optimize_alice_qutrit(tolerance: float) -> tuple[AmplitudeTriple, float]:
    """Maximise the probe-state attack over the amplitude octant.

    A 200x200 spherical-coordinate grid scan locates the basin, then a
    simplex descent on the two angles refines it until the simplex step
    drops below ``tolerance``.
    """
    if not (0.0 < tolerance <= 1e-3):
        raise ValidationError(f"tolerance must lie in (0, 1e-3], got {tolerance}")
    half_pi = math.pi / 2.0
    thetas = np.linspace(0.0, half_pi, GRID_POINTS)
    phis = np.linspace(0.0, half_pi, GRID_POINTS)
    values = _qutrit_cheat_grid(thetas, phis)
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    grid_best = float(values[i, j])
    grid_angles = np.array([thetas[i], phis[j]])

    def objective(angles) -> float:
        theta = min(max(float(angles[0]), 0.0), half_pi)
        phi = min(max(float(angles[1]), 0.0), half_pi)
        return alice_qutrit_cheat_prob(AmplitudeTriple.from_angles(theta, phi))

    step = half_pi / (GRID_POINTS - 1)
    angles, refined = _simplex_maximise(objective, grid_angles, step, tolerance)
    if refined >= grid_best:
        theta = min(max(float(angles[0]), 0.0), half_pi)
        phi = min(max(float(angles[1]), 0.0), half_pi)
        return AmplitudeTriple.from_angles(theta, phi), refined
    return AmplitudeTriple.from_angles(*grid_angles), grid_best


# --------------------------------------------------------------------------
# Qutrit protocol: cheating Bob
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bob_qutrit_reduced_states() -> tuple[DensityMatrix, DensityMatrix]:
    red0 = partial_trace(DensityMatrix.from_pure(qutrit_entangled_state(0)), 3, 3, keep="B")
    red1 = partial_trace(DensityMatrix.from_pure(qutrit_entangled_state(1)), 3, 3, keep="B")
    return red0, red1


def bob_qutrit_cheat_prob() -> float:
    """Bob's best chance of reading Alice's choice bit off the qutrit he
    receives: minimum-error discrimination of the two reduced states."""
    red0, red1 = _bob_qutrit_reduced_states()
    return helstrom_prob(0.5, red0, 0.5, red1)


# --------------------------------------------------------------------------
# Sequence protocol
# --------------------------------------------------------------------------


def _sequence_mixtures(declared_bit: int) -> tuple[DensityMatrix, DensityMatrix]:
    groups: dict[int, list[PureState]] = {0: [], 1: []}
    for bits, state in SEQUENCE_STATES.items():
        groups[bits[declared_bit]].append(state)
    rho0 = DensityMatrix.mixture([(0.5, s) for s in groups[0]])
    rho1 = DensityMatrix.mixture([(0.5, s) for s in groups[1]])
    return rho0, rho1


def alice_sequence_cheat_prob(declared_bit: int = 0) -> float:
    """Success probability of storing a batch state and measuring only after
    Bob declares which bit counts; identical for either declared bit and
    independent of the batch size."""
    if declared_bit not in (0, 1):
        raise ValidationError(f"declared_bit must be 0 or 1, got {declared_bit}")
    rho0, rho1 = _sequence_mixtures(declared_bit)
    return helstrom_prob(0.5, rho0, 0.5, rho1)


def bob_sequence_cheat_prob() -> float:
    """Bob's cheating probability against the sequence protocol in the
    large-batch limit.  This is a limit value only: no finite-batch
    optimality is claimed."""
    return 0.75


# --------------------------------------------------------------------------
# Coin-flip forcing
# --------------------------------------------------------------------------


def coin_forcing_probs(rot_profile: CheatProfile) -> tuple[float, float]:
    """HEADS-forcing probabilities of the coin flip built on a transfer with
    the given cheating profile: Alice forces with (1 + P_A*)/2, Bob with
    P_B*."""
    return 0.5 + 0.5 * rot_profile.p_a_star, rot_profile.p_b_star


# --------------------------------------------------------------------------
# Executable strategies
# --------------------------------------------------------------------------


class CheatStrategy:
    """One dishonest party's tactic for one protocol.

    ``parameters`` is strategy-specific: the probe amplitudes for the
    qutrit and coin-flip Alice attacks, the batch size for the sequence
    attack.  Unknown parameter names are rejected.  The parameters are
    fixed at construction, when the cache key that selects the compiled
    runner is computed.
    """

    def __init__(self, party: str, protocol: str, parameters: dict | None = None):
        if (party, protocol) not in _STRATEGIES:
            raise UnsupportedStrategyError(f"no strategy for party={party!r}, protocol={protocol!r}")
        parameters = dict(parameters or {})
        unknown = set(parameters) - _STRATEGIES[(party, protocol)][0]
        if unknown:
            raise ValidationError(f"unknown strategy parameters: {sorted(unknown)}")
        if "triple" in parameters:
            values = parameters["triple"]
            if not isinstance(values, (list, tuple)) or len(values) != 3:
                raise ValidationError("triple must be a list of three amplitudes")
            parameters["triple"] = list(AmplitudeTriple(*map(float, values)).as_tuple())
        if "n_states" in parameters:
            n_states = parameters["n_states"]
            if not isinstance(n_states, int) or isinstance(n_states, bool):
                raise ValidationError("n_states must be an integer")
            SequenceConfig(n_states)  # range check
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


def _equal_prior_measurement(rho0: DensityMatrix, rho1: DensityMatrix) -> ProjectiveMeasurement:
    return ProjectiveMeasurement(helstrom_projectors(0.5, rho0, 0.5, rho1))


def _strategy_triple(params: dict) -> AmplitudeTriple:
    if "triple" in params:
        return AmplitudeTriple(*params["triple"])
    return AmplitudeTriple.balanced()


def _alice_qutrit_tables(params: dict):
    # The probe after Bob's phase encoding, per bit pair, and Alice's
    # Helstrom measurement, per announced permutation value.
    triple = _strategy_triple(params)
    encoded = {(x0, x1): _encoded_state(triple, x0, x1) for x0 in (0, 1) for x1 in (0, 1)}
    measurements = {
        perm: _equal_prior_measurement(*_bit_mixtures(triple, perm)) for perm in (0, 1)
    }
    return encoded, measurements


def _alice_qutrit_runner(params: dict):
    encoded, measurements = _alice_qutrit_tables(params)

    def run(seed: int) -> bool:
        alice = party_stream(seed, ALICE)
        bob = party_stream(seed, BOB)
        pair = OtPair.draw(draw_bit(bob), draw_bit(bob), draw_bit(bob))
        guess, _ = measure_pure(encoded[(pair.x0, pair.x1)], measurements[pair.p], alice.random())
        return guess == pair.y

    return run


def _alice_qutrit_block(params: dict):
    # Born weights of Alice's measurement on the encoded probe, per Bob's
    # (y, z_dummy, p), as _alice_qutrit_runner measures it.
    encoded, measurements = _alice_qutrit_tables(params)
    weights = np.empty((2, 2, 2, 2))
    for y, z_dummy, p in itertools.product((0, 1), repeat=3):
        pair = OtPair.draw(y, z_dummy, p)
        weights[y, z_dummy, p] = born_weights(encoded[(pair.x0, pair.x1)], measurements[p])

    def run(seeds: np.ndarray) -> np.ndarray:
        alice = BlockStream(seeds, ALICE)
        bob = BlockStream(seeds, BOB)
        y = bob.draw_bit()
        z_dummy = bob.draw_bit()
        p = bob.draw_bit()
        return invert_cumulative_block(weights[y, z_dummy, p], alice.random()) == y

    return run


def _alice_sequence_runner(params: dict):
    cfg = SequenceConfig(params.get("n_states", 4))
    measurements = {bit: _equal_prior_measurement(*_sequence_mixtures(bit)) for bit in (0, 1)}

    def run(seed: int) -> bool:
        # Alice attacks the first untested slot.  Bob declares the slots in
        # order, so only his first declaration is drawn.
        alice, bob, pairs, tested = sequence_setup(cfg, seed)
        slot = next(j for j in range(cfg.n_states) if j not in tested)
        declared = draw_bit(bob)
        guess, _ = measure_pure(SEQUENCE_STATES[pairs[slot]], measurements[declared], alice.random())
        return guess == pairs[slot][declared]

    return run


def _alice_coinflip_runner(params: dict):
    # Alice wants HEADS.  She defers her measurement; on b = 1 she claims
    # NULL (always accepted), on b = 0 she must pass Bob's check, which
    # succeeds exactly when her measurement recovers his data bit.
    recovers_bit = _alice_qutrit_runner(params)

    def run(seed: int) -> bool:
        return draw_bit(party_stream(seed, BOB_AUX)) == 1 or recovers_bit(seed)

    return run


def _alice_coinflip_block(params: dict):
    recovers_bit = _alice_qutrit_block(params)

    def run(seeds: np.ndarray) -> np.ndarray:
        return (BlockStream(seeds, BOB_AUX).draw_bit() == 1) | recovers_bit(seeds)

    return run


def _helstrom_on_bob_side() -> ProjectiveMeasurement:
    red0, red1 = _bob_qutrit_reduced_states()
    identity3 = ComplexMatrix.identity(3)
    return ProjectiveMeasurement(
        tuple(kron(identity3, pi) for pi in helstrom_projectors(0.5, red0, 0.5, red1))
    )


def _bob_qutrit_runner(params: dict):
    # Bob guesses Alice's choice bit a from his half of her probe and aligns
    # the permutation with his guess.  Honest Alice asserts receipt exactly
    # when a == p, so he calls her assert bit, and in the coin flip he
    # announces b = 0 and lands HEADS, exactly when his guess is right.
    lifted = _helstrom_on_bob_side()

    def run(seed: int) -> bool:
        alice = party_stream(seed, ALICE)
        bob = party_stream(seed, BOB)
        a = draw_bit(alice)
        a_guess, _ = measure_pure(qutrit_entangled_state(a), lifted, bob.random())
        pair = OtPair.draw(draw_bit(bob), draw_bit(bob), a_guess)
        return a == pair.p

    return run


def _bob_qutrit_block(params: dict):
    lifted = _helstrom_on_bob_side()
    weights = np.array([born_weights(qutrit_entangled_state(a), lifted) for a in (0, 1)])

    def run(seeds: np.ndarray) -> np.ndarray:
        # Bob's data and dummy bits, drawn after his measurement, do not
        # change whether his guess is right.
        a = BlockStream(seeds, ALICE).draw_bit()
        return invert_cumulative_block(weights[a], BlockStream(seeds, BOB).random()) == a

    return run


# (party, protocol) -> (parameter names, runner factory, block factory).
# A block form gives its runner's outcome trial by trial for an array of
# trial seeds.  alice/sequence has none: its test-set draw, Generator.choice,
# consumes a variable number of words.
_STRATEGIES = {
    ("alice", "qutrit"): ({"triple"}, _alice_qutrit_runner, _alice_qutrit_block),
    ("bob", "qutrit"): (set(), _bob_qutrit_runner, _bob_qutrit_block),
    ("alice", "sequence"): ({"n_states"}, _alice_sequence_runner, None),
    ("alice", "coinflip"): ({"triple"}, _alice_coinflip_runner, _alice_coinflip_block),
    ("bob", "coinflip"): (set(), _bob_qutrit_runner, _bob_qutrit_block),
}


def _factories(strategy: CheatStrategy):
    key = (strategy.party, strategy.protocol)
    if key not in _STRATEGIES:
        raise UnsupportedStrategyError(f"no strategy for party/protocol pair {key!r}")
    return _STRATEGIES[key][1:]


@lru_cache(maxsize=128)
def _compiled(factory, cache_key: tuple[str, str, str]):
    # One runner or block form per factory and strategy parameters.
    _, _, params_json = cache_key
    return factory(json.loads(params_json))


def cheat_block(strategy: CheatStrategy):
    """The block form of :func:`execute_cheat` for ``strategy``, or None
    when only the scalar runner covers it.

    The block form maps a uint64 array of trial seeds to a boolean array
    holding, trial by trial, what ``execute_cheat`` returns for each seed.
    Its outcome tables are built on first use.
    """
    _, block = _factories(strategy)
    return None if block is None else _compiled(block, strategy.cache_key())


def execute_cheat(strategy: CheatStrategy, seed: int) -> bool:
    """Simulate one cheating run; True when the dishonest party succeeds.

    Success follows each protocol's cheating definition: Alice-type
    strategies must recover Bob's relevant bit, Bob-type strategies must
    call honest Alice's assert bit, and coin-flip strategies must land
    HEADS.
    """
    runner, _ = _factories(strategy)
    return bool(_compiled(runner, strategy.cache_key())(seed))
