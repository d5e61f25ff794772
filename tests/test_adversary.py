import math

import numpy as np
import pytest

from rotlab.adversary import (
    AmplitudeTriple,
    CheatStrategy,
    UnsupportedStrategyError,
    _qutrit_cheat_grid,
    alice_qutrit_cheat_prob,
    alice_sequence_cheat_prob,
    bob_qutrit_cheat_prob,
    bob_sequence_cheat_prob,
    coin_forcing_probs,
    execute_cheat,
    optimize_alice_qutrit,
)
from rotlab.linalg import DensityMatrix, PureState, ValidationError, helstrom_prob
from rotlab.montecarlo import estimate_cheat
from rotlab.security import advantage

from conftest import closed_form_objective, random_triple

BEST = (2.0 + math.sqrt(2.0)) / 4.0


def test_amplitude_triple_validation():
    AmplitudeTriple.balanced()
    with pytest.raises(ValidationError):
        AmplitudeTriple(0.5, 0.5, 0.5)
    with pytest.raises(ValidationError):
        AmplitudeTriple(-0.5, 0.5, math.sqrt(0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200, 1.0 + 1e-9])
def test_amplitude_triple_rejects_non_finite_and_oversized(bad):
    with pytest.raises(ValidationError):
        AmplitudeTriple(bad, 0.0, 0.0)
    with pytest.raises(ValidationError):
        CheatStrategy("alice", "qutrit", {"triple": [0.0, 0.0, bad]})


def test_cheat_prob_balanced_probe_hits_best_value():
    assert abs(alice_qutrit_cheat_prob(AmplitudeTriple.balanced()) - BEST) < 1e-12


def test_cheat_prob_degenerate_probes_give_coin_toss():
    assert abs(alice_qutrit_cheat_prob(AmplitudeTriple(1.0, 0.0, 0.0)) - 0.5) < 1e-12
    assert abs(alice_qutrit_cheat_prob(AmplitudeTriple(0.0, 0.0, 1.0)) - 0.5) < 1e-12


def test_cheat_prob_matches_closed_form(rng):
    for _ in range(150):
        triple = AmplitudeTriple(*random_triple(rng))
        density_path = alice_qutrit_cheat_prob(triple)
        assert abs(density_path - closed_form_objective(*triple.as_tuple())) < 1e-10


def test_cheat_prob_symmetric_in_alpha_beta(rng):
    for _ in range(25):
        alpha, beta, gamma_amp = random_triple(rng)
        value = alice_qutrit_cheat_prob(AmplitudeTriple(alpha, beta, gamma_amp))
        swapped = alice_qutrit_cheat_prob(AmplitudeTriple(beta, alpha, gamma_amp))
        assert abs(value - swapped) < 1e-12


def test_optimizer_finds_the_maximum():
    triple, value = optimize_alice_qutrit(1e-9)
    assert abs(value - BEST) < 1e-8
    assert abs(triple.alpha - 0.5) < 1e-4
    assert abs(triple.beta - 0.5) < 1e-4
    assert abs(triple.gamma_amp - math.sqrt(0.5)) < 1e-4


def test_optimizer_dominates_grid_oracle():
    # Independent brute force through the closed form on a coarse grid.
    _, value = optimize_alice_qutrit(1e-9)
    angles = np.linspace(0.0, np.pi / 2.0, 300)
    tt, ff = np.meshgrid(angles, angles, indexing="ij")
    oracle = closed_form_objective(np.sin(tt) * np.cos(ff), np.sin(tt) * np.sin(ff), np.cos(tt))
    assert value >= oracle.max() - 1e-9


def test_grid_matches_pointwise_evaluator():
    thetas = np.linspace(0.1, 1.4, 7)
    phis = np.linspace(0.05, 1.5, 7)
    grid = _qutrit_cheat_grid(thetas, phis)
    for i, theta in enumerate(thetas):
        for j, phi in enumerate(phis):
            triple = AmplitudeTriple.from_angles(theta, phi)
            assert abs(grid[i, j] - alice_qutrit_cheat_prob(triple)) < 1e-12


def test_optimizer_tolerance_validation():
    with pytest.raises(ValidationError):
        optimize_alice_qutrit(0.0)
    with pytest.raises(ValidationError):
        optimize_alice_qutrit(1e-2)


def test_optimized_value_beats_honest_floor():
    _, value = optimize_alice_qutrit(1e-6)
    assert value >= 0.75


def test_bob_qutrit_cheat_prob_exact():
    assert abs(bob_qutrit_cheat_prob() - 0.75) < 1e-12


def test_bob_discrimination_sanity_hook():
    # Identical reduced states carry no information.
    rho = DensityMatrix.mixture([(0.5, PureState.basis(3, 0)), (0.5, PureState.basis(3, 2))])
    assert abs(helstrom_prob(0.5, rho, 0.5, rho) - 0.5) < 1e-12


def test_alice_sequence_cheat_prob_both_variants():
    assert abs(alice_sequence_cheat_prob() - BEST) < 1e-12
    assert abs(alice_sequence_cheat_prob(declared_bit=1) - BEST) < 1e-12
    with pytest.raises(ValidationError):
        alice_sequence_cheat_prob(declared_bit=2)


def test_sequence_degenerate_single_state_mixtures():
    rho0 = DensityMatrix.from_pure(PureState([1.0, 0.0, 0.0, 0.0]))
    rho1 = DensityMatrix.from_pure(PureState([0.0, 0.0, 0.0, 1.0]))
    assert abs(helstrom_prob(0.5, rho0, 0.5, rho1) - 1.0) < 1e-12


def test_bob_sequence_limit_constant():
    assert bob_sequence_cheat_prob() == 0.75


def test_coin_forcing_probs_examples():
    qutrit = advantage(math.cos(math.pi / 8.0) ** 2, 0.75)
    p_a0, p_b0 = coin_forcing_probs(qutrit)
    assert abs(p_a0 - 0.926777) < 1e-6
    assert abs(p_b0 - 0.75) < 1e-12

    ideal = advantage(0.75, 0.5)
    assert coin_forcing_probs(ideal) == (0.875, 0.5)

    broken = advantage(1.0, 1.0)
    assert coin_forcing_probs(broken) == (1.0, 1.0)


def test_coin_forcing_probs_affine(rng):
    for _ in range(25):
        p_a = float(rng.uniform(0.0, 1.0))
        p_b = float(rng.uniform(0.0, 1.0))
        p_a0, p_b0 = coin_forcing_probs(advantage(p_a, p_b))
        assert p_a0 == 0.5 + 0.5 * p_a
        assert p_b0 == p_b


# ---------------------------------------------------------------------------
# strategies


def test_strategy_validation():
    with pytest.raises(UnsupportedStrategyError):
        CheatStrategy("bob", "sequence")
    with pytest.raises(UnsupportedStrategyError):
        CheatStrategy("alice", "bad_classical")
    with pytest.raises(ValidationError):
        CheatStrategy("alice", "qutrit", {"tripple": [0.5, 0.5, 0.5]})
    with pytest.raises(ValidationError):
        CheatStrategy("alice", "qutrit", {"triple": [0.5, 0.5]})
    with pytest.raises(ValidationError):
        CheatStrategy("alice", "qutrit", {"triple": [0.9, 0.9, 0.9]})
    with pytest.raises(ValidationError):
        CheatStrategy("alice", "sequence", {"n_states": 2})
    with pytest.raises(ValidationError):
        CheatStrategy("alice", "sequence", {"n_states": "four"})


def test_strategy_equality_and_defaults():
    balanced = list(AmplitudeTriple.balanced().as_tuple())
    assert CheatStrategy("alice", "qutrit", {"triple": balanced}) == CheatStrategy(
        "alice", "qutrit", {"triple": balanced}
    )
    assert CheatStrategy("bob", "qutrit") != CheatStrategy("bob", "coinflip")


def test_execute_cheat_is_deterministic_per_seed():
    strategy = CheatStrategy("alice", "qutrit")
    outcomes = [execute_cheat(strategy, seed) for seed in range(40)]
    assert outcomes == [execute_cheat(strategy, seed) for seed in range(40)]
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize(
    "strategy,target",
    [
        (CheatStrategy("alice", "qutrit"), BEST),
        (CheatStrategy("alice", "qutrit", {"triple": [1.0, 0.0, 0.0]}), 0.5),
        (CheatStrategy("bob", "qutrit"), 0.75),
        (CheatStrategy("alice", "sequence", {"n_states": 4}), BEST),
        (CheatStrategy("alice", "coinflip"), 0.5 + 0.5 * BEST),
        (CheatStrategy("bob", "coinflip"), 0.75),
    ],
)
def test_strategy_success_rates_sample(strategy, target):
    report = estimate_cheat(strategy, 4000, seed=97, target=target)
    assert abs(report.z_score) < 3.5
