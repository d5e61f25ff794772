"""Acceptance gate: one test per criterion, each printing a PASS line.

Monte-Carlo criteria run at their full trial counts with fixed seeds, so
the whole module is deterministic; statistical gates are 3-sigma.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np
import pytest

from rotlab import adversary, cli, montecarlo
from rotlab.adversary import (
    AmplitudeTriple,
    CheatStrategy,
    alice_qutrit_cheat_prob,
    alice_sequence_cheat_prob,
    bob_qutrit_cheat_prob,
    coin_forcing_probs,
    optimize_alice_qutrit,
)
from rotlab.protocols import SequenceConfig, run_sequence
from rotlab.security import advantage, balance, check_kitaev_product, kitaev_min_advantage

from conftest import closed_form_objective, random_triple

pytestmark = pytest.mark.slow

BEST = (2.0 + math.sqrt(2.0)) / 4.0


def report(line: str) -> None:
    print(f"PASS {line}")


def test_criterion_1_qutrit_profile_via_optimizer_and_closed_path(capsys):
    optimize_alice_qutrit.cache_clear()
    started = time.perf_counter()
    code = cli.main(["analyze", "--protocol", "qutrit", "--output", "json"])
    elapsed = time.perf_counter() - started
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert elapsed < 10.0, f"analyze took {elapsed:.2f}s"

    # Printed values are rounded to six decimals by design; the precision
    # gates apply to the computed values on the same code path.
    _, optimized = optimize_alice_qutrit(1e-9)
    closed_path = alice_qutrit_cheat_prob(AmplitudeTriple.balanced())
    assert abs(optimized - BEST) < 1e-8
    assert abs(closed_path - BEST) < 1e-12
    assert abs(bob_qutrit_cheat_prob() - 0.75) < 1e-12
    assert payload["gamma"] == 1.5
    assert abs(payload["p_a_star"] - BEST) < 1e-6
    with capsys.disabled():
        report(
            f"criterion 1: qutrit profile ({optimized:.9f} optimizer, "
            f"{closed_path:.12f} closed path, P_B*=0.75, gamma=1.5) in {elapsed:.2f}s"
        )


def test_criterion_2_stored_state_value_via_trace_norm(capsys):
    started = time.perf_counter()
    first_bit = alice_sequence_cheat_prob(declared_bit=0)
    second_bit = alice_sequence_cheat_prob(declared_bit=1)
    elapsed = time.perf_counter() - started
    assert abs(first_bit - BEST) < 1e-12
    assert abs(second_bit - BEST) < 1e-12
    assert first_bit == second_bit
    assert elapsed < 1.0
    with capsys.disabled():
        report(f"criterion 2: stored-state attack value {first_bit:.12f} on both declared bits in {elapsed:.3f}s")


def test_criterion_3_bad_pair_balance_exact(capsys):
    result = balance(advantage(1.0, 0.5), advantage(0.75, 1.0))
    assert abs(result.gamma - 1.25) <= 1e-12
    assert abs(result.z_bias - 0.25) <= 1e-12
    with capsys.disabled():
        report(f"criterion 3: bad-pair balance gamma={result.gamma!r}, z={result.z_bias!r}")


def test_criterion_4_qubit_qutrit_balance(capsys):
    qutrit_profile = advantage(alice_qutrit_cheat_prob(AmplitudeTriple.balanced()), bob_qutrit_cheat_prob())
    result = balance(advantage(1.0, 0.5), qutrit_profile)
    assert 1.2390 <= result.gamma <= 1.2405
    assert abs(result.gamma - 1.239) <= 1e-3
    with capsys.disabled():
        report(f"criterion 4: refined balance gamma={result.gamma:.6f} in [1.2390, 1.2405]")


def test_criterion_5_lower_bound_and_headline_interval(capsys, monkeypatch):
    bound = kitaev_min_advantage(0.75, 0.5)
    assert abs(bound - (2.0 / 3.0) * (math.sqrt(7.0) - 1.0)) <= 1e-12

    code = cli.main(["headline", "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    lo, hi = payload["interval"]
    assert abs(lo - 1.0972) <= 1e-3
    assert abs(hi - 1.2398) <= 1e-3

    # Forced drift must surface as exit code 2.
    with monkeypatch.context() as patch:
        patch.setattr(adversary, "bob_qutrit_cheat_prob", lambda: 0.80)
        drift_code = cli.main(["headline", "--output", "json"])
    capsys.readouterr()
    assert drift_code == 2
    with capsys.disabled():
        report(f"criterion 5: bound {bound:.12f}; interval [{lo:.4f}, {hi:.4f}]; drift exits 2")


def test_criterion_6_coin_forcing_values_and_simulation(capsys):
    profile = advantage(alice_qutrit_cheat_prob(AmplitudeTriple.balanced()), bob_qutrit_cheat_prob())
    p_a0, p_b0 = coin_forcing_probs(profile)
    assert abs(p_a0 - 0.926777) < 1e-6
    assert abs(p_b0 - 0.75) < 1e-6
    assert check_kitaev_product(p_a0, p_b0)

    alice_report = montecarlo.estimate_cheat(
        CheatStrategy("alice", "coinflip"), 100_000, seed=1009, target=p_a0
    )
    bob_report = montecarlo.estimate_cheat(
        CheatStrategy("bob", "coinflip"), 100_000, seed=1013, target=p_b0
    )
    assert abs(alice_report.z_score) < 3.0, alice_report
    assert abs(bob_report.z_score) < 3.0, bob_report
    with capsys.disabled():
        report(
            f"criterion 6: forcing ({p_a0:.6f}, {p_b0:.6f}); product ok; "
            f"simulated z=({alice_report.z_score:.2f}, {bob_report.z_score:.2f}) at 1e5 trials"
        )


@pytest.mark.parametrize(
    "protocol,seed",
    [("bad_classical", 101), ("bad_qubit", 103), ("qutrit", 107), ("sequence", 109)],
)
def test_criterion_7_completeness(protocol, seed, capsys):
    trial_report, conditional = montecarlo.estimate_completeness(protocol, 100_000, seed=seed)
    assert conditional is True
    assert abs(trial_report.z_score) < 3.0, trial_report
    with capsys.disabled():
        report(
            f"criterion 7: {protocol} assert rate {trial_report.estimate:.4f} "
            f"(z={trial_report.z_score:.2f}), conditional correctness exact"
        )


def test_criterion_7_honest_sequence_never_aborts(capsys):
    cfg = SequenceConfig(100)
    for repetition in range(1000):
        _, outcomes = run_sequence(cfg, repetition)
        assert not any(outcome.aborted for outcome in outcomes)
    with capsys.disabled():
        report("criterion 7: zero aborts across 1000 honest batched runs at n_states=100")


def test_criterion_8_oracle_equivalence(capsys):
    # Brute-force oracle: the closed form scanned at angular step 0.001.
    angles = np.arange(0.0, math.pi / 2.0 + 1e-12, 0.001)
    tt, ff = np.meshgrid(angles, angles, indexing="ij")
    oracle_values = closed_form_objective(
        np.sin(tt) * np.cos(ff), np.sin(tt) * np.sin(ff), np.cos(tt)
    )
    oracle_max = float(oracle_values.max())
    assert abs(oracle_max - BEST) < 1e-5

    _, optimized = optimize_alice_qutrit(1e-9)
    assert abs(optimized - oracle_max) < 1e-5

    generator = np.random.default_rng(881)
    worst = 0.0
    for _ in range(1000):
        triple = AmplitudeTriple(*random_triple(generator))
        gap = abs(alice_qutrit_cheat_prob(triple) - closed_form_objective(*triple.as_tuple()))
        worst = max(worst, gap)
    assert worst < 1e-10
    with capsys.disabled():
        report(
            f"criterion 8: grid oracle max {oracle_max:.8f} vs optimizer {optimized:.8f}; "
            f"density-vs-closed-form worst gap {worst:.2e} over 1000 triples"
        )


def test_criterion_9_spot_check_detection_rate(capsys):
    trial_report = montecarlo.sequence_detection_experiment(
        100, "send-orthogonal", 10_000, seed=1021
    )
    assert trial_report.target == 0.1
    assert abs(trial_report.z_score) < 3.0, trial_report
    with capsys.disabled():
        report(
            f"criterion 9: orthogonal corruption aborts at {trial_report.estimate:.4f} "
            f"(target 0.1, z={trial_report.z_score:.2f}) over 1e4 trials"
        )
