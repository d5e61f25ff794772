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

from rotlab import adversary, cli, montecarlo, protocols
from rotlab.adversary import (
    AmplitudeTriple,
    CheatStrategy,
    alice_qutrit_cheat_prob,
    alice_sequence_cheat_prob,
    bob_qutrit_cheat_prob,
    optimize_alice_qutrit,
)
from rotlab.linalg import ValidationError
from rotlab.protocols import SequenceConfig, play_sequence_block, run_coinflip_reduction
from rotlab.security import advantage, balance, check_kitaev_product, coin_forcing_probs, kitaev_min_advantage

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


def _coin_forcing_probs():
    profile = advantage(alice_qutrit_cheat_prob(AmplitudeTriple.balanced()), bob_qutrit_cheat_prob())
    return coin_forcing_probs(profile)


def _criterion_6_gates():
    # The two coin-flip gates of criterion 6, at their seeds and trial counts.
    p_a0, p_b0 = _coin_forcing_probs()
    alice_report = montecarlo.estimate_cheat(
        CheatStrategy("alice", "coinflip"), 100_000, seed=1009, target=p_a0
    )
    bob_report = montecarlo.estimate_cheat(
        CheatStrategy("bob", "coinflip"), 100_000, seed=1013, target=p_b0
    )
    return alice_report, bob_report


def test_criterion_6_coin_forcing_values_and_simulation(capsys):
    p_a0, p_b0 = _coin_forcing_probs()
    assert abs(p_a0 - 0.926777) < 1e-6
    assert abs(p_b0 - 0.75) < 1e-6
    assert check_kitaev_product(p_a0, p_b0)

    alice_report, bob_report = _criterion_6_gates()
    assert abs(alice_report.z_score) < 3.0, alice_report
    assert abs(bob_report.z_score) < 3.0, bob_report
    with capsys.disabled():
        report(
            f"criterion 6: forcing ({p_a0:.6f}, {p_b0:.6f}); product ok; "
            f"simulated z=({alice_report.z_score:.2f}, {bob_report.z_score:.2f}) at 1e5 trials"
        )


def test_criterion_6_catches_heads_where_a_differs_from_b(monkeypatch):
    # A planted defect of the coin-flip rule, HEADS exactly where Alice's
    # assert bit differs from Bob's coin bit, read by every module that
    # reads the rule: both gates fail at their own seeds, and the scalar
    # coin flip fails CoinOutcome's own check.  Unpatched, all of it passes.
    def heads_where_a_differs(assert_bit, accepted, b):
        return np.where(accepted, assert_bit == b, 2)

    for planted in (False, True):
        with monkeypatch.context() as patch:
            if planted:
                for module in (protocols, adversary):
                    patch.setattr(module, "coin_flip_results", heads_where_a_differs)
            gates = _criterion_6_gates()
            assert [abs(report.z_score) >= 3.0 for report in gates] == [planted, planted], gates
            for rot in ("bad_classical", "bad_qubit", "qutrit", "sequence"):
                if planted:
                    with pytest.raises(ValidationError, match="HEADS exactly when"):
                        run_coinflip_reduction(rot, 11)
                else:
                    run_coinflip_reduction(rot, 11)


# Criterion 7's completeness gates: each protocol at its own seed.
CRITERION_7_SEEDS = {"bad_classical": 101, "bad_qubit": 103, "qutrit": 107, "sequence": 109}


def _criterion_7_gate(protocol):
    return montecarlo.estimate_completeness(protocol, 100_000, seed=CRITERION_7_SEEDS[protocol])


@pytest.mark.parametrize("protocol,seed", list(CRITERION_7_SEEDS.items()))
def test_criterion_7_completeness(protocol, seed, capsys):
    trial_report, conditional = _criterion_7_gate(protocol)
    assert conditional is True
    assert abs(trial_report.z_score) < 3.0, trial_report
    with capsys.disabled():
        report(
            f"criterion 7: {protocol} assert rate {trial_report.estimate:.4f} "
            f"(z={trial_report.z_score:.2f}), conditional correctness exact"
        )


def test_criterion_7_catches_a_swapped_sequence_decode(monkeypatch):
    # A planted defect of Alice's untested-slot decode: the outcome pairs
    # (0, 1) and (1, 0) trade readings.  She still learns a bit half the
    # time, so the assert rate holds, but some of the bits she learns are
    # not the ones Bob sent, so conditional correctness fails.  Unpatched,
    # the gate passes.
    swapped = protocols.SEQUENCE_DECODE.copy()
    swapped[0, 1], swapped[1, 0] = protocols.SEQUENCE_DECODE[1, 0], protocols.SEQUENCE_DECODE[0, 1]
    tables = protocols._decode_tables(*protocols._SEQUENCE_THRESHOLDS, swapped)
    for planted in (False, True):
        with monkeypatch.context() as patch:
            if planted:
                patch.setattr(protocols, "_DECODE_TABLES", tables)
            trial_report, conditional = _criterion_7_gate("sequence")
        assert abs(trial_report.z_score) < 3.0, trial_report
        assert conditional is not planted


def test_criterion_7_honest_sequence_never_aborts(capsys):
    cfg = SequenceConfig(100)
    block = play_sequence_block(cfg, np.arange(1000, dtype=np.uint64))
    assert not (block.failed >= 0).any()
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


def _criterion_9_gate():
    return montecarlo.sequence_detection_experiment(100, "send-orthogonal", 10_000, seed=1021)


def test_criterion_9_spot_check_detection_rate(capsys):
    trial_report = _criterion_9_gate()
    assert trial_report.target == 0.1
    assert abs(trial_report.z_score) < 3.0, trial_report
    with capsys.disabled():
        report(
            f"criterion 9: orthogonal corruption aborts at {trial_report.estimate:.4f} "
            f"(target 0.1, z={trial_report.z_score:.2f}) over 1e4 trials"
        )


def test_criterion_9_catches_a_corruption_into_the_other_basis(monkeypatch):
    # A planted defect of Bob's corruption: the corrupted slot carries a
    # state of the other basis, announced ^ 1, which a test catches only
    # with probability 3/4, so the abort rate falls below test_size /
    # n_states.  Unpatched, the gate passes.
    spot_check = montecarlo.sequence_spot_check_block

    def other_basis(rand, tested, sent, announced):
        return spot_check(rand, tested, np.where(sent != announced, announced ^ 1, sent), announced)

    for planted in (False, True):
        with monkeypatch.context() as patch:
            if planted:
                patch.setattr(montecarlo, "sequence_spot_check_block", other_basis)
            trial_report = _criterion_9_gate()
        assert (abs(trial_report.z_score) >= 3.0) is planted, trial_report
