import math
from pathlib import Path

import numpy as np
import pytest

from rotlab.linalg import ValidationError
from rotlab.protocols import (
    SEQUENCE_STATES,
    CoinResult,
    OtPair,
    RotOutcome,
    SequenceConfig,
    qutrit_born_probabilities,
    qutrit_decode,
    run_bad_classical,
    run_bad_qubit,
    run_coinflip_reduction,
    run_qutrit,
    run_sequence,
    sequence_decode,
    sequence_expected_outcome,
    sequence_setup,
    sequence_setup_block,
    sequence_spot_check,
    sequence_spot_check_block,
    sequence_test_basis,
)
from rotlab.rng import trial_seeds

DATA = Path(__file__).parent / "data"


def find_seed(predicate, limit=500):
    for seed in range(limit):
        if predicate(seed):
            return seed
    raise AssertionError("no seed matched within the probe limit")


# ---------------------------------------------------------------------------
# domain types


def test_rot_outcome_assert_bit_invariant():
    with pytest.raises(ValidationError):
        RotOutcome(g_hat=1, assert_bit=1, bob_bit=1)
    with pytest.raises(ValidationError):
        RotOutcome(g_hat=None, assert_bit=0, bob_bit=1)
    sentinel = RotOutcome.abort_sentinel()
    assert sentinel.aborted and sentinel.assert_bit == 1 and sentinel.g_hat is None


def test_ot_pair_permutation_invariant():
    pair = OtPair.draw(y=1, z_dummy=0, p=0)
    assert (pair.x0, pair.x1) == (1, 0)
    pair = OtPair.draw(y=1, z_dummy=0, p=1)
    assert (pair.x0, pair.x1) == (0, 1)
    with pytest.raises(ValidationError):
        OtPair(x0=1, x1=1, p=0, z_dummy=0, y=1)


def test_sequence_config_validation():
    cfg = SequenceConfig(100)
    assert cfg.test_size == 10
    assert SequenceConfig(4).test_size == 2
    with pytest.raises(ValidationError):
        SequenceConfig(3)
    with pytest.raises(ValidationError):
        SequenceConfig(100, test_size=9)


# ---------------------------------------------------------------------------
# the two single-message protocols


def test_bad_classical_forced_branches():
    heads_one = find_seed(
        lambda s: run_bad_classical(s)[1].g_hat == 1
    )
    transcript, outcome = run_bad_classical(heads_one)
    assert outcome.assert_bit == 0 and outcome.g_hat == outcome.bob_bit == 1
    assert transcript.messages[0].payload == {"g": 1}

    tails = find_seed(lambda s: run_bad_classical(s)[1].g_hat is None)
    transcript, outcome = run_bad_classical(tails)
    assert outcome.assert_bit == 1 and outcome.g_hat is None
    assert transcript.messages[0].payload == {"g": None}


def test_bad_classical_null_rate():
    nulls = sum(run_bad_classical(seed)[1].g_hat is None for seed in range(4000))
    assert abs(nulls / 4000 - 0.5) < 3 * 0.5 / math.sqrt(4000)


def test_bad_qubit_measured_branch_decodes_bob_bit():
    seen = set()
    for seed in range(300):
        transcript, outcome = run_bad_qubit(seed)
        amplitudes = transcript.messages[0].payload["amplitudes"]
        y = 0 if amplitudes[0][0] == 1.0 else 1
        assert outcome.bob_bit == y
        if outcome.assert_bit == 0:
            assert outcome.g_hat == y  # computational-basis readout is exact
        seen.add((outcome.assert_bit, y))
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


# ---------------------------------------------------------------------------
# qutrit protocol


def test_qutrit_born_rule_is_deterministic_everywhere():
    for a in (0, 1):
        for x0 in (0, 1):
            for x1 in (0, 1):
                p0, p1 = qutrit_born_probabilities(a, x0, x1)
                selected = x0 if a == 0 else x1
                assert abs(p0 - (1.0 if selected == 0 else 0.0)) < 1e-12
                assert abs(p0 + p1 - 1.0) < 1e-12


def test_qutrit_decode_inverts_encoding():
    for a in (0, 1):
        for outcome in (0, 1):
            assert qutrit_decode(a, outcome) == outcome


def test_qutrit_all_sixteen_classical_contexts():
    # Analytic walk through every (a, x0, x1, p) assignment: the certain
    # outcome decodes to the bit at Alice's position, and agreement of a
    # and p hands her exactly Bob's data bit.
    for a in (0, 1):
        for x0 in (0, 1):
            for x1 in (0, 1):
                probs = qutrit_born_probabilities(a, x0, x1)
                outcome = 0 if probs[0] > 0.5 else 1
                decoded = qutrit_decode(a, outcome)
                assert decoded == (x0 if a == 0 else x1)
                for p in (0, 1):
                    y = x0 if p == 0 else x1
                    g_hat = decoded if a == p else None
                    if a == p:
                        assert g_hat == y


def test_qutrit_hand_traced_context():
    # Context a=0, (x0, x1) = (1, 0), p=0: the phase flip moves the probe
    # into the orthogonal outcome, so Alice decodes x0 = 1 and outputs it.
    p0, p1 = qutrit_born_probabilities(0, 1, 0)
    assert (p0, p1) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert qutrit_decode(0, 1) == 1

    def is_traced_context(seed):
        transcript, outcome = run_qutrit(seed)
        return (
            transcript.messages[2].payload == {"p": 0}
            and outcome.assert_bit == 0
            and outcome.g_hat == 1
        )

    seed = find_seed(is_traced_context)
    _, outcome = run_qutrit(seed)
    assert outcome.g_hat == outcome.bob_bit == 1


def test_qutrit_null_branch_on_permutation_mismatch():
    seed = find_seed(lambda s: run_qutrit(s)[1].assert_bit == 1)
    _, outcome = run_qutrit(seed)
    assert outcome.g_hat is None


def test_qutrit_completeness_sample():
    asserts = 0
    for seed in range(3000):
        _, outcome = run_qutrit(seed)
        assert not outcome.aborted
        if outcome.assert_bit == 0:
            asserts += 1
            assert outcome.g_hat == outcome.bob_bit
    assert abs(asserts / 3000 - 0.5) < 3 * 0.5 / math.sqrt(3000)


# ---------------------------------------------------------------------------
# sequence protocol


def test_sequence_states_agree_with_bit_table():
    assert np.allclose(SEQUENCE_STATES[(0, 0)].amplitudes, [1, 0, 0, 0])
    assert np.allclose(SEQUENCE_STATES[(1, 1)].amplitudes, [0, 0, 0, 1])
    assert np.allclose(SEQUENCE_STATES[(0, 1)].amplitudes, [0.5, 0.5, 0.5, 0.5])
    assert np.allclose(SEQUENCE_STATES[(1, 0)].amplitudes, [0.5, -0.5, -0.5, 0.5])


def test_sequence_decode_table_exhaustive():
    # For every state, every nonzero-probability (Z, X) outcome pair must
    # decode to a true bit of that state.
    z_states = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
    x_states = {
        0: np.array([1.0, 1.0]) / math.sqrt(2),
        1: np.array([1.0, -1.0]) / math.sqrt(2),
    }
    for bits, state in SEQUENCE_STATES.items():
        for m1 in (0, 1):
            for m2 in (0, 1):
                outcome_vec = np.kron(z_states[m1], x_states[m2])
                prob = abs(np.vdot(outcome_vec, state.amplitudes)) ** 2
                if prob < 1e-12:
                    continue
                index, value = sequence_decode(m1, m2)
                assert bits[index] == value


def test_sequence_test_step_consistency_table():
    assert sequence_test_basis(0, 0) == "Z" and sequence_expected_outcome(0, 0) == 0
    assert sequence_test_basis(1, 1) == "Z" and sequence_expected_outcome(1, 1) == 1
    assert sequence_test_basis(0, 1) == "X" and sequence_expected_outcome(0, 1) == 0
    assert sequence_test_basis(1, 0) == "X" and sequence_expected_outcome(1, 0) == 1


def test_sequence_spot_check_passes_honest_states():
    cfg = SequenceConfig(16)
    for seed in range(40):
        alice, _, pairs, tested = sequence_setup(cfg, seed)
        assert sequence_spot_check(alice, tested, pairs, pairs) is None


def test_sequence_spot_check_catches_a_tested_orthogonal_partner():
    # Flipping both bits gives the orthogonal state of the same basis, which
    # shows the announced outcome with probability 0.
    cfg = SequenceConfig(16)
    for seed in range(40):
        for position in range(cfg.test_size):
            alice, _, pairs, tested = sequence_setup(cfg, seed)
            slot = tested[position]
            sent = list(pairs)
            sent[slot] = (1 - pairs[slot][0], 1 - pairs[slot][1])
            assert sequence_spot_check(alice, tested, sent, pairs) == slot


def test_sequence_spot_check_block_stops_where_the_scalar_check_does():
    # Random announcements fail at varied test-set positions, often more
    # than once per run; the block form reports the first failing slot.
    cfg = SequenceConfig(16)
    seeds = trial_seeds(17, 0, 300)
    announced = np.random.default_rng(5).integers(0, 4, size=(cfg.n_states, seeds.size))
    announced[:, ::3] = -1  # every third run announces honestly
    setup = sequence_setup_block(cfg, seeds, alice_words=2 * cfg.test_size)
    announced = np.where(announced < 0, setup.pairs, announced)
    failed = sequence_spot_check_block(setup.alice, setup.tested, setup.pairs, announced)
    positions = set()
    for lane, seed in enumerate(seeds.tolist()):
        alice, _, pairs, tested = sequence_setup(cfg, seed)
        claims = [divmod(int(index), 2) for index in announced[:, lane]]
        slot = sequence_spot_check(alice, tested, pairs, claims)
        assert failed[lane] == (-1 if slot is None else slot), lane
        if slot is not None:
            positions.add(tested.index(slot))
    assert len(positions) >= 3 and -1 in failed


def test_sequence_honest_runs_never_abort():
    cfg = SequenceConfig(100)
    for seed in range(50):
        _, outcomes = run_sequence(cfg, seed)
        assert len(outcomes) == 90
        assert not any(o.aborted for o in outcomes)
        for outcome in outcomes:
            if outcome.assert_bit == 0:
                assert outcome.g_hat == outcome.bob_bit


def test_sequence_null_rate_sample():
    cfg = SequenceConfig(64)
    nulls = total = 0
    for seed in range(80):
        _, outcomes = run_sequence(cfg, seed)
        for outcome in outcomes:
            total += 1
            nulls += outcome.assert_bit
    assert abs(nulls / total - 0.5) < 3 * 0.5 / math.sqrt(total)


# ---------------------------------------------------------------------------
# coin-flip reduction


def test_coinflip_consistent_assert_gives_heads_iff_match():
    heads = find_seed(
        lambda s: run_coinflip_reduction("qutrit", s)[1].result is CoinResult.HEADS
    )
    _, outcome = run_coinflip_reduction("qutrit", heads)
    assert outcome.a == outcome.b

    tails = find_seed(
        lambda s: run_coinflip_reduction("qutrit", s)[1].result is CoinResult.TAILS
    )
    _, outcome = run_coinflip_reduction("qutrit", tails)
    assert outcome.a != outcome.b


def test_coinflip_runs_over_every_transfer_protocol():
    for rot in ("bad_classical", "bad_qubit", "qutrit", "sequence"):
        _, outcome = run_coinflip_reduction(rot, 11)
        assert outcome.result in (CoinResult.HEADS, CoinResult.TAILS)


def test_coinflip_honest_completeness_sample():
    heads = 0
    for seed in range(2000):
        _, outcome = run_coinflip_reduction("qutrit", seed)
        assert outcome.result is not CoinResult.ABORT
        heads += outcome.result is CoinResult.HEADS
    assert abs(heads / 2000 - 0.5) < 3 * 0.5 / math.sqrt(2000)


def test_coinflip_unknown_protocol():
    with pytest.raises(ValidationError):
        run_coinflip_reduction("nonsense", 1)


# ---------------------------------------------------------------------------
# transcripts


def test_transcripts_replay_deterministically():
    for run, args in (
        (run_bad_classical, (13,)),
        (run_bad_qubit, (13,)),
        (run_qutrit, (13,)),
        (run_sequence, (SequenceConfig(9), 13)),
    ):
        first = run(*args)[0]
        second = run(*args)[0]
        assert first == second
        assert first.to_jsonl() == second.to_jsonl()


def test_transcript_message_order_and_labels():
    transcript, _ = run_qutrit(7)
    labels = [(m.sender, m.label) for m in transcript.messages]
    assert labels == [("A", "qutrit_to_bob"), ("B", "qutrit_to_alice"), ("B", "permutation")]
    assert [m.index for m in transcript.messages] == [0, 1, 2]


def test_transcript_export_golden_qutrit():
    transcript, _ = run_qutrit(7)
    golden = (DATA / "golden_qutrit_seed7.jsonl").read_text()
    assert transcript.to_jsonl() == golden


def test_transcript_export_golden_sequence():
    transcript, _ = run_sequence(SequenceConfig(4), 3)
    golden = (DATA / "golden_sequence_n4_seed3.jsonl").read_text()
    assert transcript.to_jsonl() == golden
