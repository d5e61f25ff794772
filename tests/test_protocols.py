import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from rotlab import adversary, linalg, protocols, rng
from rotlab.adversary import CheatStrategy, execute_cheat
from rotlab.linalg import ValidationError
from rotlab.protocols import (
    MAX_SEQUENCE_STATES,
    SEQUENCE_STATES,
    CoinResult,
    RotOutcome,
    SequenceConfig,
    run_bad_classical,
    run_bad_qubit,
    run_coinflip_reduction,
    run_qutrit,
    run_sequence,
    sequence_setup_block,
    sequence_spot_check_block,
)
from rotlab.rng import BlockStream, trial_seeds

from conftest import assert_thresholds_pin, strategy_tables
from oracle import qutrit_born_probabilities, sequence_decode, sequence_expected_outcome, sequence_test_basis

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


def test_pair_index_table_is_ot_pair_draw():
    # The one permutation table both modules gather through, read-only,
    # against the oracle's own pair.
    for y, z_dummy, p in np.ndindex(2, 2, 2):
        x0, x1 = oracle.ot_pair(y, z_dummy, p)
        assert protocols.OT_PAIR_INDEX[y, z_dummy, p] == 2 * x0 + x1
    assert protocols.OT_PAIR_INDEX.shape == (2, 2, 2)
    assert not protocols.OT_PAIR_INDEX.flags.writeable


def test_encoding_signs_are_the_unitary_diagonals():
    # One read-only sign array, the very object the cheating analysis
    # reads: multiplying the amplitudes of Bob's qutrit by it, one pair
    # index or all four at once, gives each probe exactly (==) as the
    # oracle's 9 x 9 unitary of its own signs does.
    signs = protocols.QUTRIT_ENCODING_SIGNS
    for a in (0, 1):
        probe = protocols.QUTRIT_PROBES[a]
        encoded = protocols._encode_qutrit(np.arange(4), probe)
        for x0 in (0, 1):
            for x1 in (0, 1):
                assert np.array_equal(signs[2 * x0 + x1], oracle.encoding_signs(x0, x1))
                want = oracle.encoding_unitary(x0, x1) @ probe
                assert np.array_equal(protocols._encode_qutrit(2 * x0 + x1, probe), want), (a, x0, x1)
                assert np.array_equal(encoded[2 * x0 + x1], want), (a, x0, x1)
    assert adversary.QUTRIT_ENCODING_SIGNS is signs
    assert not signs.flags.writeable


def test_sequence_config_validation():
    cfg = SequenceConfig(100)
    assert cfg.test_size == 10
    assert SequenceConfig(4).test_size == 2
    with pytest.raises(ValidationError):
        SequenceConfig(3)
    with pytest.raises(TypeError):
        SequenceConfig(100, test_size=9)  # derived from n_states, not settable
    # Rejected at construction, before any run is built.
    assert SequenceConfig(MAX_SEQUENCE_STATES).test_size == 256
    for bad in (MAX_SEQUENCE_STATES + 1, 10**8):
        with pytest.raises(ValidationError, match=f"at most {MAX_SEQUENCE_STATES} states"):
            SequenceConfig(bad)
    for bad in (4.5, 16.0, True, "16", None):
        with pytest.raises(ValidationError, match="n_states must be an integer"):
            SequenceConfig(bad)


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


def test_qutrit_outcome_is_the_selected_bit():
    # Alice outputs her outcome as the received bit, so the library's own
    # table must make that outcome the bit at her position in every one of
    # the 16 contexts: within 1e-12 of certain, as the weight of the
    # certain outcome is 0.9999999999999996 in floating point, not 1.0.
    weights = protocols._QUTRIT_WEIGHTS
    for a, y, z_dummy, p in np.ndindex(2, 2, 2, 2):
        selected = oracle.ot_pair(y, z_dummy, p)[a]
        row = weights[a, y, z_dummy, p]
        assert abs(row[selected] - 1.0) < 1e-12, (a, y, z_dummy, p)
        assert abs(row[1 - selected]) < 1e-12, (a, y, z_dummy, p)


def test_qutrit_all_sixteen_classical_contexts():
    # Analytic walk through every (a, x0, x1, p) assignment: the certain
    # outcome is the bit at Alice's position, and agreement of a and p
    # hands her exactly Bob's data bit.
    for a in (0, 1):
        for x0 in (0, 1):
            for x1 in (0, 1):
                probs = qutrit_born_probabilities(a, x0, x1)
                outcome = 0 if probs[0] > 0.5 else 1
                assert outcome == (x0 if a == 0 else x1)
                for p in (0, 1):
                    y = x0 if p == 0 else x1
                    g_hat = outcome if a == p else None
                    if a == p:
                        assert g_hat == y


def test_qutrit_hand_traced_context():
    # Context a=0, (x0, x1) = (1, 0), p=0: the phase flip moves the probe
    # into the orthogonal outcome 1, which is x0 = 1, and Alice outputs it.
    p0, p1 = qutrit_born_probabilities(0, 1, 0)
    assert (p0, p1) == pytest.approx((0.0, 1.0), abs=1e-12)

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
    # One read-only row per bit pair, in row 2 * x0 + x1.
    assert SEQUENCE_STATES.shape == (4, 4) and not SEQUENCE_STATES.flags.writeable
    assert np.allclose(SEQUENCE_STATES[0], [1, 0, 0, 0])
    assert np.allclose(SEQUENCE_STATES[3], [0, 0, 0, 1])
    assert np.allclose(SEQUENCE_STATES[1], [0.5, 0.5, 0.5, 0.5])
    assert np.allclose(SEQUENCE_STATES[2], [0.5, -0.5, -0.5, 0.5])


def test_sequence_decode_table_exhaustive():
    # For every state, every nonzero-probability (Z, X) outcome pair must
    # decode to a true bit of that state.
    z_states = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
    x_states = {
        0: np.array([1.0, 1.0]) / math.sqrt(2),
        1: np.array([1.0, -1.0]) / math.sqrt(2),
    }
    for pair, state in enumerate(SEQUENCE_STATES):
        bits = divmod(pair, 2)
        for m1 in (0, 1):
            for m2 in (0, 1):
                outcome_vec = np.kron(z_states[m1], x_states[m2])
                prob = abs(np.vdot(outcome_vec, state)) ** 2
                if prob < 1e-12:
                    continue
                index, value = sequence_decode(m1, m2)
                assert bits[index] == value


def test_sequence_decode_names_a_bit_each_pair_holds():
    # Every outcome pair of Alice's untested-slot reading, qubit 1 in Z and
    # qubit 2 in X, that the library's own Born weights give a nonzero
    # chance decodes to a bit the sent pair really holds: two per pair.
    first, second, _ = protocols._SEQUENCE_TABLES
    seen = 0
    for pair, m1, m2 in np.ndindex(4, 2, 2):
        if first[pair, 0, m1] * second[pair, 0, m1, 1, m2] > linalg.DERIVED_TOL:
            learned_index, learned_value = protocols.SEQUENCE_DECODE[m1, m2]
            assert protocols.pair_bit(pair, learned_index) == learned_value, (pair, m1, m2)
            seen += 1
    assert seen == 8


def test_sequence_test_step_consistency_table():
    assert sequence_test_basis(0, 0) == "Z" and sequence_expected_outcome(0, 0) == 0
    assert sequence_test_basis(1, 1) == "Z" and sequence_expected_outcome(1, 1) == 1
    assert sequence_test_basis(0, 1) == "X" and sequence_expected_outcome(0, 1) == 0
    assert sequence_test_basis(1, 0) == "X" and sequence_expected_outcome(1, 0) == 1


MASK64 = (1 << 64) - 1


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, MASK64),
    n_states=st.one_of(st.integers(4, 120), st.integers(4, MAX_SEQUENCE_STATES)),
)
def test_block_test_sets_are_numpy_choice(seed, n_states):
    # Each seed's test set, sorted and as a mask, is numpy's choice on
    # Alice's stream, Lemire redraws included.
    cfg = SequenceConfig(n_states)
    seeds = np.array([seed, (seed + 1) & MASK64], dtype=np.uint64)
    block = sequence_setup_block(cfg, seeds)
    for lane, lane_seed in enumerate(seeds.tolist()):
        key = np.array([lane_seed, rng.ALICE], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        expected = sorted(gen.choice(n_states, cfg.test_size, replace=False).tolist())
        assert block.tested[:, lane].tolist() == expected, (lane_seed, n_states)
        assert np.flatnonzero(block.is_tested[:, lane]).tolist() == expected, (lane_seed, n_states)


def _lemire_value(value: int, high: int) -> int:
    # A 32-bit value that Lemire's method maps to ``value`` in [0, high],
    # with the product's low half near 2**31, far from a rejection.
    return ((2 * value + 1) << 31) // (high + 1)


def _floyd(draws: list[int], n: int) -> list[int]:
    # Floyd's algorithm, one step after another: each draw in [0, j] is
    # picked, or gives way to j when it is already picked.
    picked = []
    for j, draw in zip(range(n - len(draws), n), draws):
        picked.append(j if draw in picked else draw)
    return sorted(picked)


def test_floyd_steps_follow_chains_of_collisions(monkeypatch):
    # n = 25 draws for j = 20 .. 24.  Lane 0 chains three links: draw 1
    # repeats draw 0 and gives way to 21, draw 2 is 21 and gives way to
    # 22, draw 3 is 22 and gives way to 23, draw 4 is 23 and gives way to
    # 24.  In lane 1 draw 1 picks its own j, 21, and draw 3 is 22, the j
    # of draw 2, which repeated draw 0.  In lane 2 draw 2 repeats 20, which
    # draw 0 picked as its own j, and draw 3 is 21, the j of draw 1, which
    # did not give way; lane 3 takes no collision at all.
    cfg = SequenceConfig(25)
    n, k = cfg.n_states, cfg.test_size
    floyd_draws = [[7, 7, 21, 22, 23], [3, 21, 3, 22, 4], [20, 5, 20, 21, 9], [0, 1, 2, 3, 4]]
    highs = protocols._choice_highs(n, k)
    values = [[_lemire_value(d, high) for d, high in zip(lane + [0] * (k - 1), highs)] for lane in floyd_draws]
    values = [lane + [0] for lane in values]  # 2k - 1 values fill k words
    words = np.array([[lane[2 * i] | lane[2 * i + 1] << 32 for lane in values] for i in range(k)], dtype=np.uint64)
    words = np.concatenate((words, np.zeros((-k % 4, len(floyd_draws)), dtype=np.uint64)))
    streams = protocols.block_streams

    def synthetic(seeds, specs):
        alice, bob = streams(seeds, specs)
        return BlockStream(seeds, rng.ALICE, words), bob

    monkeypatch.setattr(protocols, "block_streams", synthetic)
    setup = sequence_setup_block(cfg, np.arange(len(floyd_draws), dtype=np.uint64))
    for lane, draws in enumerate(floyd_draws):
        assert all(draw <= j for draw, j in zip(draws, range(n - k, n)))
        assert setup.tested[:, lane].tolist() == _floyd(draws, n), lane
    assert _floyd(floyd_draws[0], n) == [7, 21, 22, 23, 24]


def _tested_rows(table, tested):
    # Each seed's entries of a (n_states, seeds) table at its tested slots,
    # shaped like ``tested``.
    return np.take_along_axis(table, tested, axis=0)


def test_slot_pairs_reads_each_seeds_column():
    cfg = SequenceConfig(16)
    setup = sequence_setup_block(cfg, np.arange(40, dtype=np.uint64))
    assert np.array_equal(protocols.slot_pairs(setup.pairs, setup.tested), _tested_rows(setup.pairs, setup.tested))
    first_untested = setup.is_tested.argmin(axis=0)
    expected = [setup.pairs[slot, lane] for lane, slot in enumerate(first_untested.tolist())]
    assert protocols.slot_pairs(setup.pairs, first_untested).tolist() == expected


def test_sequence_spot_check_passes_honest_states():
    cfg = SequenceConfig(16)
    setup = sequence_setup_block(cfg, np.arange(40, dtype=np.uint64), alice_words=2 * cfg.test_size)
    rand = setup.alice.randoms(2 * cfg.test_size)
    tested_pairs = _tested_rows(setup.pairs, setup.tested)
    assert (sequence_spot_check_block(rand, setup.tested, tested_pairs, tested_pairs) == -1).all()


def test_sequence_spot_check_catches_a_tested_orthogonal_partner():
    # Flipping both bits gives the orthogonal state of the same basis, which
    # shows the announced outcome with probability 0.
    cfg = SequenceConfig(16)
    seeds = np.arange(40, dtype=np.uint64)
    for position in range(cfg.test_size):
        setup = sequence_setup_block(cfg, seeds, alice_words=2 * cfg.test_size)
        slot = setup.tested[position]
        announced = _tested_rows(setup.pairs, setup.tested)
        sent = announced.copy()
        sent[position] ^= 3
        failed = sequence_spot_check_block(setup.alice.randoms(2 * cfg.test_size), setup.tested, sent, announced)
        assert failed.tolist() == slot.tolist()


def test_sequence_spot_check_block_stops_where_the_scalar_check_does():
    # Random announcements fail at varied test-set positions, often more
    # than once per run; the block form reports the first failing slot.
    cfg = SequenceConfig(16)
    seeds = trial_seeds(17, 0, 300)
    announced = np.random.default_rng(5).integers(0, 4, size=(cfg.n_states, seeds.size))
    announced[:, ::3] = -1  # every third run announces honestly
    setup = sequence_setup_block(cfg, seeds, alice_words=2 * cfg.test_size)
    announced = np.where(announced < 0, setup.pairs, announced)
    sent, claimed = (_tested_rows(table, setup.tested) for table in (setup.pairs, announced))
    failed = sequence_spot_check_block(setup.alice.randoms(2 * cfg.test_size), setup.tested, sent, claimed)
    positions = set()
    for lane, seed in enumerate(seeds.tolist()):
        alice, _, pairs, tested = oracle.sequence_setup(cfg, seed)
        claims = [divmod(int(index), 2) for index in announced[:, lane]]
        slot = oracle.sequence_spot_check(alice, tested, pairs, claims)
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
    for rot in ("nonsense", ["qutrit"]):
        with pytest.raises(ValidationError):
            run_coinflip_reduction(rot, 1)


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


# ---------------------------------------------------------------------------
# runs against the one-run-at-a-time oracle

MASK64 = (1 << 64) - 1
RUN_SEEDS = [0, 3, 7, MASK64] + trial_seeds(2027, 0, 120).tolist()


def test_runs_match_oracle_runs_trial_by_trial():
    # Each run is its block form on one seed; its transcript and outcome
    # must be the oracle's, message by message, and its transcript's JSON
    # lines byte for byte: == holds between 0.0 and -0.0, the bytes do not.
    runs = {"bad_classical": run_bad_classical, "bad_qubit": run_bad_qubit, "qutrit": run_qutrit}
    for protocol, run in runs.items():
        for seed in RUN_SEEDS:
            got, want = run(seed), oracle.ROT_RUNS[protocol](seed)
            assert got == want, (protocol, seed)
            assert got[0].to_jsonl() == want[0].to_jsonl(), (protocol, seed)
    for n_states in (4, 9, 16, 100):
        cfg = SequenceConfig(n_states)
        for seed in RUN_SEEDS[:40]:
            got, want = run_sequence(cfg, seed), oracle.run_sequence(cfg, seed)
            assert got == want, (n_states, seed)
            assert got[0].to_jsonl() == want[0].to_jsonl(), (n_states, seed)
    for rot in ("bad_classical", "bad_qubit", "qutrit", "sequence"):
        for seed in RUN_SEEDS[:40]:
            got, want = run_coinflip_reduction(rot, seed), oracle.run_coinflip(rot, seed)
            assert got == want, (rot, seed)
            assert got[0].to_jsonl() == want[0].to_jsonl(), (rot, seed)


def test_born_tables_equal_one_state_references():
    # The stacked tables the honest flows sample from hold exactly (==) the
    # floats the one-state formula gives.
    assert np.array_equal(protocols._BAD_QUBIT_WEIGHTS, oracle.bad_qubit_weights())
    assert np.array_equal(protocols._QUTRIT_WEIGHTS, oracle.qutrit_weights())
    for got, want in zip(protocols._SEQUENCE_TABLES, oracle.sequence_tables(), strict=True):
        assert np.array_equal(got, want)


def test_threshold_tables_pin_their_born_tables():
    # The thresholds the honest flows sample from, against the one-state
    # Born tables: each is the weight of outcome 0, 0 or +inf where one
    # weight is a rounding residue, and every row samples the scalar rule's
    # outcome.
    assert_thresholds_pin(oracle.bad_qubit_weights(), protocols._BAD_QUBIT_THRESHOLDS)
    assert_thresholds_pin(oracle.qutrit_weights(), protocols._QUTRIT_THRESHOLDS)
    first, second, _ = oracle.sequence_tables()
    for weights, thresholds in zip((first, second), protocols._SEQUENCE_THRESHOLDS, strict=True):
        assert_thresholds_pin(weights, thresholds)


def test_certain_outcomes_are_drawn_at_every_uniform():
    # In every row of every table the library samples from, an outcome of
    # weight within DERIVED_TOL of 1 is drawn at the lowest and the highest
    # uniform: the honest tables through the thresholds the flows compare
    # against, the cheating ones through those their factories build.
    first, second, _ = protocols._SEQUENCE_TABLES
    tables = [
        (protocols._BAD_QUBIT_WEIGHTS, protocols._BAD_QUBIT_THRESHOLDS),
        (protocols._QUTRIT_WEIGHTS, protocols._QUTRIT_THRESHOLDS),
        (first, protocols._SEQUENCE_THRESHOLDS[0]),
        (second, protocols._SEQUENCE_THRESHOLDS[1]),
    ]
    tables += [strategy_tables(("alice", "sequence")), strategy_tables(("bob", "qutrit"))]
    for params in ({}, {"triple": [1.0, 0.0, 0.0]}, {"triple": [0.0, 0.0, 1.0]}):
        tables.append(strategy_tables(("alice", "qutrit"), params))
    certain = 0
    for weights, thresholds in tables:
        for row, threshold in zip(weights.reshape(-1, 2), thresholds.reshape(-1)):
            for outcome in np.flatnonzero(np.abs(row - 1.0) <= linalg.DERIVED_TOL):
                certain += 1
                for rand in (0.0, 1.0 - 2.0**-53):
                    assert int(rand >= threshold) == outcome, (row, rand)
    assert certain >= 16  # one per honest qutrit context at least
    # Honest qutrit Alice's outcome is x_a in all 16 contexts, at any uniform.
    for a, y, z_dummy, p in np.ndindex(2, 2, 2, 2):
        for rand in (0.0, 0.5, 1.0 - 2.0**-53):
            assert int(rand >= protocols._QUTRIT_THRESHOLDS[a, y, z_dummy, p]) == oracle.ot_pair(y, z_dummy, p)[a]


def test_qubit_measurements_sample_the_scalar_rule():
    # Both readings of the sequence flow, at uniforms on a grid, on each
    # threshold, at 0.0 and at 1 - 2**-53: the spot check, for every sent
    # and announced pair, and the untested-slot decode, for every sent pair
    # and declared index, each from its flat tables, against the scalar
    # rule on the one-state Born tables.
    first, second, _ = oracle.sequence_tables()
    edges = np.concatenate([t[np.isfinite(t)] for t in protocols._SEQUENCE_THRESHOLDS])
    uniforms = np.unique(np.concatenate((np.linspace(0.0, 1.0, 17), edges, [0.0, 1.0 - 2.0**-53])))
    uniforms = uniforms[uniforms < 1.0]

    def measure(pair, basis1, basis2, rand1, rand2):
        m1 = oracle.invert_cumulative(first[pair, basis1].tolist(), rand1)
        return m1, oracle.invert_cumulative(second[pair, basis1, m1, basis2].tolist(), rand2)

    def column(*arrays):
        # The cases as one seed's rows: a (cases, 1) array per input, and
        # the uniforms two per case, in order.
        *values, rand1, rand2 = (grid.ravel() for grid in np.meshgrid(*arrays, indexing="ij"))
        rand = np.stack((rand1, rand2), axis=1).reshape(-1, 1)
        return [value[:, None] for value in values] + [rand], list(zip(*values, rand1, rand2))

    (sent, announced, rand), cases = column(np.arange(4), np.arange(4), uniforms, uniforms)
    fails = protocols._tested_fails(sent, announced, rand)[:, 0]
    for case, got in zip(cases, fails.tolist()):
        pair, claim, r1, r2 = case
        x0, x1 = divmod(int(claim), 2)
        basis = "ZX".index(oracle.sequence_test_basis(x0, x1))
        expected = oracle.sequence_expected_outcome(x0, x1)
        assert got == (measure(pair, basis, basis, r1, r2) != (expected, expected)), case

    (sent, declared, rand), cases = column(np.arange(4), [0, 1], uniforms, uniforms)
    out = protocols._untested_outcomes(sent, declared, rand)
    for index, case in enumerate(cases):
        pair, bit, r1, r2 = case
        learned_index, learned_value = oracle.sequence_decode(*measure(pair, 0, 1, r1, r2))
        want = (learned_value, int(learned_index != bit), divmod(int(pair), 2)[bit])
        assert (out.g_hat[index, 0], out.assert_bit[index, 0], out.bob_bit[index, 0]) == want, case


def test_aborted_sequence_run_renders_as_the_oracle_does(monkeypatch):
    # Honest runs pass their spot check; making both flows fail it at the
    # second tested slot reaches the abort branch of the transcript.
    monkeypatch.setattr(protocols, "sequence_spot_check_block", lambda rand, tested, sent, announced: tested[1])
    monkeypatch.setattr(oracle, "sequence_spot_check", lambda alice, tested, sent, announced: tested[1])
    cfg = SequenceConfig(9)
    for seed in RUN_SEEDS[:20]:
        transcript, outcomes = run_sequence(cfg, seed)
        assert (transcript, outcomes) == oracle.run_sequence(cfg, seed), seed
        assert transcript.messages[-1].label == "abort" and outcomes == [RotOutcome.abort_sentinel()]


def _entry_points() -> list:
    # Every run of one seed: each protocol, the coin flip on the qutrit and
    # sequence transfers, and each cheating strategy.
    strategies = [CheatStrategy(party, protocol) for party, protocol in oracle.RUNNERS]
    entry_points = [run_bad_classical, run_bad_qubit, run_qutrit]
    entry_points += [lambda seed: run_sequence(SequenceConfig(9), seed)]
    entry_points += [lambda seed, rot=rot: run_coinflip_reduction(rot, seed) for rot in ("qutrit", "sequence")]
    entry_points += [lambda seed, s=s: execute_cheat(s, seed) for s in strategies]
    return entry_points


@pytest.mark.parametrize("offset", [0, 1, 2, 1000003])
def test_entry_points_reduce_seeds_mod_2_64(offset):
    # Any Python int is a seed; -1 - k is 2**64 - 1 - k and 2**64 + k is k.
    for run in _entry_points():
        assert run(-1 - offset) == run(MASK64 - offset)
        assert run((1 << 64) + offset) == run(offset)
        assert run(offset) == run(offset - (5 << 64))


@pytest.mark.parametrize("seed", [True, 1.5, "3"], ids=["bool", "float", "str"])
def test_entry_points_reject_seeds_that_are_not_integers(seed):
    # A bool is not taken for seed 1, nor a float or a string passed on to
    # fail inside numpy: each run validates its seed as estimate_* do.
    for run in _entry_points():
        with pytest.raises(ValidationError, match="seed must be an integer"):
            run(seed)
