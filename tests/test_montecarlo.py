import math
from collections import Counter

import numpy as np
import pytest

import oracle
from rotlab import adversary, linalg, montecarlo, protocols, rng
from rotlab.adversary import CheatStrategy, UnsupportedStrategyError, cheat_block, execute_cheat
from rotlab.linalg import ValidationError
from rotlab.montecarlo import (
    DETECTION_VARIANTS,
    TrialReport,
    estimate_cheat,
    estimate_completeness,
    sequence_detection_experiment,
)
from rotlab.protocols import ROT_EXECUTORS, SequenceConfig, play_sequence_block, sequence_setup_block
from rotlab.rng import splitmix64, trial_seeds

from conftest import random_triple
from oracle import trial_seed


def test_trial_report_fields():
    report = TrialReport.from_counts(400, 100, target=0.25)
    assert report.estimate == 0.25
    assert abs(report.sigma - math.sqrt(0.25 * 0.75 / 400)) < 1e-15
    assert report.z_score == 0.0

    no_target = TrialReport.from_counts(400, 100)
    assert no_target.target is None and no_target.z_score is None

    degenerate = TrialReport.from_counts(10, 10, target=1.0)
    assert degenerate.sigma == 0.0 and degenerate.z_score == 0.0


def test_trial_seed_depends_only_on_master_and_index():
    assert trial_seed(42, 7) == trial_seed(42, 7)
    assert trial_seed(42, 7) != trial_seed(42, 8)
    assert trial_seed(43, 7) != trial_seed(42, 7)
    assert splitmix64(0) != splitmix64(1)
    # Master seeds that differ in low bits must not replay each other's trials.
    assert not {trial_seed(0, i) for i in range(1024)} & {trial_seed(1, i) for i in range(1024)}
    strategy = CheatStrategy("alice", "qutrit")
    counts = [estimate_cheat(strategy, 2000, seed=seed).successes for seed in range(4)]
    assert len(set(counts)) == 4, counts


# Success counts at master seed 2027, recorded before the pure-state sampler
# replaced the density-matrix path.  They pin every draw and every sampled
# outcome, so any change to the draw order or to the sampling rule shows here.
REPLAY_SEED = 2027
CHEAT_COUNTS = [
    ("alice", "qutrit", None, 441),
    ("bob", "qutrit", None, 373),
    ("alice", "sequence", None, 422),
    ("alice", "coinflip", None, 478),
    ("bob", "coinflip", None, 373),
    ("alice", "qutrit", {"triple": [1, 0, 0]}, 261),
]
COMPLETENESS_COUNTS = {"bad_classical": 511, "bad_qubit": 500, "qutrit": 505, "sequence": 471}
DETECTION_COUNTS = {"honest": 0, "send-orthogonal": 56, "announce-wrong-state": 163}


def test_seeded_counts_replay_exactly():
    cheat = [
        estimate_cheat(CheatStrategy(party, protocol, params), 500, REPLAY_SEED).successes
        for party, protocol, params, _ in CHEAT_COUNTS
    ]
    assert cheat == [count for *_, count in CHEAT_COUNTS]
    for protocol, count in COMPLETENESS_COUNTS.items():
        n_states = 16 if protocol == "sequence" else None
        report, conditional = estimate_completeness(protocol, 1000, REPLAY_SEED, n_states=n_states)
        assert (report.successes, conditional) == (count, True), protocol
    for variant, count in DETECTION_COUNTS.items():
        assert sequence_detection_experiment(16, variant, 200, REPLAY_SEED).successes == count, variant


def test_estimate_cheat_block_splitting_is_exact():
    strategy = CheatStrategy("alice", "qutrit")
    full = estimate_cheat(strategy, 1500, seed=5)
    head = estimate_cheat(strategy, 600, seed=5)
    tail = estimate_cheat(strategy, 900, seed=5, trial_offset=600)
    assert head.successes + tail.successes == full.successes


def test_estimate_cheat_deterministic():
    strategy = CheatStrategy("bob", "qutrit")
    assert estimate_cheat(strategy, 500, seed=3) == estimate_cheat(strategy, 500, seed=3)


def test_estimate_completeness_contracts():
    with pytest.raises(ValidationError):
        estimate_completeness("qutrit", 999, seed=1)
    for protocol in ("unknown", ["qutrit"]):
        with pytest.raises(ValidationError):
            estimate_completeness(protocol, 2000, seed=1)


def test_estimate_completeness_takes_a_batch_size_only_for_sequences():
    # A single transfer has no batch, so an n_states given is refused rather
    # than ignored, whatever its value; None keeps the sequence default.
    for protocol in ("bad_classical", "bad_qubit", "qutrit"):
        for n_states in (2, 16, 100):
            with pytest.raises(ValidationError, match="n_states applies only to the sequence protocol"):
                estimate_completeness(protocol, 1000, 1, n_states=n_states)
        assert estimate_completeness(protocol, 1000, 1, n_states=None) == estimate_completeness(protocol, 1000, 1)
    default = estimate_completeness("sequence", 1000, 1)
    assert default == estimate_completeness("sequence", 1000, 1, n_states=None)
    assert default == estimate_completeness("sequence", 1000, 1, n_states=100)


def test_estimate_cheat_contracts():
    # A strategy is a CheatStrategy, and a target a success rate: a real
    # number in [0, 1] that is not a bool.
    for foreign in ("alice/qutrit", ("alice", "qutrit"), None):
        with pytest.raises(ValidationError, match="must be a CheatStrategy"):
            estimate_cheat(foreign, 10, 1)
    strategy = CheatStrategy("bob", "qutrit")
    for target in ("x", 2.0, -0.1, math.nan, math.inf, True, 1j, [0.5]):
        with pytest.raises(ValidationError, match="target must be a success rate"):
            estimate_cheat(strategy, 10, 1, target=target)
    report = estimate_cheat(strategy, 10, 1, target=np.float64(0.75))
    assert type(report.target) is float and report == estimate_cheat(strategy, 10, 1, target=0.75)
    for target in (0, 1, 0.0, 1.0):
        assert estimate_cheat(strategy, 10, 1, target=target).target == target


@pytest.mark.parametrize("protocol", ["bad_classical", "bad_qubit", "qutrit", "sequence"])
def test_estimate_completeness_small(protocol):
    n_states = 16 if protocol == "sequence" else None
    report, conditional = estimate_completeness(protocol, 2000, seed=11, n_states=n_states)
    assert conditional is True
    assert report.trials == 2000
    assert abs(report.z_score) < 3.0


def test_estimate_completeness_deterministic():
    first = estimate_completeness("sequence", 1500, seed=8, n_states=9)
    second = estimate_completeness("sequence", 1500, seed=8, n_states=9)
    assert first == second


def test_sequence_completeness_builds_no_transcript(monkeypatch):
    def refuse(*args):
        raise AssertionError("Monte-Carlo recorded a transcript message")

    monkeypatch.setattr(protocols.Transcript, "record", refuse)
    report, conditional = estimate_completeness("sequence", 1000, seed=4, n_states=9)
    assert report.trials == 1000 and conditional


@pytest.mark.parametrize("n_states, trials", [(4, 1001), (9, 1003), (16, 1001)])
def test_sequence_completeness_counts_run_sequence_outcomes(n_states, trials):
    # Each trial count stops part-way through a run's outcomes.
    cfg = SequenceConfig(n_states)
    assert trials % (cfg.n_states - cfg.test_size) != 0
    outcomes = []
    run_index = 0
    while len(outcomes) < trials:
        outcomes += oracle.run_sequence(cfg, trial_seed(6, run_index))[1]
        run_index += 1
    outcomes = outcomes[:trials]
    asserts = sum(outcome.assert_bit == 0 for outcome in outcomes)
    conditional = all(
        not outcome.aborted and (outcome.assert_bit == 1 or outcome.g_hat == outcome.bob_bit)
        for outcome in outcomes
    )
    report, flag = estimate_completeness("sequence", trials, seed=6, n_states=n_states)
    assert (report.successes, flag) == (asserts, conditional)


def test_sequence_completeness_counts_failed_runs_as_one_abort(monkeypatch):
    # Honest runs pass their spot check; making both flows fail it, at the
    # second tested slot, on every run whose first tested slot is even
    # gives blocks that mix failed and passed runs.  A failed run adds one
    # outcome, its abort sentinel, which is never correct.
    check, scalar_check = protocols.sequence_spot_check_block, oracle.sequence_spot_check

    def failing(rand, tested, sent, announced):
        return np.where(tested[0] % 2 == 0, tested[1], check(rand, tested, sent, announced))

    def scalar_failing(alice, tested, sent, announced):
        slot = scalar_check(alice, tested, sent, announced)
        return tested[1] if tested[0] % 2 == 0 else slot

    monkeypatch.setattr(protocols, "sequence_spot_check_block", failing)
    monkeypatch.setattr(oracle, "sequence_spot_check", scalar_failing)
    monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 5 * 9)
    cfg = SequenceConfig(9)
    for trials, seed in ((1003, 6), (1000, 8)):
        outcomes = []
        run_index = 0
        while len(outcomes) < trials:
            outcomes += oracle.run_sequence(cfg, trial_seed(seed, run_index))[1]
            run_index += 1
        outcomes = outcomes[:trials]
        assert any(outcome.aborted for outcome in outcomes)
        asserts = sum(outcome.assert_bit == 0 for outcome in outcomes)
        report, flag = estimate_completeness("sequence", trials, seed=seed, n_states=9)
        assert (report.successes, flag) == (asserts, False), (trials, seed)


def test_detection_experiment_honest_control():
    report = sequence_detection_experiment(16, "honest", 300, seed=2)
    assert report.successes == 0
    assert report.target == 0.0


def test_detection_experiment_orthogonal_small_batch():
    report = sequence_detection_experiment(16, "send-orthogonal", 1500, seed=2)
    assert report.target == 0.25
    assert abs(report.z_score) < 3.0


def test_detection_experiment_wrong_announcement_detects_often():
    report = sequence_detection_experiment(16, "announce-wrong-state", 600, seed=2)
    # a lie about one tested state is caught with probability 5/6
    assert report.target == 5.0 / 6.0
    assert abs(report.z_score) < 3.0


def test_detection_experiment_validation():
    with pytest.raises(ValidationError):
        sequence_detection_experiment(16, "replace-everything", 100, seed=1)
    with pytest.raises(ValidationError):
        sequence_detection_experiment(2, "honest", 100, seed=1)


def _estimators():
    # Each estimator with small defaults, by name; every argument is
    # passed by keyword.
    def cheat(trials=10, seed=1, trial_offset=0):
        return estimate_cheat(CheatStrategy("bob", "qutrit"), trials, seed, trial_offset=trial_offset)

    return {
        "completeness": lambda trials=1000, seed=1: estimate_completeness("qutrit", trials, seed),
        "sequence": lambda trials=1000, seed=1: estimate_completeness("sequence", trials, seed, n_states=9),
        "cheat": cheat,
        "detection": lambda trials=10, seed=1: sequence_detection_experiment(9, "honest", trials, seed),
    }


@pytest.mark.parametrize("value", [True, False, 1000.0, 1.5, "7", None], ids=repr)
@pytest.mark.parametrize("argument", ["trials", "seed", "trial_offset"])
def test_estimators_reject_bools_and_non_integers(argument, value):
    for name, estimate in _estimators().items():
        if argument == "trial_offset" and name != "cheat":
            continue
        with pytest.raises(ValidationError, match=f"{argument} must be an integer"):
            estimate(**{argument: value})


def test_estimators_take_numpy_integers_as_python_ints():
    for estimate in _estimators().values():
        assert estimate(seed=np.int64(-5)) == estimate(seed=-5)
        assert estimate(trials=np.int32(1000)) == estimate(trials=1000)
    cheat = _estimators()["cheat"]
    assert cheat(trial_offset=np.uint64(7)) == cheat(trial_offset=7)
    # The sequence batch size too, wherever it is given, and a strategy
    # stores it as a Python int, which its JSON cache key needs.
    plain = CheatStrategy("alice", "sequence", {"n_states": 9})
    for n_states in (np.int64(9), np.uint16(9)):
        assert type(SequenceConfig(n_states).n_states) is int
        completeness = estimate_completeness("sequence", 1000, 3, n_states=n_states)
        assert completeness == estimate_completeness("sequence", 1000, 3, n_states=9)
        detection = sequence_detection_experiment(n_states, "honest", 10, 3)
        assert detection == sequence_detection_experiment(9, "honest", 10, 3)
        strategy = CheatStrategy("alice", "sequence", {"n_states": n_states})
        assert type(strategy.parameters["n_states"]) is int and strategy == plain
        assert estimate_cheat(strategy, 100, 3) == estimate_cheat(plain, 100, 3)
    # A bool is not a declared bit, as it is not a trial count.
    with pytest.raises(ValidationError, match="declared_bit"):
        adversary.alice_sequence_cheat_prob(True)


def test_threshold_tables_are_built_once(monkeypatch):
    # The honest flows sample from threshold tables built at import, so no
    # estimator call builds one; each strategy samples from the one table
    # its factory builds, on its first estimate and never again.
    built = []
    sampling_thresholds = linalg.sampling_thresholds

    def counting(weights):
        built.append(weights.shape)
        return sampling_thresholds(weights)

    for module in (protocols, adversary):
        monkeypatch.setattr(module, "sampling_thresholds", counting)
    for protocol in ("bad_qubit", "qutrit"):
        estimate_completeness(protocol, 1000, 3)
    estimate_completeness("sequence", 1000, 3, n_states=9)
    for variant in DETECTION_VARIANTS:
        sequence_detection_experiment(9, variant, 20, 3)
    assert built == []
    adversary._compiled.cache_clear()
    strategies = list(_block_strategies())
    for strategy in strategies:
        estimate_cheat(strategy, 100, 3)
        assert len(built) == 1, strategy
        estimate_cheat(strategy, 100, 3)
        assert len(built) == 1, strategy
        built.clear()


def test_estimate_cheat_rejects_foreign_strategy():
    class Impostor:
        party = "bob"
        protocol = "sequence"

        def cache_key(self):
            return ("bob", "sequence", "{}")

    with pytest.raises(UnsupportedStrategyError):
        estimate_cheat(Impostor(), 10, seed=1)


MASTERS = (0, 2027, (1 << 64) - 1)

# The block form of each single-transfer protocol.
ROT_BLOCKS = {protocol: block for protocol, (_, block) in ROT_EXECUTORS.items()}


def _block_strategies():
    triples = [None, [1.0, 0.0, 0.0]] + [list(random_triple(np.random.default_rng(k))) for k in range(3)]
    for protocol in ("qutrit", "coinflip"):
        for triple in triples:
            yield CheatStrategy("alice", protocol, None if triple is None else {"triple": triple})
        yield CheatStrategy("bob", protocol)
    yield CheatStrategy("alice", "sequence")


def test_block_outcomes_match_scalar_runs_trial_by_trial():
    for master in MASTERS:
        for offset in (0, 1_000_003):
            seeds = trial_seeds(master, offset, 200)
            for protocol, block in ROT_BLOCKS.items():
                got = block(seeds)
                for index, seed in enumerate(seeds.tolist()):
                    _, want = oracle.ROT_RUNS[protocol](seed)
                    assert (got.assert_bit[index], got.bob_bit[index]) == (want.assert_bit, want.bob_bit)
                    if want.assert_bit == 0:
                        assert got.g_hat[index] == want.g_hat, (protocol, master, offset, index)
            for strategy in _block_strategies():
                want = [oracle.execute_cheat(strategy, seed) for seed in seeds.tolist()]
                assert cheat_block(strategy)(seeds).tolist() == want, (strategy, master)
                assert [execute_cheat(strategy, seed) for seed in seeds.tolist()] == want, (strategy, master)


def test_bob_coinflip_lands_heads_exactly_where_his_qutrit_call_is_right():
    # Two blocks, one identity: bob/coinflip runs the coin-flip rule on
    # bob/qutrit's guesses, so the two agree trial by trial.
    coinflip, qutrit = (cheat_block(CheatStrategy("bob", protocol)) for protocol in ("coinflip", "qutrit"))
    for master in MASTERS:
        seeds = trial_seeds(master, 0, 20_000)
        assert np.array_equal(coinflip(seeds), qutrit(seeds)), master


def test_block_runs_straddling_chunks_match_scalar_counts(monkeypatch):
    monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 384)
    for protocol in ROT_BLOCKS:
        outcomes = [oracle.ROT_RUNS[protocol](trial_seed(41, index))[1] for index in range(1000)]
        report, conditional = estimate_completeness(protocol, 1000, 41)
        assert report.successes == sum(outcome.assert_bit == 0 for outcome in outcomes)
        assert conditional
    for strategy in _block_strategies():
        expected = sum(oracle.execute_cheat(strategy, trial_seed(3, 500 + index)) for index in range(900))
        assert estimate_cheat(strategy, 900, 3, trial_offset=500).successes == expected, strategy


def _sequence_block_flows(cfg):
    # The sequence block flows over a block of seeds, by name.
    flows = {"play": lambda seeds: play_sequence_block(cfg, seeds)}
    for variant in DETECTION_VARIANTS:
        flows[variant] = lambda seeds, variant=variant: montecarlo._detection_block(cfg, seeds, variant)
    return flows


def test_block_flows_key_each_stream_once(monkeypatch):
    # Each block flow, over many seeds or over one, computes every Philox
    # word it draws, from all of its party streams, in a single
    # philox_block call, which keys each (stream, counter) once.  No seed
    # here draws again, which would open or extend a one-seed stream.
    calls = []
    philox_block = rng.philox_block

    def counting(seeds, runs):
        calls.append(Counter((stream, first + 1 + block) for stream, first, count in runs for block in range(count)))
        return philox_block(seeds, runs)

    monkeypatch.setattr(rng, "philox_block", counting)
    flows = list(ROT_BLOCKS.values()) + [cheat_block(s) for s in _block_strategies()]
    flows += list(_sequence_block_flows(SequenceConfig(16)).values())
    for seeds in (trial_seeds(0, 0, 16), trial_seeds(0, 0, 1)):
        for flow in flows:
            calls.clear()
            flow(seeds)
            assert len(calls) == 1, (flow, seeds.size)
            assert calls[0] and max(calls[0].values()) == 1, (flow, seeds.size)


def _refuse_one_seed(seeds, *args):
    if np.asarray(seeds).size == 1:
        raise AssertionError("a seed drew again on a stream of its own")
    return PHILOX_BLOCK(seeds, *args)


PHILOX_BLOCK = rng.philox_block

# Seeds per master seed: the oracle's n = 10001 run takes about half a second.
SEQUENCE_LANES = {4: 48, 9: 48, 16: 48, 100: 8, 10001: 1}


@pytest.mark.parametrize("n_states", sorted(SEQUENCE_LANES))
def test_sequence_blocks_match_scalar_runs_trial_by_trial(monkeypatch, n_states):
    cfg = SequenceConfig(n_states)
    cheat = CheatStrategy("alice", "sequence", {"n_states": n_states})
    flows = _sequence_block_flows(cfg)
    for master in MASTERS:
        seeds = trial_seeds(master, 1_000_003, SEQUENCE_LANES[n_states])
        runs = [oracle.play_sequence(cfg, seed) for seed in seeds.tolist()]
        expected = {
            variant: [oracle.run_detection_trial(cfg, seed, variant) for seed in seeds.tolist()]
            for variant in DETECTION_VARIANTS
        }
        expected["cheat"] = [oracle.execute_cheat(cheat, seed) for seed in seeds.tolist()]
        with monkeypatch.context() as patch:
            # No seed of a block draws again, which would open a one-seed
            # stream, so each outcome below comes from the block's own
            # words.  A one-seed block is a run on its own.
            if seeds.size > 1:
                patch.setattr(rng, "philox_block", _refuse_one_seed)
            setup = sequence_setup_block(cfg, seeds)
            block = flows["play"](seeds)
            got = {variant: flows[variant](seeds).tolist() for variant in DETECTION_VARIANTS}
            got["cheat"] = cheat_block(cheat)(seeds).tolist()
        assert got == expected, (n_states, master)
        for lane, run in enumerate(runs):
            assert setup.pairs[:, lane].tolist() == block.pairs[:, lane].tolist()
            assert setup.tested[:, lane].tolist() == block.tested[:, lane].tolist()
            _assert_lane_is_run(block, lane, run)


def _assert_lane_is_run(block, lane, run):
    # The lane of a sequence block holds the run oracle.play_sequence gives
    # for its seed: pairs, test set, failed slot and, where it passed, Bob's
    # declarations and Alice's outcomes.
    pairs, tested, failed, declarations, outcomes = run
    assert block.pairs[:, lane].tolist() == [2 * x0 + x1 for x0, x1 in pairs]
    assert block.tested[:, lane].tolist() == tested
    assert block.failed[lane] == (-1 if failed is None else failed)
    if failed is None:
        assert block.declared[:, lane].tolist() == [declared for _, declared in declarations]
        assert block.outcomes.assert_bit[:, lane].tolist() == [o.assert_bit for o in outcomes]
        assert block.outcomes.bob_bit[:, lane].tolist() == [o.bob_bit for o in outcomes]
        received = block.outcomes.assert_bit[:, lane] == 0
        assert block.outcomes.g_hat[received, lane].tolist() == [o.g_hat for o in outcomes if o.assert_bit == 0]


# Trials of master seed 0 at n_states = 10001 whose block draws meet a real
# Lemire rejection, found by searching the draws alone over trial indices:
# Alice's Floyd draws (block_streams and bounded(_choice_highs(n, k))) at
# trial 398, about one trial in 8000, and Bob's corrupted-slot draw in
# [0, 10000], which draws again with probability 7843 / 2**32, at trial
# 752918.  Trial 399 draws nothing again.
GENUINE = {"alice": 398, "none": 399, "bob": 752918}


def test_genuine_lemire_rejections_give_the_scalar_runs():
    cfg = SequenceConfig(10001)
    seeds = np.array([trial_seed(0, index) for index in GENUINE.values()], dtype=np.uint64)
    setup = sequence_setup_block(cfg, seeds, bob_words=1)
    setup.bob.bounded([cfg.n_states - 1])
    assert list(setup.alice._alone) == [0] and list(setup.bob._alone) == [2]
    cheat = CheatStrategy("alice", "sequence", {"n_states": cfg.n_states})
    flows = _sequence_block_flows(cfg)
    block = flows["play"](seeds)
    for lane, seed in enumerate(seeds.tolist()):
        _assert_lane_is_run(block, lane, oracle.play_sequence(cfg, seed))
    for variant in DETECTION_VARIANTS:
        expected = [oracle.run_detection_trial(cfg, seed, variant) for seed in seeds.tolist()]
        assert flows[variant](seeds).tolist() == expected, variant
    assert cheat_block(cheat)(seeds).tolist() == [oracle.execute_cheat(cheat, seed) for seed in seeds.tolist()]


def _lemire_threshold(high: int) -> int:
    return (2**32 - 1 - high) % (high + 1)


# n_states = 100, so test_size = 10.  Each forced draw takes a 32-bit value
# of 0, which Lemire rejects whenever its range has a positive threshold:
# Alice's first Floyd draw (range [0, 90], her word 0, low half), her first
# shuffle draw (range [0, 9], her 10th 32-bit value: word 5, low half), and
# Bob's integers draws after his 100 pair words (word 100: the low half for
# the corrupted slot, range [0, 99], or the lied-about position, range
# [0, 9]; the high half for the lie, range [0, 2]).
FORCED = {
    "floyd": (rng.ALICE, 0, "low", 90, ("play", "cheat") + DETECTION_VARIANTS),
    "shuffle": (rng.ALICE, 5, "low", 9, ("play", "cheat") + DETECTION_VARIANTS),
    "orthogonal-slot": (rng.BOB, 100, "low", 99, ("send-orthogonal",)),
    "lie-position": (rng.BOB, 100, "low", 9, ("announce-wrong-state",)),
    "lie-state": (rng.BOB, 100, "high", 2, ("announce-wrong-state",)),
}


@pytest.mark.parametrize("draw", sorted(FORCED))
def test_forced_lemire_rejection_replays_the_lane(monkeypatch, draw):
    stream, word, half, high, flows = FORCED[draw]
    assert _lemire_threshold(high) > 0
    cfg = SequenceConfig(100)
    master, target = 2027, 3
    target_seed = trial_seed(master, target)
    opened = []  # (party, seed) of every one-seed stream opened

    def forced(seeds, runs):
        # The value is forced in the block pass only: the stream the target
        # lane opens on its own must see its real draws, which the oracle
        # sees too.  A one-seed stream opens with a run from block 0, and a
        # redraw extends it by later blocks; a block pass asks for every
        # party's blocks in one call.
        out = PHILOX_BLOCK(seeds, runs)
        if seeds.size == 1:
            opened.extend((party, int(seeds[0])) for party, first, _ in runs if first == 0)
        else:
            keep = np.uint64(0xFFFFFFFF << 32 if half == "low" else 0xFFFFFFFF)
            row = 0
            for party, first, count in runs:
                if party == stream and first <= word // 4 < first + count:
                    out[row + word - 4 * first, seeds == np.uint64(target_seed)] &= keep
                row += 4 * count
        return out

    strategy = CheatStrategy("alice", "sequence", {"n_states": 100})
    for flow in flows:
        runs = 1000 // 90 + 1 if flow == "play" else 40
        assert runs > target
        seeds = [trial_seed(master, index) for index in range(runs)]
        if flow == "play":
            outcomes = [o for seed in seeds for o in oracle.play_sequence(cfg, seed)[4]]
            expected = sum(o.assert_bit == 0 for o in outcomes[:1000])
        elif flow == "cheat":
            expected = sum(oracle.execute_cheat(strategy, seed) for seed in seeds)
        else:
            expected = sum(oracle.run_detection_trial(cfg, seed, flow) for seed in seeds)
        opened.clear()
        with monkeypatch.context() as patch:
            patch.setattr(rng, "philox_block", forced)
            if flow == "play":
                report, conditional = estimate_completeness("sequence", 1000, master, n_states=100)
                assert conditional
            elif flow == "cheat":
                report = estimate_cheat(strategy, runs, master)
            else:
                report = sequence_detection_experiment(100, flow, runs, master)
        # Only the rejecting party's stream of the target lane is opened
        # again, once; no flow runs the lane again.
        assert opened == [(stream, target_seed)], (draw, flow)
        assert report.successes == expected, (draw, flow)
    if stream == rng.ALICE:
        # The played block's forced lane is the scalar run in every field.
        seeds = np.array([trial_seed(master, index) for index in range(target + 2)], dtype=np.uint64)
        with monkeypatch.context() as patch:
            patch.setattr(rng, "philox_block", forced)
            block = play_sequence_block(cfg, seeds)
        _assert_lane_is_run(block, target, oracle.play_sequence(cfg, target_seed))


def test_sequence_cheat_blocks_default_to_the_smallest_batch(monkeypatch):
    # The strategy without n_states is the one with the smallest batch, 4
    # states, and its blocks hold BLOCK_TRIALS // 4 runs, as that one's do.
    default = CheatStrategy("alice", "sequence")
    smallest = CheatStrategy("alice", "sequence", {"n_states": 4})
    assert default == smallest and default.parameters == {"n_states": 4}
    sizes = []

    def recording(seeds):
        sizes.append(seeds.size)
        return np.zeros(seeds.size, dtype=bool)

    monkeypatch.setattr(montecarlo, "cheat_block", lambda _: recording)
    for strategy in (default, smallest):
        sizes.clear()
        assert estimate_cheat(strategy, 100_000, 1).trials == 100_000
        assert sizes == [16384] * 6 + [1696], strategy


def test_qutrit_cheat_strategies_default_to_the_balanced_triple():
    # The strategy without a triple is the one with the balanced triple,
    # filled at construction, and both share one block form.
    for protocol in ("qutrit", "coinflip"):
        default = CheatStrategy("alice", protocol)
        balanced = CheatStrategy("alice", protocol, {"triple": [0.5, 0.5, math.sqrt(0.5)]})
        assert default == balanced and default.parameters == {"triple": [0.5, 0.5, math.sqrt(0.5)]}
        assert cheat_block(default) is cheat_block(balanced)


def test_sequence_runs_straddling_chunks_match_unchunked(monkeypatch):
    # 1001 trials at n_states = 16 take 84 runs of 12 decoded slots, the
    # last cut off after 5.
    whole = estimate_completeness("sequence", 1001, 6, n_states=16)
    detections = {
        variant: sequence_detection_experiment(16, variant, 80, 6) for variant in DETECTION_VARIANTS
    }
    # A cheat trial at n_states = 16 is a whole run, so its blocks hold as
    # many trials as a completeness block holds runs.
    strategy = CheatStrategy("alice", "sequence", {"n_states": 16})
    cheat = estimate_cheat(strategy, 80, 6)
    block = cheat_block(strategy)
    sizes = []

    def recording(seeds):
        sizes.append(seeds.size)
        return block(seeds)

    monkeypatch.setattr(montecarlo, "cheat_block", lambda _: recording)
    for block_trials in (1, 3 * 16, 10 * 16 + 7):
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", block_trials)
        assert estimate_completeness("sequence", 1001, 6, n_states=16) == whole
        for variant, report in detections.items():
            assert sequence_detection_experiment(16, variant, 80, 6) == report, (block_trials, variant)
        sizes.clear()
        assert estimate_cheat(strategy, 80, 6) == cheat, block_trials
        runs = max(1, block_trials // 16)
        assert sizes == [min(runs, 80 - start) for start in range(0, 80, runs)], block_trials
