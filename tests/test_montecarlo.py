import math

import pytest

from rotlab.adversary import CheatStrategy, UnsupportedStrategyError
from rotlab.linalg import ValidationError
from rotlab.montecarlo import (
    TrialReport,
    estimate_cheat,
    estimate_completeness,
    sequence_detection_experiment,
)
from rotlab.rng import splitmix64, trial_seed


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
        report, conditional = estimate_completeness(protocol, 1000, REPLAY_SEED, n_states=16)
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
    with pytest.raises(ValidationError):
        estimate_completeness("unknown", 2000, seed=1)


@pytest.mark.parametrize("protocol", ["bad_classical", "bad_qubit", "qutrit", "sequence"])
def test_estimate_completeness_small(protocol):
    report, conditional = estimate_completeness(protocol, 2000, seed=11, n_states=16)
    assert conditional is True
    assert report.trials == 2000
    assert abs(report.z_score) < 3.5


def test_estimate_completeness_deterministic():
    first = estimate_completeness("sequence", 1500, seed=8, n_states=9)
    second = estimate_completeness("sequence", 1500, seed=8, n_states=9)
    assert first == second


def test_detection_experiment_honest_control():
    report = sequence_detection_experiment(16, "honest", 300, seed=2)
    assert report.successes == 0
    assert report.target == 0.0


def test_detection_experiment_orthogonal_small_batch():
    report = sequence_detection_experiment(16, "send-orthogonal", 1500, seed=2)
    assert report.target == 0.25
    assert abs(report.z_score) < 3.5


def test_detection_experiment_wrong_announcement_detects_often():
    report = sequence_detection_experiment(16, "announce-wrong-state", 600, seed=2)
    assert report.target is None
    # a lie about one tested state is caught with probability 5/6
    assert abs(report.estimate - 5.0 / 6.0) < 0.06


def test_detection_experiment_validation():
    with pytest.raises(ValidationError):
        sequence_detection_experiment(16, "replace-everything", 100, seed=1)
    with pytest.raises(ValidationError):
        sequence_detection_experiment(2, "honest", 100, seed=1)


def test_estimate_cheat_rejects_foreign_strategy():
    class Impostor:
        party = "bob"
        protocol = "sequence"

        def cache_key(self):
            return ("bob", "sequence", "{}")

    with pytest.raises(UnsupportedStrategyError):
        estimate_cheat(Impostor(), 10, seed=1)
