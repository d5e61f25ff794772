"""Seeded statistical harness.

Estimates completeness rates, cheating-strategy success rates, and the
sequence protocol's spot-check deterrence, with binomial error accounting.
Trials are fanned out through per-trial seeds derived from the master seed,
so any block split reproduces the concatenated run exactly and reports are
deterministic end to end.

Every estimator evaluates a block of trial seeds at a time, on the same
block forms that the single runs call on one seed.  A sequence trial whose
``choice`` or ``integers`` draw hit a Lemire rejection (probability below
n_states / 2**32 per draw) is flagged by the block form and run again on
its seed alone, where the draw is taken again as numpy does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import CheatStrategy, cheat_block
from .linalg import ValidationError, as_integer
from .protocols import (
    ROT_EXECUTORS,
    SequenceBlock,
    SequenceConfig,
    play_sequence_block,
    sequence_setup_block,
    sequence_spot_check_block,
)
from .rng import trial_seeds

MIN_COMPLETENESS_TRIALS = 1000

# Trials per block-engine call; bounds the engine's arrays at any trial count.
# A sequence run holds about 2 * n_states words per party, so it counts as
# n_states trials; SequenceConfig caps n_states at MAX_SEQUENCE_STATES, so one
# run is never larger than a default block.
BLOCK_TRIALS = 1 << 16

DETECTION_VARIANTS = ("honest", "send-orthogonal", "announce-wrong-state")


@dataclass(frozen=True)
class TrialReport:
    """Success-count summary of a seeded batch of trials."""

    trials: int
    successes: int
    estimate: float
    sigma: float
    target: float | None = None
    z_score: float | None = None

    @classmethod
    def from_counts(cls, trials: int, successes: int, target: float | None = None) -> "TrialReport":
        estimate = successes / trials
        sigma = math.sqrt(estimate * (1.0 - estimate) / trials)
        z_score = None
        if target is not None:
            if sigma > 0.0:
                z_score = (estimate - target) / sigma
            else:
                z_score = 0.0 if estimate == target else math.inf * math.copysign(1.0, estimate - target)
        return cls(trials=trials, successes=successes, estimate=estimate, sigma=sigma, target=target, z_score=z_score)

    def to_dict(self) -> dict:
        out = {
            "trials": self.trials,
            "successes": self.successes,
            "estimate": self.estimate,
            "sigma": self.sigma,
        }
        if self.target is not None:
            out["target"] = self.target
            out["z_score"] = self.z_score
        return out


def _seed_blocks(seed: int, offset: int, trials: int, size: int):
    # The trial seeds of trials offset .. offset + trials - 1, size at a time.
    for start in range(0, trials, size):
        yield trial_seeds(seed, offset + start, min(size, trials - start))


def _runs_per_block(n_states: int) -> int:
    return max(1, BLOCK_TRIALS // n_states)


def _sequence_masks(block: SequenceBlock) -> tuple[np.ndarray, ...]:
    # Per untested slot and run: whether the outcome asserted a receipt,
    # whether it is correct (not an abort sentinel, and a receipt of Bob's
    # actual bit), and whether the run has it.  A failed run has one
    # outcome, its abort sentinel.
    out = block.outcomes
    passed = block.failed < 0
    asserted = passed & (out.assert_bit == 0)
    correct = passed & ((out.assert_bit == 1) | (out.g_hat == out.bob_bit))
    kept = passed | (np.arange(len(out.assert_bit))[:, None] == 0)
    return asserted, correct, kept


def _sequence_outcomes(cfg: SequenceConfig, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The outcomes of the runs at ``seeds``, run after run: whether each
    # asserted receipt, and whether it is correct.
    block = play_sequence_block(cfg, seeds)
    asserted, correct, kept = _sequence_masks(block)
    for lane in np.flatnonzero(block.rejected):
        alone = _sequence_masks(play_sequence_block(cfg, seeds[lane : lane + 1]))
        for mask, column in zip((asserted, correct, kept), alone):
            mask[:, lane] = column[:, 0]
    return asserted.T[kept.T], correct.T[kept.T]


def estimate_completeness(
    protocol: str, trials: int, seed: int, n_states: int = 100
) -> tuple[TrialReport, bool]:
    """Assert-rate report (target 1/2) plus an exact conditional-correctness
    flag: True only if every asserting trial received Bob's actual bit.

    For the sequence protocol each decoded index counts as one trial;
    ``n_states`` sets the batch size per run.  The single-transfer
    protocols are evaluated a block of trials at a time, the sequence
    protocol a block of whole runs at a time, with the outcomes of their
    single runs; the last run is cut off after the requested trial count.
    """
    if protocol != "sequence" and protocol not in ROT_EXECUTORS:
        raise ValidationError(f"unknown protocol id {protocol!r}")
    trials, seed = as_integer("trials", trials), as_integer("seed", seed)
    if trials < MIN_COMPLETENESS_TRIALS:
        raise ValidationError(f"need at least {MIN_COMPLETENESS_TRIALS} trials, got {trials}")

    asserts = 0
    conditional_ok = True
    if protocol != "sequence":
        _, block = ROT_EXECUTORS[protocol]
        for seeds in _seed_blocks(seed, 0, trials, BLOCK_TRIALS):
            outcome = block(seeds)
            asserted = outcome.assert_bit == 0
            asserts += int(np.count_nonzero(asserted))
            conditional_ok &= bool(np.all(outcome.g_hat[asserted] == outcome.bob_bit[asserted]))
    else:
        cfg = SequenceConfig(n_states)
        per_run = cfg.n_states - cfg.test_size
        collected = 0
        run_index = 0
        while collected < trials:
            # Whole runs, as many as the remaining trials need if none aborts.
            runs = min(_runs_per_block(cfg.n_states), -(-(trials - collected) // per_run))
            asserted, correct = _sequence_outcomes(cfg, trial_seeds(seed, run_index, runs))
            run_index += runs
            asserted, correct = asserted[: trials - collected], correct[: trials - collected]
            collected += asserted.size
            asserts += int(np.count_nonzero(asserted))
            conditional_ok &= bool(correct.all())

    return TrialReport.from_counts(trials, asserts, target=0.5), conditional_ok


def estimate_cheat(
    strategy: CheatStrategy,
    trials: int,
    seed: int,
    target: float | None = None,
    trial_offset: int = 0,
) -> TrialReport:
    """Empirical success rate of a cheating strategy.

    ``trial_offset`` shifts the per-trial seed indices, so disjoint blocks
    of one master seed add up to exactly the unsplit run.  Trials are
    evaluated a block at a time, each with the outcome
    :func:`~rotlab.adversary.execute_cheat` gives for its seed; a strategy
    with an ``n_states`` parameter plays a sequence run per trial, so its
    blocks hold as many runs as a sequence completeness block.
    """
    trials, seed = as_integer("trials", trials), as_integer("seed", seed)
    trial_offset = as_integer("trial_offset", trial_offset)
    if trials < 1:
        raise ValidationError("need at least one trial")
    block = cheat_block(strategy)
    n_states = strategy.parameters.get("n_states")
    size = BLOCK_TRIALS if n_states is None else _runs_per_block(n_states)
    blocks = _seed_blocks(seed, trial_offset, trials, size)
    successes = sum(int(np.count_nonzero(block(seeds))) for seeds in blocks)
    return TrialReport.from_counts(trials, successes, target=target)


def _detection_block(cfg: SequenceConfig, seeds: np.ndarray, variant: str) -> np.ndarray:
    # Bob's preparation plus Alice's spot checks, on pair indices; the abort
    # statistic is decided entirely by the testing phase, so the untested
    # decode is skipped.  send-orthogonal flips both bits of a uniformly
    # chosen slot, index ^ 3: the orthogonal partner within the same basis,
    # which a test then catches with certainty.  announce-wrong-state
    # announces, for a uniformly chosen tested slot, the a-th of the other
    # three pairs, a + (a >= p) for the sent index p.  Bob's integers draws
    # take the halves of his word n.
    setup = sequence_setup_block(cfg, seeds, alice_words=2 * cfg.test_size, bob_words=1)
    lanes = np.arange(seeds.size)
    sent = announced = setup.pairs
    rejected = setup.rejected
    if variant == "send-orthogonal":
        (corrupt,), bob_rejected = setup.bob.bounded([cfg.n_states - 1])
        sent = setup.pairs.copy()
        sent[corrupt, lanes] ^= 3
        rejected = rejected | bob_rejected
    elif variant == "announce-wrong-state":
        (pick, alternative), bob_rejected = setup.bob.bounded([cfg.test_size - 1, 2])
        slot = setup.tested[pick, lanes]
        announced = setup.pairs.copy()
        announced[slot, lanes] = alternative + (alternative >= setup.pairs[slot, lanes])
        rejected = rejected | bob_rejected
    aborted = sequence_spot_check_block(setup.alice, setup.tested, sent, announced) >= 0
    for lane in np.flatnonzero(rejected):
        aborted[lane] = _detection_block(cfg, seeds[lane : lane + 1], variant)[0]
    return aborted


def sequence_detection_experiment(
    n_states: int, dishonesty: str, trials: int, seed: int
) -> TrialReport:
    """Abort frequency of the sequence protocol under a naive dishonest Bob.

    ``send-orthogonal`` corrupts one uniformly chosen state with its
    orthogonal partner, so a tested corruption is caught with certainty and
    the abort rate targets test_size / n_states.  ``announce-wrong-state``
    lies about one tested announcement, which is caught at the rate 5/6 at
    every batch size; ``honest`` is the zero-abort control.
    """
    if dishonesty not in DETECTION_VARIANTS:
        raise ValidationError(f"dishonesty must be one of {DETECTION_VARIANTS}, got {dishonesty!r}")
    trials, seed = as_integer("trials", trials), as_integer("seed", seed)
    if trials < 1:
        raise ValidationError("need at least one trial")
    cfg = SequenceConfig(n_states)
    aborts = sum(
        int(np.count_nonzero(_detection_block(cfg, seeds, dishonesty)))
        for seeds in _seed_blocks(seed, 0, trials, _runs_per_block(cfg.n_states))
    )
    if dishonesty == "send-orthogonal":
        target = cfg.test_size / cfg.n_states
    elif dishonesty == "honest":
        target = 0.0
    else:
        # The lie swaps a tested slot's pair for one of the other three,
        # uniformly.  Checked against the other state of the same basis,
        # the sent state passes with probability 0; against either state of
        # the other basis, each qubit shows the expected outcome with 1/2,
        # so it passes with 1/4.  Every other tested slot is honest and
        # passes with certainty, so the abort rate is
        # 1 - (0 + 1/4 + 1/4) / 3 = 5/6 whatever n_states is.
        target = 5.0 / 6.0
    return TrialReport.from_counts(trials, aborts, target=target)
