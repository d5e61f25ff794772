"""Seeded statistical harness.

Estimates completeness rates, cheating-strategy success rates, and the
sequence protocol's spot-check deterrence, with binomial error accounting.
Trials are fanned out through per-trial seeds derived from the master seed,
so any block split reproduces the concatenated run exactly and reports are
deterministic end to end.

Every estimator evaluates a block of trial seeds at a time, on the same
block forms that the single runs call on one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import CheatStrategy, cheat_block
from .linalg import ValidationError, as_integer, is_real
from .protocols import (
    PROTOCOL_IDS,
    ROT_EXECUTORS,
    SequenceConfig,
    play_sequence_block,
    sequence_setup_block,
    sequence_spot_check_block,
    slot_pairs,
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


def _sequence_counts(cfg: SequenceConfig, seeds: np.ndarray, limit: int) -> tuple[int, int, bool]:
    # The outcomes of the runs at ``seeds``, run after run, up to ``limit``
    # of them: how many there are, how many asserted a receipt, and whether
    # each is correct, not an abort sentinel and, where it asserted, a
    # receipt of Bob's actual bit.  A failed run has one outcome, its abort
    # sentinel.
    block = play_sequence_block(cfg, seeds)
    out = block.outcomes
    received = out.assert_bit == 0
    wrong = received & (out.g_hat != out.bob_bit)
    failed = block.failed >= 0
    if failed.any():
        # Each failed run keeps its first row, as its sentinel.
        received[:, failed] = False
        wrong[0, failed] = True
        kept = ~failed | (np.arange(len(received))[:, None] == 0)
        received, wrong = received.T[kept.T], wrong.T[kept.T]
    else:
        received, wrong = received.T.ravel(), wrong.T.ravel()
    received, wrong = received[:limit], wrong[:limit]
    return received.size, int(np.count_nonzero(received)), not wrong.any()


def estimate_completeness(
    protocol: str, trials: int, seed: int, n_states: int | None = None
) -> tuple[TrialReport, bool]:
    """Assert-rate report (target 1/2) plus an exact conditional-correctness
    flag: True only if every asserting trial received Bob's actual bit.

    For the sequence protocol each decoded index counts as one trial;
    ``n_states`` sets the batch size per run, 100 when None.  The
    single-transfer protocols have no batch, so they reject an ``n_states``
    given.  They are evaluated a block of trials at a time, the sequence
    protocol a block of whole runs at a time, with the outcomes of their
    single runs; the last run is cut off after the requested trial count.
    """
    if not isinstance(protocol, str) or protocol not in PROTOCOL_IDS:
        raise ValidationError(f"unknown protocol id {protocol!r}")
    if n_states is not None and protocol != "sequence":
        raise ValidationError(f"n_states applies only to the sequence protocol, not {protocol!r}")
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
        cfg = SequenceConfig(100 if n_states is None else n_states)
        per_run = cfg.n_states - cfg.test_size
        collected = 0
        run_index = 0
        while collected < trials:
            # Whole runs, as many as the remaining trials need if none aborts.
            runs = min(_runs_per_block(cfg.n_states), -(-(trials - collected) // per_run))
            count, received, correct = _sequence_counts(cfg, trial_seeds(seed, run_index, runs), trials - collected)
            run_index += runs
            collected += count
            asserts += received
            conditional_ok &= correct

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

    ``strategy`` must be a :class:`~rotlab.adversary.CheatStrategy` and
    ``target``, when given, a real number in [0, 1] but not a bool: the
    success rate the z-score is taken against.
    """
    trials, seed = as_integer("trials", trials), as_integer("seed", seed)
    trial_offset = as_integer("trial_offset", trial_offset)
    if trials < 1:
        raise ValidationError("need at least one trial")
    if target is not None:
        if not (is_real(target) and 0.0 <= target <= 1.0):
            raise ValidationError(f"target must be a success rate in [0, 1], got {target!r}")
        target = float(target)
    block = cheat_block(strategy)
    n_states = strategy.parameters.get("n_states")
    size = BLOCK_TRIALS if n_states is None else _runs_per_block(n_states)
    blocks = _seed_blocks(seed, trial_offset, trials, size)
    successes = sum(int(np.count_nonzero(block(seeds))) for seeds in blocks)
    return TrialReport.from_counts(trials, successes, target=target)


def _detection_block(cfg: SequenceConfig, seeds: np.ndarray, variant: str) -> np.ndarray:
    # Bob's preparation plus Alice's spot checks, on the tested slots' pair
    # indices; the abort statistic is decided entirely by the testing
    # phase, so the untested decode is skipped.  Each lie edits rows of
    # what is sent or announced at the tested slots.  send-orthogonal flips
    # both bits of a uniformly chosen slot, index ^ 3: the orthogonal
    # partner within the same basis, which a test then catches with
    # certainty, and which changes nothing where that slot is untested.
    # announce-wrong-state announces, at the pick-th tested slot, the a-th
    # of the other three pairs, a + (a >= p) for the sent index p.  Bob's
    # integers draws take the halves of his word n.
    setup = sequence_setup_block(cfg, seeds, alice_words=2 * cfg.test_size, bob_words=1)
    sent = announced = slot_pairs(setup.pairs, setup.tested)
    if variant == "send-orthogonal":
        (corrupt,) = setup.bob.bounded([cfg.n_states - 1])
        sent = sent ^ 3 * (setup.tested == corrupt)
    elif variant == "announce-wrong-state":
        pick, alternative = setup.bob.bounded([cfg.test_size - 1, 2])
        announced = np.where(np.arange(cfg.test_size)[:, None] == pick, alternative + (alternative >= sent), sent)
    rand = setup.alice.randoms(2 * cfg.test_size)
    return sequence_spot_check_block(rand, setup.tested, sent, announced) >= 0


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
