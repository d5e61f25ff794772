"""Seeded statistical harness.

Estimates completeness rates, cheating-strategy success rates, and the
sequence protocol's spot-check deterrence, with binomial error accounting.
Trials are fanned out through per-trial seeds derived from the master seed,
so any block split reproduces the concatenated run exactly and reports are
deterministic end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import CheatStrategy, cheat_block, execute_cheat
from .linalg import PureState, ValidationError, measure_pure
from .protocols import (
    SEQUENCE_STATES,
    ROT_BLOCK_EXECUTORS,
    ROT_EXECUTORS,
    SequenceConfig,
    run_sequence,
    sequence_expected_outcome,
    sequence_test_basis,
    _QUBIT1,
    _QUBIT2,
)
from .rng import ALICE, BOB, draw_bit, party_stream, trial_seed, trial_seeds

MIN_COMPLETENESS_TRIALS = 1000

# Trials per block-engine call; bounds the engine's arrays at any trial count.
BLOCK_TRIALS = 1 << 16

DETECTION_VARIANTS = ("honest", "send-orthogonal", "announce-wrong-state")

# Orthogonal partner within the same measurement basis; a tested corrupted
# state then fails the consistency check with certainty.
_ORTHOGONAL_PARTNER = {
    (0, 0): (1, 1),
    (1, 1): (0, 0),
    (0, 1): (1, 0),
    (1, 0): (0, 1),
}


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


def _seed_blocks(seed: int, offset: int, trials: int):
    # The trial seeds of trials offset .. offset + trials - 1, BLOCK_TRIALS at a time.
    for start in range(0, trials, BLOCK_TRIALS):
        yield trial_seeds(seed, offset + start, min(BLOCK_TRIALS, trials - start))


def estimate_completeness(
    protocol: str, trials: int, seed: int, n_states: int = 100
) -> tuple[TrialReport, bool]:
    """Assert-rate report (target 1/2) plus an exact conditional-correctness
    flag: True only if every asserting trial received Bob's actual bit.

    For the sequence protocol each decoded index counts as one trial;
    ``n_states`` sets the batch size per run.  The single-transfer
    protocols are evaluated a block of trials at a time, with the outcomes
    of their scalar runs.
    """
    if protocol not in ROT_EXECUTORS:
        raise ValidationError(f"unknown protocol id {protocol!r}")
    if trials < MIN_COMPLETENESS_TRIALS:
        raise ValidationError(f"need at least {MIN_COMPLETENESS_TRIALS} trials, got {trials}")

    asserts = 0
    conditional_ok = True
    if protocol in ROT_BLOCK_EXECUTORS:
        for seeds in _seed_blocks(seed, 0, trials):
            outcome = ROT_BLOCK_EXECUTORS[protocol](seeds)
            asserted = outcome.assert_bit == 0
            asserts += int(np.count_nonzero(asserted))
            conditional_ok &= bool(np.all(outcome.g_hat[asserted] == outcome.bob_bit[asserted]))
    else:
        cfg = SequenceConfig(n_states)
        collected = 0
        run_index = 0
        while collected < trials:
            _, outcomes = run_sequence(cfg, trial_seed(seed, run_index))
            run_index += 1
            for outcome in outcomes[: trials - collected]:
                collected += 1
                if outcome.aborted:
                    conditional_ok = False
                elif outcome.assert_bit == 0:
                    asserts += 1
                    conditional_ok &= outcome.g_hat == outcome.bob_bit

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
    of one master seed add up to exactly the unsplit run.  Strategies with a
    block form are evaluated a block of trials at a time, with the outcomes
    of :func:`execute_cheat`.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    block = cheat_block(strategy)
    if block is None:
        successes = sum(
            execute_cheat(strategy, trial_seed(seed, trial_offset + index)) for index in range(trials)
        )
    else:
        successes = sum(
            int(np.count_nonzero(block(seeds))) for seeds in _seed_blocks(seed, trial_offset, trials)
        )
    return TrialReport.from_counts(trials, successes, target=target)


def _run_detection_trial(cfg: SequenceConfig, seed: int, variant: str) -> bool:
    # Bob's preparation plus Alice's spot checks; the abort statistic is
    # decided entirely by the testing phase, so the untested decode is
    # skipped here.
    alice = party_stream(seed, ALICE)
    bob = party_stream(seed, BOB)
    pairs = [(draw_bit(bob), draw_bit(bob)) for _ in range(cfg.n_states)]
    sent = {slot: SEQUENCE_STATES[bits] for slot, bits in enumerate(pairs)}
    announced = dict(enumerate(pairs))

    if variant == "send-orthogonal":
        corrupt = int(bob.integers(0, cfg.n_states))
        sent[corrupt] = SEQUENCE_STATES[_ORTHOGONAL_PARTNER[pairs[corrupt]]]

    tested = sorted(int(j) for j in alice.choice(cfg.n_states, size=cfg.test_size, replace=False))

    if variant == "announce-wrong-state":
        position = int(bob.integers(0, cfg.test_size))
        slot = tested[position]
        alternatives = [bits for bits in SEQUENCE_STATES if bits != pairs[slot]]
        announced[slot] = alternatives[int(bob.integers(0, len(alternatives)))]

    for slot in tested:
        x0, x1 = announced[slot]
        basis = sequence_test_basis(x0, x1)
        expected = sequence_expected_outcome(x0, x1)
        m1, amps = measure_pure(sent[slot], _QUBIT1[basis], alice.random())
        m2, _ = measure_pure(PureState(amps), _QUBIT2[basis], alice.random())
        if m1 != expected or m2 != expected:
            return True
    return False


def sequence_detection_experiment(
    n_states: int, dishonesty: str, trials: int, seed: int
) -> TrialReport:
    """Abort frequency of the sequence protocol under a naive dishonest Bob.

    ``send-orthogonal`` corrupts one uniformly chosen state with its
    orthogonal partner, so a tested corruption is caught with certainty and
    the abort rate targets test_size / n_states.  ``announce-wrong-state``
    lies about one tested announcement (no analytic target is claimed);
    ``honest`` is the zero-abort control.
    """
    if dishonesty not in DETECTION_VARIANTS:
        raise ValidationError(f"dishonesty must be one of {DETECTION_VARIANTS}, got {dishonesty!r}")
    if trials < 1:
        raise ValidationError("need at least one trial")
    cfg = SequenceConfig(n_states)
    aborts = 0
    for index in range(trials):
        if _run_detection_trial(cfg, trial_seed(seed, index), dishonesty):
            aborts += 1
    if dishonesty == "send-orthogonal":
        target: float | None = cfg.test_size / cfg.n_states
    elif dishonesty == "honest":
        target = 0.0
    else:
        target = None
    return TrialReport.from_counts(trials, aborts, target=target)
