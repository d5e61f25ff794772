"""The cheating-advantage calculus.

A transfer protocol's security is summarised by the pair of optimal cheating
probabilities (P_A*, P_B*).  Dividing each by its ideal value (3/4 for
Alice, 1/2 for Bob) gives the per-party advantages, whose maximum is the
protocol's cheating advantage.  This module turns that bookkeeping, the
HEADS-forcing probabilities of a coin flip built on a transfer, the
coin-flip balancing construction, and the product lower bound for coin
flipping into plain profile arithmetic.  It reproduces the headline numbers
from primitive operations with internal cross-checks, reading the cheating
values from :mod:`rotlab.adversary`, which imports nothing from this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import adversary
from .linalg import ValidationError, is_real

IDEAL_ALICE = 0.75
IDEAL_BOB = 0.5

# Drift gate for the headline reproduction: every recomputed value must land
# within this distance of its cross-check figure.
CONSISTENCY_TOL = 1e-3

_KITAEV_SLACK = 1e-12


class PreconditionError(ValueError):
    """A balancing precondition does not hold for the supplied profiles."""


class ConsistencyError(RuntimeError):
    """A recomputed headline value drifted from its cross-check."""


@dataclass(frozen=True)
class CheatProfile:
    """Cheating probabilities of one protocol and their advantage ratios.

    ``admissible`` flags whether both probabilities clear their ideal
    floors; sub-ideal inputs are accepted (useful for hypothetical points)
    but marked.
    """

    p_a_star: float
    p_b_star: float
    gamma_a: float
    gamma_b: float
    gamma: float
    admissible: bool


def advantage(p_a: float, p_b: float) -> CheatProfile:
    """Profile of a protocol with cheating probabilities (p_a, p_b), each
    a real number in [0, 1] but not a bool."""
    if not (is_real(p_a) and is_real(p_b) and 0.0 <= p_a <= 1.0 and 0.0 <= p_b <= 1.0):
        raise ValidationError(f"cheating probabilities must lie in [0, 1], got ({p_a}, {p_b})")
    gamma_a = p_a / IDEAL_ALICE
    gamma_b = p_b / IDEAL_BOB
    return CheatProfile(
        p_a_star=p_a,
        p_b_star=p_b,
        gamma_a=gamma_a,
        gamma_b=gamma_b,
        gamma=max(gamma_a, gamma_b),
        admissible=p_a >= IDEAL_ALICE - 1e-12 and p_b >= IDEAL_BOB - 1e-12,
    )


# The two single-message strawmen, at certainty: in the classical one Bob
# always knows whether Alice got the bit, in the qubit one she can always read it.
BAD_CLASSICAL_PROFILE = advantage(IDEAL_ALICE, 1.0)
BAD_QUBIT_PROFILE = advantage(1.0, IDEAL_BOB)


@dataclass(frozen=True)
class BalanceResult:
    """Equalised advantage of two protocols composed through an ideal
    biased weak coin flip.

    ``z_bias`` is the coin weight assigned to the second (Bob-preferred)
    profile; the first profile carries the remaining 1 - z_bias.  ``gamma``
    is the advantage both parties then share.
    """

    z_bias: float
    gamma: float
    strict_improvement: bool


def balance(prof1: CheatProfile, prof2: CheatProfile) -> BalanceResult:
    """Compose two protocols with opposing preferences into one whose two
    advantages are equal.

    The first profile must be the Alice-preferred one (gamma_a no smaller
    than the second's) and the second the Bob-preferred one.  The
    improvement over both inputs is strict exactly when both preferences
    are strict.  Both must be :class:`CheatProfile` values.
    """
    if not (isinstance(prof1, CheatProfile) and isinstance(prof2, CheatProfile)):
        raise ValidationError(f"balance takes two CheatProfiles, got ({prof1!r}, {prof2!r})")
    if prof1.gamma_a < prof2.gamma_a:
        raise PreconditionError(
            "alice must prefer the first profile (gamma_a of profile 1 is smaller)"
        )
    if prof1.gamma_b > prof2.gamma_b:
        raise PreconditionError(
            "bob must prefer the second profile (gamma_b of profile 2 is smaller)"
        )
    denominator = prof2.gamma_b - prof2.gamma_a + prof1.gamma_a - prof1.gamma_b
    if denominator == 0.0:
        raise PreconditionError("zero denominator: the profiles cannot be equalised")
    weight_first = (prof2.gamma_b - prof2.gamma_a) / denominator
    if not (0.0 < weight_first < 1.0):
        raise PreconditionError(f"coin weight {weight_first} falls outside (0, 1)")
    gamma = (prof1.gamma_a * prof2.gamma_b - prof1.gamma_b * prof2.gamma_a) / denominator
    strict = prof1.gamma_a > prof2.gamma_a and prof1.gamma_b < prof2.gamma_b
    return BalanceResult(z_bias=1.0 - weight_first, gamma=gamma, strict_improvement=strict)


def kitaev_quadratic(ideal_a: float, ideal_b: float) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the quadratic a * g**2 + b * g + c >= 0 that
    the coin-flip product bound puts on an equal advantage g: a = ideal_a *
    ideal_b, b = ideal_b, c = -1.  Each ideal probability must be a real
    number in (0, 1] but not a bool.
    """
    if not (is_real(ideal_a) and is_real(ideal_b) and 0.0 < ideal_a <= 1.0 and 0.0 < ideal_b <= 1.0):
        raise ValidationError(f"ideal probabilities must lie in (0, 1], got ({ideal_a}, {ideal_b})")
    return ideal_a * ideal_b, ideal_b, -1.0


def kitaev_min_advantage(ideal_a: float, ideal_b: float) -> float:
    """Smallest advantage compatible with the coin-flip product bound: the
    positive root of :func:`kitaev_quadratic`, computed in closed form."""
    a, b, c = kitaev_quadratic(ideal_a, ideal_b)
    return (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)


def check_kitaev_product(p_a0: float, p_b0: float) -> bool:
    """True when the HEADS-forcing pair clears the product bound of 1/2;
    a False result flags a pair no quantum coin-flip protocol achieves.
    Each probability must be a real number in [0, 1] but not a bool."""
    if not (is_real(p_a0) and is_real(p_b0) and 0.0 <= p_a0 <= 1.0 and 0.0 <= p_b0 <= 1.0):
        raise ValidationError(f"HEADS-forcing probabilities must lie in [0, 1], got ({p_a0}, {p_b0})")
    return p_a0 * p_b0 >= 0.5 - _KITAEV_SLACK


def coin_forcing_probs(rot_profile: CheatProfile) -> tuple[float, float]:
    """HEADS-forcing probabilities of the coin flip built on a transfer with
    the given cheating profile, a :class:`CheatProfile`: Alice forces with
    (1 + P_A*)/2, Bob with P_B*."""
    if not isinstance(rot_profile, CheatProfile):
        raise ValidationError(f"coin_forcing_probs takes a CheatProfile, got {rot_profile!r}")
    return 0.5 + 0.5 * rot_profile.p_a_star, rot_profile.p_b_star


@dataclass(frozen=True)
class HeadlineReport:
    """The named security figures, recomputed from primitive operations."""

    protocol_1_gamma: float
    protocol_2_gamma: float
    theorem_1_gamma: float
    lemma_2_profile: CheatProfile
    theorem_2_gamma: float
    theorem_3_bound: float
    interval: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "protocol_1_gamma": self.protocol_1_gamma,
            "protocol_2_gamma": self.protocol_2_gamma,
            "theorem_1_gamma": self.theorem_1_gamma,
            "lemma_2_profile": {
                "p_a_star": self.lemma_2_profile.p_a_star,
                "p_b_star": self.lemma_2_profile.p_b_star,
                "gamma": self.lemma_2_profile.gamma,
            },
            "theorem_2_gamma": self.theorem_2_gamma,
            "theorem_3_bound": self.theorem_3_bound,
            "interval": [self.interval[0], self.interval[1]],
        }


def _cross_check(name: str, computed: float, reference: float) -> None:
    if abs(computed - reference) > CONSISTENCY_TOL:
        raise ConsistencyError(
            f"{name} drifted: computed {computed!r}, cross-check {reference!r}"
        )


def qutrit_profile() -> CheatProfile:
    """The qutrit protocol's profile: P_A* from the optimizer, P_B* from
    Bob's minimum-error discrimination."""
    _, p_a_opt = adversary.optimize_alice_qutrit(adversary.OPTIMIZER_TOLERANCE)
    return advantage(p_a_opt, adversary.bob_qutrit_cheat_prob())


def reproduce_headline_table() -> HeadlineReport:
    """Recompute every named figure from primitive operations and verify each
    against its published cross-check value (drift gate 1e-3).

    The only literals fed into the computation are the two ideal cheating
    probabilities and the certainty values of the two single-message
    protocols; everything else flows through the optimizer, the
    discrimination machinery, the balancing composition, and the closed-form
    bound.
    """
    _cross_check("protocol_1_gamma", BAD_CLASSICAL_PROFILE.gamma, 2.0)
    _cross_check("protocol_2_gamma", BAD_QUBIT_PROFILE.gamma, 4.0 / 3.0)

    balanced_bad = balance(BAD_QUBIT_PROFILE, BAD_CLASSICAL_PROFILE)
    _cross_check("theorem_1_gamma", balanced_bad.gamma, 1.25)
    _cross_check("theorem_1_z", balanced_bad.z_bias, 0.25)

    lemma_2 = qutrit_profile()
    _cross_check("lemma_2_p_a", lemma_2.p_a_star, 0.853)
    _cross_check("lemma_2_p_b", lemma_2.p_b_star, 0.75)
    _cross_check("lemma_2_gamma_a", lemma_2.gamma_a, 1.138)
    _cross_check("lemma_2_gamma", lemma_2.gamma, 1.5)

    balanced_refined = balance(BAD_QUBIT_PROFILE, lemma_2)
    _cross_check("theorem_2_gamma", balanced_refined.gamma, 1.239)

    bound = kitaev_min_advantage(IDEAL_ALICE, IDEAL_BOB)
    _cross_check("theorem_3_bound", bound, 1.097)

    if not bound < balanced_refined.gamma:
        raise ConsistencyError("lower bound does not sit below the best upper value")
    return HeadlineReport(
        protocol_1_gamma=BAD_CLASSICAL_PROFILE.gamma,
        protocol_2_gamma=BAD_QUBIT_PROFILE.gamma,
        theorem_1_gamma=balanced_bad.gamma,
        lemma_2_profile=lemma_2,
        theorem_2_gamma=balanced_refined.gamma,
        theorem_3_bound=bound,
        interval=(bound, balanced_refined.gamma),
    )
