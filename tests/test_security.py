import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rotlab import adversary
from rotlab.linalg import ValidationError
from rotlab.security import (
    ConsistencyError,
    PreconditionError,
    advantage,
    balance,
    check_kitaev_product,
    coin_forcing_probs,
    kitaev_min_advantage,
    kitaev_quadratic,
    reproduce_headline_table,
)

QUTRIT_PA = math.cos(math.pi / 8.0) ** 2

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# advantage


def test_advantage_fully_leaky_classical_protocol():
    profile = advantage(0.75, 1.0)
    assert profile.gamma_a == 1.0
    assert profile.gamma_b == 2.0
    assert profile.gamma == 2.0
    assert profile.admissible


def test_advantage_fully_leaky_qubit_protocol():
    profile = advantage(1.0, 0.5)
    assert abs(profile.gamma_a - 4.0 / 3.0) < 1e-15
    assert profile.gamma_b == 1.0
    assert abs(profile.gamma - 4.0 / 3.0) < 1e-15


def test_advantage_qutrit_profile():
    profile = advantage(QUTRIT_PA, 0.75)
    assert abs(profile.gamma_a - 1.138071) < 1e-6
    assert profile.gamma_b == 1.5
    assert profile.gamma == 1.5


def test_advantage_range_validation_and_flag():
    with pytest.raises(ValidationError):
        advantage(1.2, 0.5)
    with pytest.raises(ValidationError):
        advantage(0.8, -0.1)
    assert not advantage(0.6, 0.5).admissible
    assert not advantage(0.75, 0.4).admissible


@pytest.mark.parametrize("value", [True, False, "0.8", None, 0.5j])
def test_probabilities_must_be_real_numbers(value):
    # A bool is not a probability, and a string must not reach the
    # comparisons as a TypeError.
    for call in (advantage, kitaev_quadratic, kitaev_min_advantage):
        with pytest.raises(ValidationError, match="must lie in"):
            call(value, 0.5)
        with pytest.raises(ValidationError, match="must lie in"):
            call(0.75, value)


def test_numpy_probabilities_are_accepted():
    assert advantage(np.float64(0.75), np.float32(0.5)) == advantage(0.75, 0.5)
    assert kitaev_min_advantage(np.float64(0.75), np.float64(0.5)) == kitaev_min_advantage(0.75, 0.5)
    assert check_kitaev_product(np.float64(0.9), np.float32(0.75))
    assert not check_kitaev_product(np.float64(0.6), 0.6)


@given(probabilities, probabilities, probabilities, probabilities)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_advantage_monotone(p_a1, p_b1, p_a2, p_b2):
    lo = advantage(min(p_a1, p_a2), min(p_b1, p_b2))
    hi = advantage(max(p_a1, p_a2), max(p_b1, p_b2))
    assert hi.gamma >= lo.gamma


# ---------------------------------------------------------------------------
# balance


def test_balance_bad_pair_composition():
    alice_pref = advantage(1.0, 0.5)
    bob_pref = advantage(0.75, 1.0)
    result = balance(alice_pref, bob_pref)
    assert abs(result.gamma - 1.25) < 1e-12
    assert abs(result.z_bias - 0.25) < 1e-12
    assert result.strict_improvement
    assert result.gamma <= min(alice_pref.gamma, bob_pref.gamma)


def test_balance_qubit_qutrit_composition():
    alice_pref = advantage(1.0, 0.5)
    qutrit = advantage(QUTRIT_PA, 0.75)
    result = balance(alice_pref, qutrit)
    assert 1.2390 <= result.gamma <= 1.2405
    assert result.strict_improvement


def test_balance_orders_are_enforced():
    alice_pref = advantage(1.0, 0.5)
    bob_pref = advantage(0.75, 1.0)
    with pytest.raises(PreconditionError, match="alice"):
        balance(bob_pref, alice_pref)


def test_balance_zero_denominator():
    profile = advantage(0.75, 0.375)  # gamma_a == 1, gamma_b == 0.75
    with pytest.raises(PreconditionError, match="denominator"):
        balance(profile, profile)


def test_balance_non_strict_preference_reaches_min():
    # Alice is indifferent; the equalised value matches the better input.
    prof1 = advantage(0.9, 0.55)
    prof2 = advantage(0.9, 0.65)
    result = balance(prof1, prof2)
    assert not result.strict_improvement
    assert abs(result.gamma - min(prof1.gamma, prof2.gamma)) < 1e-12


@given(
    st.floats(min_value=1.0, max_value=4.0 / 3.0, exclude_min=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_balance_equalisation_and_improvement(gamma_a1, f1, f2, f3):
    # Build a valid opposing-preference pair directly: profile 1 is
    # Alice-dominant, profile 2 is Bob-dominant with weaker Alice leakage.
    gamma_b1 = 1.0 + f1 * (gamma_a1 - 1.0)
    gamma_b2 = gamma_b1 + f2 * (2.0 - gamma_b1)
    gamma_a2 = 1.0 + f3 * (min(gamma_a1, gamma_b2) - 1.0)
    assume(gamma_a1 - gamma_b1 > 1e-9)  # hairline gaps round the weight to 0 or 1
    assume(gamma_b2 - gamma_a2 > 1e-9)
    prof1 = advantage(gamma_a1 * 0.75, gamma_b1 * 0.5)
    prof2 = advantage(gamma_a2 * 0.75, gamma_b2 * 0.5)

    result = balance(prof1, prof2)
    # z_bias weights the second profile; the mixture equalises both parties.
    mixed_a = result.z_bias * prof2.gamma_a + (1.0 - result.z_bias) * prof1.gamma_a
    mixed_b = result.z_bias * prof2.gamma_b + (1.0 - result.z_bias) * prof1.gamma_b
    assert abs(mixed_a - mixed_b) < 1e-12
    assert abs(mixed_a - result.gamma) < 1e-12
    assert 0.0 < result.z_bias < 1.0
    assert result.gamma <= min(prof1.gamma, prof2.gamma) + 1e-12
    if result.strict_improvement:
        assert result.gamma < min(prof1.gamma, prof2.gamma) + 1e-12
    else:
        assert abs(result.gamma - min(prof1.gamma, prof2.gamma)) < 1e-9


# ---------------------------------------------------------------------------
# lower bound


def test_kitaev_bound_at_transfer_ideals():
    value = kitaev_min_advantage(0.75, 0.5)
    assert abs(value - (2.0 / 3.0) * (math.sqrt(7.0) - 1.0)) < 1e-12


def test_kitaev_bound_unit_ideals():
    # Oracle: quadratic formula on g^2 + g - 1 = 0, verified by substitution.
    oracle = (-1.0 + math.sqrt(1.0 + 4.0)) / 2.0
    assert abs(oracle * oracle + oracle - 1.0) < 1e-12
    assert abs(kitaev_min_advantage(1.0, 1.0) - oracle) < 1e-12


def test_kitaev_root_satisfies_defining_equality():
    for ideal_a, ideal_b in ((0.75, 0.5), (1.0, 1.0), (0.9, 0.3), (0.2, 0.8)):
        gamma = kitaev_min_advantage(ideal_a, ideal_b)
        product = (ideal_b * gamma) * (0.5 + 0.5 * ideal_a * gamma)
        assert abs(product - 0.5) < 1e-12
        a, b, c = kitaev_quadratic(ideal_a, ideal_b)
        assert (a, b, c) == (ideal_a * ideal_b, ideal_b, -1.0)
        assert abs(a * gamma * gamma + b * gamma + c) < 1e-12


@given(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=1.001, max_value=1.5),
)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_kitaev_bound_monotone_in_each_ideal(ideal_a, ideal_b, factor):
    base = kitaev_min_advantage(ideal_a, ideal_b)
    assert kitaev_min_advantage(min(ideal_a * factor, 1.0), ideal_b) <= base + 1e-12
    assert kitaev_min_advantage(ideal_a, min(ideal_b * factor, 1.0)) <= base + 1e-12


@given(st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_kitaev_root_keeps_its_closed_form_bit_for_bit(ideal_a, ideal_b):
    # With c = -1, b*b - 4ac is exactly b*b + 4a.
    quad = ideal_a * ideal_b
    closed = (-ideal_b + math.sqrt(ideal_b * ideal_b + 4.0 * quad)) / (2.0 * quad)
    assert kitaev_min_advantage(ideal_a, ideal_b).hex() == closed.hex()


def test_kitaev_bound_input_validation():
    with pytest.raises(ValidationError):
        kitaev_min_advantage(0.0, 0.5)
    with pytest.raises(ValidationError):
        kitaev_min_advantage(0.75, 1.5)


def test_check_kitaev_product():
    boundary = 1.0 / math.sqrt(2.0)
    assert check_kitaev_product(boundary, boundary)
    assert check_kitaev_product(0.5 + 0.5 * QUTRIT_PA, 0.75)
    assert not check_kitaev_product(0.6, 0.6)


@pytest.mark.parametrize("pair", [(-1.0, -1.0), (2.0, 0.3), (True, True), ("0.9", 0.6), (0.9, None), (0.9, 1.5)])
def test_check_kitaev_product_takes_only_probabilities(pair):
    # Out of range the product can still clear 1/2, and a bool or a string
    # must not reach it as a number or a TypeError.
    with pytest.raises(ValidationError, match="must lie in"):
        check_kitaev_product(*pair)


def test_coin_forcing_probs_of_a_profile():
    assert coin_forcing_probs(advantage(0.75, 0.5)) == (0.875, 0.5)


@pytest.mark.parametrize("value", [(0.75, 0.5), "x", None])
def test_profile_calculus_takes_only_profiles(value):
    # Anything but a CheatProfile raises ValidationError, not AttributeError.
    profile = advantage(0.75, 0.5)
    with pytest.raises(ValidationError, match="CheatProfile"):
        coin_forcing_probs(value)
    for pair in ((value, profile), (profile, value)):
        with pytest.raises(ValidationError, match="CheatProfile"):
            balance(*pair)


# ---------------------------------------------------------------------------
# headline reproduction


def test_headline_table_values():
    report = reproduce_headline_table()
    assert report.protocol_1_gamma == 2.0
    assert abs(report.protocol_2_gamma - 4.0 / 3.0) < 1e-12
    assert abs(report.theorem_1_gamma - 1.25) < 1e-12
    assert abs(report.lemma_2_profile.p_a_star - QUTRIT_PA) < 1e-7
    assert abs(report.lemma_2_profile.p_b_star - 0.75) < 1e-12
    assert report.lemma_2_profile.gamma == 1.5
    assert 1.2390 <= report.theorem_2_gamma <= 1.2405
    assert abs(report.theorem_3_bound - (2.0 / 3.0) * (math.sqrt(7.0) - 1.0)) < 1e-12
    assert report.interval == (report.theorem_3_bound, report.theorem_2_gamma)


def test_headline_table_meets_its_closed_forms():
    # Each figure against its closed form, to the last few bits: P_A* of
    # Lemma 2, the two balanced compositions and the Kitaev-type bound.
    report = reproduce_headline_table()
    sqrt2 = math.sqrt(2.0)
    assert abs(report.lemma_2_profile.p_a_star - (2.0 + sqrt2) / 4.0) <= 1e-12
    assert abs(report.theorem_1_gamma - 5.0 / 4.0) <= 1e-12
    assert abs(report.theorem_2_gamma - (48.0 + 2.0 * sqrt2) / 41.0) <= 1e-12
    assert abs(report.theorem_3_bound - 2.0 * (math.sqrt(7.0) - 1.0) / 3.0) <= 1e-12


def test_headline_dict_field_names():
    payload = reproduce_headline_table().to_dict()
    assert set(payload) == {
        "protocol_1_gamma",
        "protocol_2_gamma",
        "theorem_1_gamma",
        "lemma_2_profile",
        "theorem_2_gamma",
        "theorem_3_bound",
        "interval",
    }
    assert set(payload["lemma_2_profile"]) == {"p_a_star", "p_b_star", "gamma"}


def test_headline_consistency_gate(monkeypatch):
    monkeypatch.setattr(adversary, "bob_qutrit_cheat_prob", lambda: 0.80)
    with pytest.raises(ConsistencyError):
        reproduce_headline_table()
