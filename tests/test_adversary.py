import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from rotlab import adversary, linalg
from rotlab.adversary import (
    AmplitudeTriple,
    CheatStrategy,
    UnsupportedStrategyError,
    alice_qutrit_cheat_prob,
    alice_sequence_cheat_prob,
    bob_qutrit_cheat_prob,
    bob_sequence_cheat_prob,
    cheat_block,
    execute_cheat,
    optimize_alice_qutrit,
)
from rotlab.linalg import DERIVED_TOL, NumericError, ValidationError, helstrom_measurement
from rotlab.montecarlo import estimate_cheat
from rotlab.security import advantage, coin_forcing_probs

import oracle
from conftest import (
    assert_thresholds_pin,
    closed_form_objective,
    objective_vectors,
    random_triple,
    recording,
    strategy_tables,
)

BEST = (2.0 + math.sqrt(2.0)) / 4.0


def test_amplitude_triple_validation():
    AmplitudeTriple.balanced()
    with pytest.raises(ValidationError):
        AmplitudeTriple(0.5, 0.5, 0.5)
    with pytest.raises(ValidationError):
        AmplitudeTriple(-0.5, 0.5, math.sqrt(0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200, 1.0 + 1e-9, "a", 1j, True, None])
def test_amplitude_triple_rejects_non_finite_and_oversized(bad):
    with pytest.raises(ValidationError):
        AmplitudeTriple(bad, 0.0, 0.0)
    with pytest.raises(ValidationError):
        alice_qutrit_cheat_prob((bad, 0.0, 0.0))
    with pytest.raises(ValidationError):
        CheatStrategy("alice", "qutrit", {"triple": [0.0, 0.0, bad]})


@pytest.mark.parametrize("bad", [(0.5, 0.5), (0.5, 0.5, 0.5, 0.5), 5, None, np.float64(1.0), np.array(1.0)])
def test_non_triples_are_rejected(bad):
    with pytest.raises(ValidationError, match="triple must be a list of three amplitudes"):
        alice_qutrit_cheat_prob(bad)
    with pytest.raises(ValidationError, match="triple must be a list of three amplitudes"):
        CheatStrategy("alice", "qutrit", {"triple": bad})


@pytest.mark.parametrize(
    "triple",
    [
        AmplitudeTriple.balanced(),
        [0.5, 0.5, math.sqrt(0.5)],
        np.array([0.5, 0.5, math.sqrt(0.5)]),
        (Fraction(1, 2), Fraction(1, 2), math.sqrt(0.5)),
    ],
)
def test_triple_coercion_accepts_sequences_numpy_rows_and_fractions(triple):
    assert alice_qutrit_cheat_prob(triple) == alice_qutrit_cheat_prob(AmplitudeTriple.balanced())
    balanced = list(AmplitudeTriple.balanced().as_tuple())
    assert CheatStrategy("alice", "qutrit", {"triple": triple}).parameters == {"triple": balanced}


@pytest.mark.parametrize(
    "triple, floats",
    [
        (tuple(map(np.float64, AmplitudeTriple.balanced().as_tuple())), AmplitudeTriple.balanced().as_tuple()),
        (AmplitudeTriple(*map(np.float64, (0.6, 0.8, 0.0))), (0.6, 0.8, 0.0)),
        (np.array([0.36, 0.48, 0.8]), (0.36, 0.48, 0.8)),
        ((np.float32(0.5), np.float32(0.5), math.sqrt(0.5)), (0.5, 0.5, math.sqrt(0.5))),
        ((np.float32(0.0), np.float32(0.0), np.float32(1.0)), (0.0, 0.0, 1.0)),
        ((1, 0, 0), (1.0, 0.0, 0.0)),
        ((0, 0, 1), (0.0, 0.0, 1.0)),
        ([0.6, 0.0, 0.8], (0.6, 0.0, 0.8)),
    ],
    ids=["float64", "float64-triple", "float64-row", "float32-exact", "float32-unit", "ints", "ints-gamma", "list"],
)
def test_cheat_prob_is_the_python_float_of_the_float_triple(triple, floats):
    # The value converts each amplitude to a Python float first, so numpy
    # scalars, ints and lists give exactly the float triple's value, as a
    # Python float.
    value = alice_qutrit_cheat_prob(triple)
    assert type(value) is float and value == alice_qutrit_cheat_prob(AmplitudeTriple(*floats))


def test_cheat_prob_balanced_probe_hits_best_value():
    assert abs(alice_qutrit_cheat_prob(AmplitudeTriple.balanced()) - BEST) < 1e-12


def test_cheat_prob_degenerate_probes_give_coin_toss():
    assert abs(alice_qutrit_cheat_prob(AmplitudeTriple(1.0, 0.0, 0.0)) - 0.5) < 1e-12
    assert abs(alice_qutrit_cheat_prob(AmplitudeTriple(0.0, 0.0, 1.0)) - 0.5) < 1e-12
    assert alice_qutrit_cheat_prob((Fraction(1), 0, 0)) == 0.5  # any real numbers


def test_cheat_prob_equals_the_density_path_exactly(rng):
    triples = [AmplitudeTriple(*random_triple(rng)) for _ in range(2000)]
    triples += [AmplitudeTriple(1.0, 0.0, 0.0), AmplitudeTriple(0.0, 1.0, 0.0), AmplitudeTriple(0.0, 0.0, 1.0)]
    triples += [AmplitudeTriple.balanced()]
    triples += [optimize_alice_qutrit(tolerance)[0] for tolerance in (1e-3, 1e-6, 1e-9)]
    for triple in triples:
        value = alice_qutrit_cheat_prob(triple)
        assert type(value) is float and value == oracle.alice_qutrit_cheat_prob(triple), triple


def _coupled_levels() -> np.ndarray:
    # True on the 2 x 2 block of the levels each pattern couples, per p.
    levels = [np.isin(np.arange(3), coupled) for _, coupled in adversary._BLOCK_TERMS]
    return np.array([rows[:, None] & rows[None, :] for rows in levels])


def _on_coupled_levels(operators: np.ndarray) -> np.ndarray:
    # The (..., 2, 2, 2) blocks of a (..., 2, 3, 3) stack on the coupled levels.
    return operators[..., _coupled_levels()].reshape(operators.shape[:-3] + (2, 2, 2))


def test_operators_equal_the_density_path_exactly(rng):
    # Each operator the strategy measures must be the density path's
    # 0.5 rho_0 - 0.5 rho_1, real, and exactly symmetric.
    for row in objective_vectors(rng):
        operators = adversary._qutrit_cheat_operators(row)
        assert operators.shape == (2, 3, 3), row
        assert np.array_equal(operators, operators.swapaxes(-1, -2)), row
        reference = oracle.qutrit_cheat_operators(AmplitudeTriple(*row))
        assert np.array_equal(operators, reference.real) and not reference.imag.any(), row


def test_blocks_are_the_density_path_on_the_coupled_levels(rng):
    # Each block goes to trace_norm_2x2 unchecked: it must be the density
    # path's operator on the two levels its pattern couples, real, and
    # exactly symmetric, and the operator must vanish on every other entry,
    # so the block's trace norm is the operator's.  A value hands
    # trace_norm_2x2 each block's lower triangle as Python floats, whatever
    # the amplitudes' type.
    assert [levels for _, levels in adversary._BLOCK_TERMS] == [(0, 2), (1, 2)]
    assert all(type(entry) is float for terms, _ in adversary._BLOCK_TERMS for entry in terms)
    coupled = _coupled_levels()
    for row in objective_vectors(rng):
        operators = adversary._qutrit_cheat_operators(row)
        blocks = _on_coupled_levels(operators)
        assert np.array_equal(blocks, blocks.swapaxes(-1, -2)) and not operators[~coupled].any(), row
        reference = oracle.qutrit_cheat_operators(AmplitudeTriple(*row))
        assert not reference.imag.any() and not reference[~coupled].any(), row
        assert np.array_equal(blocks, _on_coupled_levels(reference.real)), row
        with mock.patch.object(adversary, "trace_norm_2x2", wraps=linalg.trace_norm_2x2) as normed:
            alice_qutrit_cheat_prob(row)
        lower = [call.args for call in normed.call_args_list]
        assert all(type(entry) is float for args in lower for entry in args), row
        assert lower == [(block[0, 0], block[1, 0], block[1, 1]) for block in blocks], row


def test_the_ascent_splits_the_operators_the_strategy_measures(rng):
    # Each ascent step hands positive_parts exactly the builder's operators
    # of the probe sqrt(w), the density path's, so the ascent, the strategy
    # and the value read one builder.
    for row in objective_vectors(rng):
        weights = row**2
        with recording(adversary, "positive_parts") as split, np.errstate(divide="ignore", invalid="ignore"):
            adversary._qutrit_step(weights)
        ((operators, _),) = split
        assert np.array_equal(operators, adversary._qutrit_cheat_operators(np.sqrt(weights))), row
        reference = oracle.qutrit_cheat_operators(AmplitudeTriple(*np.sqrt(weights)))
        assert np.array_equal(operators, reference.real), row


def test_entangled_probes_reach_their_reduced_triple(rng):
    # Bob's phase encoding acts on the qutrit he receives, the second factor
    # of C^3 (x) C^3, so the encoded Gram matrix depends only on the diagonal
    # of his reduced state: any entangled probe reaches exactly the objective
    # of the triple sqrt(diag rho_B), and the real nonnegative triples lose
    # no generality.
    for _ in range(300):
        raw = rng.normal(size=9) + 1j * rng.normal(size=9)
        probe = oracle.pure_state(raw / np.linalg.norm(raw))
        encoded = {
            (x0, x1): oracle.pure_state(np.kron(np.eye(3), np.diag(oracle.encoding_signs(x0, x1))) @ probe)
            for x0 in (0, 1)
            for x1 in (0, 1)
        }
        rho_b = oracle.partial_trace(oracle.mixture([(1.0, probe)]), 3, 3, keep="B")
        triple = AmplitudeTriple(*map(float, np.sqrt(np.diag(rho_b).real)))
        assert abs(oracle.probe_cheat_prob(encoded) - alice_qutrit_cheat_prob(triple)) < 1e-12


def test_cheat_prob_matches_closed_form(rng):
    for _ in range(150):
        triple = AmplitudeTriple(*random_triple(rng))
        density_path = alice_qutrit_cheat_prob(triple)
        assert abs(density_path - closed_form_objective(*triple.as_tuple())) < 1e-10


def test_cheat_prob_is_the_closed_form_to_the_last_bits(rng):
    # The eigensolver path against the closed form 1/2 + (alpha + beta)
    # gamma_amp / 2 on 2000 random triples: not bit for bit, but within an
    # ulp or so of the value.
    for _ in range(2000):
        triple = random_triple(rng)
        assert abs(alice_qutrit_cheat_prob(triple) - closed_form_objective(*triple)) <= 1e-15, triple


def test_cheat_prob_symmetric_in_alpha_beta(rng):
    # Swapping alpha and beta swaps the two trace norms, and a sum of two
    # floats does not depend on their order.
    for _ in range(25):
        alpha, beta, gamma_amp = random_triple(rng)
        value = alice_qutrit_cheat_prob(AmplitudeTriple(alpha, beta, gamma_amp))
        swapped = alice_qutrit_cheat_prob(AmplitudeTriple(beta, alpha, gamma_amp))
        assert value == swapped


def test_optimizer_finds_the_maximum():
    triple, value = optimize_alice_qutrit(1e-9)
    assert abs(value - BEST) < 1e-8
    assert abs(triple.alpha - 0.5) < 1e-4
    assert abs(triple.beta - 0.5) < 1e-4
    assert abs(triple.gamma_amp - math.sqrt(0.5)) < 1e-4


@pytest.mark.parametrize(
    "tolerance, triple",
    [
        (1e-3, (0.5, 0.5, 0.7071067811865476)),
        (1e-6, (0.5, 0.5, 0.7071067811865476)),
        (1e-9, (0.5, 0.5, 0.7071067811865476)),
        (1e-12, (0.5, 0.5, 0.7071067811865476)),
    ],
)
def test_optimum_is_pinned_at_full_precision(tolerance, triple):
    # The CLI's pinned JSON keeps 6 decimals; a change to the search or the
    # evaluator that moves the optimum by one ulp shows here.  One update
    # from uniform weights lands on w = (1/4, 1/4, 1/2) exactly.
    found, value = optimize_alice_qutrit(tolerance)
    assert value == 0.8535533905932737
    assert found.as_tuple() == triple


def test_optimizer_value_is_the_density_path_at_its_triple():
    for tolerance in (1e-3, 1e-6, 1e-9):
        triple, value = optimize_alice_qutrit(tolerance)
        assert value == alice_qutrit_cheat_prob(triple)


def test_optimizer_dominates_grid_oracle():
    # Independent brute force through the closed form on a coarse grid.
    _, value = optimize_alice_qutrit(1e-9)
    angles = np.linspace(0.0, np.pi / 2.0, 300)
    tt, ff = np.meshgrid(angles, angles, indexing="ij")
    oracle = closed_form_objective(np.sin(tt) * np.cos(ff), np.sin(tt) * np.sin(ff), np.cos(tt))
    assert value >= oracle.max() - 1e-9


def test_qutrit_objective_takes_one_eigensolve_per_evaluation(monkeypatch):
    # No eigensolve per value, one stacked eigh per ascent step, and no
    # measurement built on the way.
    calls = []

    def recording(name, function):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return function(a, *args, **kwargs)

        return wrapper

    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"), (linalg, "projective_measurement")):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    alice_qutrit_cheat_prob(AmplitudeTriple.balanced())
    # The 2 x 2 blocks' trace norms are taken in closed form.
    assert calls == []
    # The ascent takes the full 3 x 3 operators: one update from uniform
    # weights lands on the optimum, and one more step certifies it.
    for tolerance in (1e-3, 1e-6, 1e-9, 1e-12):
        calls.clear()
        optimize_alice_qutrit.__wrapped__(tolerance)  # past the cache
        assert calls == [("eigh", (2, 3, 3))] * 2, tolerance


def test_qutrit_value_builds_no_numpy_array(monkeypatch):
    # A value's blocks and trace norms are Python floats: with numpy out of
    # reach of adversary and linalg, it still gives the same floats.
    triples = [AmplitudeTriple.balanced(), (0.6, 0.8, 0.0), (1, 0, 0)]
    expected = [alice_qutrit_cheat_prob(triple) for triple in triples]
    for module in (adversary, linalg):
        monkeypatch.setattr(module, "np", None)
    assert [alice_qutrit_cheat_prob(triple) for triple in triples] == expected


def test_analytic_values_take_one_eigensolve_each(monkeypatch):
    # Bob's qutrit value and the stored-state values are trace norms of
    # operators built from arrays valid by construction: one eigvalsh each,
    # and no eigensolve to check the states they mix.
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    bob_qutrit_cheat_prob()
    alice_sequence_cheat_prob(0)
    alice_sequence_cheat_prob(1)
    assert shapes == [(3, 3), (4, 4), (4, 4)]


def test_ascent_certifies_the_optimum():
    # At its final weights the split S_p = A_p - B_p holds exactly, both
    # parts are PSD, and the bound it proves meets the value returned.
    triple, value = optimize_alice_qutrit(1e-12)
    weights = np.array(triple.as_tuple()) ** 2
    assert np.max(np.abs(weights - [0.25, 0.25, 0.5])) <= 1e-9
    upper, lower, bound = adversary._qutrit_certificate(weights)
    assert np.array_equal(upper - lower, adversary._SIGN_PATTERNS)
    for part in (*upper, *lower):
        assert np.array_equal(part, part.T)
        assert np.linalg.eigvalsh(part).min() >= -DERIVED_TOL
    # The bound is max_i avg_p (A_p + B_p)_ii, read off the split itself.
    assert bound == 0.5 + 0.5 * np.diagonal(upper + lower, axis1=-2, axis2=-1).mean(axis=0).max()
    assert value == BEST and 0.0 <= bound - value <= 1e-12


def test_every_certificate_bounds_every_probe(rng):
    # Weak duality: the split at any weights bounds the value of every probe,
    # the optimum's included.
    triples = np.array([random_triple(rng) for _ in range(2000)])
    closed = closed_form_objective(*triples.T)
    bounds = [adversary._qutrit_certificate(triple**2)[2] for triple in triples]
    assert min(bounds) >= max(closed.max(), BEST)
    optimum = np.array(optimize_alice_qutrit(1e-12)[0].as_tuple())
    assert adversary._qutrit_certificate(optimum**2)[2] >= closed.max()


def test_an_ascent_that_never_certifies_raises_within_its_cap(monkeypatch):
    # A step whose bound stays 1/3 above its value: the search must give up
    # after _ASCENT_STEPS steps rather than run on.
    steps = []

    def stuck(weights):
        steps.append(weights)
        return None, 1.0 + (np.arange(3) == weights.argmin())

    monkeypatch.setattr(adversary, "_qutrit_step", stuck)
    with pytest.raises(NumericError, match="did not certify"):
        optimize_alice_qutrit.__wrapped__(1e-9)
    assert len(steps) == adversary._ASCENT_STEPS


def test_optimizer_tolerance_validation():
    for bad in (0.0, 1e-2, math.nan, None, "1e-4", True):
        with pytest.raises(ValidationError):
            optimize_alice_qutrit(bad)


def test_optimized_value_beats_honest_floor():
    _, value = optimize_alice_qutrit(1e-6)
    assert value >= 0.75


def test_bob_qutrit_cheat_prob_exact():
    assert abs(bob_qutrit_cheat_prob() - 0.75) < 1e-12


@pytest.mark.parametrize(
    "operator, value",
    [
        (adversary._BOB_QUTRIT_OPERATOR, bob_qutrit_cheat_prob),
        (adversary._SEQUENCE_OPERATORS[0], lambda: alice_sequence_cheat_prob(0)),
        (adversary._SEQUENCE_OPERATORS[1], lambda: alice_sequence_cheat_prob(1)),
    ],
    ids=["bob-qutrit", "alice-sequence-0", "alice-sequence-1"],
)
def test_helstrom_measurement_attains_the_trace_norm_value(operator, value):
    # Guessing b from outcome b of the Helstrom measurement of
    # 0.5 rho_0 - 0.5 rho_1 succeeds with 1/2 + tr(Pi_0 (0.5 rho_0 -
    # 0.5 rho_1)), which must be the value the trace norm gives: the
    # measurement is optimal, not only bounded by it.
    projectors = helstrom_measurement(operator)
    assert abs(0.5 + np.trace(projectors[0] @ operator).real - value()) <= 1e-12


def test_bob_discrimination_sanity_hook():
    # Identical reduced states carry no information.
    rho = oracle.mixture([(0.5, oracle.basis_state(3, 0)), (0.5, oracle.basis_state(3, 2))])
    assert abs(oracle.helstrom_prob(0.5, rho, 0.5, rho) - 0.5) < 1e-12


def test_alice_sequence_cheat_prob_both_variants():
    assert abs(alice_sequence_cheat_prob() - BEST) < 1e-12
    assert abs(alice_sequence_cheat_prob(declared_bit=1) - BEST) < 1e-12
    assert alice_sequence_cheat_prob(np.int64(1)) == alice_sequence_cheat_prob(1)
    for bad in (2, 1.0, "1", None, True):
        with pytest.raises(ValidationError):
            alice_sequence_cheat_prob(declared_bit=bad)


def test_sequence_degenerate_single_state_mixtures():
    rho0, rho1 = (oracle.mixture([(1.0, oracle.basis_state(4, k))]) for k in (0, 3))
    assert abs(oracle.helstrom_prob(0.5, rho0, 0.5, rho1) - 1.0) < 1e-12


def test_bob_sequence_limit_constant():
    assert bob_sequence_cheat_prob() == 0.75


def test_coin_forcing_probs_examples():
    qutrit = advantage(math.cos(math.pi / 8.0) ** 2, 0.75)
    p_a0, p_b0 = coin_forcing_probs(qutrit)
    assert abs(p_a0 - 0.926777) < 1e-6
    assert abs(p_b0 - 0.75) < 1e-12

    ideal = advantage(0.75, 0.5)
    assert coin_forcing_probs(ideal) == (0.875, 0.5)

    broken = advantage(1.0, 1.0)
    assert coin_forcing_probs(broken) == (1.0, 1.0)


def test_coin_forcing_probs_affine(rng):
    for _ in range(25):
        p_a = float(rng.uniform(0.0, 1.0))
        p_b = float(rng.uniform(0.0, 1.0))
        p_a0, p_b0 = coin_forcing_probs(advantage(p_a, p_b))
        assert p_a0 == 0.5 + 0.5 * p_a
        assert p_b0 == p_b


# ---------------------------------------------------------------------------
# strategies


def test_strategy_validation():
    with pytest.raises(UnsupportedStrategyError):
        CheatStrategy("bob", "sequence")
    with pytest.raises(UnsupportedStrategyError):
        CheatStrategy("alice", "bad_classical")
    with pytest.raises(ValidationError):
        CheatStrategy("alice", "qutrit", {"tripple": [0.5, 0.5, 0.5]})
    with pytest.raises(ValidationError):
        CheatStrategy("alice", "qutrit", {"triple": [0.5, 0.5]})
    with pytest.raises(ValidationError):
        CheatStrategy("alice", "qutrit", {"triple": [0.9, 0.9, 0.9]})
    with pytest.raises(ValidationError):
        CheatStrategy("alice", "sequence", {"n_states": 2})
    for n_states in ("four", 4.5, True, 2**16 + 1):
        with pytest.raises(ValidationError):
            CheatStrategy("alice", "sequence", {"n_states": n_states})
    with pytest.raises(ValidationError, match="n_states must be an integer"):
        CheatStrategy("alice", "sequence", {"n_states": 4.0})
    with pytest.raises(ValidationError, match="must be a CheatStrategy"):
        execute_cheat("alice/qutrit", 1)


def test_strategy_equality_and_defaults():
    balanced = list(AmplitudeTriple.balanced().as_tuple())
    assert CheatStrategy("alice", "qutrit", {"triple": balanced}) == CheatStrategy(
        "alice", "qutrit", {"triple": balanced}
    )
    assert CheatStrategy("bob", "qutrit") != CheatStrategy("bob", "coinflip")


def _strategy_cases(triples):
    # Every strategy with its default parameters, the two Alice qutrit
    # strategies at each probe triple (None is the default probe).
    cases = [(("alice", "sequence"), {}), (("bob", "qutrit"), {}), (("bob", "coinflip"), {})]
    for triple in triples:
        params = {} if triple is None else {"triple": triple}
        cases += [(("alice", protocol), params) for protocol in ("qutrit", "coinflip")]
    assert {key for key, _ in cases} == set(adversary._STRATEGIES)
    return cases


def test_cheat_born_tables_equal_one_state_references(rng):
    # The stacked table each strategy factory cumulates holds exactly (==)
    # the floats the one-state formula gives, for the default probe, the
    # edge probes and 120 random ones.
    triples = [None, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    triples += [list(random_triple(rng)) for _ in range(120)]
    references = {("alice", "sequence"): oracle.alice_sequence_weights(), ("bob", "qutrit"): oracle.bob_qutrit_weights()}
    references["bob", "coinflip"] = references["bob", "qutrit"]
    for key, params in _strategy_cases(triples):
        weights, _ = strategy_tables(key, params)
        reference = references[key] if key[0] == "bob" or key[1] == "sequence" else oracle.alice_qutrit_weights(params)
        assert np.array_equal(weights, reference), (key, params)


def test_cheat_threshold_tables_pin_their_born_tables(rng):
    # Each strategy factory builds one threshold table, which pins the Born
    # table it was built from, for the default probe, the edge probes and
    # 20 random ones.
    triples = [None, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    triples += [list(random_triple(rng)) for _ in range(20)]
    for key, params in _strategy_cases(triples):
        assert_thresholds_pin(*strategy_tables(key, params))


def _analytic_values(key, params):
    # A strategy's analytic values, one per call.
    if key[0] == "bob":
        return [bob_qutrit_cheat_prob()]
    if key[1] == "sequence":
        return [alice_sequence_cheat_prob(bit) for bit in (0, 1)]
    return [alice_qutrit_cheat_prob(AmplitudeTriple.coerce(params.get("triple", AmplitudeTriple.balanced())))]


def test_each_strategy_measures_the_operators_its_value_takes_the_trace_norms_of(rng):
    # Each analytic value is the mean Helstrom value of the operators it
    # takes the trace norms of, one per classical context, and its strategy
    # measures the Helstrom measurements of those very operators.  The two
    # tests above tie the thresholds it samples from to their Born weights.
    triples = [None, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.8, 0.0]]
    triples += [list(optimize_alice_qutrit(tolerance)[0].as_tuple()) for tolerance in (1e-3, 1e-9)]
    triples += [list(random_triple(rng)) for _ in range(10)]
    for key, params in _strategy_cases(triples):
        with recording(adversary, "_helstrom_weights") as measured:
            adversary._STRATEGIES[key][1](CheatStrategy(*key, params).parameters)
        ((operators, _),) = measured
        if key[0] == "alice" and key[1] != "sequence":
            # Alice's qutrit values take the trace norms of the blocks on the
            # levels each pattern couples, one closed-form call per block
            # on its lower triangle; her operators vanish elsewhere.
            with mock.patch.object(adversary, "trace_norm_2x2", wraps=linalg.trace_norm_2x2) as normed:
                values = _analytic_values(key, params)
            lower = [call.args for call in normed.call_args_list]
            blocks = _on_coupled_levels(operators)
            assert lower == [(block[0, 0], block[1, 0], block[1, 1]) for block in blocks], (key, params)
            assert np.array_equal(blocks, blocks.swapaxes(-1, -2)), (key, params)
            assert not operators[..., ~_coupled_levels()].any(), (key, params)
            norms = [np.array([linalg.trace_norm_2x2(*args) for args in lower])]
        else:
            with recording(adversary, "trace_norms") as normed:
                values = _analytic_values(key, params)
            d = operators.shape[-1]
            assert np.array_equal(np.concatenate([ops.reshape(-1, d, d) for ops, _ in normed]), operators), key
            norms = [norm for _, norm in normed]
        assert values == [float(np.mean(0.5 * (1.0 + norm))) for norm in norms], (key, params)


def test_every_strategy_has_a_block_form():
    for (party, protocol), (_, block) in adversary._STRATEGIES.items():
        assert callable(block), (party, protocol)
        assert callable(cheat_block(CheatStrategy(party, protocol)))


def test_execute_cheat_is_deterministic_per_seed():
    strategy = CheatStrategy("alice", "qutrit")
    outcomes = [execute_cheat(strategy, seed) for seed in range(40)]
    assert outcomes == [execute_cheat(strategy, seed) for seed in range(40)]
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize(
    "strategy,target",
    [
        (CheatStrategy("alice", "qutrit"), BEST),
        (CheatStrategy("alice", "qutrit", {"triple": [1.0, 0.0, 0.0]}), 0.5),
        (CheatStrategy("bob", "qutrit"), 0.75),
        (CheatStrategy("alice", "sequence", {"n_states": 4}), BEST),
        (CheatStrategy("alice", "coinflip"), 0.5 + 0.5 * BEST),
        (CheatStrategy("bob", "coinflip"), 0.75),
    ],
)
def test_strategy_success_rates_sample(strategy, target):
    report = estimate_cheat(strategy, 4000, seed=97, target=target)
    assert abs(report.z_score) < 3.0
