import math

import numpy as np
import pytest

import oracle
from rotlab import adversary, protocols
from rotlab.linalg import (
    DERIVED_TOL,
    ComplexMatrix,
    DimensionError,
    NumericError,
    ValidationError,
    _hermitian_eigh,
    helstrom_measurement,
    hermitian_eigenvalues,
    positive_parts,
    projections,
    projective_measurement,
    sampling_thresholds,
    trace_norm_2x2,
    trace_norms,
)

from conftest import (
    assert_thresholds_pin,
    charpoly_eigenvalues,
    objective_vectors,
    random_density,
    random_hermitian,
    random_unitary,
    threshold_outcomes,
)
from oracle import (
    basis_state,
    bob_qutrit_measurement,
    born_weights,
    encoding_unitary,
    helstrom_prob,
    helstrom_projectors,
    invert_cumulative,
    lift_to_bob,
    measure,
    measure_pure,
    mixture,
    partial_trace,
    pure_state,
    trace_norm,
)

SQRT_HALF = math.sqrt(0.5)


def density(psi):
    return mixture([(1.0, psi)])


def basis_projector(dim, index):
    return density(basis_state(dim, index))


def entangled_pair(a):
    amps = np.zeros(9)
    amps[3 * a + a] = SQRT_HALF
    amps[8] = SQRT_HALF
    return pure_state(amps)


def assert_close(a, b):
    assert np.max(np.abs(np.asarray(a) - b)) <= 1e-12


def assert_rejected(error, rho, other=None):
    # Both Helstrom functions of the reference density path reject the state
    # rho with ``error``, in either position, against a valid state of its
    # dimension or ``other``.
    rho = np.asarray(rho, dtype=complex)
    if other is None:
        other = np.eye(len(rho)) / len(rho)
    for function in (helstrom_prob, helstrom_projectors):
        for pair in ((rho, other), (other, rho)):
            with pytest.raises(error):
                function(0.5, pair[0], 0.5, pair[1])


# ---------------------------------------------------------------------------
# construction invariants


def test_matrix_dimension_bounds():
    with pytest.raises(DimensionError):
        ComplexMatrix(np.zeros((17, 3)))
    with pytest.raises(ValidationError):
        ComplexMatrix(np.zeros(4))
    ComplexMatrix(np.zeros((16, 16)))  # boundary accepted


def test_matrix_data_is_immutable():
    # So are the matrices the package hands out.
    for data in (ComplexMatrix(np.eye(2)).data, protocols._QUTRIT_THRESHOLDS, protocols._QUBIT_BASES):
        with pytest.raises(ValueError):
            data[0, 0] = 5.0


def test_pure_state_norm_validated():
    # A pure state enters the density path as its projector; one of norm 2
    # has trace 2, which the Helstrom checks reject.
    assert_rejected(ValidationError, np.ones((2, 2)))
    plus = density(pure_state([SQRT_HALF, SQRT_HALF]))
    assert helstrom_prob(0.5, plus, 0.5, basis_projector(2, 0)) > 0.5


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    # The Helstrom checks, a measurement and ComplexMatrix take only finite
    # entries.
    with np.errstate(invalid="ignore"):
        projector = np.outer([bad, 0.0], [bad, 0.0])
    with pytest.raises(ValidationError, match="finite"):
        helstrom_prob(0.5, projector, 0.5, basis_projector(2, 1))
    with pytest.raises(ValidationError, match="finite"):
        projective_measurement((projector, basis_projector(2, 1)))
    with pytest.raises(ValidationError, match="finite"):
        ComplexMatrix(projector)
    with pytest.raises(ValidationError, match="finite"):
        ComplexMatrix(np.array([[1.0, complex(0.0, bad)], [0.0, 1.0]]))


def test_density_matrix_validation():
    # Each Helstrom function of the density path checks each state it is
    # given.
    assert_rejected(ValidationError, [[0.5, 0.1], [0.3, 0.5]])  # not Hermitian
    assert_rejected(ValidationError, [[0.7, 0.0], [0.0, 0.7]])  # trace != 1
    assert_rejected(ValidationError, [[1.5, 0.0], [0.0, -0.5]])  # negative eigenvalue
    assert_rejected(DimensionError, [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])  # not square
    assert_rejected(DimensionError, basis_projector(3, 0), basis_projector(2, 0))  # mismatched
    assert_rejected(DimensionError, np.eye(17) / 17)  # above 16
    half = np.eye(2) / 2.0
    assert helstrom_prob(0.5, half, 0.5, half) == 0.5
    assert np.array_equal(helstrom_projectors(0.5, half, 0.5, half)[0], np.eye(2))


def test_mixture_weights_validated():
    # A mixture whose weights do not sum to 1 has that trace, and a NaN
    # weight a non-finite entry; an empty one has no dimension.
    state = basis_state(2, 0)
    assert_rejected(ValidationError, mixture([(0.7, state), (0.7, state)]))
    assert_rejected(ValidationError, mixture([(math.nan, state), (1.0, state)]))
    assert_rejected(ValidationError, mixture([(math.nan, state)]))
    assert_rejected(DimensionError, np.zeros((0, 0)), np.eye(2) / 2.0)
    with pytest.raises(ValidationError):
        ComplexMatrix(np.zeros((0, 0)))


# ---------------------------------------------------------------------------
# tensor products: the two-qubit and two-qutrit lifts


def test_kron_identity():
    assert np.array_equal(encoding_unitary(0, 0), np.eye(9))
    lifted = lift_to_bob(bob_qutrit_measurement())
    assert np.array_equal(lifted.sum(axis=0), np.eye(9))


def test_kron_basis_projectors():
    # Indexed (qubit, basis, outcome), 0 for Z and 1 for X.
    assert np.array_equal(protocols._QUBIT_LIFTS[0, 0, 0], np.diag([1.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(protocols._QUBIT_LIFTS[1, 0, 1], np.diag([0.0, 1.0, 0.0, 1.0]))
    assert np.array_equal(encoding_unitary(1, 0), np.diag(np.tile([-1.0, 1.0, 1.0], 3)))


def test_kron_dimension_overflow():
    five = np.eye(5)
    with pytest.raises(DimensionError):
        ComplexMatrix(np.kron(five, five))  # 25 > 16
    with pytest.raises(DimensionError):
        projective_measurement([np.kron(five, five)])
    ComplexMatrix(np.kron(np.eye(4), np.eye(4)))  # 16 accepted
    assert projective_measurement([np.kron(np.eye(4), np.eye(4))]).shape == (1, 16, 16)


def test_kron_mixed_product_property():
    # A lifted projector of qubit 1 times one of qubit 2 is their tensor
    # product, in either order.
    single, lifts = protocols._QUBIT_BASES, protocols._QUBIT_LIFTS
    for b1, b2, j, k in np.ndindex(2, 2, 2, 2):
        product = np.kron(single[b1, j], single[b2, k])
        lifted1, lifted2 = lifts[0, b1, j], lifts[1, b2, k]
        assert np.max(np.abs(lifted1 @ lifted2 - product)) < 1e-15
        assert np.max(np.abs(lifted2 @ lifted1 - product)) < 1e-15


def test_measurements_equal_the_oracle_derivations():
    # Alice's Z and X measurements, one qubit and lifted to each qubit of
    # the pair, and her qutrit checks, against the oracle's own.
    for basis, name in enumerate("ZX"):
        assert np.array_equal(protocols._QUBIT_BASES[basis], oracle.QUBIT_MEASUREMENTS[name]), name
        for qubit, lifted in enumerate((oracle.QUBIT1, oracle.QUBIT2)):
            assert np.array_equal(protocols._QUBIT_LIFTS[qubit, basis], lifted[name]), (qubit, name)
    assert np.array_equal(protocols.QUTRIT_CHECKS, oracle.QUTRIT_CHECKS)


# ---------------------------------------------------------------------------
# partial trace: Bob's reduced qutrit states and the reference


def test_partial_trace_entangled_probe():
    # Bob's operator 0.5 rho_0 - 0.5 rho_1 mixes the rows of Alice's probe:
    # the partial trace over her qutrit, summed one index at a time here.
    operator = adversary._BOB_QUTRIT_OPERATOR
    assert not operator.flags.writeable
    assert np.max(np.abs(operator - np.diag([0.25, -0.25, 0.0]))) < 1e-15
    # Bob's Born weights sum over those rows, so each reduced state is
    # checked against the test's own probe, not only their difference.
    reference = [partial_trace(density(protocols.QUTRIT_PROBES[a]), 3, 3, keep="B") for a in (0, 1)]
    assert np.max(np.abs(np.array(reference) - [np.diag([0.5, 0.0, 0.5]), np.diag([0.0, 0.5, 0.5])])) < 1e-15
    assert np.array_equal(operator, 0.5 * reference[0] - 0.5 * reference[1])
    approximate = [partial_trace(density(entangled_pair(a)), 3, 3, keep="B") for a in (0, 1)]
    for a in (0, 1):
        assert np.max(np.abs(approximate[a] - reference[a])) < 1e-12, a


def test_partial_trace_product_state(rng):
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 3)
    joint = np.kron(rho_a, rho_b)
    assert np.max(np.abs(partial_trace(joint, 2, 3, keep="A") - rho_a)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, 2, 3, keep="B") - rho_b)) < 1e-12


def test_partial_trace_maximally_entangled():
    bell = pure_state([SQRT_HALF, 0.0, 0.0, SQRT_HALF])
    reduced = partial_trace(density(bell), 2, 2, keep="B")
    assert np.max(np.abs(reduced - np.eye(2) / 2.0)) < 1e-12


def test_partial_trace_preserves_trace(rng):
    for _ in range(25):
        rho = random_density(rng, 6)
        for keep, dims in (("A", (2, 3)), ("B", (3, 2))):
            reduced = partial_trace(rho, dims[0], dims[1], keep)
            assert abs(np.trace(reduced) - 1.0) < 1e-10


def test_partial_trace_dimension_mismatch():
    rho = np.eye(4) / 4.0
    with pytest.raises(DimensionError):
        partial_trace(rho, 3, 2, keep="A")
    with pytest.raises(ValidationError):
        partial_trace(rho, 2, 2, keep="C")


# ---------------------------------------------------------------------------
# eigenvalues and trace norm


def test_eigenvalues_diagonal_sorted():
    w = hermitian_eigenvalues(ComplexMatrix(np.diag([3.0, -1.0, 0.0])))
    assert np.allclose(w, [-1.0, 0.0, 3.0], atol=1e-14)


def test_eigenvalues_phase_encoded_difference():
    # Difference of the two permutation-0 mixtures at the balanced probe:
    # a single off-diagonal pair of size 2 * alpha * gamma = 1/sqrt(2).
    delta = np.array(
        [
            [0.0, 0.0, SQRT_HALF],
            [0.0, 0.0, 0.0],
            [SQRT_HALF, 0.0, 0.0],
        ]
    )
    w = hermitian_eigenvalues(ComplexMatrix(delta))
    assert np.allclose(w, [-SQRT_HALF, 0.0, SQRT_HALF], atol=1e-13)
    assert abs(trace_norm(delta) - math.sqrt(2.0)) < 1e-13


def test_eigenvalues_match_charpoly_oracle(rng):
    for _ in range(15):
        h = random_hermitian(rng, 4)
        w = hermitian_eigenvalues(ComplexMatrix(h))
        assert abs(w.sum() - np.trace(h).real) < 1e-10
        oracle = charpoly_eigenvalues(h)
        assert np.max(np.abs(w - oracle)) < 1e-7


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValidationError):
        hermitian_eigenvalues(ComplexMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(ValidationError):
        hermitian_eigenvalues(ComplexMatrix(np.zeros((2, 3))))
    with pytest.raises(ValidationError):
        trace_norm([[0.0, 1.0], [0.0, 0.0]])


def test_eigenvalues_reproduce_trace_and_frobenius(rng):
    for dim in (2, 3, 5, 9, 16):
        h = random_hermitian(rng, dim)
        w = hermitian_eigenvalues(ComplexMatrix(h))
        assert abs(w.sum() - np.trace(h).real) < 1e-9
        assert abs((w**2).sum() - np.linalg.norm(h) ** 2) < 1e-9


def test_eigvalsh_matches_lapack(rng):
    for dim in (2, 3, 4, 9, 16):
        h = random_hermitian(rng, dim)
        w = hermitian_eigenvalues(ComplexMatrix(h))
        assert np.max(np.abs(w - np.linalg.eigvalsh(h))) < 1e-12


def test_trace_norms_equal_trace_norm_row_by_row(rng):
    # The stacked trace norms against the reference's, one matrix and one
    # eigvalsh call at a time.
    for dim in (2, 3, 4, 9, 16):
        stack = np.array([random_hermitian(rng, dim) for _ in range(6)]).reshape(2, 3, dim, dim)
        norms = trace_norms(stack)
        assert norms.shape == (2, 3)
        for index in np.ndindex(2, 3):
            assert norms[index] == trace_norm(stack[index]), (dim, index)


def _random_blocks(rng, kind: str, count: int) -> list[tuple[float, complex, float]]:
    # ``count`` 2 x 2 Hermitian blocks ((a, conj b), (b, d)) of one kind as
    # (a, b, d), with entries spread over 16 orders of magnitude.
    blocks = []
    for _ in range(count):
        scale = 10.0 ** int(rng.integers(-8, 9))
        if kind == "indefinite":
            a, d = rng.normal(size=2)
            b = complex(*rng.normal(size=2))
        elif kind == "real":
            a, b, d = rng.normal(size=3).tolist()
        elif kind in ("definite", "singular"):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if kind == "singular":
                g[:, 1] = 0.0
            m = rng.choice([-1.0, 1.0]) * (g @ g.conj().T)
            a, b, d = m[0, 0].real, m[1, 0], m[1, 1].real
        elif kind == "diagonal":
            (a, d), b = rng.normal(size=2), 0.0
        else:
            a = b = d = 0.0
        blocks.append((float(a) * scale, b * scale, float(d) * scale))
    return blocks


@pytest.mark.parametrize("kind", ["indefinite", "real", "definite", "singular", "diagonal", "zero"])
def test_trace_norm_2x2_agrees_with_trace_norms(rng, kind):
    # The closed form against the eigensolver, within 1e-15 of the sum of
    # the block's absolute entries, on real and complex blocks.
    for a, b, d in _random_blocks(rng, kind, 400):
        norm = trace_norm_2x2(a, b, d)
        reference = trace_norms(np.array([[a, np.conj(b)], [b, d]])[None])[0]
        assert abs(norm - reference) <= 1e-15 * (abs(a) + 2 * abs(b) + abs(d)), (a, b, d)
        assert type(norm) is float


def test_trace_norm_2x2_of_a_hollow_block_is_twice_its_entry(rng):
    # Eigenvalues +-|x|: hypot(0, 2|x|) is exactly 2|x|, subnormals included.
    for x in [*rng.normal(size=500) * 10.0 ** rng.integers(-300, 300, size=500), 5e-324, -0.0, 1e300]:
        assert trace_norm_2x2(0.0, float(x), 0.0) == 2.0 * abs(float(x)), x


def test_trace_norm_2x2_is_trace_norms_on_every_qutrit_objective_block(rng):
    # The qutrit objective's blocks, on the levels each pattern couples, are
    # hollow, and there the closed form, on their lower triangles as Python
    # floats, and the eigensolver agree bit for bit.
    for row in objective_vectors(rng):
        operators = adversary._qutrit_cheat_operators(row)
        blocks = np.array([op[np.ix_(levels, levels)] for op, (_, levels) in zip(operators, adversary._BLOCK_TERMS)])
        norms = [trace_norm_2x2(*block[[0, 1, 1], [0, 0, 1]].tolist()) for block in blocks]
        assert norms == trace_norms(blocks).tolist(), row


def test_eigh_reconstructs_and_is_unitary(rng):
    for dim in (3, 6, 9):
        h = random_hermitian(rng, dim)
        w, v = _hermitian_eigh(h)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) < 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-12
        assert np.all(np.diff(w) >= -1e-15)


def test_positive_parts_split_each_operator_into_psd_parts(rng):
    # H = H_+ - H_-, both PSD and mutually orthogonal, and 2 tr H_+ - tr H
    # is the trace norm, for every operator of a stack.
    for dim in (2, 3, 4, 9, 16):
        stack = np.array([random_hermitian(rng, dim) for _ in range(6)]).reshape(2, 3, dim, dim)
        positive = positive_parts(stack)
        assert positive.shape == stack.shape
        negative = positive - stack
        for index in np.ndindex(2, 3):
            for part in (positive[index], negative[index]):
                assert np.max(np.abs(part - part.conj().T)) < 1e-12, (dim, index)
                assert np.linalg.eigvalsh(part).min() > -1e-12, (dim, index)
            assert np.max(np.abs(positive[index] @ negative[index])) < 1e-12, (dim, index)
            absolute = 2.0 * np.trace(positive[index]).real - np.trace(stack[index]).real
            assert abs(absolute - trace_norm(stack[index])) < 1e-12, (dim, index)


def test_eigensolver_failure_raises_numeric_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericError):
        hermitian_eigenvalues(ComplexMatrix(np.diag([1.0, -1.0])))
    with pytest.raises(NumericError):
        trace_norms(np.eye(2)[None])
    with pytest.raises(NumericError):
        helstrom_measurement(np.diag([0.5, -0.5]))
    with pytest.raises(NumericError):
        positive_parts(np.eye(2)[None])


def test_trace_norm_signature_matrix():
    assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) < 1e-14


def test_trace_norm_batch_mixture_difference():
    # Explicit 4x4 difference of the two stored-state mixtures; its trace
    # norm v satisfies 1/2 + v/4 = (2 + sqrt 2)/4, i.e. v = sqrt 2.
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    plus = np.array([SQRT_HALF, SQRT_HALF])
    minus = np.array([SQRT_HALF, -SQRT_HALF])

    def dyad(q1, q2):
        vec = np.kron(q1, q2)
        return np.outer(vec, vec)

    difference = 0.5 * (dyad(zero, zero) + dyad(plus, plus)) - 0.5 * (
        dyad(one, one) + dyad(minus, minus)
    )
    oracle = charpoly_eigenvalues(difference)
    v = trace_norm(difference)
    assert abs(v - np.abs(oracle).sum()) < 1e-7
    assert abs(v - math.sqrt(2.0)) < 1e-12
    assert abs(0.5 + v / 4.0 - (2.0 + math.sqrt(2.0)) / 4.0) < 1e-12


def test_trace_norm_dominates_trace(rng):
    for _ in range(25):
        h = random_hermitian(rng, 5)
        assert trace_norm(h) >= abs(np.trace(h).real) - 1e-12


def test_trace_norm_unitary_invariance(rng):
    for _ in range(10):
        h = random_hermitian(rng, 4)
        u = random_unitary(rng, 4)
        rotated = u @ h @ u.conj().T
        rotated = (rotated + rotated.conj().T) / 2.0
        assert abs(trace_norm(h) - trace_norm(rotated)) < 1e-10


# ---------------------------------------------------------------------------
# discrimination


def test_helstrom_indistinguishable_states():
    rho = np.eye(2) / 2.0
    assert abs(helstrom_prob(0.5, rho, 0.5, rho) - 0.5) < 1e-14


def test_helstrom_orthogonal_pure_states():
    rho0 = basis_projector(2, 0)
    rho1 = basis_projector(2, 1)
    assert abs(helstrom_prob(0.5, rho0, 0.5, rho1) - 1.0) < 1e-14


def test_helstrom_stored_state_mixtures():
    zero = pure_state([1.0, 0.0, 0.0, 0.0])
    plus = pure_state([0.5, 0.5, 0.5, 0.5])
    one = pure_state([0.0, 0.0, 0.0, 1.0])
    minus = pure_state([0.5, -0.5, -0.5, 0.5])
    rho0 = mixture([(0.5, zero), (0.5, plus)])
    rho1 = mixture([(0.5, one), (0.5, minus)])
    expected = (2.0 + math.sqrt(2.0)) / 4.0
    assert abs(helstrom_prob(0.5, rho0, 0.5, rho1) - expected) < 1e-12


def test_helstrom_prior_validation():
    rho = np.eye(2) / 2.0
    for p0, p1 in ((0.6, 0.6), (-0.1, 1.1)):
        for function in (helstrom_prob, helstrom_projectors):
            with pytest.raises(ValidationError, match="priors"):
                function(p0, rho, p1, rho)


def test_helstrom_symmetry(rng):
    for _ in range(10):
        rho0 = random_density(rng, 3)
        rho1 = random_density(rng, 3)
        p = rng.uniform(0.1, 0.9)
        forward = helstrom_prob(p, rho0, 1.0 - p, rho1)
        backward = helstrom_prob(1.0 - p, rho1, p, rho0)
        assert abs(forward - backward) < 1e-12


def test_helstrom_projectors_basis_states():
    rho0 = basis_projector(2, 0)
    rho1 = basis_projector(2, 1)
    pi0, pi1 = helstrom_projectors(0.5, rho0, 0.5, rho1)
    assert_close(pi0, basis_projector(2, 0))
    assert_close(pi1, basis_projector(2, 1))


def test_helstrom_projectors_tie_break_to_outcome_zero():
    rho = np.eye(3) / 3.0
    pi0, pi1 = helstrom_projectors(0.5, rho, 0.5, rho)
    assert np.array_equal(pi0, np.eye(3))
    assert np.array_equal(pi1, np.zeros((3, 3)))
    # The library's measurement breaks the tie the same way.
    assert np.array_equal(helstrom_measurement(np.zeros((3, 3))), [np.eye(3), np.zeros((3, 3))])


def test_helstrom_projectors_reduced_probe_states():
    red0, red1 = (partial_trace(density(entangled_pair(a)), 3, 3, keep="B") for a in (0, 1))
    pi0, pi1 = helstrom_projectors(0.5, red0, 0.5, red1)
    success = 0.5 * np.trace(pi0 @ red0).real
    success += 0.5 * np.trace(pi1 @ red1).real
    assert abs(success - 0.75) < 1e-12


def test_helstrom_projectors_match_closed_form(rng):
    for _ in range(100):
        rho0 = random_density(rng, 4)
        rho1 = random_density(rng, 4)
        p0 = rng.uniform(0.05, 0.95)
        p1 = 1.0 - p0
        pi0, pi1 = helstrom_projectors(p0, rho0, p1, rho1)
        success = p0 * np.trace(pi0 @ rho0).real
        success += p1 * np.trace(pi1 @ rho1).real
        closed = helstrom_prob(p0, rho0, p1, rho1)
        assert abs(success - closed) < 1e-10
        assert max(p0, p1) - 1e-12 <= closed <= 1.0 + 1e-12
        # projector pair is orthogonal and complete
        assert np.max(np.abs(pi0 + pi1 - np.eye(4))) < 1e-10
        assert np.max(np.abs(pi0 @ pi1)) < 1e-10
        # The library's measurement of the same operator gives the pair.
        assert np.array_equal(helstrom_measurement(p0 * rho0 - p1 * rho1), [pi0, pi1])


# ---------------------------------------------------------------------------
# measurement sampling


def test_measure_deterministic_on_eigenstate():
    state = density(basis_state(2, 0))
    projectors = [basis_projector(2, 0), basis_projector(2, 1)]
    for rand in (0.0, 0.3, 0.99):
        assert measure(state, projectors, rand) == 0


def test_measure_cumulative_inversion():
    mixed = np.eye(2) / 2.0
    projectors = [basis_projector(2, 0), basis_projector(2, 1)]
    assert measure(mixed, projectors, 0.3) == 0
    assert measure(mixed, projectors, 0.7) == 1


def test_measure_requires_complete_projectors():
    state = np.eye(2) / 2.0
    with pytest.raises(ValidationError):
        measure(state, [basis_projector(2, 0)], 0.2)
    with pytest.raises(ValidationError):
        measure_pure(basis_state(2, 0), [basis_projector(2, 0)], 0.2)


def test_measure_requires_orthogonal_projectors():
    state = np.eye(2) / 2.0
    half = np.eye(2) * 0.5
    with pytest.raises(ValidationError):
        measure(state, [half, half], 0.2)
    with pytest.raises(ValidationError):
        measure_pure(basis_state(2, 0), [half, half], 0.2)


def test_measure_rejects_bad_rand():
    state = np.eye(2) / 2.0
    projectors = [basis_projector(2, 0), basis_projector(2, 1)]
    with pytest.raises(ValidationError):
        measure(state, projectors, 1.0)
    with pytest.raises(ValidationError):
        measure_pure(basis_state(2, 0), projectors, 1.0)


def _random_measurement(rng, dim):
    # Rank-one projectors onto the columns of a random unitary, grouped into
    # a random number of outcomes (some of rank above one).
    unitary = random_unitary(rng, dim)
    cuts = sorted(rng.choice(np.arange(1, dim), size=rng.integers(0, dim), replace=False))
    groups = np.split(np.arange(dim), cuts)
    return projective_measurement([unitary[:, g] @ unitary[:, g].conj().T for g in groups])


def test_projective_measurement_rejects_malformed_sets():
    p0, p1 = basis_projector(2, 0), basis_projector(2, 1)
    with pytest.raises(ValidationError):
        projective_measurement(())
    with pytest.raises(DimensionError):
        projective_measurement((p0, basis_projector(3, 1)))
    with pytest.raises(DimensionError):
        projective_measurement(([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],))
    with pytest.raises(DimensionError):
        projective_measurement([np.zeros((0, 0))])
    # Projectors of different shapes: numpy would raise its own ValueError
    # on stacking them.
    for other in (np.zeros((2, 3)), np.zeros(2), np.zeros((1, 2, 2))):
        with pytest.raises(DimensionError):
            projective_measurement((p0, other))
    with pytest.raises(ValidationError):
        projective_measurement((p0,))
    with pytest.raises(ValidationError):
        projective_measurement((np.eye(2) * 0.5,) * 2)
    with pytest.raises(ValidationError, match="finite"):
        projective_measurement(([[math.nan, 0.0], [0.0, 0.0]], p1))
    measurement = projective_measurement([p0, p1])
    assert measurement.shape == (2, 2, 2) and measurement.dtype == np.complex128
    assert not measurement.flags.writeable
    assert (measurement == [p0, p1]).all()
    assert np.array_equal(projective_measurement(measurement), measurement)


def test_measure_checks_rand_and_dimension_on_every_call():
    measurement = projective_measurement((basis_projector(2, 0), basis_projector(2, 1)))
    mixed = np.eye(2) / 2.0
    for bad in (-0.1, 1.0, math.nan):
        with pytest.raises(ValidationError):
            measure(mixed, measurement, bad)
        with pytest.raises(ValidationError):
            measure_pure(basis_state(2, 0), measurement, bad)
    with pytest.raises(DimensionError):
        measure(density(basis_state(3, 0)), measurement, 0.5)
    with pytest.raises(DimensionError):
        measure_pure(basis_state(4, 0), measurement, 0.5)
    with pytest.raises(ValidationError):
        measure_pure(basis_state(2, 0), [basis_projector(2, 0)], 0.5)


@pytest.mark.parametrize("dim", [2, 3, 4, 9])
def test_measure_pure_matches_density_reference(rng, dim):
    rands = np.linspace(0.0, 1.0, 64, endpoint=False)
    two_outcome = 0
    for _ in range(20):
        measurement = _random_measurement(rng, dim)
        raw = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
        amplitudes = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        # A stack of states gives, row by row, the one-state floats.
        projected, weights = projections(amplitudes, measurement)
        assert projected.shape == (3, len(measurement), dim) and weights.shape == (3, len(measurement))
        for row in range(3):
            assert weights[row].tolist() == born_weights(amplitudes[row], measurement)
            assert (projected[row] == projections(amplitudes[row], measurement)[0]).all()
        state = pure_state(amplitudes[0])
        reference = density(state)
        outcomes = []
        for rand in rands:
            outcome, post = measure_pure(state, measurement, rand)
            assert outcome == measure(reference, measurement, rand)
            projected = measurement[outcome] @ state
            assert np.allclose(post, projected / np.linalg.norm(projected), atol=1e-12)
            outcomes.append(outcome)
        # The thresholds of the same Born weights give the same outcomes,
        # where the measurement has two.
        if len(measurement) == 2:
            two_outcome += 1
            assert threshold_outcomes(sampling_thresholds(weights[0]), rands).tolist() == outcomes
    assert two_outcome > 0
    # Zero-weight outcomes are never sampled from an eigenstate.
    measurement = projective_measurement([basis_projector(dim, k) for k in range(dim)])
    for k in range(dim):
        for rand in (0.0, 0.5, 1.0 - 2.0**-53):
            assert measure_pure(basis_state(dim, k), measurement, rand)[0] == k


def test_invert_cumulative_block_keeps_the_scalar_rules(rng):
    # Sampling from two-outcome thresholds, row by row against the scalar
    # rule: negative weights and rounding residues (counted as 0), totals
    # below rand (the last outcome kept) and rand on a cumulative boundary.
    weights = rng.normal(0.3, 0.3, size=(4000, 2))
    weights[:7] = [
        [0.5, 0.5],
        [-0.1, 0.2],
        [0.0, 0.0],
        [0.25, 0.75],
        [1.0, -1.0],
        [0.9999999999999996, 2.465e-32],
        [0.5, DERIVED_TOL],
    ]
    rand = rng.random(4000)
    rand[:7] = [0.5, 0.2, 0.0, 0.75, 0.999, 1.0 - 2.0**-53, 0.5]
    expected = [invert_cumulative(list(row), r) for row, r in zip(weights, rand)]
    assert threshold_outcomes(sampling_thresholds(weights), rand).tolist() == expected
    # Rows with one positive weight or none, each sampled at the uniform
    # exactly on its threshold, at 0.0, at 1 - 2**-53 and on a grid.
    rows = rng.normal(0.3, 0.3, size=(120, 2))
    rows[:4] = 0.0
    rows[1, 0] = rows[2, -1] = 1.0
    rows[4:8] = rng.uniform(-DERIVED_TOL, DERIVED_TOL, size=(4, 2))
    rows[5, 0] = rows[6, -1] = 1.0 - 4.0e-16
    assert_thresholds_pin(rows, sampling_thresholds(rows))
    qubit = projective_measurement((basis_projector(2, 0), basis_projector(2, 1)))
    with pytest.raises(DimensionError):
        projections(basis_state(3, 0), qubit)


def test_rounding_short_total_never_samples_a_zero_weight_outcome():
    # The sequence protocol's untested-slot decode of the pair (0, 1): qubit
    # 1 in Z, then qubit 2 in X, whose weights sum to 1 - 2**-52.  The
    # uniforms above that total fall to the last outcome of positive weight.
    identity = np.eye(2)
    z_basis = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    x_basis = (np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]]))
    qubit1_z = projective_measurement([np.kron(p, identity) for p in z_basis])
    qubit2_x = projective_measurement([np.kron(identity, p) for p in x_basis])
    _, state = measure_pure(protocols.SEQUENCE_STATES[1], qubit1_z, 0.0)
    weights = projections(state, qubit2_x)[1].tolist()
    assert weights == [0.9999999999999998, 0.0]
    top = 1.0 - 2.0**-53
    outcome, post = measure_pure(state, qubit2_x, top)
    assert outcome == 0 and np.all(np.isfinite(post))
    assert threshold_outcomes(sampling_thresholds(np.array([weights])), np.array([top])).tolist() == [0]
    # A zero weight after the last positive one, and rows with none.
    rows = np.array([[0.5, 0.0], [0.0, 0.0], [0.0, -0.5]])
    assert threshold_outcomes(sampling_thresholds(rows), np.full(3, 0.9)).tolist() == [0, 1, 1]
    assert [invert_cumulative(list(row), 0.9) for row in rows] == [0, 1, 1]
