import math

import numpy as np
import pytest

from rotlab.linalg import (
    ComplexMatrix,
    DensityMatrix,
    DimensionError,
    NumericError,
    ProjectiveMeasurement,
    PureState,
    ValidationError,
    _hermitian_eigh,
    helstrom_prob,
    helstrom_projectors,
    hermitian_eigenvalues,
    kron,
    measure,
    measure_pure,
    partial_trace,
    trace_norm,
)

from conftest import charpoly_eigenvalues, random_density, random_hermitian, random_unitary

SQRT_HALF = math.sqrt(0.5)


def cm(rows):
    return ComplexMatrix(np.array(rows, dtype=complex))


def basis_projector(dim, index):
    return PureState.basis(dim, index).projector()


def entangled_pair(a):
    amps = np.zeros(9)
    amps[3 * a + a] = SQRT_HALF
    amps[8] = SQRT_HALF
    return PureState(amps)


# ---------------------------------------------------------------------------
# construction invariants


def test_matrix_dimension_bounds():
    with pytest.raises(DimensionError):
        ComplexMatrix(np.zeros((17, 3)))
    with pytest.raises(ValidationError):
        ComplexMatrix(np.zeros(4))
    ComplexMatrix(np.zeros((16, 16)))  # boundary accepted


def test_matrix_equality_uses_tolerance():
    a = cm([[1.0, 0.0], [0.0, 1.0]])
    b = cm([[1.0 + 5e-13, 0.0], [0.0, 1.0]])
    c = cm([[1.0 + 5e-11, 0.0], [0.0, 1.0]])
    assert a == b
    assert a != c


def test_matrix_data_is_immutable():
    m = ComplexMatrix.identity(2)
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0


def test_pure_state_norm_validated():
    with pytest.raises(ValidationError):
        PureState([1.0, 1.0])
    PureState([SQRT_HALF, SQRT_HALF])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValidationError):
        PureState([bad, 0.0])


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(cm([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(cm([[0.7, 0.0], [0.0, 0.7]]))  # trace != 1
    with pytest.raises(ValidationError):
        DensityMatrix(cm([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    DensityMatrix(cm([[0.5, 0.0], [0.0, 0.5]]))


def test_mixture_weights_validated():
    state = PureState.basis(2, 0)
    with pytest.raises(ValidationError):
        DensityMatrix.mixture([(0.7, state), (0.7, state)])
    with pytest.raises(ValidationError):
        DensityMatrix.mixture([(math.nan, state), (1.0, state)])
    with pytest.raises(ValidationError):
        DensityMatrix.mixture([(math.nan, state)])
    with pytest.raises(ValidationError):
        DensityMatrix.mixture([])


# ---------------------------------------------------------------------------
# kron


def test_kron_identity():
    assert kron(ComplexMatrix.identity(2), ComplexMatrix.identity(2)) == ComplexMatrix.identity(4)


def test_kron_basis_projectors():
    result = kron(basis_projector(2, 0), basis_projector(2, 1))
    assert result == ComplexMatrix.diagonal([0.0, 1.0, 0.0, 0.0])


def test_kron_dimension_overflow():
    five = ComplexMatrix(np.eye(5))
    with pytest.raises(DimensionError):
        kron(five, five)  # 25 > 16
    kron(ComplexMatrix.identity(4), ComplexMatrix.identity(4))  # 16 accepted


def test_kron_mixed_product_property(rng):
    for _ in range(20):
        a, b, c, d = (ComplexMatrix(random_hermitian(rng, 3)) for _ in range(4))
        left = kron(a, b) @ kron(c, d)
        right = kron(a @ c, b @ d)
        assert np.max(np.abs(left.data - right.data)) < 1e-12


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_entangled_probe():
    reduced = partial_trace(DensityMatrix.from_pure(entangled_pair(0)), 3, 3, keep="B")
    expected = np.diag([0.5, 0.0, 0.5])
    assert np.max(np.abs(reduced.matrix.data - expected)) < 1e-12


def test_partial_trace_product_state(rng):
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 3)
    joint = DensityMatrix(ComplexMatrix(np.kron(rho_a, rho_b)))
    reduced = partial_trace(joint, 2, 3, keep="A")
    assert np.max(np.abs(reduced.matrix.data - rho_a)) < 1e-12


def test_partial_trace_maximally_entangled():
    bell = PureState([SQRT_HALF, 0.0, 0.0, SQRT_HALF])
    reduced = partial_trace(DensityMatrix.from_pure(bell), 2, 2, keep="B")
    assert np.max(np.abs(reduced.matrix.data - np.eye(2) / 2.0)) < 1e-12


def test_partial_trace_preserves_trace(rng):
    for _ in range(25):
        rho = DensityMatrix(ComplexMatrix(random_density(rng, 6)))
        for keep, dims in (("A", (2, 3)), ("B", (3, 2))):
            reduced = partial_trace(rho, dims[0], dims[1], keep)
            assert abs(reduced.matrix.trace() - 1.0) < 1e-10


def test_partial_trace_dimension_mismatch():
    rho = DensityMatrix(ComplexMatrix(np.eye(4) / 4.0))
    with pytest.raises(DimensionError):
        partial_trace(rho, 3, 2, keep="A")
    with pytest.raises(ValidationError):
        partial_trace(rho, 2, 2, keep="C")


# ---------------------------------------------------------------------------
# eigenvalues and trace norm


def test_eigenvalues_diagonal_sorted():
    w = hermitian_eigenvalues(ComplexMatrix.diagonal([3.0, -1.0, 0.0]))
    assert np.allclose(w, [-1.0, 0.0, 3.0], atol=1e-14)


def test_eigenvalues_phase_encoded_difference():
    # Difference of the two permutation-0 mixtures at the balanced probe:
    # a single off-diagonal pair of size 2 * alpha * gamma = 1/sqrt(2).
    delta = cm(
        [
            [0.0, 0.0, SQRT_HALF],
            [0.0, 0.0, 0.0],
            [SQRT_HALF, 0.0, 0.0],
        ]
    )
    w = hermitian_eigenvalues(delta)
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
        hermitian_eigenvalues(cm([[0.0, 1.0], [0.0, 0.0]]))


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


def test_eigh_reconstructs_and_is_unitary(rng):
    for dim in (3, 6, 9):
        h = random_hermitian(rng, dim)
        w, v = _hermitian_eigh(ComplexMatrix(h))
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) < 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-12
        assert np.all(np.diff(w) >= -1e-15)


def test_eigensolver_failure_raises_numeric_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericError):
        hermitian_eigenvalues(ComplexMatrix.diagonal([1.0, -1.0]))
    rho0 = DensityMatrix.from_pure(PureState.basis(2, 0))
    rho1 = DensityMatrix.from_pure(PureState.basis(2, 1))
    with pytest.raises(NumericError):
        helstrom_projectors(0.5, rho0, 0.5, rho1)


def test_trace_norm_signature_matrix():
    assert abs(trace_norm(ComplexMatrix.diagonal([1.0, -1.0])) - 2.0) < 1e-14


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
    v = trace_norm(ComplexMatrix(difference))
    assert abs(v - np.abs(oracle).sum()) < 1e-7
    assert abs(v - math.sqrt(2.0)) < 1e-12
    assert abs(0.5 + v / 4.0 - (2.0 + math.sqrt(2.0)) / 4.0) < 1e-12


def test_trace_norm_dominates_trace(rng):
    for _ in range(25):
        h = random_hermitian(rng, 5)
        assert trace_norm(ComplexMatrix(h)) >= abs(np.trace(h).real) - 1e-12


def test_trace_norm_unitary_invariance(rng):
    for _ in range(10):
        h = random_hermitian(rng, 4)
        u = random_unitary(rng, 4)
        rotated = u @ h @ u.conj().T
        rotated = (rotated + rotated.conj().T) / 2.0
        assert abs(trace_norm(ComplexMatrix(h)) - trace_norm(ComplexMatrix(rotated))) < 1e-10


# ---------------------------------------------------------------------------
# discrimination


def test_helstrom_indistinguishable_states():
    rho = DensityMatrix(ComplexMatrix(np.eye(2) / 2.0))
    assert abs(helstrom_prob(0.5, rho, 0.5, rho) - 0.5) < 1e-14


def test_helstrom_orthogonal_pure_states():
    rho0 = DensityMatrix.from_pure(PureState.basis(2, 0))
    rho1 = DensityMatrix.from_pure(PureState.basis(2, 1))
    assert abs(helstrom_prob(0.5, rho0, 0.5, rho1) - 1.0) < 1e-14


def test_helstrom_stored_state_mixtures():
    zero = PureState([1.0, 0.0, 0.0, 0.0])
    plus = PureState([0.5, 0.5, 0.5, 0.5])
    one = PureState([0.0, 0.0, 0.0, 1.0])
    minus = PureState([0.5, -0.5, -0.5, 0.5])
    rho0 = DensityMatrix.mixture([(0.5, zero), (0.5, plus)])
    rho1 = DensityMatrix.mixture([(0.5, one), (0.5, minus)])
    expected = (2.0 + math.sqrt(2.0)) / 4.0
    assert abs(helstrom_prob(0.5, rho0, 0.5, rho1) - expected) < 1e-12


def test_helstrom_prior_validation():
    rho = DensityMatrix(ComplexMatrix(np.eye(2) / 2.0))
    with pytest.raises(ValidationError):
        helstrom_prob(0.6, rho, 0.6, rho)
    with pytest.raises(ValidationError):
        helstrom_prob(-0.1, rho, 1.1, rho)


def test_helstrom_symmetry(rng):
    for _ in range(10):
        rho0 = DensityMatrix(ComplexMatrix(random_density(rng, 3)))
        rho1 = DensityMatrix(ComplexMatrix(random_density(rng, 3)))
        p = rng.uniform(0.1, 0.9)
        forward = helstrom_prob(p, rho0, 1.0 - p, rho1)
        backward = helstrom_prob(1.0 - p, rho1, p, rho0)
        assert abs(forward - backward) < 1e-12


def test_helstrom_projectors_basis_states():
    rho0 = DensityMatrix.from_pure(PureState.basis(2, 0))
    rho1 = DensityMatrix.from_pure(PureState.basis(2, 1))
    pi0, pi1 = helstrom_projectors(0.5, rho0, 0.5, rho1)
    assert pi0 == basis_projector(2, 0)
    assert pi1 == basis_projector(2, 1)


def test_helstrom_projectors_tie_break_to_outcome_zero():
    rho = DensityMatrix(ComplexMatrix(np.eye(3) / 3.0))
    pi0, pi1 = helstrom_projectors(0.5, rho, 0.5, rho)
    assert pi0 == ComplexMatrix.identity(3)
    assert pi1 == ComplexMatrix(np.zeros((3, 3)))


def test_helstrom_projectors_reduced_probe_states():
    red0 = partial_trace(DensityMatrix.from_pure(entangled_pair(0)), 3, 3, keep="B")
    red1 = partial_trace(DensityMatrix.from_pure(entangled_pair(1)), 3, 3, keep="B")
    pi0, pi1 = helstrom_projectors(0.5, red0, 0.5, red1)
    success = 0.5 * np.trace(pi0.data @ red0.matrix.data).real
    success += 0.5 * np.trace(pi1.data @ red1.matrix.data).real
    assert abs(success - 0.75) < 1e-12


def test_helstrom_projectors_match_closed_form(rng):
    for _ in range(100):
        rho0 = DensityMatrix(ComplexMatrix(random_density(rng, 4)))
        rho1 = DensityMatrix(ComplexMatrix(random_density(rng, 4)))
        p0 = rng.uniform(0.05, 0.95)
        p1 = 1.0 - p0
        pi0, pi1 = helstrom_projectors(p0, rho0, p1, rho1)
        success = p0 * np.trace(pi0.data @ rho0.matrix.data).real
        success += p1 * np.trace(pi1.data @ rho1.matrix.data).real
        closed = helstrom_prob(p0, rho0, p1, rho1)
        assert abs(success - closed) < 1e-10
        assert max(p0, p1) - 1e-12 <= closed <= 1.0 + 1e-12
        # projector pair is orthogonal and complete
        assert np.max(np.abs(pi0.data + pi1.data - np.eye(4))) < 1e-10
        assert np.max(np.abs(pi0.data @ pi1.data)) < 1e-10


# ---------------------------------------------------------------------------
# measurement sampling


def test_measure_deterministic_on_eigenstate():
    state = DensityMatrix.from_pure(PureState.basis(2, 0))
    projectors = [basis_projector(2, 0), basis_projector(2, 1)]
    for rand in (0.0, 0.3, 0.99):
        assert measure(state, projectors, rand) == 0


def test_measure_cumulative_inversion():
    mixed = DensityMatrix(ComplexMatrix(np.eye(2) / 2.0))
    projectors = [basis_projector(2, 0), basis_projector(2, 1)]
    assert measure(mixed, projectors, 0.3) == 0
    assert measure(mixed, projectors, 0.7) == 1


def test_measure_requires_complete_projectors():
    state = DensityMatrix(ComplexMatrix(np.eye(2) / 2.0))
    with pytest.raises(ValidationError):
        measure(state, [basis_projector(2, 0)], 0.2)


def test_measure_requires_orthogonal_projectors():
    state = DensityMatrix(ComplexMatrix(np.eye(2) / 2.0))
    half = ComplexMatrix(np.eye(2) * 0.5)
    with pytest.raises(ValidationError):
        measure(state, [half, half], 0.2)


def test_measure_rejects_bad_rand():
    state = DensityMatrix(ComplexMatrix(np.eye(2) / 2.0))
    projectors = [basis_projector(2, 0), basis_projector(2, 1)]
    with pytest.raises(ValidationError):
        measure(state, projectors, 1.0)


def _random_measurement(rng, dim):
    # Rank-one projectors onto the columns of a random unitary, grouped into
    # a random number of outcomes (some of rank above one).
    unitary = random_unitary(rng, dim)
    cuts = sorted(rng.choice(np.arange(1, dim), size=rng.integers(0, dim), replace=False))
    groups = np.split(np.arange(dim), cuts)
    return ProjectiveMeasurement(
        tuple(ComplexMatrix(unitary[:, g] @ unitary[:, g].conj().T) for g in groups)
    )


def test_projective_measurement_rejects_malformed_sets():
    p0, p1 = basis_projector(2, 0), basis_projector(2, 1)
    with pytest.raises(ValidationError):
        ProjectiveMeasurement(())
    with pytest.raises(DimensionError):
        ProjectiveMeasurement((p0, basis_projector(3, 1)))
    with pytest.raises(DimensionError):
        ProjectiveMeasurement((cm([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),))
    with pytest.raises(ValidationError):
        ProjectiveMeasurement((p0,))
    with pytest.raises(ValidationError):
        ProjectiveMeasurement((ComplexMatrix(np.eye(2) * 0.5),) * 2)
    with pytest.raises(ValidationError):
        ProjectiveMeasurement((cm([[math.nan, 0.0], [0.0, 0.0]]), p1))
    measurement = ProjectiveMeasurement([p0, p1])
    assert measurement.dim == 2 and len(measurement) == 2
    assert measurement[1] is measurement.projectors[1]
    assert list(measurement) == [p0, p1]


def test_measure_checks_rand_and_dimension_on_every_call():
    measurement = ProjectiveMeasurement((basis_projector(2, 0), basis_projector(2, 1)))
    mixed = DensityMatrix(ComplexMatrix(np.eye(2) / 2.0))
    for bad in (-0.1, 1.0, math.nan):
        with pytest.raises(ValidationError):
            measure(mixed, measurement, bad)
        with pytest.raises(ValidationError):
            measure_pure(PureState.basis(2, 0), measurement, bad)
    with pytest.raises(DimensionError):
        measure(DensityMatrix.from_pure(PureState.basis(3, 0)), measurement, 0.5)
    with pytest.raises(DimensionError):
        measure_pure(PureState.basis(4, 0), measurement, 0.5)
    with pytest.raises(ValidationError):
        measure_pure(PureState.basis(2, 0), [basis_projector(2, 0)], 0.5)


@pytest.mark.parametrize("dim", [2, 3, 4, 9])
def test_measure_pure_matches_density_reference(rng, dim):
    rands = np.linspace(0.0, 1.0, 64, endpoint=False)
    for _ in range(20):
        measurement = _random_measurement(rng, dim)
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = PureState(raw / np.linalg.norm(raw))
        reference = DensityMatrix.from_pure(state)
        for rand in rands:
            outcome, post = measure_pure(state, measurement, rand)
            assert outcome == measure(reference, measurement, rand)
            projected = measurement[outcome].data @ state.amplitudes
            assert np.allclose(post, projected / np.linalg.norm(projected), atol=1e-12)
    # Zero-weight outcomes are never sampled from an eigenstate.
    measurement = ProjectiveMeasurement(tuple(basis_projector(dim, k) for k in range(dim)))
    for k in range(dim):
        for rand in (0.0, 0.5, 1.0 - 2.0**-53):
            assert measure_pure(PureState.basis(dim, k), measurement, rand)[0] == k
