"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: the
characteristic-polynomial eigensolver checks the LAPACK-backed spectra,
and the closed-form objective checks the qutrit cheating objective (the
library's stacked evaluator, which in turn must equal the density path in
``oracle.py`` exactly).
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from rotlab import adversary
from rotlab.linalg import DERIVED_TOL

from oracle import invert_cumulative


def charpoly_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier coefficients and root finding.

    Independent of the package's LAPACK path; accurate to roughly 1e-8 for
    well-conditioned small matrices.
    """
    n = matrix.shape[0]
    coeffs = [1.0]
    aux = np.zeros_like(matrix)
    c = 1.0
    for k in range(1, n + 1):
        aux = matrix @ aux + c * np.eye(n)
        c = -float(np.trace(matrix @ aux).real) / k
        coeffs.append(c)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2.0


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Unitary built from composed two-level rotations."""
    unitary = np.eye(dim, dtype=np.complex128)
    for p in range(dim):
        for q in range(p + 1, dim):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            c, s = np.cos(angle), np.sin(angle)
            gate = np.eye(dim, dtype=np.complex128)
            gate[p, p] = c
            gate[p, q] = s * phase
            gate[q, p] = -s * np.conj(phase)
            gate[q, q] = c
            unitary = unitary @ gate
    return unitary


def random_triple(rng: np.random.Generator):
    vec = np.abs(rng.normal(size=3))
    return tuple(vec / np.linalg.norm(vec))


def closed_form_objective(alpha: float, beta: float, gamma_amp: float) -> float:
    """Analytic value of the qutrit probe attack (the evaluators' oracle)."""
    return 0.5 + 0.5 * (alpha + beta) * gamma_amp


def threshold_outcomes(thresholds: np.ndarray, rand) -> np.ndarray:
    """The outcome of each row of sampling thresholds at its uniform: the
    number of the row's thresholds at or below the uniform."""
    return (thresholds <= np.asarray(rand)[..., None]).sum(axis=-1)


def assert_thresholds_pin(weights: np.ndarray, thresholds: np.ndarray) -> None:
    """Check a threshold table against its weight table, row by row: its
    finite entries equal (==) the cumulative sums of the weights, each
    weight at or below ``DERIVED_TOL`` counting as 0, ``+inf`` fills exactly
    the last outcome of weight above it (the last outcome, where none is)
    and those after it, and on a grid of uniforms, each finite threshold,
    0.0 and 1 - 2**-53 it samples the scalar rule's outcome."""
    assert thresholds.shape == weights.shape
    k = weights.shape[-1]
    grid = np.linspace(0.0, 1.0, 257)[:-1]
    for row, row_thresholds in zip(weights.reshape(-1, k), thresholds.reshape(-1, k)):
        kept = row > DERIVED_TOL
        last = np.flatnonzero(kept)[-1] if kept.any() else k - 1
        assert np.isinf(row_thresholds).tolist() == [j >= last for j in range(k)], row
        finite = row_thresholds[:last]
        assert np.array_equal(finite, np.cumsum(np.where(kept, row, 0.0))[:last]), row
        uniforms = np.concatenate((grid, finite[finite < 1.0], [0.0, 1.0 - 2.0**-53]))
        expected = [invert_cumulative(row.tolist(), r) for r in uniforms]
        assert threshold_outcomes(row_thresholds, uniforms).tolist() == expected, row


@contextlib.contextmanager
def recording(module, name: str):
    """Within the block, ``module.<name>`` records the first argument and
    the result of each call, in order, in the list yielded."""
    calls, function = [], getattr(module, name)

    def wrapper(first, *rest):
        result = function(first, *rest)
        calls.append((first, result))
        return result

    with mock.patch.object(module, name, wrapper):
        yield calls


def strategy_tables(key: tuple[str, str], params: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The Born table a strategy's factory cumulates and the thresholds it
    builds from it, caught on its one call of ``cumulative_thresholds``."""
    with recording(adversary, "cumulative_thresholds") as built:
        # A factory takes a strategy's parameters, its defaults filled in.
        adversary._STRATEGIES[key][1](adversary.CheatStrategy(*key, params).parameters)
    (tables,) = built
    return tables


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
