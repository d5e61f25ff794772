"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: the
characteristic-polynomial eigensolver checks the LAPACK-backed spectra,
and the closed-form objective checks the qutrit cheating objective (the
library's evaluator, which in turn must equal the density path in
``oracle.py`` exactly).
"""

import contextlib
import math
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


def objective_vectors(rng: np.random.Generator) -> np.ndarray:
    """2000 random triples, the unit and balanced triples, and an 11 x 11
    grid over the spherical chart of the octant, its edges included: the
    rows the qutrit objective's exact checks loop over."""
    vectors = [random_triple(rng) for _ in range(2000)]
    vectors += [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), adversary.AmplitudeTriple.balanced().as_tuple()]
    theta, phi = np.meshgrid(*[np.linspace(0.0, math.pi / 2.0, 11)] * 2, indexing="ij")
    chart = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)
    return np.concatenate([np.array(vectors), chart.reshape(-1, 3)])


def closed_form_objective(alpha: float, beta: float, gamma_amp: float) -> float:
    """Analytic value of the qutrit probe attack (the evaluators' oracle)."""
    return 0.5 + 0.5 * (alpha + beta) * gamma_amp


def threshold_outcomes(thresholds: np.ndarray, rand) -> np.ndarray:
    """The outcome of each two-outcome row at its uniform: 1 exactly when
    the uniform is at or above the row's sampling threshold."""
    return (np.asarray(rand) >= thresholds).astype(np.intp)


def assert_thresholds_pin(weights: np.ndarray, thresholds: np.ndarray) -> None:
    """Check a table of sampling thresholds against its ``(..., 2)`` table
    of two-outcome weights, row by row: each threshold equals (==) the
    weight of outcome 0, is 0 where that weight is at or below
    ``DERIVED_TOL`` and ``+inf`` where only the weight of outcome 1 is, and
    on a grid of uniforms, the threshold, 0.0 and 1 - 2**-53 it samples the
    scalar rule's outcome."""
    assert weights.shape[-1] == 2 and thresholds.shape == weights.shape[:-1]
    grid = np.linspace(0.0, 1.0, 257)[:-1]
    for row, threshold in zip(weights.reshape(-1, 2), thresholds.reshape(-1)):
        kept = row > DERIVED_TOL
        assert threshold == ((row[0] if kept[1] else np.inf) if kept[0] else 0.0), row
        uniforms = np.concatenate((grid, [threshold] if threshold < 1.0 else [], [0.0, 1.0 - 2.0**-53]))
        expected = [invert_cumulative(row.tolist(), r) for r in uniforms]
        assert threshold_outcomes(threshold, uniforms).tolist() == expected, row


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
    """The Born table a strategy's factory samples from and the thresholds
    it builds from it, caught on its one call of ``sampling_thresholds``."""
    with recording(adversary, "sampling_thresholds") as built:
        # A factory takes a strategy's parameters, its defaults filled in.
        adversary._STRATEGIES[key][1](adversary.CheatStrategy(*key, params).parameters)
    (tables,) = built
    return tables


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
