"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: the
characteristic-polynomial eigensolver checks the LAPACK-backed spectra,
and the closed-form objective checks the qutrit cheating objective (the
library's stacked evaluator, which in turn must equal the density path in
``oracle.py`` exactly).
"""

import numpy as np
import pytest


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
