"""Dense complex linear algebra for Hilbert spaces of dimension at most 16.

Everything a two-party quantum protocol simulation needs and nothing more:
tensor products, partial traces, Hermitian spectra via LAPACK (numpy's
``eigvalsh`` / ``eigh``), trace norms, minimum-error (Helstrom)
discrimination, and projective measurements whose completeness and
orthogonality are checked once, at construction.  Two stacked primitives
carry the numerics: :func:`trace_norms` takes the trace norms of a stack of
operators in one eigensolve, and :func:`projections` gives the projected
vectors and Born weights of a stack of pure states under a measurement;
:func:`cumulative_thresholds` turns a table of such weights, once, into
the thresholds its outcomes are sampled from, one comparison per
two-outcome draw.  All values are immutable after construction and all
operations are pure functions, so they are safe to share between threads.

Tolerances are fixed package-wide: ``STRUCTURAL_TOL`` guards construction
invariants (hermiticity, normalisation, priors, equality), ``DERIVED_TOL``
guards derived quantities (positivity, projector completeness).
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Sequence

import numpy as np

MAX_DIM = 16
STRUCTURAL_TOL = 1e-12
DERIVED_TOL = 1e-10


class ValidationError(ValueError):
    """An input violates a structural contract (shape, hermiticity, norm)."""


class DimensionError(ValidationError):
    """A dimension is outside the supported range or inconsistent."""


class NumericError(RuntimeError):
    """An iterative routine failed to reach its convergence target."""


def as_integer(name: str, value) -> int:
    """``value`` as a Python int: any integer but a bool, numpy's included;
    anything else raises :class:`ValidationError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, not {type(value).__name__}")
    return operator.index(value)


def _as_complex_array(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ValidationError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """Dense complex matrix, at most 16x16, immutable after construction.

    Equality is entrywise within ``STRUCTURAL_TOL``; instances are therefore
    unhashable.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _as_complex_array(self.data, 2)
        rows, cols = arr.shape
        if not (1 <= rows <= MAX_DIM) or not (1 <= cols <= MAX_DIM):
            raise DimensionError(f"matrix shape {rows}x{cols} outside 1..{MAX_DIM}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def identity(cls, dim: int) -> "ComplexMatrix":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, entries: Sequence[complex]) -> "ComplexMatrix":
        return cls(np.diag(np.asarray(entries, dtype=np.complex128)))

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def is_hermitian(self, tol: float = STRUCTURAL_TOL) -> bool:
        return self.rows == self.cols and bool(
            np.max(np.abs(self.data - self.data.conj().T)) <= tol
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        if self.data.shape != other.data.shape:
            return False
        return bool(np.max(np.abs(self.data - other.data)) <= STRUCTURAL_TOL)

    __hash__ = None  # tolerance-based equality

    def __repr__(self) -> str:
        return f"ComplexMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector of complex amplitudes (norm 1 within ``STRUCTURAL_TOL``)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _as_complex_array(self.amplitudes, 1)
        if not (1 <= arr.size <= MAX_DIM):
            raise DimensionError(f"state dimension {arr.size} outside 1..{MAX_DIM}")
        norm = float(np.linalg.norm(arr))
        if not abs(norm - 1.0) <= STRUCTURAL_TOL:
            raise ValidationError(f"state norm {norm!r} is not 1 within {STRUCTURAL_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    @classmethod
    def basis(cls, dim: int, index: int) -> "PureState":
        amps = np.zeros(dim)
        amps[index] = 1.0
        return cls(amps)

    def projector(self) -> ComplexMatrix:
        return ComplexMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PureState):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return bool(np.max(np.abs(self.amplitudes - other.amplitudes)) <= STRUCTURAL_TOL)

    __hash__ = None

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator.

    Construction validates hermiticity and trace within ``STRUCTURAL_TOL``
    and eigenvalue positivity down to -``DERIVED_TOL``.  Pass
    ``validate=False`` only for operators that are valid by construction
    (pure-state projectors, convex mixtures of them); it skips the
    eigensolve.
    """

    matrix: ComplexMatrix
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if self.matrix.rows != self.matrix.cols:
            raise DimensionError("density matrix must be square")
        if not validate:
            return
        if not self.matrix.is_hermitian():
            raise ValidationError("density matrix must be Hermitian within 1e-12")
        tr = self.matrix.trace()
        if not abs(tr - 1.0) <= STRUCTURAL_TOL:
            raise ValidationError(f"density matrix trace {tr!r} is not 1 within {STRUCTURAL_TOL}")
        smallest = hermitian_eigenvalues(self.matrix)[0]
        if not smallest >= -DERIVED_TOL:
            raise ValidationError(f"density matrix has eigenvalue {smallest} < -{DERIVED_TOL}")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityMatrix":
        return cls(state.projector(), validate=False)

    @classmethod
    def mixture(cls, components: Iterable[tuple[float, PureState]]) -> "DensityMatrix":
        """Convex mixture of pure states; weights must sum to 1."""
        components = list(components)
        if not components:
            raise ValidationError("a mixture needs at least one component")
        weights = np.array([w for w, _ in components], dtype=float)
        if not np.all(weights >= -STRUCTURAL_TOL):
            raise ValidationError("mixture weights must be finite and nonnegative")
        if not abs(weights.sum() - 1.0) <= STRUCTURAL_TOL:
            raise ValidationError(f"mixture weights sum to {weights.sum()!r}, expected 1")
        dim = components[0][1].dim
        acc = np.zeros((dim, dim), dtype=np.complex128)
        for weight, state in components:
            if state.dim != dim:
                raise DimensionError("all mixture components must share one dimension")
            acc += weight * np.outer(state.amplitudes, state.amplitudes.conj())
        return cls(ComplexMatrix(acc), validate=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return self.matrix == other.matrix

    __hash__ = None

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Tensor product; the result must still fit in the 16-dim budget."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    if rows > MAX_DIM or cols > MAX_DIM:
        raise DimensionError(f"tensor product shape {rows}x{cols} exceeds {MAX_DIM}")
    return ComplexMatrix(np.kron(a.data, b.data))


def partial_trace(rho: DensityMatrix, dim_a: int, dim_b: int, keep: str) -> DensityMatrix:
    """Reduced state of a bipartite system.

    ``keep`` selects the surviving subsystem, "A" (first factor) or "B"
    (second factor).  Requires dim_a * dim_b == rho.dim.
    """
    if dim_a < 1 or dim_b < 1 or dim_a * dim_b != rho.dim:
        raise DimensionError(f"factorisation {dim_a}x{dim_b} does not match dimension {rho.dim}")
    if keep not in ("A", "B"):
        raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")
    blocks = rho.matrix.data.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        reduced = np.einsum("ikjk->ij", blocks)
    else:
        reduced = np.einsum("kikj->ij", blocks)
    # The reduced operator of a valid state is valid; skip the eigensolve.
    return DensityMatrix(ComplexMatrix(reduced), validate=False)


def _require_hermitian(m: ComplexMatrix) -> None:
    if not m.is_hermitian():
        raise ValidationError("eigensolver requires a Hermitian matrix (tolerance 1e-12)")


def _eigenvalues(operators: np.ndarray) -> np.ndarray:
    # Ascending eigenvalues of each matrix of a stack, from one LAPACK call.
    try:
        return np.linalg.eigvalsh(operators)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc


def hermitian_eigenvalues(m: ComplexMatrix) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending (LAPACK ``eigvalsh``)."""
    _require_hermitian(m)
    return _eigenvalues(m.data)


def _hermitian_eigh(m: ComplexMatrix) -> tuple[np.ndarray, np.ndarray]:
    _require_hermitian(m)
    try:
        return np.linalg.eigh(m.data)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc


def trace_norms(operators: np.ndarray) -> np.ndarray:
    """Trace norm of each operator of an ``(..., d, d)`` stack: the sum of
    its absolute eigenvalues, all from one ``eigvalsh`` call.

    Like numpy's ``eigvalsh``, it does not check that the operators are
    Hermitian: it reads only their lower triangles, and a non-Hermitian
    input gives meaningless values.  Pass only operators that are Hermitian
    by construction; :func:`trace_norm` checks its argument.
    """
    return np.abs(_eigenvalues(operators)).sum(axis=-1)


def trace_norm(m: ComplexMatrix) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    _require_hermitian(m)
    return float(trace_norms(m.data))


def _check_priors(p0: float, p1: float) -> None:
    if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
        raise ValidationError(f"priors must lie in [0, 1], got ({p0}, {p1})")
    if not abs(p0 + p1 - 1.0) <= STRUCTURAL_TOL:
        raise ValidationError(f"priors must sum to 1 within {STRUCTURAL_TOL}, got {p0 + p1!r}")


def _discrimination_operator(p0, rho0, p1, rho1) -> ComplexMatrix:
    _check_priors(p0, p1)
    if rho0.dim != rho1.dim:
        raise DimensionError("states to discriminate must share a dimension")
    return ComplexMatrix(p0 * rho0.matrix.data - p1 * rho1.matrix.data)


def helstrom_prob(p0: float, rho0: DensityMatrix, p1: float, rho1: DensityMatrix) -> float:
    """Optimal success probability of distinguishing rho0 (prior p0) from
    rho1 (prior p1): (1 + ||p0 rho0 - p1 rho1||_1) / 2."""
    return 0.5 * (1.0 + trace_norm(_discrimination_operator(p0, rho0, p1, rho1)))


def helstrom_projectors(
    p0: float, rho0: DensityMatrix, p1: float, rho1: DensityMatrix
) -> tuple[ComplexMatrix, ComplexMatrix]:
    """Projector pair realising the optimal discrimination.

    Outcome 0 spans the strictly positive eigenspace of p0 rho0 - p1 rho1
    together with its null space (ties go to outcome 0, which keeps sampled
    runs deterministic); outcome 1 gets the strictly negative eigenspace.
    """
    operator = _discrimination_operator(p0, rho0, p1, rho1)
    w, v = _hermitian_eigh(operator)
    negative = w < -STRUCTURAL_TOL
    dim = operator.rows
    if not negative.any():
        pi1 = np.zeros((dim, dim), dtype=np.complex128)
    else:
        cols = v[:, negative]
        pi1 = cols @ cols.conj().T
    pi0 = np.eye(dim, dtype=np.complex128) - pi1
    return ComplexMatrix(pi0), ComplexMatrix(pi1)


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Complete set of pairwise-orthogonal projectors, validated once.

    Construction checks that the set is non-empty, that every projector is
    square with one shared dimension, and that the projectors sum to the
    identity and are pairwise orthogonal within ``DERIVED_TOL``.  Outcome
    ``k`` is the ``k``-th projector; indexing and iteration give the
    projectors in outcome order.
    """

    projectors: tuple[ComplexMatrix, ...]
    # The projectors as one read-only (outcomes, dim, dim) array.
    stack: np.ndarray = field(init=False)

    def __post_init__(self):
        projectors = tuple(self.projectors)
        if not projectors:
            raise ValidationError("a measurement needs at least one projector")
        dim = projectors[0].rows
        if any(proj.rows != dim or proj.cols != dim for proj in projectors):
            raise DimensionError("projectors must be square and share one dimension")
        stack = np.array([proj.data for proj in projectors])
        if not np.max(np.abs(stack.sum(axis=0) - np.eye(dim))) <= DERIVED_TOL:
            raise ValidationError("projector set is not complete (sum differs from identity)")
        for i in range(len(projectors)):
            for j in range(i + 1, len(projectors)):
                if not np.max(np.abs(stack[i] @ stack[j])) <= DERIVED_TOL:
                    raise ValidationError(f"projectors {i} and {j} are not orthogonal")
        stack.setflags(write=False)
        object.__setattr__(self, "projectors", projectors)
        object.__setattr__(self, "stack", stack)

    @property
    def dim(self) -> int:
        return self.projectors[0].rows

    def __len__(self) -> int:
        return len(self.projectors)

    def __getitem__(self, outcome: int) -> ComplexMatrix:
        return self.projectors[outcome]

    def __iter__(self):
        return iter(self.projectors)

    def __repr__(self) -> str:
        return f"ProjectiveMeasurement({len(self)} outcomes, dim={self.dim})"


def cumulative_thresholds(weights: np.ndarray) -> np.ndarray:
    """The sampling thresholds of an ``(..., k)`` table of outcome weights,
    read-only, same shape: the cumulative sums of the weights, negative
    weights counting as 0, with the last outcome of positive weight (the
    last outcome, where none is positive) and every outcome after it raised
    to ``+inf``.

    The outcome of a row at a uniform ``r`` in [0, 1) is the number of its
    thresholds at or below ``r``: the first outcome whose cumulative weight
    exceeds ``r``, an ``r`` on a boundary going to the next outcome, and
    the last outcome of positive weight when rounding leaves the total at
    or below ``r``.  A two-outcome row thus gives outcome 1 exactly when
    ``r >= row[0]``.
    """
    thresholds = np.cumsum(np.maximum(weights, 0.0), axis=-1)
    k = thresholds.shape[-1]
    last = k - 1 - (weights[..., ::-1] > 0.0).argmax(axis=-1)
    thresholds[np.arange(k) >= last[..., None]] = np.inf
    thresholds.setflags(write=False)
    return thresholds


def projections(amplitudes: np.ndarray, measurement: ProjectiveMeasurement) -> tuple[np.ndarray, np.ndarray]:
    """The projected vectors ``P_k psi`` of an ``(..., d)`` stack of pure
    states, shape ``(..., k, d)``, and their Born weights ``||P_k psi||^2``,
    shape ``(..., k)``.

    The amplitudes are taken as given, unit norm or not.  A post-measurement
    state is a projected vector over the square root of its weight.
    """
    if amplitudes.shape[-1] != measurement.dim:
        raise DimensionError("projector dimensions must match the state")
    projected = np.matmul(measurement.stack, amplitudes[..., None, :, None])[..., 0]
    # The inner product as a matmul gives np.vdot's floats, which the seeded
    # counts rest on; an einsum or a sum of |v|^2 can differ in the last bit.
    weights = np.matmul(projected.conj()[..., None, :], projected[..., :, None])[..., 0, 0].real
    return projected, weights
