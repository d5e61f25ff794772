"""Dense complex linear algebra for Hilbert spaces of dimension at most 16.

Everything a two-party quantum protocol simulation needs and nothing more:
tensor products, partial traces, Hermitian spectra via LAPACK (numpy's
``eigvalsh`` / ``eigh``), trace norms, minimum-error (Helstrom)
discrimination, and projective measurement sampling from measurements whose
completeness and orthogonality are checked once, at construction.  All
values are immutable after construction and all operations are pure
functions, so they are safe to share between threads.

Tolerances are fixed package-wide: ``STRUCTURAL_TOL`` guards construction
invariants (hermiticity, normalisation, priors, equality), ``DERIVED_TOL``
guards derived quantities (positivity, projector completeness).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
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

    def dagger(self) -> "ComplexMatrix":
        return ComplexMatrix(self.data.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def is_hermitian(self, tol: float = STRUCTURAL_TOL) -> bool:
        return self.rows == self.cols and bool(
            np.max(np.abs(self.data - self.data.conj().T)) <= tol
        )

    def __add__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        return ComplexMatrix(self.data + other.data)

    def __sub__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        return ComplexMatrix(self.data - other.data)

    def __mul__(self, scalar: complex) -> "ComplexMatrix":
        return ComplexMatrix(self.data * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return ComplexMatrix(self.data @ other.data)

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


def hermitian_eigenvalues(m: ComplexMatrix) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending (LAPACK ``eigvalsh``)."""
    _require_hermitian(m)
    try:
        return np.linalg.eigvalsh(m.data)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc


def _hermitian_eigh(m: ComplexMatrix) -> tuple[np.ndarray, np.ndarray]:
    _require_hermitian(m)
    try:
        return np.linalg.eigh(m.data)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc


def trace_norm(m: ComplexMatrix) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(m)).sum())


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
        object.__setattr__(self, "projectors", projectors)

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


def _checked_measurement(measurement, dim: int, rand: float) -> ProjectiveMeasurement:
    # The per-call checks; a plain projector sequence is validated here.
    if not (0.0 <= rand < 1.0):
        raise ValidationError(f"rand must lie in [0, 1), got {rand}")
    if not isinstance(measurement, ProjectiveMeasurement):
        measurement = ProjectiveMeasurement(measurement)
    if measurement.dim != dim:
        raise DimensionError("projector dimensions must match the state")
    return measurement


def _invert_cumulative(weights: list[float], rand: float) -> int:
    # Ascending index order, negative weights clamped at 0, and the last
    # outcome when rounding leaves the total below rand.
    cumulative = 0.0
    for k, weight in enumerate(weights):
        cumulative += max(weight, 0.0)
        if rand < cumulative:
            return k
    return len(weights) - 1


def measure(
    state: DensityMatrix, measurement: ProjectiveMeasurement | Sequence[ComplexMatrix], rand: float
) -> int:
    """Sample a projective measurement outcome.

    ``measurement`` is a :class:`ProjectiveMeasurement`, validated when it
    was built; a plain projector sequence is wrapped in one, so it gets the
    same completeness and orthogonality checks on every call.  Each call
    checks ``rand`` and the state's dimension.  Sampling inverts the
    cumulative outcome distribution at ``rand`` (a uniform draw in [0, 1))
    in ascending index order, so a fixed ``rand`` always yields the same
    outcome.
    """
    measurement = _checked_measurement(measurement, state.dim, rand)
    rho = state.matrix.data
    return _invert_cumulative(
        [float(np.einsum("ij,ji->", proj.data, rho).real) for proj in measurement], rand
    )


def measure_pure(
    state: PureState, measurement: ProjectiveMeasurement | Sequence[ComplexMatrix], rand: float
) -> tuple[int, np.ndarray]:
    """Sample a projective measurement of a pure state.

    Gives the outcome :func:`measure` gives on ``DensityMatrix.from_pure(state)``
    with the same ``rand``, together with the post-measurement amplitudes
    ``P_k psi / ||P_k psi||``.  Each Born weight is ``||P_k psi||^2``, taken
    from the projected vector the post-measurement state needs anyway.
    """
    measurement = _checked_measurement(measurement, state.dim, rand)
    psi = state.amplitudes
    projected = [proj.data @ psi for proj in measurement]
    weights = [float(np.vdot(v, v).real) for v in projected]
    outcome = _invert_cumulative(weights, rand)
    return outcome, projected[outcome] / math.sqrt(weights[outcome])
