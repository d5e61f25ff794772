"""Dense complex linear algebra for Hilbert spaces of dimension at most 16.

Everything a two-party quantum protocol simulation needs and nothing more.
States and mixtures are plain arrays: a pure state is a ``(..., d)`` array
of amplitudes, a mixture a ``(d, d)`` array.  On them: Hermitian spectra
via LAPACK (numpy's ``eigvalsh`` / ``eigh``), trace norms, minimum-error
(Helstrom) discrimination, and projective measurements whose completeness
and orthogonality are checked once, at construction.  Two stacked
primitives carry the numerics: :func:`trace_norms` takes the trace norms of
a stack of operators in one eigensolve, and :func:`projections` gives the
projected vectors and Born weights of a stack of pure states under a
measurement; :func:`cumulative_thresholds` turns a table of such weights,
once, into the thresholds its outcomes are sampled from, one comparison
per two-outcome draw.  All values are immutable after construction and all
operations are pure functions, so they are safe to share between threads.

:class:`ComplexMatrix` is the one validated operator type.
:func:`helstrom_prob` and :func:`helstrom_projectors` take their states as
``ComplexMatrix`` operands and check, at that boundary, that each is a
density matrix.  The stacked primitives and :func:`helstrom_measurement`
check nothing: they take operators that are valid by construction.

Tolerances are fixed package-wide: ``STRUCTURAL_TOL`` guards construction
invariants (hermiticity, normalisation, priors, equality), ``DERIVED_TOL``
guards derived quantities (positivity, projector completeness, outcome
weights that are rounding residues of 0).
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from typing import Sequence

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


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """Dense complex matrix, at most 16x16, of finite entries, immutable
    after construction.

    Equality is entrywise within ``STRUCTURAL_TOL``; instances are therefore
    unhashable.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValidationError(f"expected a 2-dimensional array, got shape {arr.shape}")
        rows, cols = arr.shape
        if not (1 <= rows <= MAX_DIM) or not (1 <= cols <= MAX_DIM):
            raise DimensionError(f"matrix shape {rows}x{cols} outside 1..{MAX_DIM}")
        if not np.isfinite(arr).all():
            raise ValidationError("matrix entries must be finite")
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


def _discrimination_operator(p0: float, rho0: ComplexMatrix, p1: float, rho1: ComplexMatrix) -> np.ndarray:
    # p0 rho0 - p1 rho1, once the priors and both states are checked: each
    # state square, of one shared dimension, Hermitian, of unit trace and
    # with no eigenvalue below -DERIVED_TOL.
    _check_priors(p0, p1)
    if rho0.data.shape != rho1.data.shape or rho0.rows != rho0.cols:
        raise DimensionError("states to discriminate must be square and share a dimension")
    for rho in (rho0, rho1):
        if not rho.is_hermitian():
            raise ValidationError("density matrix must be Hermitian within 1e-12")
        tr = rho.trace()
        if not abs(tr - 1.0) <= STRUCTURAL_TOL:
            raise ValidationError(f"density matrix trace {tr!r} is not 1 within {STRUCTURAL_TOL}")
        smallest = _eigenvalues(rho.data)[0]
        if not smallest >= -DERIVED_TOL:
            raise ValidationError(f"density matrix has eigenvalue {smallest} < -{DERIVED_TOL}")
    return p0 * rho0.data - p1 * rho1.data


def helstrom_prob(p0: float, rho0: ComplexMatrix, p1: float, rho1: ComplexMatrix) -> float:
    """Optimal success probability of distinguishing the density matrix
    rho0 (prior p0) from rho1 (prior p1): (1 + ||p0 rho0 - p1 rho1||_1) / 2."""
    return 0.5 * (1.0 + float(trace_norms(_discrimination_operator(p0, rho0, p1, rho1))))


def helstrom_projectors(
    p0: float, rho0: ComplexMatrix, p1: float, rho1: ComplexMatrix
) -> tuple[ComplexMatrix, ComplexMatrix]:
    """Projector pair realising the optimal discrimination of the density
    matrices rho0 (prior p0) and rho1 (prior p1): the projectors of
    :func:`helstrom_measurement` on p0 rho0 - p1 rho1."""
    return helstrom_measurement(_discrimination_operator(p0, rho0, p1, rho1)).projectors


def helstrom_measurement(operator: np.ndarray) -> ProjectiveMeasurement:
    """The measurement realising the optimal discrimination of p0 rho0 from
    p1 rho1, given ``operator`` = p0 rho0 - p1 rho1.

    Outcome 0 spans the strictly positive eigenspace of the operator
    together with its null space (ties go to outcome 0, which keeps sampled
    runs deterministic); outcome 1 gets the strictly negative eigenspace.
    Like :func:`trace_norms` it takes the operator as given, so pass only
    one built from valid states; :func:`helstrom_projectors` checks them.
    """
    w, v = _hermitian_eigh(ComplexMatrix(operator))
    negative = v[:, w < -STRUCTURAL_TOL]
    pi1 = negative @ negative.conj().T
    return ProjectiveMeasurement((ComplexMatrix(np.eye(len(w)) - pi1), ComplexMatrix(pi1)))


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
    read-only, same shape: the cumulative sums of the weights, each weight
    at or below ``DERIVED_TOL`` counting as 0, with the last outcome of
    weight above it (the last outcome, where none is) and every outcome
    after it raised to ``+inf``.

    A weight within ``DERIVED_TOL`` of 0 is the rounding residue of an
    impossible outcome, so an outcome whose weight is within it of 1 is
    drawn at every ``r``.  The outcome of a row at a uniform ``r`` in
    [0, 1) is the number of its thresholds at or below ``r``: the first
    outcome whose cumulative weight exceeds ``r``, an ``r`` on a boundary
    going to the next outcome, and the last outcome kept when rounding
    leaves the total at or below ``r``.  A two-outcome row thus gives
    outcome 1 exactly when ``r >= row[0]``.
    """
    kept = np.where(weights > DERIVED_TOL, weights, 0.0)
    thresholds = np.cumsum(kept, axis=-1)
    k = thresholds.shape[-1]
    last = k - 1 - (kept[..., ::-1] > 0.0).argmax(axis=-1)
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
