"""Dense complex linear algebra for Hilbert spaces of dimension at most 16.

Everything a two-party quantum protocol simulation needs and nothing more.
States, mixtures and measurements are plain arrays: a pure state is a
``(..., d)`` array of amplitudes, a mixture a ``(d, d)`` array, and a
projective measurement the read-only ``(outcomes, d, d)`` stack of its
projectors that :func:`projective_measurement` returns once it has checked
them (square, one shared dimension, finite, complete, pairwise orthogonal).
Four stacked primitives carry the numerics: :func:`trace_norms` takes the
trace norms of a stack of operators in one LAPACK ``eigvalsh`` call,
:func:`positive_parts` their positive parts in one ``eigh`` call,
:func:`helstrom_measurement` builds the minimum-error (Helstrom)
measurement of one operator p0 rho0 - p1 rho1, and :func:`projections`
gives the projected vectors and Born weights of a stack of pure states
under a measurement.  Every measurement sampled has two outcomes, and
:func:`sampling_thresholds` turns a table of their weights, once, into the
uniforms at or above which outcome 1 is drawn: one comparison per draw.
One exact primitive, :func:`trace_norm_2x2`, takes the trace norm of a
single 2 x 2 Hermitian block given as Python numbers in closed form, with
no LAPACK call.  None of these primitives checks anything: they take
operators that are valid by construction.  All values are read-only after
construction and all operations are pure functions, so they are safe to
share between threads.

:class:`ComplexMatrix` and :func:`hermitian_eigenvalues`, a checked
operand and the spectrum of one Hermitian matrix, serve callers outside
the package; the package itself uses neither.

Tolerances are fixed package-wide: ``STRUCTURAL_TOL`` guards hermiticity
and decides which eigenvalues of a Helstrom operator are negative,
``DERIVED_TOL`` guards derived quantities (projector completeness and
orthogonality, outcome weights that are rounding residues of 0).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

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


def is_real(value) -> bool:
    """True for a real number but a bool, numpy's included."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """Dense complex matrix, at most 16x16, of finite entries, read-only
    after construction: the operand of :func:`hermitian_eigenvalues`."""

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


def _eigenvalues(operators: np.ndarray) -> np.ndarray:
    # Ascending eigenvalues of each matrix of a stack, from one LAPACK call.
    try:
        return np.linalg.eigvalsh(operators)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc


def hermitian_eigenvalues(m: ComplexMatrix) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending (LAPACK ``eigvalsh``)."""
    data = m.data
    if data.shape[0] != data.shape[1] or not np.max(np.abs(data - data.conj().T)) <= STRUCTURAL_TOL:
        raise ValidationError("eigensolver requires a Hermitian matrix (tolerance 1e-12)")
    return _eigenvalues(data)


def _hermitian_eigh(operators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Ascending eigenvalues and eigenvectors of each matrix of a stack, from
    # one LAPACK call.
    try:
        return np.linalg.eigh(operators)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc


def trace_norms(operators: np.ndarray) -> np.ndarray:
    """Trace norm of each operator of an ``(..., d, d)`` stack: the sum of
    its absolute eigenvalues, all from one ``eigvalsh`` call.

    Like numpy's ``eigvalsh``, it does not check that the operators are
    Hermitian: it reads only their lower triangles, and a non-Hermitian
    input gives meaningless values.  Pass only operators that are Hermitian
    by construction.
    """
    return np.abs(_eigenvalues(operators)).sum(axis=-1)


def trace_norm_2x2(a, b, d) -> float:
    """Trace norm of the 2 x 2 Hermitian block ((a, conj b), (b, d)) given
    as Python numbers, a and d real: like :func:`trace_norms` it reads the
    lower triangle.

    The eigenvalues are (t +- r) / 2 with t = a + d and r = hypot(a - d,
    2 |b|), so the norm is r where their signs differ (r >= |t|) and |t|
    where they agree: no iteration and no LAPACK call.  Like
    :func:`trace_norms` it checks nothing.
    """
    return max(abs(a + d), math.hypot(a - d, 2 * abs(b)))


def positive_parts(operators: np.ndarray) -> np.ndarray:
    """Positive part V max(L, 0) V^dagger of each operator of an
    ``(..., d, d)`` stack, all from one ``eigh`` call.  An operator's
    absolute value is 2 H_+ - H, so its trace norm is 2 tr H_+ - tr H.

    Like :func:`trace_norms` it reads only the lower triangles: pass only
    operators that are Hermitian by construction.
    """
    w, v = _hermitian_eigh(operators)
    return (v * np.maximum(w, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def helstrom_measurement(operator: np.ndarray) -> np.ndarray:
    """The measurement realising the optimal discrimination of p0 rho0 from
    p1 rho1, given ``operator`` = p0 rho0 - p1 rho1, as a
    :func:`projective_measurement` stack.

    Outcome 0 spans the strictly positive eigenspace of the operator
    together with its null space (ties go to outcome 0, which keeps sampled
    runs deterministic); outcome 1 gets the strictly negative eigenspace.
    Like :func:`trace_norms` it takes the operator as given, so pass only
    one built from valid states.
    """
    w, v = _hermitian_eigh(operator)
    negative = v[:, w < -STRUCTURAL_TOL]
    pi1 = negative @ negative.conj().T
    return projective_measurement((np.eye(len(w)) - pi1, pi1))


def projective_measurement(projectors) -> np.ndarray:
    """A complete set of pairwise-orthogonal projectors as one read-only
    ``(outcomes, dim, dim)`` complex array, validated once: outcome ``k``
    is the ``k``-th projector.

    It checks that the set is non-empty, that every projector is square
    with one shared dimension in 1..16, that every entry is finite, and
    that the projectors sum to the identity and are pairwise orthogonal
    within ``DERIVED_TOL``.
    """
    arrays = [np.asarray(proj, dtype=np.complex128) for proj in projectors]
    if not arrays:
        raise ValidationError("a measurement needs at least one projector")
    shape = arrays[0].shape
    if not (len(shape) == 2 and shape[0] == shape[1] and 1 <= shape[0] <= MAX_DIM) or any(
        proj.shape != shape for proj in arrays
    ):
        raise DimensionError(f"projectors must be square and share one dimension in 1..{MAX_DIM}")
    stack = np.array(arrays)
    if not np.isfinite(stack).all():
        raise ValidationError("projector entries must be finite")
    if not np.max(np.abs(stack.sum(axis=0) - np.eye(shape[0]))) <= DERIVED_TOL:
        raise ValidationError("projector set is not complete (sum differs from identity)")
    for i in range(len(stack)):
        for j in range(i + 1, len(stack)):
            if not np.max(np.abs(stack[i] @ stack[j])) <= DERIVED_TOL:
                raise ValidationError(f"projectors {i} and {j} are not orthogonal")
    stack.setflags(write=False)
    return stack


def sampling_thresholds(weights: np.ndarray) -> np.ndarray:
    """The sampling thresholds of an ``(..., 2)`` table of two-outcome
    weights, read-only, shape ``(...)``: outcome 1 is drawn at a uniform
    ``r`` in [0, 1) exactly when ``r`` is at or above its row's threshold.

    A weight at or below ``DERIVED_TOL`` is the rounding residue of an
    impossible outcome.  The threshold is the weight of outcome 0; 0 where
    that weight is such a residue, so outcome 1 is drawn at every ``r``;
    and ``+inf`` where only the weight of outcome 1 is, so outcome 0 is.
    An ``r`` on the boundary goes to outcome 1, and a row whose weights
    rounding leaves short of 1 keeps outcome 1 above their total.
    """
    w0, w1 = weights[..., 0], weights[..., 1]
    thresholds = np.where(w0 > DERIVED_TOL, np.where(w1 > DERIVED_TOL, w0, np.inf), 0.0)
    thresholds.setflags(write=False)
    return thresholds


def projections(amplitudes: np.ndarray, measurement: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The projected vectors ``P_k psi`` of an ``(..., d)`` stack of pure
    states under a :func:`projective_measurement` stack, shape
    ``(..., k, d)``, and their Born weights ``||P_k psi||^2``, shape
    ``(..., k)``.

    The amplitudes are taken as given, unit norm or not.  A post-measurement
    state is a projected vector over the square root of its weight.
    """
    if amplitudes.shape[-1] != measurement.shape[-1]:
        raise DimensionError("projector dimensions must match the state")
    projected = np.matmul(measurement, amplitudes[..., None, :, None])[..., 0]
    # The inner product as a matmul gives np.vdot's floats, which the seeded
    # counts rest on; an einsum or a sum of |v|^2 can differ in the last bit.
    weights = np.matmul(projected.conj()[..., None, :], projected[..., :, None])[..., 0, 0].real
    return projected, weights
