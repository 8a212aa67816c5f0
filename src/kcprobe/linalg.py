"""Dense complex linear algebra primitives for small operator spaces.

Everything here works on plain square ``numpy`` arrays of ``complex128``.
Matrices are validated where a mathematical property is load-bearing
(hermiticity, unitarity, density-matrix constraints); validation failures
raise :class:`~kcprobe.errors.InvariantViolation`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionError, InvariantViolation, ProtocolError
from .tolerances import DEFAULT, Tolerances

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_EPS = float(np.finfo(float).eps)


def as_complex_matrix(a, *, stack: bool = False) -> np.ndarray:
    """Coerce to a finite square complex128 array; with ``stack``, to a
    finite stack ``(..., d, d)`` of them."""
    m = np.asarray(a, dtype=complex)
    if (m.ndim < 2 if stack else m.ndim != 2) or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvariantViolation("matrix contains non-finite entries")
    return m


def require_same_dim(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a.shape[0]


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _frobenius(a: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of the stack ``a``, shape ``a.shape[:-2]``:
    the real parts and the imaginary parts each dotted with themselves, as
    :func:`frobenius` (``np.linalg.norm``) sums them, so each norm is
    :func:`frobenius` of its matrix bit for bit.  An empty stack, such as
    the commutators of one generator, gives an empty result."""
    flat = a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))  # -1 is ambiguous for an empty stack
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def _finite_step_time(t) -> float:
    if not np.isfinite(t):
        raise InvariantViolation(f"step time must be finite, got {t}")
    return float(t)


def _first(bad: np.ndarray) -> tuple:
    """The index of the first true entry of ``bad`` in C order: the element
    of a stack whose failed check a stacked call reports."""
    return np.unravel_index(int(np.argmax(bad)), bad.shape)


@functools.cache
def _layout(d: int) -> tuple[np.ndarray, ...]:
    """Where the coordinates of :func:`_coordinates` sit among the real and
    imaginary parts of a flattened ``d x d`` matrix: the parts each coordinate
    reads as its ``plus`` and ``minus`` term, the sign of the latter and the
    scale of their sum; then the parts :func:`_matrices` writes, the
    coordinate each one takes and its factor."""
    i, k = np.triu_indices(d, 1)
    diag, upper, lower = 2 * np.arange(d) * (d + 1), 2 * (i * d + k), 2 * (k * d + i)
    count, s = len(i), math.sqrt(0.5)
    plus = np.concatenate((diag, upper, upper + 1))
    minus = np.concatenate((diag, lower, lower + 1))
    sign = np.concatenate((np.ones(d + count), -np.ones(count)))
    scale = np.concatenate((np.full(d, 0.5), np.full(2 * count, s)))
    written = np.concatenate((plus, minus[d:]))
    source = np.concatenate((np.arange(d * d), np.arange(d, d * d)))
    factor = np.concatenate((np.ones(d), np.full(2 * count, s), np.full(count, s), np.full(count, -s)))
    layout = plus, minus, sign, scale, written, source, factor
    for part in layout:
        part.setflags(write=False)
    return layout


def _coordinates(x: np.ndarray) -> np.ndarray:
    """The real coordinates ``c(X)``, shape ``(..., d**2)``, of each ``d x d``
    matrix of the stack ``x`` in the orthonormal Hermitian basis ``E_ii``, then
    ``(E_ik + E_ki) / sqrt(2)`` and then ``i (E_ik - E_ki) / sqrt(2)`` for each
    ``i < k`` in row order: ``c_a(X) = Re tr(B_a X)``.  So ``c`` reads the
    Hermitian part of ``X``, its Euclidean norm is the Frobenius norm of a
    Hermitian ``X``, and ``tr(rho X) = c(rho) . c(X)`` for Hermitian ``rho, X``.
    The result is C-ordered whatever the stack, so that every later product
    rounds a matrix's coordinates alike."""
    d = x.shape[-1]
    plus, minus, sign, scale, *_ = _layout(d)
    parts = np.ascontiguousarray(x, dtype=complex).reshape(x.shape[:-2] + (d * d,)).view(float)
    return np.ascontiguousarray((parts[..., plus] + sign * parts[..., minus]) * scale)


def _matrices(c: np.ndarray) -> np.ndarray:
    """The Hermitian ``d x d`` matrices whose coordinates (:func:`_coordinates`)
    are the rows of the real ``(..., d**2)`` stack ``c``."""
    d = math.isqrt(c.shape[-1])
    *_, written, source, factor = _layout(d)
    parts = np.zeros(c.shape[:-1] + (2 * d * d,))
    parts[..., written] = c[..., source] * factor
    return parts.view(complex).reshape(c.shape[:-1] + (d, d))


@functools.cache
def _basis(d: int) -> np.ndarray:
    """The basis of :func:`_coordinates`, one flattened ``d x d`` matrix ``B_a``
    per row, so that ``X = c(X) @ basis`` for a Hermitian ``X``."""
    basis = _matrices(np.eye(d * d)).reshape(d * d, d * d)
    basis.setflags(write=False)
    return basis


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return ``a @ b - b @ a``."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    require_same_dim(a, b)
    return a @ b - b @ a


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product ``tr(a^H b)``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    require_same_dim(a, b)
    return complex(np.sum(a.conj() * b))


def check_hermitian(
    m: np.ndarray, tol: Tolerances = DEFAULT, what: str = "matrix", *, stack: bool = False
) -> np.ndarray:
    """``m`` as a complex matrix if ``|M - M^H|_F <= tol.hermiticity * max(|M|_F, 1)``;
    a matrix whose ``|M|_F`` overflows is not Hermitian.  With ``stack``, ``m``
    is a stack ``(..., d, d)`` and the first matrix in C order that is not
    Hermitian raises."""
    m = as_complex_matrix(m, stack=stack)
    if stack:
        with np.errstate(over="ignore", invalid="ignore"):
            defect, scale = _frobenius(m - m.conj().swapaxes(-1, -2)), _frobenius(m)
        hermitian = (defect <= tol.hermiticity * np.maximum(scale, 1.0)) & (scale < math.inf)
        if hermitian.all():
            return m
        k = _first(~hermitian)
        defect, scale = defect[k], scale[k]
    else:  # one matrix: both norms from one call, compared as floats
        with np.errstate(over="ignore", invalid="ignore"):
            defect, scale = _frobenius(np.array((m - m.conj().T, m))).tolist()
        if defect <= tol.hermiticity * max(scale, 1.0) and scale < math.inf:
            return m
    raise InvariantViolation(f"{what} is not Hermitian: |M - M^H|_F = {defect:.3e}, |M|_F = {scale:.3e}")


def check_density(rho: np.ndarray, dim: int, tol: Tolerances = DEFAULT) -> np.ndarray:
    """``rho`` as a density matrix of a ``dim``-dimensional system: one that is
    not a density matrix raises :class:`InvariantViolation`, and a valid one of
    another size the :class:`ProtocolError` every state reader shares."""
    rho = check_hermitian(rho, tol, what="density matrix")
    tr = rho.trace()
    if abs(complex(tr) - 1.0) > tol.density_trace:
        raise InvariantViolation(f"density matrix trace {tr} is not 1")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < -tol.density_eig:
        raise InvariantViolation(f"density matrix has negative eigenvalue {lo:.3e}")
    if rho.shape != (dim, dim):
        raise ProtocolError(f"state shape {rho.shape} does not match operator {(dim, dim)}")
    return rho


def hermitian_eig(h: np.ndarray, tol: Tolerances = DEFAULT):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted ascending and unitary
    ``v`` whose columns are the eigenvectors, so ``h = v @ diag(w) @ v^H``.
    Eigenvector phases are not pinned; callers must not depend on them.
    """
    h = check_hermitian(h, tol)
    w, v = np.linalg.eigh(h)
    return w, v


def unitary_from_eigensystem(w: np.ndarray, v: np.ndarray, t) -> np.ndarray:
    """Return ``exp(-i t h) = v diag(exp(-i w t)) v^H`` for ``h = v diag(w) v^H``.

    ``(w, v)`` is an eigendecomposition as returned by :func:`hermitian_eig`,
    or a stack of them, ``(..., d)`` and ``(..., d, d)``; ``t`` is a time or
    an array of times that broadcasts against their leading axes, as numpy
    broadcasts, and the result is ``(*leading, d, d)`` for the broadcast
    leading shape.  A time at which every phase ``|w t|`` is at most
    ``eps / 2``, ``t == 0`` among them, gives the identity exactly: the
    unitary is then within half an ulp of it.  A phase ``w t`` that overflows
    raises :class:`InvariantViolation`, and so does a phase whose rounding
    error, ``|w t| * eps``, exceeds the default unitarity cut (``|w t|``
    above about 4.5e5 rad): the unitary would then be arbitrary.  A
    non-finite time raises too; of a stack, the first element in C order
    that fails a check raises, naming its time.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.abs(w).max(axis=-1) * np.abs(t)
    if not phase.max() * _EPS <= DEFAULT.unitarity:  # a non-finite time or phase fails too
        k = _first(~(phase * _EPS <= DEFAULT.unitarity))
        time, worst = float(np.broadcast_to(t, phase.shape)[k]), float(phase[k])
        _finite_step_time(time)
        if not math.isfinite(worst):
            raise InvariantViolation(f"phases w*t overflow at time {time}")
        raise InvariantViolation(
            f"phase |w*t| = {worst:.3e} rad at time {time} has a rounding error above "
            f"the unitarity cut {DEFAULT.unitarity:g}"
        )
    u = (v * np.exp(-1j * w * t[..., None])[..., None, :]) @ np.conj(v).swapaxes(-1, -2)
    if phase.min() <= _EPS / 2:
        u[phase <= _EPS / 2] = np.eye(u.shape[-1])
    return u


def unitary_from_hamiltonian(h: np.ndarray, t: float, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Return ``exp(-i t h)`` computed through the eigendecomposition of ``h``."""
    w, v = hermitian_eig(h, tol)
    return unitary_from_eigensystem(w, v, t)


def orthonormalize_hs(ops, rank_tol: float | None = None, tol: Tolerances = DEFAULT) -> list:
    """Orthonormalize operators in the Hilbert-Schmidt inner product.

    Modified Gram-Schmidt with re-orthogonalization; inputs whose residual
    after projection falls below ``rank_tol`` are dropped.  Order of the
    surviving inputs is preserved.
    """
    if rank_tol is None:
        rank_tol = tol.rank
    mats = [np.asarray(op, dtype=complex) for op in ops]
    if not mats:
        raise DimensionError("orthonormalize_hs needs at least one operator")
    d = mats[0].shape
    basis: list[np.ndarray] = []
    for m in mats:
        if m.shape != d:
            raise DimensionError(f"mixed operator shapes: {m.shape} vs {d}")
        v = m.copy()
        for _ in range(2):  # second pass keeps orthogonality near machine precision
            for b in basis:
                v = v - hs_inner(b, v) * b
        norm = float(np.sqrt(max(hs_inner(v, v).real, 0.0)))
        if norm >= rank_tol:
            basis.append(v / norm)
    return basis
