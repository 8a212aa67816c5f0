"""Dense complex linear algebra primitives for small operator spaces.

Everything here works on plain square ``numpy`` arrays of ``complex128``.
Matrices are validated where a mathematical property is load-bearing
(hermiticity, unitarity, density-matrix constraints); validation failures
raise :class:`~kcprobe.errors.InvariantViolation`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, InvariantViolation
from .tolerances import DEFAULT, Tolerances

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a finite square complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvariantViolation("matrix contains non-finite entries")
    return m


def require_same_dim(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a.shape[0]


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


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


def hs_norm(a: np.ndarray) -> float:
    return float(np.sqrt(max(hs_inner(a, a).real, 0.0)))


def is_hermitian(m: np.ndarray, tol: Tolerances = DEFAULT) -> bool:
    """``|M - M^H|_F <= tol.hermiticity * max(|M|_F, 1)``; False if ``|M|_F`` overflows."""
    with np.errstate(over="ignore"):
        scale = frobenius(m)
    if not math.isfinite(scale):
        return False
    return frobenius(m - m.conj().T) <= tol.hermiticity * max(scale, 1.0)


def check_hermitian(m: np.ndarray, tol: Tolerances = DEFAULT, what: str = "matrix") -> np.ndarray:
    m = as_complex_matrix(m)
    if not is_hermitian(m, tol):
        with np.errstate(over="ignore"):
            defect, scale = frobenius(m - m.conj().T), frobenius(m)
        raise InvariantViolation(
            f"{what} is not Hermitian: |M - M^H|_F = {defect:.3e}, |M|_F = {scale:.3e}"
        )
    return m


def check_density(rho: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    rho = check_hermitian(rho, tol, what="density matrix")
    tr = np.trace(rho)
    if abs(tr - 1.0) > tol.density_trace:
        raise InvariantViolation(f"density matrix trace {tr} is not 1")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < -tol.density_eig:
        raise InvariantViolation(f"density matrix has negative eigenvalue {lo:.3e}")
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


def unitary_from_eigensystem(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Return ``exp(-i t h) = v diag(exp(-i w t)) v^H`` for ``h = v diag(w) v^H``.

    ``(w, v)`` is an eigendecomposition as returned by :func:`hermitian_eig`;
    ``t == 0`` gives the identity exactly.  A phase ``w t`` that overflows
    raises :class:`InvariantViolation`, and so does a phase whose rounding
    error, ``|w t| * eps``, exceeds the default unitarity cut (``|w t|``
    above about 4.5e5 rad): the unitary would then be arbitrary.
    """
    if not np.isfinite(t):
        raise InvariantViolation(f"time must be finite, got {t}")
    if t == 0.0:
        return np.eye(v.shape[0], dtype=complex)
    phase = float(np.max(np.abs(w))) * abs(t)
    if not math.isfinite(phase):
        raise InvariantViolation(f"phases w*t overflow at time {t}")
    if phase * np.finfo(float).eps > DEFAULT.unitarity:
        raise InvariantViolation(
            f"phase |w*t| = {phase:.3e} rad at time {t} has a rounding error above "
            f"the unitarity cut {DEFAULT.unitarity:g}"
        )
    return (v * np.exp(-1j * w * t)) @ v.conj().T


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
        norm = hs_norm(v)
        if norm >= rank_tol:
            basis.append(v / norm)
    return basis


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))
