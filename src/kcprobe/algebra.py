"""Measurement-free analysis of the system operator algebra.

Covers the algebra generated by the conditional Hamiltonians (as a double
commutant), commutativity and classicality predicates, commutants by one
real SVD on Hermitian coordinates, effect nondegeneracy, the level-spacing
condition that forces degenerate effects for commuting families, and the
zero-entanglement predicate for dephasing evolutions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalFault, PreconditionError
from .linalg import (
    _basis,
    _coordinates,
    _matrices,
    as_complex_matrix,
    check_density,
    check_hermitian,
    commutator,
    frobenius,
)
from .model import DephasingModel, MeasurementProtocol, conditional_unitaries
from .serialize import Record
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True, eq=False)
class AlgebraBasis:
    """Orthonormal basis of an operator subspace."""

    generators: tuple[np.ndarray, ...]
    basis: tuple[np.ndarray, ...]
    singular_values: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, op: np.ndarray) -> bool:
        return self.projection_residual(op) <= 1e-8

    def projection_residual(self, op: np.ndarray) -> float:
        """Norm of the component of ``op`` outside the spanned subspace."""
        op = np.asarray(op, dtype=complex)
        coeffs = np.einsum("kab,ab->k", np.conj(self.basis), op)
        return frobenius(op - np.tensordot(coeffs, self.basis, axes=1))


def _common_dimension(ops) -> int:
    mats = [as_complex_matrix(op) for op in ops]
    if not mats:
        raise DimensionError("need at least one operator")
    d = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape[0] != d:
            raise DimensionError(f"mixed operator dimensions: {m.shape[0]} vs {d}")
    return d


def generate_algebra(generators, tol: Tolerances = DEFAULT) -> AlgebraBasis:
    """Unital *-algebra generated by ``generators``, as a double commutant.

    Von Neumann: the *-algebra generated by {1} u {G} u {G^H} is ``(A')'``,
    and :func:`commutant_basis` takes the adjoints in itself.
    """
    commutant = commutant_basis(generators, tol)
    return AlgebraBasis(commutant.generators, _second_commutant(commutant, tol).basis)


def _random_hermitian(ops, count: int) -> list[np.ndarray]:
    """``count`` Hermitian elements ``x + x^H`` of ``span(ops)``, with complex
    Gaussian coefficients from ``default_rng(0)``: seeded, so every call on
    the same operators draws the same elements, and generic, so almost every
    draw shares no accidental symmetry or degeneracy with ``ops``
    (Murota, Kanno, Kojima & Kojima 2010)."""
    coeffs = np.random.default_rng(0).standard_normal((count, 2 * len(ops))).view(complex)
    mixed = np.tensordot(coeffs, ops, axes=1)
    return [x + x.conj().T for x in mixed]


def _second_commutant(commutant: AlgebraBasis, tol: Tolerances) -> AlgebraBasis:
    """``(A')'`` from a basis of ``A'``: the commutant of two random Hermitian
    elements of ``A'``, which generate ``A'`` for almost every draw, so the
    stack is ``2 d^2 x d^2``, not ``dim(A') d^2 x d^2`` (up to d^6).  They are
    drawn from the traceless part of ``A'``, so the rounding of an identity
    in the basis cannot shrink ``(A')'``; for ``A' = C 1`` they are zero and
    ``(A')'`` is all of ``M_d``.  Coordinates hold Hermitian members whole."""
    coords = _coordinates(np.array(commutant.basis))
    d = commutant.basis[0].shape[0]
    coords[:, :d] -= coords[:, :d].mean(axis=1, keepdims=True)
    vh = np.linalg.svd(coords, full_matrices=False)[2]
    return commutant_basis(_random_hermitian(_matrices(vh[: len(coords) - 1]), 2), tol)


def is_commutative(generators, tol: Tolerances = DEFAULT) -> tuple[bool, float]:
    """Pairwise commutativity of a generator set; sufficient for the whole
    generated algebra when the generators are Hermitian.

    Returns the verdict and the largest ``|[a, b]|_F``.  The verdict cuts that
    norm at ``tol.commutator`` times the largest ``|g|_F ** 2``, so it does
    not depend on the units of the generators; all-zero generators commute.
    """
    gens = [as_complex_matrix(g) for g in generators]
    _common_dimension(gens)
    worst = 0.0
    for a, b in itertools.combinations(gens, 2):
        worst = max(worst, frobenius(commutator(a, b)))
    scale = max(map(frobenius, gens), default=0.0) ** 2
    return worst <= tol.commutator * scale, worst


def classical_wrt_state(rho: np.ndarray, algebra: AlgebraBasis, tol: Tolerances = DEFAULT):
    """Whether ``tr(rho [A, B])`` vanishes over the algebra, decided on basis
    pairs: ``tr(rho [a, b]) = M[a, b] - M[b, a]`` for ``M[a, b] = tr(rho a b)``."""
    rho = check_density(rho, len(algebra.basis[0]), tol)
    gram = np.einsum("aij,bji->ab", rho @ np.array(algebra.basis), algebra.basis)
    worst = float(np.max(np.abs(gram - gram.T)))
    return worst <= tol.commutator, worst


def effect_nondegenerate(e: np.ndarray, tol: Tolerances = DEFAULT):
    """Whether all eigenvalues of an effect are separated by more than
    ``tol.gap``, and the smallest separation (None for one eigenvalue).

    Of a stack ``(..., d, d)`` of effects, both per effect, as arrays over
    the leading axes (the separation ``inf`` for one eigenvalue)."""
    e = check_hermitian(e, tol, what="effect", stack=True)
    gaps = np.min(np.diff(np.linalg.eigvalsh(e), axis=-1), axis=-1, initial=np.inf)
    ok = gaps > tol.gap
    if e.ndim > 2:
        return ok, gaps
    return bool(ok), (float(gaps) if e.shape[-1] > 1 else None)


def spacing_degeneracy_predicate(hams, tol: Tolerances = DEFAULT) -> list[tuple[int, int]]:
    """Level pairs whose energy spacing is the same for every Hamiltonian.

    Requires a pairwise-commuting family (shared eigenbasis).  A returned
    pair ``(l, l')`` has ``h_l(i) - h_l'(i)`` independent of ``i``, which
    makes the corresponding effect eigenvalues coincide for any preparation,
    meter basis, and step time.  The common eigenbasis is that of one random
    Hermitian element of the family's span, whose eigenspaces are, for almost
    every draw, exactly the joint eigenspaces; levels are 0-based indices in
    that element's ascending eigenvalue order.  Spacings count as equal
    within ``tol.spacing * max_i |h_i|_F``, so the pairs do not depend on
    the units of ``h``.
    """
    mats = [check_hermitian(h, tol) for h in hams]
    d = _common_dimension(mats)
    ok, worst = is_commutative(mats, tol)
    if not ok:
        raise PreconditionError(
            f"spacing predicate needs commuting Hamiltonians (max commutator {worst:.3e})"
        )
    basis = np.linalg.eigh(_random_hermitian(mats, 1)[0])[1]
    levels = np.real(np.einsum("al,iab,bl->li", basis.conj(), mats, basis))
    first, second = np.triu_indices(d, 1)
    spacings = levels[first] - levels[second]
    cut = tol.spacing * max(map(frobenius, mats))
    flat = np.max(np.abs(spacings - spacings[:, :1]), axis=1) <= cut
    return [(int(a), int(b)) for a, b in zip(first[flat], second[flat])]


def commutant_basis(ops, tol: Tolerances = DEFAULT) -> AlgebraBasis:
    """Orthonormal Hermitian basis of the commutant of the *-algebra that
    ``ops`` generate: of each op's nonzero parts ``(g + g^H) / 2`` and
    ``(g - g^H) / 2i``.  A part ``P`` gives ``X -> i[X, P]`` as a real
    ``d^2 x d^2`` block in the coordinates of :func:`_coordinates`; one real
    SVD of the QR-reduced stack gives the singular values (for Hermitian
    ``ops``, those of ``X -> [X, G]``), recorded on the result, and the null
    space below the cut.  An empty one is a :class:`NumericalFault`, since
    the identity always commutes."""
    mats = [as_complex_matrix(op) for op in ops]
    d = _common_dimension(mats)
    parts = [(g + g.conj().T) / 2 for g in mats] + [(g - g.conj().T) / 2j for g in mats]
    parts = np.array([p for p in parts if p.any()] or [np.zeros((d, d))])
    # row a of a block is c(i[B_a, P]) = 2 c(i B_a P) (c reads the Hermitian part); an
    # antisymmetric block's rows do for its columns.  All-zero ops keep one zero block.
    products = (_basis(d).reshape(d**3, d) @ (2j * parts)).reshape(-1, d, d)
    stacked = _coordinates(products).reshape(-1, d * d)
    if len(stacked) > d * d:
        stacked = np.linalg.qr(stacked, mode="r")
    _, svals, vh = np.linalg.svd(stacked)
    if not svals[-1] < tol.nullspace:
        raise NumericalFault(
            f"empty commutant: smallest singular value {svals[-1]:.3e} is not below "
            f"the nullspace cut {tol.nullspace:.3e}"
        )
    return AlgebraBasis(tuple(mats), tuple(_matrices(vh[svals < tol.nullspace])), svals)


def zero_entanglement_condition(rho: np.ndarray, model: DephasingModel, tol: Tolerances = DEFAULT):
    """Whether dephasing of the probe creates no probe-system entanglement.

    For a qubit probe this holds iff all conditionally evolved states
    coincide; for larger probes the conditional unitaries must additionally
    commute pairwise.  Returns the verdict and the per-pair norms backing it.
    """
    rho = check_density(rho, model.system_dim, tol)
    us = conditional_unitaries(model)
    evolved = [u @ rho @ u.conj().T for u in us]
    state_norms = {}
    comm_norms = {}
    for i, j in itertools.combinations(range(model.probe_dim), 2):
        state_norms[f"{i},{j}"] = frobenius(evolved[i] - evolved[j])
        if model.probe_dim > 2:
            comm_norms[f"{i},{j}"] = frobenius(commutator(us[i], us[j]))
    worst = max(state_norms.values())
    if comm_norms:
        worst = max(worst, max(comm_norms.values()))
    diagnostics = {"state_mismatch": state_norms}
    if comm_norms:
        diagnostics["unitary_commutators"] = comm_norms
    return worst <= tol.entanglement, diagnostics


@dataclass(frozen=True)
class AlgebraReport(Record):
    """Summary of the operator algebra the probe can sense."""

    OMIT_IF_NONE = ("effect_nondegeneracy",)

    dimension: int
    commutative: bool
    max_generator_commutator: float
    commutant_dimension: int
    commutant_singular_values_near_cut: tuple[float, ...]
    effect_nondegeneracy: tuple[dict, ...] | None
    tolerances: dict


def algebra_report(
    model: DephasingModel,
    protocol: MeasurementProtocol | None = None,
    tol: Tolerances = DEFAULT,
) -> AlgebraReport:
    """Analyze the algebra generated by the conditional Hamiltonians.

    The algebra is the second commutant of the commutant the report states,
    so ``dimension`` and ``commutant_dimension`` come from one null space.
    When a protocol is given, every step effect is additionally screened for
    eigenvalue degeneracy.
    """
    commutative, worst = is_commutative(model.hamiltonians, tol)
    commutant = commutant_basis(model.hamiltonians, tol)
    closed = _second_commutant(commutant, tol)
    svals = commutant.singular_values
    near = tuple(
        float(s) for s in svals if tol.nullspace / 100.0 <= s <= tol.nullspace * 100.0
    )
    nondegeneracy = None
    if protocol is not None:
        rows = []
        for step, measurement in enumerate(protocol.step_measurements, start=1):
            for label, effect in zip(measurement.labels, measurement.effects):
                ok, gap = effect_nondegenerate(effect, tol=tol)
                rows.append(
                    {"step": step, "outcome": label, "nondegenerate": ok, "min_gap": gap}
                )
        nondegeneracy = tuple(rows)
    return AlgebraReport(
        dimension=closed.dimension,
        commutative=commutative,
        max_generator_commutator=worst,
        commutant_dimension=commutant.dimension,
        commutant_singular_values_near_cut=near,
        effect_nondegeneracy=nondegeneracy,
        tolerances=tol.as_dict(),
    )
