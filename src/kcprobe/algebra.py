"""Measurement-free analysis of the system operator algebra.

Covers the algebra generated by the conditional Hamiltonians (as a double
commutant), commutativity and classicality predicates, commutants by one
real SVD on Hermitian coordinates (restricted to the eigenspaces of a
random element of the generators where that decides alike), effect
nondegeneracy, the level-spacing condition that forces degenerate effects
for commuting families, and the zero-entanglement predicate for dephasing
evolutions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalFault, PreconditionError
from .linalg import (
    _basis,
    _coordinates,
    _frobenius,
    _layout,
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


def _common_dimension(mats) -> int:
    """The dimension shared by the square matrices ``mats``, each already
    checked by :func:`~kcprobe.linalg.as_complex_matrix`."""
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
    Gaussian coefficients from :func:`_gaussian`: seeded, so every call on
    the same operators draws the same elements, and generic, so almost every
    draw shares no accidental symmetry or degeneracy with ``ops``
    (Murota, Kanno, Kojima & Kojima 2010).  For Hermitian ``ops`` an element
    is ``sum_k 2 Re(a_k) ops[k]``."""
    mixed = np.tensordot(_gaussian(count, len(ops)), ops, axes=1)
    return [x + x.conj().T for x in mixed]


def _gaussian(count: int, n: int) -> np.ndarray:
    """The ``(count, n)`` complex coefficients ``a`` of :func:`_random_hermitian`,
    from ``default_rng(0)``."""
    return np.random.default_rng(0).standard_normal((count, 2 * n)).view(complex)


def _second_commutant(commutant: AlgebraBasis, tol: Tolerances) -> AlgebraBasis:
    """``(A')'`` from a basis of ``A'``: the commutant of two random Hermitian
    elements of ``A'``, which generate ``A'`` for almost every draw, so the
    stack has 2 blocks, not ``dim(A')`` (up to d^2).  They are drawn from the
    basis members with their identity component projected off: the basis is
    orthonormal and holds the identity, so the projected members span the
    traceless part of ``A'`` and a Gaussian combination of them is a Gaussian
    element of it, and the rounding of an identity in the basis cannot
    shrink ``(A')'``.  For ``A' = C 1`` nothing is left and ``(A')'`` is all
    of ``M_d``.  Coordinates hold Hermitian members whole."""
    coords = _coordinates(np.array(commutant.basis))
    d = commutant.basis[0].shape[0]
    coords[:, :d] -= coords[:, :d].mean(axis=1, keepdims=True)
    if len(coords) == 1:  # only the identity's rounding is left
        coords = coords[:0]
    return commutant_basis(_random_hermitian(_matrices(coords), 2), tol)


def _commutator_norms(stack: np.ndarray) -> np.ndarray:
    """``|[a, b]|_F`` (:func:`~kcprobe.linalg._frobenius`) of every generator
    pair ``(a, b)`` of each set of the ``(..., k, d, d)`` stack, in
    ``itertools.combinations`` order: ``(..., k (k - 1) / 2)``, with one
    batched product per pair.  A product or norm that overflows reads
    ``inf`` or ``nan``, without a warning."""
    pairs = list(itertools.combinations(range(stack.shape[-3]), 2))
    norms = np.empty(stack.shape[:-3] + (len(pairs),))
    with np.errstate(over="ignore", invalid="ignore"):
        for n, (i, j) in enumerate(pairs):
            a, b = stack[..., i, :, :], stack[..., j, :, :]
            norms[..., n] = _frobenius(a @ b - b @ a)
    return norms


def is_commutative(generators, tol: Tolerances = DEFAULT) -> tuple[bool, float]:
    """Pairwise commutativity of a generator set; sufficient for the whole
    generated algebra when the generators are Hermitian.

    Returns the verdict and the largest ``|[a, b]|_F`` (:func:`_commutator_norms`).
    The verdict cuts that norm at ``tol.commutator`` times the largest
    ``|g|_F ** 2``, so it does not depend on the units of the generators;
    all-zero generators commute.  A largest norm or squared ``|g|_F`` that
    overflows raises :class:`NumericalFault`: no verdict can be read from it.
    """
    gens = [as_complex_matrix(g) for g in generators]
    _common_dimension(gens)
    gens = np.array(gens)
    worst = float(_commutator_norms(gens).max(initial=0.0))
    with np.errstate(over="ignore"):
        scale = float(_frobenius(gens).max() ** 2)
    if not (math.isfinite(worst) and math.isfinite(scale)):
        raise NumericalFault(
            f"largest commutator norm {worst:.3e} or squared generator norm {scale:.3e} is not finite"
        )
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


# Smallest system dimension whose commutant is first solved on the
# eigenspaces of a random element (:func:`_restricted`).  The restriction
# costs an ``eigh``, a second draw of the coefficients, the rotation and the
# index set-up, about 150 us.  One commutant of two or three random or
# commuting Hamiltonians took 172-234 us on the full stack against 251-308 us
# restricted at d = 5, 272-338 against 249-269 us at d = 6, and 780-987
# against 266-318 us at d = 8 (one BLAS thread, a 2-core x86 box).  The rule
# reads ``d`` alone.
_RESTRICT_MIN_DIM = 6


def commutant_basis(ops, tol: Tolerances = DEFAULT) -> AlgebraBasis:
    """Orthonormal Hermitian basis of the commutant of the *-algebra that
    ``ops`` generate: of each op's nonzero parts ``(g + g^H) / 2`` and
    ``(g - g^H) / 2i``.  A part ``P`` gives ``X -> i[X, P]`` as a real block
    in the coordinates of :func:`_coordinates`; one real SVD of the
    QR-reduced stack (:func:`_stack_svd`) gives the singular values (for
    Hermitian ``ops``, those of ``X -> [X, G]``), recorded on the result, and
    the null space below the cut.  From :data:`_RESTRICT_MIN_DIM` on, the
    unknowns are first restricted to the eigenspaces of one random element of
    the parts (:func:`_restricted`), and the recorded singular values are
    the restricted ones; where those might decide otherwise than the full
    stack, the full stack is solved.  With every part zero the commutant is
    all of ``M_d``, its singular values zero, and no SVD runs.  An empty null
    space is a :class:`NumericalFault`, since the identity always commutes."""
    mats = [as_complex_matrix(op) for op in ops]
    d = _common_dimension(mats)
    parts = [(g + g.conj().T) / 2 for g in mats] + [(g - g.conj().T) / 2j for g in mats]
    parts = np.array([p for p in parts if p.any()])
    if not len(parts):
        return AlgebraBasis(tuple(mats), tuple(_basis(d).reshape(-1, d, d)), np.zeros(d * d))
    found = _restricted(parts, tol) if d >= _RESTRICT_MIN_DIM else None
    if found is None:
        svals, vh = _stack_svd(parts, _basis(d))
        found = svals, _matrices(vh[svals < tol.nullspace])
    svals, members = found
    if not svals[-1] < tol.nullspace:
        raise NumericalFault(
            f"empty commutant: smallest singular value {svals[-1]:.3e} is not below "
            f"the nullspace cut {tol.nullspace:.3e}"
        )
    return AlgebraBasis(tuple(mats), tuple(members), svals)


def _stack_svd(parts: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The singular values and right singular vectors of the stacked maps
    ``X -> i[X, P]`` of the Hermitian ``parts`` on the span of ``basis``,
    ``n`` elements ``B_u`` of the basis of :func:`_coordinates` (all ``d^2``,
    flattened, as :func:`_basis` holds them, or fewer).  The image of ``B_u``
    is ``c(i[B_u, P]) = c(2i B_u P)`` (``c`` reads the Hermitian part), the
    column of ``u`` in a part's real block.  On all of ``M_d`` the block is
    antisymmetric, so its rows serve as its columns; on fewer unknowns the
    images are transposed into a ``(d^2, n)`` block.  A stack taller than it
    is wide is reduced to its QR ``R`` factor before the one SVD."""
    d = parts.shape[-1]
    images = _coordinates((basis.reshape(-1, d) @ (2j * parts)).reshape(-1, d, d))
    if len(basis) < d * d:
        images = images.reshape(len(parts), len(basis), d * d).transpose(0, 2, 1)
    stacked = images.reshape(-1, len(basis))
    if len(stacked) > len(basis):
        stacked = np.linalg.qr(stacked, mode="r")
    _, svals, vh = np.linalg.svd(stacked)
    return svals, vh


def _restricted(parts: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray] | None:
    """The singular values and members of the commutant of the Hermitian
    ``parts`` on the eigenspaces of one random element ``y = sum_k c_k P_k``
    (:func:`_random_hermitian`), or None where they might differ from the
    full stack's.

    A member commutes with ``y``, so it is block-diagonal in ``y``'s
    eigenbasis.  Eigenvalues closer than ``|c|_2 cut`` are grouped, and the
    unknowns are the coordinates, in that basis, of the index pairs inside
    one group: ``d`` of them for a generic ``y``.  The restricted stack is a
    compression of the full stack ``L``, so it lowers no singular value.  A
    direction with ``|L x| <= s`` has ``|[X, y]| <= |c|_2 s``, so its part
    outside the groups is at most ``e = |c|_2 s / g``, with ``g`` the
    smallest gap between groups, and its part inside has ``|L x|`` at most
    ``K s`` times its norm, ``K = (1 + |L| |c|_2 / g) / sqrt(1 - e^2)`` and
    ``|L| <= 2 sqrt(sum_k |P_k|_F^2)``.  So when no restricted singular value
    lies in ``[cut / 100, 100 K cut]`` (``s = 100 cut``), the full stack has
    as many below the cut and none in ``[cut / 100, 100 cut]``, and the
    restricted result stands.  The members are rotated back and made exactly
    Hermitian through their coordinates."""
    d = parts.shape[-1]
    cut = tol.nullspace
    y = _random_hermitian(parts, 1)[0]
    c_norm = 2.0 * float(np.linalg.norm(_gaussian(1, len(parts)).real))
    values, vectors = np.linalg.eigh(y)
    gaps = np.diff(values)
    split = gaps >= c_norm * cut
    if not split.any():
        return None
    gap = float(np.min(gaps[split]))
    slack = 100.0 * cut * c_norm / gap
    if not slack < 1.0:
        return None
    group = np.concatenate(([0], np.cumsum(split)))
    entry = _layout(d)[0] // 2
    unknowns = np.flatnonzero(group[entry // d] == group[entry % d])
    svals, vh = _stack_svd(vectors.conj().T @ parts @ vectors, _one_hot(d, unknowns))
    l_norm = 2.0 * float(np.linalg.norm(parts))
    top = 100.0 * cut * (1.0 + l_norm * c_norm / gap) / np.sqrt(1.0 - slack**2)
    if np.any((cut / 100.0 <= svals) & (svals <= top)):
        return None
    null = np.zeros((np.count_nonzero(svals < cut), d * d))
    null[:, unknowns] = vh[svals < cut] + 0.0  # scattered to all d**2 coordinates; -0.0 reads +0.0
    null = _matrices(null)
    return svals, _matrices(_coordinates(vectors @ null @ vectors.conj().T))


def _one_hot(d: int, unknowns: np.ndarray) -> np.ndarray:
    """The basis elements ``B_u`` of :func:`_coordinates` for the coordinates
    ``unknowns``, as :func:`_matrices` makes them from one-hot rows, signed
    zeros included, but with only their one or two nonzero parts written."""
    *_, written, source, factor = _layout(d)
    parts = np.zeros(2 * d * d)
    parts[written] = 0.0 * factor  # -0.0 where the factor is negative
    parts = np.repeat(parts[None], len(unknowns), axis=0)
    row = np.full(d * d, -1)
    row[unknowns] = np.arange(len(unknowns))
    nonzero = np.flatnonzero(row[source] >= 0)
    parts[row[source[nonzero]], written[nonzero]] = factor[nonzero]
    return parts.view(complex).reshape(len(unknowns), d, d)


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
    eigenvalue degeneracy, all in one stacked :func:`effect_nondegenerate`.
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
        steps = protocol.step_measurements
        oks, gaps = effect_nondegenerate(np.array([m.effects for m in steps]), tol=tol)
        one = protocol.system_dim == 1  # one eigenvalue: no separation
        nondegeneracy = tuple(
            {"step": step, "outcome": label, "nondegenerate": bool(ok), "min_gap": None if one else float(gap)}
            for step, m, ok_row, gap_row in zip(itertools.count(1), steps, oks, gaps)
            for label, ok, gap in zip(m.labels, ok_row, gap_row)
        )
    return AlgebraReport(
        dimension=closed.dimension,
        commutative=commutative,
        max_generator_commutator=worst,
        commutant_dimension=commutant.dimension,
        commutant_singular_values_near_cut=near,
        effect_nondegeneracy=nondegeneracy,
        tolerances=tol.as_dict(),
    )
