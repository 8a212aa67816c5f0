"""Brute-force cross-validation of sequence statistics.

Every probability is recomputed along the most naive route available: the
full Kraus product ``K_{m_k} ... K_{m_1}`` of each sequence is multiplied
out from scratch, from its own first factor, with no prefix reuse and no
intermediate shared between sequences.  The sequences go through in stacks,
one batched product per step (:func:`_chain_probabilities`), so no Python
loop runs per sequence; a stack holds at most
``PREFIX_BLOCK_BYTES // (16 d**2)`` matrices (at least one).  The results
are compared array by array with the optimized enumeration, as is every KC
defect with ``tr(rho D)`` of the scan's operator defects ``D``; the reduced
chain of a defect reads the protocol's own step list with step ``j`` left
out.  For commutative models the plain effect-product form of the
probability provides a third route.  No product or pull-back code is shared
with :mod:`kcprobe.sequences`.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import sequences
from .algebra import is_commutative
from .errors import LabelError, ProtocolError
from .linalg import check_density
from .model import MeasurementProtocol
from .sequences import _check_capacity, _state_defects, full_distribution
from .serialize import Record
from .tolerances import DEFAULT, Tolerances


def _outcomes(protocol: MeasurementProtocol, seq) -> tuple[int, ...]:
    """``seq`` as integer outcomes in ``0..d_P - 1`` of ``1..n_steps`` steps;
    a label such as ``0.9`` raises :class:`LabelError` instead of being
    truncated, and an empty or too long sequence :class:`ProtocolError`."""
    try:
        seq = tuple(map(operator.index, seq))
    except TypeError:
        raise LabelError(f"outcome labels must be integers, got {seq!r}") from None
    for k, m in enumerate(seq):
        if not 0 <= m < protocol.probe_dim:
            raise LabelError(f"outcome {m} at position {k + 1} is not in 0..{protocol.probe_dim - 1}")
    if not 1 <= len(seq) <= protocol.n_steps:
        raise ProtocolError(f"{len(seq)} outcomes for a protocol of {protocol.n_steps} steps")
    return seq


def _all_outcomes(d_p: int, k: int) -> np.ndarray:
    """Every sequence of ``k`` outcomes, as the rows of a ``(d_P ** k, k)``
    array in lexicographic order."""
    return np.indices((d_p,) * k, dtype=np.min_scalar_type(d_p - 1)).reshape(k, -1).T


def _stacks(seqs: np.ndarray, d: int):
    """``seqs`` in row slices of at most ``PREFIX_BLOCK_BYTES // (16 d**2)``
    (at least one), each with its offset; the bound is read at call time."""
    count = max(1, sequences.PREFIX_BLOCK_BYTES // (16 * d * d))
    for lo in range(0, len(seqs), count):
        yield lo, seqs[lo : lo + count]


def _chain_probabilities(
    protocol: MeasurementProtocol, rho: np.ndarray, seqs: np.ndarray, steps
) -> np.ndarray:
    """``tr(rho K^H K)`` for the Kraus chain ``K = K_{m_k} ... K_{m_1}`` of
    each row ``(m_1, ..., m_k)`` of the checked outcomes ``seqs``, whose
    column ``c`` is an outcome of the 0-based step ``steps[c]``.  Each chain
    is multiplied out from its own first factor, a stack of rows at a time."""
    kraus = [np.asarray(protocol.step_measurements[s].kraus) for s in steps]
    rho = np.asarray(rho, dtype=complex)
    out = np.empty(len(seqs))
    for lo, rows in _stacks(seqs, protocol.system_dim):
        r = kraus[0][rows[:, 0]]
        for c in range(1, len(kraus)):
            r = kraus[c][rows[:, c]] @ r
        # sum_{k,i} conj((R rho)_{ki}) R_{ki} = conj(tr(rho R^H R))
        r_rho = r @ rho
        np.conjugate(r_rho, out=r_rho)
        out[lo : lo + len(rows)] = np.einsum("aki,aki->a", r_rho, r).real
        del r, r_rho  # freed before the next stack is built, to keep the bound
    return out


def _naive_defects(
    protocol: MeasurementProtocol, rho: np.ndarray, j: int, fixed: np.ndarray
) -> np.ndarray:
    """``sum_{m_j} P(m_1 .. m_n) - P'(fixed)`` for each row ``fixed`` of
    ``n - 1`` checked outcomes, from ``d_P + 1`` fresh Kraus chains a row:
    one per ``m_j`` put in at step ``j``, and the reduced chain ``P'`` over
    the steps ``1..n`` but ``j``."""
    d_p, n = protocol.probe_dim, fixed.shape[1] + 1
    m_j = np.tile(np.arange(d_p), len(fixed))
    rows = np.insert(np.repeat(fixed, d_p, axis=0), j - 1, m_j, axis=1)
    total = _chain_probabilities(protocol, rho, rows, range(n)).reshape(-1, d_p).sum(axis=1)
    reduced = [s for s in range(n) if s != j - 1]
    return total - _chain_probabilities(protocol, rho, fixed, reduced)


def _effect_products(
    protocol: MeasurementProtocol, rho: np.ndarray, seqs: np.ndarray
) -> np.ndarray:
    """``tr(rho E_{m_1} ... E_{m_k})`` for each row of the checked outcomes
    ``seqs`` over the first ``k`` steps, multiplied out a stack of rows at a
    time."""
    effects = [np.asarray(protocol.step_measurements[s].effects) for s in range(seqs.shape[1])]
    rho = np.asarray(rho, dtype=complex)
    out = np.empty(len(seqs))
    for lo, rows in _stacks(seqs, protocol.system_dim):
        prod = effects[0][rows[:, 0]]
        for c in range(1, len(effects)):
            prod = prod @ effects[c][rows[:, c]]
        out[lo : lo + len(rows)] = np.einsum("ij,aji->a", rho, prod).real
        del prod  # freed before the next stack is built, to keep the bound
    return out


def naive_sequence_probability(protocol: MeasurementProtocol, rho: np.ndarray, seq) -> float:
    """Probability of one sequence with the Kraus product built from scratch."""
    seq = _outcomes(protocol, seq)
    return float(_chain_probabilities(protocol, rho, np.array([seq]), range(len(seq)))[0])


def naive_distribution(protocol: MeasurementProtocol, rho: np.ndarray, n: int, tol: Tolerances = DEFAULT) -> dict:
    if not 1 <= n <= protocol.n_steps:
        raise ProtocolError(f"n = {n} not in 1..{protocol.n_steps}")
    _check_capacity(protocol.probe_dim, n, tol)
    probs = _chain_probabilities(protocol, rho, _all_outcomes(protocol.probe_dim, n), range(n))
    return dict(zip(itertools.product(range(protocol.probe_dim), repeat=n), probs.tolist()))


def naive_kc_defect(
    protocol: MeasurementProtocol, rho: np.ndarray, n: int, j: int, fixed
) -> float:
    """Consistency defect assembled purely from naive sequence probabilities.

    ``(n, j)`` must be a substantive condition, ``2 <= n <= n_steps`` and
    ``1 <= j <= n - 1``, and ``fixed`` must hold ``n - 1`` outcomes; else
    :class:`ProtocolError`.
    """
    if not 2 <= n <= protocol.n_steps:
        raise ProtocolError(f"n = {n} not in 2..{protocol.n_steps}")
    if not 1 <= j <= n - 1:
        raise ProtocolError(f"j = {j} not in 1..{n - 1} (the final step's defect is 0 by completeness)")
    fixed = _outcomes(protocol, fixed)
    if len(fixed) != n - 1:
        raise ProtocolError(f"need {n - 1} fixed outcomes, got {len(fixed)}")
    return float(_naive_defects(protocol, rho, j, np.array([fixed]))[0])


def effect_product_probability(protocol: MeasurementProtocol, rho: np.ndarray, seq) -> float:
    """Commutative-model probability ``tr(rho E_{m_1} ... E_{m_n})``."""
    return float(_effect_products(protocol, rho, np.array([_outcomes(protocol, seq)]))[0])


@dataclass(frozen=True)
class OracleReport(Record):
    """Maximum discrepancies between the naive and optimized routes."""

    n_max: int
    max_abs_discrepancy: float
    per_n: tuple[float, ...]
    max_defect_discrepancy: float
    commutative: bool
    max_product_form_discrepancy: float | None
    tolerances: dict

    @property
    def agrees(self) -> bool:
        """Every discrepancy, probabilities, defects and product form, is within tolerance."""
        cut = self.tolerances["oracle_agreement"]
        gated = (self.max_abs_discrepancy, self.max_defect_discrepancy, self.max_product_form_discrepancy)
        return all(x is None or x <= cut for x in gated)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "agrees": self.agrees}


def oracle_compare(
    protocol: MeasurementProtocol,
    rho: np.ndarray,
    n_max: int | None = None,
    tol: Tolerances = DEFAULT,
) -> OracleReport:
    """Recompute every probability up to ``n_max`` naively and compare.

    First cross-checks every KC defect, ``tr(rho D)`` for the operator
    defects ``D`` of :func:`check_kc_all` (a non-finite one raises their
    fault), against its naive reassembly, and, for commutative models, the
    effect-product form of each probability.  ``rho`` is validated once.
    Each gate compares whole arrays and takes its maximum with ``np.max``,
    so a NaN discrepancy anywhere makes the report disagree.
    """
    if n_max is None:
        n_max = protocol.n_steps
    if not 1 <= n_max <= protocol.n_steps:
        raise ProtocolError(f"n_max = {n_max} not in 1..{protocol.n_steps}")
    rho = check_density(rho, tol)
    d_p = protocol.probe_dim
    defect_gaps = [0.0]
    for n in range(2, n_max + 1):
        fixed = _all_outcomes(d_p, n - 1)
        for j in range(1, n):
            defects = _state_defects(protocol, rho, n, j, tol).reshape(-1)
            defect_gaps.append(np.max(np.abs(defects - _naive_defects(protocol, rho, j, fixed))))
    per_n = []
    commutative, _ = is_commutative(protocol.model.hamiltonians, tol)
    product_gaps = [0.0]
    for n in range(1, n_max + 1):
        table = full_distribution(protocol, rho, n, tol).table
        fast = np.array(list(map(table.__getitem__, itertools.product(range(d_p), repeat=n))))
        seqs = _all_outcomes(d_p, n)
        naive = _chain_probabilities(protocol, rho, seqs, range(n))
        per_n.append(float(np.max(np.abs(fast - naive))))
        if commutative:
            product_gaps.append(np.max(np.abs(fast - _effect_products(protocol, rho, seqs))))
    return OracleReport(
        n_max=n_max,
        max_abs_discrepancy=float(np.max(per_n)),
        per_n=tuple(per_n),
        max_defect_discrepancy=float(np.max(defect_gaps)),
        commutative=commutative,
        max_product_form_discrepancy=float(np.max(product_gaps)) if commutative else None,
        tolerances=tol.as_dict(),
    )
