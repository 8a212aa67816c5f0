"""Brute-force cross-validation of sequence statistics.

Every probability is recomputed along the most naive route available:
the full Kraus product of each sequence is multiplied out from scratch,
with no prefix reuse and no shared intermediates, and compared entry by
entry against the optimized enumeration, as is every KC defect against
``tr(rho D)`` of the scan's operator defects ``D``.  For commutative models
the plain effect-product form of the probability provides a third route.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

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


def _chain_probability(protocol: MeasurementProtocol, rho: np.ndarray, seq) -> float:
    """``tr(rho K^H K)`` for the Kraus chain ``K`` of checked outcomes ``seq``."""
    r = np.eye(protocol.system_dim, dtype=complex)
    for step, m in enumerate(seq):
        r = protocol.step_measurements[step].kraus[m] @ r
    q = r.conj().T @ r
    return float(np.trace(np.asarray(rho, dtype=complex) @ q).real)


def naive_sequence_probability(protocol: MeasurementProtocol, rho: np.ndarray, seq) -> float:
    """Probability of one sequence with the Kraus product built from scratch."""
    return _chain_probability(protocol, rho, _outcomes(protocol, seq))


def naive_distribution(protocol: MeasurementProtocol, rho: np.ndarray, n: int, tol: Tolerances = DEFAULT) -> dict:
    if not 1 <= n <= protocol.n_steps:
        raise ProtocolError(f"n = {n} not in 1..{protocol.n_steps}")
    _check_capacity(protocol.probe_dim, n, tol)
    return {
        seq: _chain_probability(protocol, rho, seq)
        for seq in itertools.product(range(protocol.probe_dim), repeat=n)
    }


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
    total = 0.0
    for m_j in range(protocol.probe_dim):
        seq = fixed[: j - 1] + (m_j,) + fixed[j - 1 :]
        total += _chain_probability(protocol, rho, seq)
    reduced = protocol.prefix(n).drop_step(j)
    return total - _chain_probability(reduced, rho, fixed)


def effect_product_probability(protocol: MeasurementProtocol, rho: np.ndarray, seq) -> float:
    """Commutative-model probability ``tr(rho E_{m_n} ... E_{m_1})``."""
    d = protocol.system_dim
    prod = np.eye(d, dtype=complex)
    for step, m in enumerate(_outcomes(protocol, seq)):
        prod = prod @ protocol.step_measurements[step].effects[m]
    return float(np.trace(np.asarray(rho, dtype=complex) @ prod).real)


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
    """
    if n_max is None:
        n_max = protocol.n_steps
    if not 1 <= n_max <= protocol.n_steps:
        raise ProtocolError(f"n_max = {n_max} not in 1..{protocol.n_steps}")
    rho = check_density(rho, tol)
    defect_worst = 0.0
    for n in range(2, n_max + 1):
        for j in range(1, n):
            defects = _state_defects(protocol, rho, n, j, tol)
            for fixed in itertools.product(range(protocol.probe_dim), repeat=n - 1):
                b = naive_kc_defect(protocol, rho, n, j, fixed)
                defect_worst = max(defect_worst, abs(float(defects[fixed]) - b))
    per_n = []
    commutative, _ = is_commutative(protocol.model.hamiltonians, tol)
    product_worst = 0.0 if commutative else None
    for n in range(1, n_max + 1):
        dist = full_distribution(protocol, rho, n, tol)
        naive = naive_distribution(protocol, rho, n, tol)
        worst = max(abs(dist.table[seq] - naive[seq]) for seq in naive)
        per_n.append(worst)
        if commutative:
            product_worst = max(
                product_worst,
                max(
                    abs(dist.table[seq] - effect_product_probability(protocol, rho, seq))
                    for seq in naive
                ),
            )
    return OracleReport(
        n_max=n_max,
        max_abs_discrepancy=max(per_n),
        per_n=tuple(per_n),
        max_defect_discrepancy=defect_worst,
        commutative=commutative,
        max_product_form_discrepancy=product_worst,
        tolerances=tol.as_dict(),
    )
