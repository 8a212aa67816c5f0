"""Brute-force cross-validation of sequence statistics.

Every probability is recomputed along the most naive route available:
the full Kraus product of each sequence is multiplied out from scratch,
with no prefix reuse and no shared intermediates, and compared entry by
entry against the optimized enumeration.  For commutative models the
plain effect-product form of the probability provides a third route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import is_commutative
from .errors import CapacityError, ProtocolError
from .linalg import check_density
from .model import MeasurementProtocol
from .sequences import _state_defects, full_distribution
from .tolerances import DEFAULT, Tolerances


def naive_sequence_probability(protocol: MeasurementProtocol, rho: np.ndarray, seq) -> float:
    """Probability of one sequence with the Kraus product built from scratch."""
    d = protocol.system_dim
    r = np.eye(d, dtype=complex)
    for step, m in enumerate(seq):
        r = protocol.step_measurements[step].kraus[int(m)] @ r
    q = r.conj().T @ r
    return float(np.trace(np.asarray(rho, dtype=complex) @ q).real)


def naive_distribution(protocol: MeasurementProtocol, rho: np.ndarray, n: int, tol: Tolerances = DEFAULT) -> dict:
    count = protocol.probe_dim**n
    if count > tol.enumeration_cap:
        raise CapacityError(
            f"{protocol.probe_dim}^{n} = {count} sequences exceeds cap {tol.enumeration_cap}"
        )
    return {
        seq: naive_sequence_probability(protocol, rho, seq)
        for seq in itertools.product(range(protocol.probe_dim), repeat=n)
    }


def naive_kc_defect(
    protocol: MeasurementProtocol, rho: np.ndarray, n: int, j: int, fixed
) -> float:
    """Consistency defect assembled purely from naive sequence probabilities."""
    fixed = tuple(int(m) for m in fixed)
    total = 0.0
    for m_j in range(protocol.probe_dim):
        seq = fixed[: j - 1] + (m_j,) + fixed[j - 1 :]
        total += naive_sequence_probability(protocol, rho, seq)
    reduced = protocol.prefix(n).drop_step(j)
    return total - naive_sequence_probability(reduced, rho, fixed)


def effect_product_probability(protocol: MeasurementProtocol, rho: np.ndarray, seq) -> float:
    """Commutative-model probability ``tr(rho E_{m_n} ... E_{m_1})``."""
    d = protocol.system_dim
    prod = np.eye(d, dtype=complex)
    for step, m in enumerate(seq):
        prod = prod @ protocol.step_measurements[step].effects[int(m)]
    return float(np.trace(np.asarray(rho, dtype=complex) @ prod).real)


@dataclass(frozen=True)
class OracleReport:
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
        gated = [self.max_abs_discrepancy, self.max_defect_discrepancy]
        if self.max_product_form_discrepancy is not None:
            gated.append(self.max_product_form_discrepancy)
        return all(x <= cut for x in gated)

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "max_abs_discrepancy": self.max_abs_discrepancy,
            "per_n": list(self.per_n),
            "max_defect_discrepancy": self.max_defect_discrepancy,
            "commutative": self.commutative,
            "max_product_form_discrepancy": self.max_product_form_discrepancy,
            "agrees": self.agrees,
            "tolerances": self.tolerances,
        }


def oracle_compare(
    protocol: MeasurementProtocol,
    rho: np.ndarray,
    n_max: int | None = None,
    tol: Tolerances = DEFAULT,
) -> OracleReport:
    """Recompute every probability up to ``n_max`` naively and compare.

    Also cross-checks all state-level consistency defects, read from the
    defect tensor of each ``(n, j)``, against their naive reassembly, and,
    for commutative models, the effect-product form of each probability.
    ``rho`` is validated once.
    """
    if n_max is None:
        n_max = protocol.n_steps
    if n_max < 1:
        raise ProtocolError(f"n_max must be at least 1, got {n_max}")
    n_max = min(n_max, protocol.n_steps)
    rho = check_density(rho, tol)
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
    defect_worst = 0.0
    # full_distribution above checked the enumeration cap of every n
    for n in range(2, n_max + 1):
        for j in range(1, n):
            defects = _state_defects(protocol, rho, n, j, tol)
            for fixed in itertools.product(range(protocol.probe_dim), repeat=n - 1):
                b = naive_kc_defect(protocol, rho, n, j, fixed)
                defect_worst = max(defect_worst, abs(float(defects[fixed]) - b))
    return OracleReport(
        n_max=n_max,
        max_abs_discrepancy=max(per_n),
        per_n=tuple(per_n),
        max_defect_discrepancy=defect_worst,
        commutative=commutative,
        max_product_form_discrepancy=product_worst,
        tolerances=tol.as_dict(),
    )
