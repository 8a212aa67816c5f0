"""Scalar noncommutativity witnesses built from consistency defects.

Every witness here is a finite linear combination of state-level defects
``delta P``, so a protocol whose operator-level consistency check passes
yields witness values at tolerance zero for every state.  Outcome-value
conventions are explicit: correlation witnesses use ``+1/-1`` for the qubit
outcomes ``+/-``; the two-measurement inequality check uses the ``{0, 1}``
value assignment of its experimental convention.

The correlation witnesses read the state-defect tensor of one ``(n, j)``
from :mod:`.sequences`, every ``sum_{m_j} P_n - P_{n-1}`` at once, and
contract it with the outcome values on each remaining step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError, ProtocolError
from .model import MeasurementProtocol, plus_x_preparation, xy_meter_basis
from .linalg import check_density
from .sequences import _check_capacity, _kraus_product, _state_defects, full_distribution
from .serialize import fingerprint, protocol_payload
from .tolerances import DEFAULT, Tolerances

PLUS_MINUS_VALUES = {0: 1.0, 1: -1.0}


@dataclass(frozen=True)
class WitnessReport:
    kind: str
    parameters: dict
    value: float
    verdict: str
    model_fingerprint: str
    tolerances: dict

    @property
    def nonzero(self) -> bool:
        return self.verdict == "nonzero"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": self.parameters,
            "value": self.value,
            "verdict": self.verdict,
            "model_fingerprint": self.model_fingerprint,
            "tolerances": self.tolerances,
        }


def witness_report(
    kind: str,
    value: float,
    protocol: MeasurementProtocol,
    parameters: dict | None = None,
    tol: Tolerances = DEFAULT,
) -> WitnessReport:
    verdict = "nonzero" if abs(value) > tol.witness else "zero"
    return WitnessReport(
        kind=kind,
        parameters=dict(parameters or {}),
        value=float(value),
        verdict=verdict,
        model_fingerprint=fingerprint(protocol_payload(protocol)),
        tolerances=tol.as_dict(),
    )


def delta_correlation(
    protocol: MeasurementProtocol,
    rho: np.ndarray,
    n: int,
    j: int,
    value_map,
    tol: Tolerances = DEFAULT,
) -> float:
    """Correlation-function difference over the outcomes of all steps but ``j``.

    Sums ``prod_{k != j} value(m_k) * deltaP_{n,j}(fixed)`` over every
    assignment of the non-marginalized outcomes; ``rho`` is validated once.
    """
    if n < 2 or not 1 <= j <= n - 1:
        raise ProtocolError(f"need n >= 2 and 1 <= j <= n-1, got n={n}, j={j}")
    if n > protocol.n_steps:
        raise ProtocolError(f"n = {n} not in 2..{protocol.n_steps}")
    missing = [m for m in range(protocol.probe_dim) if m not in value_map]
    if missing:
        raise ProtocolError(f"value map lacks outcomes {missing}")
    _check_capacity(protocol.probe_dim, n, tol)
    return _delta_correlation(protocol, check_density(rho, tol), n, j, value_map, tol)


def _delta_correlation(
    protocol: MeasurementProtocol,
    rho: np.ndarray,
    n: int,
    j: int,
    value_map,
    tol: Tolerances,
) -> float:
    """:func:`delta_correlation` on arguments that were already validated."""
    defects = _state_defects(protocol, rho, n, j, tol)
    values = np.array([value_map[m] for m in range(protocol.probe_dim)], dtype=float)
    for _ in range(n - 1):
        defects = defects @ values
    return float(defects)


def _require_same_axis(protocol: MeasurementProtocol, n: int) -> str:
    if protocol.probe_dim != 2:
        raise DimensionError("axis witnesses need a qubit probe")
    if protocol.n_steps < n:
        raise ProtocolError(f"protocol has {protocol.n_steps} steps, need {n}")
    axes = set(protocol.axes[:n])
    if len(axes) != 1 or axes & {"X", "Y"} != axes:
        raise ProtocolError(f"steps 1..{n} must share one axis in X/Y, got {protocol.axes[:n]}")
    return protocol.axes[0]


def delta_2_1(protocol: MeasurementProtocol, rho: np.ndarray, tol: Tolerances = DEFAULT) -> float:
    """Two-measurement witness: second-step average with an intermediate
    nonselective measurement minus the single-step average at the same
    remaining duration, i.e. :func:`delta_correlation` at ``(n, j) = (2, 1)``.
    Values are ``+1/-1``."""
    _require_same_axis(protocol, 2)
    return delta_correlation(protocol, rho, 2, 1, PLUS_MINUS_VALUES, tol)


def delta_3_2(protocol: MeasurementProtocol, rho: np.ndarray, tol: Tolerances = DEFAULT) -> float:
    """Three-measurement witness: first/third-step correlation defect when
    the middle measurement is marginalized, i.e. :func:`delta_correlation`
    at ``(n, j) = (3, 2)``.  Values are ``+1/-1``."""
    _require_same_axis(protocol, 3)
    return delta_correlation(protocol, rho, 3, 2, PLUS_MINUS_VALUES, tol)


def _axis_delta(protocol: MeasurementProtocol, rho: np.ndarray, n: int, tol: Tolerances) -> float:
    """Δ21 (``n = 2``) or Δ32 (``n = 3``) of a state that was already validated."""
    _require_same_axis(protocol, n)
    return _delta_correlation(protocol, rho, n, n - 1, PLUS_MINUS_VALUES, tol)


_LG_NOTE = (
    "Probabilities are taken from this package's re-preparation protocol. "
    "In the post-selection-without-re-preparation convention the third term "
    "reads P2(-,-); after a '-' collapse the continued evolution flips the "
    "second-step outcome labels, so with re-preparation the same quantity is "
    "P2(m1=-, m2=+) and delta equals the consistency defect "
    "sum_{m1} P2(m1, +) - P1(+)."
)


@dataclass(frozen=True)
class LGResult:
    """Two-measurement inequality check: ``P2(+,+) <= P1(+)`` up to tolerance."""

    delta: float
    lg_satisfied: bool
    p2_plus_plus: float
    p2_plus_after_minus: float
    p1_plus: float
    note: str = _LG_NOTE

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "lg_satisfied": self.lg_satisfied,
            "p2_plus_plus": self.p2_plus_plus,
            "p2_plus_after_minus": self.p2_plus_after_minus,
            "p1_plus": self.p1_plus,
            "note": self.note,
        }


def lg_check(protocol: MeasurementProtocol, rho: np.ndarray, tol: Tolerances = DEFAULT) -> LGResult:
    """Evaluate the two-measurement inequality on an X-axis protocol.

    ``delta`` is the ``{0, 1}``-valued correlation difference, which equals
    the consistency defect ``P2(+,+) + P2(m1=-, m2=+) - P1(+)``; it vanishes
    for every commutative model, and together with nonnegativity of the
    cross term implies ``P2(+,+) <= P1(+)``.  Both probabilities are exposed
    so either post-selection reading of the inequality can be applied.
    """
    if protocol.probe_dim != 2:
        raise DimensionError("the inequality check needs a qubit probe")
    if protocol.n_steps < 2:
        raise ProtocolError("need two measurement steps")
    if protocol.axes[0] != "X" or protocol.axes[1] != "X":
        raise ProtocolError(f"steps 1..2 must both be X measurements, got {protocol.axes[:2]}")
    two = protocol.prefix(2)
    dist2 = full_distribution(two, rho, 2, tol)
    dist1 = full_distribution(two.drop_step(1), rho, 1, tol)
    p2_pp = dist2.table[(0, 0)]
    p2_pm = dist2.table[(1, 0)]
    p1_p = dist1.table[(0,)]
    delta = p2_pp + p2_pm - p1_p
    return LGResult(
        delta=float(delta),
        lg_satisfied=bool(p2_pp <= p1_p + tol.witness),
        p2_plus_plus=float(p2_pp),
        p2_plus_after_minus=float(p2_pm),
        p1_plus=float(p1_p),
    )


@dataclass(frozen=True)
class LGFinding:
    """A reproducible inequality violation located by the seeded search."""

    seed: int
    index: int
    system_dim: int
    step_times: tuple[float, float]
    delta: float
    p2_plus_plus: float
    p1_plus: float
    model_fingerprint: str

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "index": self.index,
            "system_dim": self.system_dim,
            "step_times": list(self.step_times),
            "delta": self.delta,
            "p2_plus_plus": self.p2_plus_plus,
            "p1_plus": self.p1_plus,
            "model_fingerprint": self.model_fingerprint,
        }


def lg_search_instance(seed: int, index: int, system_dims=(2, 3, 4), t_range=(0.1, 3.0)):
    """Deterministically rebuild the (protocol, rho) candidate of one search trial.

    The candidate state is the top eigenvector of
    ``(K2 K1)^H (K2 K1) - K2^H K2`` for the plus outcome, the direction along
    which the inequality is most strained.  Equal step durations can never
    violate the inequality (the plus-outcome Kraus operator is a
    contraction), so the two steps draw independent durations.
    """
    from .scenarios import random_model  # local import to avoid a cycle

    rng = np.random.default_rng([seed, index])
    d_s = int(rng.choice(list(system_dims)))
    model_seed = int(rng.integers(0, 2**63 - 1))
    model = random_model(model_seed, 2, d_s, commuting=False)
    t1, t2 = (float(x) for x in rng.uniform(t_range[0], t_range[1], size=2))
    basis = xy_meter_basis("X")
    protocol = MeasurementProtocol(model, plus_x_preparation(), (basis, basis), (t1, t2))
    r = _kraus_product(protocol, (0, 0))
    k2 = protocol.step_measurements[1].kraus[0]
    strain = r.conj().T @ r - k2.conj().T @ k2
    w, v = np.linalg.eigh((strain + strain.conj().T) / 2)
    vec = v[:, -1]
    rho = np.outer(vec, vec.conj())
    return protocol, rho


def lg_violation_search(
    seed: int,
    trials: int,
    system_dims=(2, 3, 4),
    t_range=(0.1, 3.0),
    tol: Tolerances = DEFAULT,
) -> list[LGFinding]:
    """Seeded search for models and states violating ``P2(+,+) <= P1(+)``.

    Each finding is reproducible through :func:`lg_search_instance` with the
    recorded ``(seed, index)``.
    """
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    from .algebra import is_commutative

    findings = []
    for index in range(trials):
        protocol, rho = lg_search_instance(seed, index, system_dims, t_range)
        result = lg_check(protocol, rho, tol)
        if result.lg_satisfied:
            continue
        commutative, _ = is_commutative(protocol.model.hamiltonians, tol)
        if commutative:
            continue
        findings.append(
            LGFinding(
                seed=seed,
                index=index,
                system_dim=protocol.system_dim,
                step_times=(protocol.step_times[0], protocol.step_times[1]),
                delta=result.delta,
                p2_plus_plus=result.p2_plus_plus,
                p1_plus=result.p1_plus,
                model_fingerprint=fingerprint(protocol_payload(protocol)),
            )
        )
    return findings
