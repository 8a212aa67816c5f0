"""Scalar noncommutativity witnesses built from consistency defects.

Every witness here is a finite linear combination of state-level defects
``delta P``, so a protocol whose operator-level consistency check passes
yields witness values at tolerance zero for every state.  Outcome-value
conventions are explicit: correlation witnesses use ``+1/-1`` for the qubit
outcomes ``+/-``; the two-measurement inequality check uses the ``{0, 1}``
value assignment of its experimental convention.

The correlation witnesses contract the state-defect tensor of one ``(n, j)``,
``tr(rho D)`` for every operator defect ``D`` of the KC scan, with the
outcome values on each remaining step, so they are linear in the ``D``
that decides the KC verdict.  The inequality check is Δ21's route on X
steps, read at ``fixed = (+,)``; the qubit, axis and step-count rules are
stated once, by :func:`~kcprobe.model._qubit`, :func:`_axis_deltas` and the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import is_commutative
from .errors import NumericalFault, ProtocolError
from .model import MeasurementProtocol, _qubit, qubit_xy_protocol
from .linalg import check_density
from .sequences import _probabilities, _state_defects
from .scenarios import _trials, random_model
from .serialize import Record, fingerprint, protocol_payload
from .tolerances import DEFAULT, Tolerances

PLUS_MINUS_VALUES = {0: 1.0, 1: -1.0}


@dataclass(frozen=True)
class WitnessReport(Record):
    kind: str
    parameters: dict
    value: float
    verdict: str
    model_fingerprint: str
    tolerances: dict


def witness_report(
    kind: str,
    value: float,
    protocol: MeasurementProtocol,
    parameters: dict | None = None,
    tol: Tolerances = DEFAULT,
) -> WitnessReport:
    return _witness_report(kind, value, fingerprint(protocol_payload(protocol)), parameters, tol)


def _witness_report(
    kind: str, value: float, model_fingerprint: str, parameters: dict | None, tol: Tolerances
) -> WitnessReport:
    """:func:`witness_report` of a protocol whose fingerprint is ``model_fingerprint``.
    A non-finite value has no verdict: it raises :class:`NumericalFault`."""
    if not math.isfinite(value):
        raise NumericalFault(f"{kind} witness value {value} is not finite")
    verdict = "nonzero" if abs(value) > tol.witness else "zero"
    return WitnessReport(
        kind=kind,
        parameters=dict(parameters or {}),
        value=float(value),
        verdict=verdict,
        model_fingerprint=model_fingerprint,
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
    values = _values(value_map, protocol.probe_dim)
    rho = check_density(rho, protocol.system_dim, tol)
    (defects,) = _state_defects(protocol, [rho], [(n, j)], tol)
    return float(_correlation(defects, values, n - 1)[0])


def _values(value_map, probe_dim: int) -> np.ndarray:
    """The values of outcomes ``0 .. probe_dim - 1`` in ``value_map``; a map
    that lacks an outcome or gives one a non-finite value raises
    :class:`ProtocolError`."""
    missing = [m for m in range(probe_dim) if m not in value_map]
    if missing:
        raise ProtocolError(f"value map lacks outcomes {missing}")
    values = np.array([value_map[m] for m in range(probe_dim)], dtype=float)
    if not np.isfinite(values).all():
        m = int(np.argmin(np.isfinite(values)))
        raise ProtocolError(f"value map gives outcome {m} the non-finite value {values[m]}")
    return values


def _correlation(defects: np.ndarray, values: np.ndarray, steps: int) -> np.ndarray:
    """Per state, the sum of ``prod_k values[fixed_k] * defects[..., state, fixed]``
    over every entry of an ``(..., s) + (d_P,) * steps`` state-defect tensor,
    one contraction per trailing outcome axis."""
    for _ in range(steps):
        defects = defects @ values
    return defects


def delta_2_1(protocol: MeasurementProtocol, rho: np.ndarray, tol: Tolerances = DEFAULT) -> float:
    """Two-measurement witness: second-step average with an intermediate
    nonselective measurement minus the single-step average at the same
    remaining duration, i.e. :func:`delta_correlation` at ``(n, j) = (2, 1)``.
    Values are ``+1/-1``."""
    [(delta, _)] = _axis_deltas(protocol, [check_density(rho, protocol.system_dim, tol)], (2,), tol, "XY")
    return float(delta[0])


def delta_3_2(protocol: MeasurementProtocol, rho: np.ndarray, tol: Tolerances = DEFAULT) -> float:
    """Three-measurement witness: first/third-step correlation defect when
    the middle measurement is marginalized, i.e. :func:`delta_correlation`
    at ``(n, j) = (3, 2)``.  Values are ``+1/-1``."""
    [(delta, _)] = _axis_deltas(protocol, [check_density(rho, protocol.system_dim, tol)], (3,), tol, "XY")
    return float(delta[0])


def _axis_deltas(protocol: MeasurementProtocol, states, ns, tol: Tolerances, allowed: str) -> list:
    """Δ21 (``n = 2``) and/or Δ32 (``n = 3``) of every validated state from one
    scan: per ``n`` of ``ns``, the values and the state-defect tensor they
    contract.  Steps ``1 .. n`` of the qubit protocol share one axis of
    ``allowed``, ``"XY"`` for the witnesses and ``"X"`` for :func:`lg_check`.
    A grid of protocols (:class:`~kcprobe.model._Grid`) is one scan too, its
    point leading every array, each point's values bit for bit its own
    protocol's."""
    _qubit(protocol.probe_dim)
    for n in ns:
        axes = set(protocol.axes[:n])
        if len(axes) != 1 or not axes <= set(allowed):
            one_of = "/".join(allowed)
            raise ProtocolError(f"steps 1..{n} must share one axis in {one_of}, got {protocol.axes[:n]}")
    tensors = _state_defects(protocol, states, [(n, n - 1) for n in ns], tol)
    values = _values(PLUS_MINUS_VALUES, 2)
    return [(_correlation(t, values, n - 1), t) for n, t in zip(ns, tensors)]


_LG_NOTE = (
    "Probabilities are taken from this package's re-preparation protocol. "
    "In the post-selection-without-re-preparation convention the third term "
    "reads P2(-,-); after a '-' collapse the continued evolution flips the "
    "second-step outcome labels, so with re-preparation the same quantity is "
    "P2(m1=-, m2=+) and delta equals the consistency defect "
    "sum_{m1} P2(m1, +) - P1(+)."
)


@dataclass(frozen=True)
class LGResult(Record):
    """Two-measurement inequality check: ``P2(+,+) <= P1(+)`` up to tolerance."""

    delta: float
    lg_satisfied: bool
    p2_plus_plus: float
    p2_plus_after_minus: float
    p1_plus: float
    note: str = _LG_NOTE


def lg_check(protocol: MeasurementProtocol, rho: np.ndarray, tol: Tolerances = DEFAULT) -> LGResult:
    """Evaluate the two-measurement inequality on an X-axis protocol.

    ``delta`` is the ``{0, 1}``-valued correlation difference, the consistency
    defect ``P2(+,+) + P2(m1=-, m2=+) - P1(+)``: Δ21's route on X steps, read
    at ``fixed = (+,)``.  It vanishes for every commutative model and, as the
    cross term is nonnegative, implies ``P2(+,+) <= P1(+)``.  Both
    probabilities are exposed so either post-selection reading applies.
    """
    rho = check_density(rho, protocol.system_dim, tol)
    [(_, defects)] = _axis_deltas(protocol, [rho], (2,), tol, "X")
    return _lg(protocol, rho, float(defects[0, 0]), tol)


def _lg(protocol: MeasurementProtocol, rho: np.ndarray, delta: float, tol: Tolerances) -> LGResult:
    """:func:`lg_check` of a validated state on a checked protocol, given its ``delta``."""
    p2 = _probabilities(protocol, rho, 2, tol)
    p2_pp, p2_pm = float(p2[0]), float(p2[2])  # (m1, m2) = (+, +) and (-, +)
    p1_p = p2_pp + p2_pm - delta
    return LGResult(delta, bool(p2_pp <= p1_p + tol.witness), p2_pp, p2_pm, p1_p)


@dataclass(frozen=True)
class LGFinding(Record):
    """A reproducible inequality violation located by the seeded search."""

    seed: int
    index: int
    system_dim: int
    step_times: tuple[float, float]
    delta: float
    p2_plus_plus: float
    p1_plus: float
    model_fingerprint: str


# The system dimensions and the step-time range that each search trial draws from.
LG_SYSTEM_DIMS = (2, 3, 4)
LG_T_RANGE = (0.1, 3.0)


def lg_search_instance(seed: int, index: int):
    """Deterministically rebuild the (protocol, rho) candidate of one search trial.

    The candidate state is the top eigenvector of
    ``(K2 K1)^H (K2 K1) - K2^H K2`` for the plus outcome, the direction along
    which the inequality is most strained.  Equal step durations can never
    violate the inequality (the plus-outcome Kraus operator is a
    contraction), so the two steps draw independent durations.
    """
    rng = np.random.default_rng([seed, index])
    d_s = int(rng.choice(LG_SYSTEM_DIMS))
    model_seed = int(rng.integers(0, 2**63 - 1))
    model = random_model(model_seed, 2, d_s, commuting=False)
    t1, t2 = (float(x) for x in rng.uniform(*LG_T_RANGE, size=2))
    protocol = qubit_xy_protocol(model, "XX", (t1, t2))
    k1, k2 = (measurement.kraus[0] for measurement in protocol.step_measurements)
    r = k2 @ k1
    strain = r.conj().T @ r - k2.conj().T @ k2
    w, v = np.linalg.eigh((strain + strain.conj().T) / 2)
    vec = v[:, -1]
    rho = np.outer(vec, vec.conj())
    return protocol, rho


def lg_violation_search(seed: int, trials: int, tol: Tolerances = DEFAULT) -> list[LGFinding]:
    """Seeded search for models and states violating ``P2(+,+) <= P1(+)``.

    Each finding is reproducible through :func:`lg_search_instance` with the
    recorded ``(seed, index)``.
    """
    _trials(trials)
    findings = []
    for index in range(trials):
        protocol, rho = lg_search_instance(seed, index)
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
