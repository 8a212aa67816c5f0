"""Sequential-outcome statistics and Kolmogorov-consistency checks.

An outcome sequence is a tuple of integer labels in time order,
``(m_1, ..., m_n)``.  Its history operator is ``Q = R^H R`` with
``R = K_{m_n} ... K_{m_1}`` (later steps applied on the left), and the
sequence probability is ``tr(rho Q)``.

The probabilities of all ``d_P ** n`` sequences come from one batched route,
:func:`_probabilities`, which :func:`full_distribution` reads directly and
the witnesses, the oracle and the noise ensembles read through
:func:`_state_defects`.  It grows level-by-level prefix tensors,
``R_{k+1}[a d_P + m] = K_m R_k[a]`` (one batched product per step, so index
``a`` runs over the prefixes in lexicographic order), and reads every
``tr(rho R^H R)`` at once.
Only the trailing steps are batched: a block of prefix tensors holds at most
:data:`PREFIX_BLOCK_BYTES`, and the leading outcomes are walked block by
block, so the memory is bounded before anything is allocated.

Kolmogorov consistency asks that summing an intermediate outcome of the
n-step distribution reproduces the distribution of the protocol with that
step removed.  The defect is computed both for a fixed state (``delta P``,
a real number) and at operator level (a Hermitian defect matrix ``D`` with
``delta P = tr(rho D)`` for every state), which decides the all-states
question in one finite check.  :func:`_state_defects` is the one place that
forms the state-level defects of a whole ``(n, j)`` from probability
vectors; :func:`kc_defect_state` keeps a single-entry route, which needs
only ``d_P + 1`` sequences where the tensor needs ``d_P ** n``.
Marginalizing the *final* step is trivially consistent by POVM completeness
and is therefore rejected rather than reported as a substantive check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    LabelError,
    NumericalFault,
    PreconditionError,
    ProtocolError,
)
from .linalg import check_density, commutator, frobenius
from .model import DephasingModel, MeasurementProtocol, PreparationState, nonselective_apply
from .tolerances import DEFAULT, Tolerances

OutcomeSequence = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class HistoryOperator:
    """Positive operator whose trace against a state gives a sequence probability."""

    q: np.ndarray
    sequence: OutcomeSequence


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities of all outcome sequences of a fixed length."""

    n: int
    probe_dim: int
    table: dict

    def marginal_over_step(self, j: int) -> dict:
        """Sum out step ``j`` (1-based); keys keep the remaining steps' time order."""
        if not 1 <= j <= self.n:
            raise ProtocolError(f"step {j} out of range 1..{self.n}")
        out: dict = {}
        for seq, p in self.table.items():
            key = seq[: j - 1] + seq[j:]
            out[key] = out.get(key, 0.0) + p
        return out

    def total(self) -> float:
        return float(sum(self.table.values()))


def _validate_sequence(protocol: MeasurementProtocol, seq) -> OutcomeSequence:
    seq = tuple(int(m) for m in seq)
    if not 1 <= len(seq) <= protocol.n_steps:
        raise ProtocolError(
            f"sequence length {len(seq)} not in 1..{protocol.n_steps} for this protocol"
        )
    for k, m in enumerate(seq):
        if not 0 <= m < protocol.probe_dim:
            raise LabelError(f"outcome {m} at step {k + 1} is not in 0..{protocol.probe_dim - 1}")
    return seq


def _kraus_product(protocol: MeasurementProtocol, outcomes, start: int = 0) -> np.ndarray:
    """``K_{m_last} ... K_{m_first}`` of ``outcomes`` at the 0-based steps
    ``start, start + 1, ...``; the identity if ``outcomes`` is empty."""
    r = np.eye(protocol.system_dim, dtype=complex)
    for k, m in enumerate(outcomes, start):
        r = protocol.step_measurements[k].kraus[m] @ r
    return r


def history_operator(protocol: MeasurementProtocol, seq) -> HistoryOperator:
    """History operator of an outcome sequence, built in step order."""
    seq = _validate_sequence(protocol, seq)
    r = _kraus_product(protocol, seq)
    q = r.conj().T @ r
    return HistoryOperator((q + q.conj().T) / 2, seq)


def _born_rule(vals: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Real parts of the traces ``vals = tr(rho Q)``, clipped into ``[0, 1]``.
    An imaginary part above ``probability_imag`` in size or a real part outside
    ``[-probability_clip, 1 + probability_clip]`` (NaN included) raises
    :class:`NumericalFault`, naming the first such value."""
    bad = ~(np.abs(vals.imag) <= tol.probability_imag)
    if bad.any():
        raise NumericalFault(f"probability has imaginary residue {vals.imag[bad][0]:.3e}")
    p = vals.real
    bad = ~((-tol.probability_clip <= p) & (p <= 1.0 + tol.probability_clip))
    if bad.any():
        raise NumericalFault(f"probability {float(p[bad][0])} outside [0, 1] beyond tolerance")
    return np.clip(p, 0.0, 1.0)


def joint_probability(rho: np.ndarray, q, tol: Tolerances = DEFAULT) -> float:
    """Born-rule probability ``tr(rho q)`` with guarded clipping into [0, 1]."""
    mat = q.q if isinstance(q, HistoryOperator) else np.asarray(q, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != mat.shape:
        raise ProtocolError(f"state shape {rho.shape} does not match operator {mat.shape}")
    return float(_born_rule(np.array([np.trace(rho @ mat)]), tol)[0])


# Most bytes one block of prefix tensors may hold, ``d_P**L * d**2 * 16`` for
# the ``L`` trailing steps batched together.  Evaluating a block holds two
# such tensors, so the work space of :func:`_probabilities` stays below twice
# this bound.  It only trades speed for memory, so it is not a tolerance.
PREFIX_BLOCK_BYTES = 16 * 2**20


def _check_capacity(probe_dim: int, n: int, tol: Tolerances) -> None:
    count = probe_dim**n
    if count > tol.enumeration_cap:
        raise CapacityError(f"{probe_dim}^{n} = {count} sequences exceeds cap {tol.enumeration_cap}")


def _probabilities(
    protocol: MeasurementProtocol, rho: np.ndarray, n: int, tol: Tolerances
) -> np.ndarray:
    """Probabilities of all sequences of the first ``n`` steps, lexicographic.

    ``rho`` must already be a validated density matrix and ``d_P ** n``
    within the enumeration cap.  Each entry passes the guards of
    :func:`joint_probability`, the one :func:`_born_rule`.  A vector whose sum is
    farther than ``distribution_sum`` from 1 raises :class:`NumericalFault`.
    """
    d_p, d = protocol.probe_dim, protocol.system_dim
    if rho.shape != (d, d):
        raise ProtocolError(f"state shape {rho.shape} does not match operator {(d, d)}")
    trailing = n
    while trailing > 0 and d_p**trailing * d * d * 16 > PREFIX_BLOCK_BYTES:
        trailing -= 1
    lead = n - trailing
    block = d_p**trailing
    out = np.empty(d_p**n)
    for i, head in enumerate(itertools.product(range(d_p), repeat=lead)):
        r = _kraus_product(protocol, head)[None]
        for k in range(lead, n):
            r = (protocol.step_measurements[k].kraus @ r[:, None]).reshape(-1, d, d)
        # sum_{k,i} conj((R rho)_{ki}) R_{ki} = conj(tr(rho R^H R))
        r_rho = r @ rho
        np.conjugate(r_rho, out=r_rho)
        vals = np.einsum("aki,aki->a", r_rho, r)
        del r, r_rho  # freed before the next block is built, to keep the bound
        out[i * block : (i + 1) * block] = _born_rule(vals.conj(), tol)
    total = float(out.sum())
    if not abs(total - 1.0) <= tol.distribution_sum:
        raise NumericalFault(f"distribution sums to {total}, expected 1")
    return out


def _state_defects(
    protocol: MeasurementProtocol, rho: np.ndarray, n: int, j: int, tol: Tolerances
) -> np.ndarray:
    """Every state-level defect ``sum_{m_j} P_n - P_{n-1}`` of one ``(n, j)``.

    Entry ``[fixed]`` of the ``(d_P,) * (n - 1)`` result is
    :func:`kc_defect_state` at the same ``fixed``: ``P_n`` summed over step
    ``j``, minus ``P_{n-1}`` read on ``protocol.prefix(n).drop_step(j)``.
    ``rho`` must already be a validated density matrix, ``d_P ** n`` within
    the enumeration cap, ``2 <= n <= n_steps`` and ``1 <= j <= n - 1``.
    """
    shape = (protocol.probe_dim,) * n
    p_n = _probabilities(protocol, rho, n, tol).reshape(shape)
    reduced = protocol.prefix(n).drop_step(j)
    return p_n.sum(axis=j - 1) - _probabilities(reduced, rho, n - 1, tol).reshape(shape[1:])


def full_distribution(
    protocol: MeasurementProtocol,
    rho: np.ndarray,
    n: int,
    tol: Tolerances = DEFAULT,
) -> JointDistribution:
    """Enumerate all ``d_P ** n`` sequences of the first ``n`` steps.

    The table is keyed lexicographically in ``(m_1, ..., m_n)`` and is
    byte-stable.  Its values come from the batched prefix-tensor route of
    :func:`_probabilities`, whose work space stays below
    ``2 * PREFIX_BLOCK_BYTES`` whatever ``n`` is.
    """
    if not 1 <= n <= protocol.n_steps:
        raise ProtocolError(f"n = {n} not in 1..{protocol.n_steps}")
    _check_capacity(protocol.probe_dim, n, tol)
    rho = check_density(rho, tol)
    probs = _probabilities(protocol, rho, n, tol)
    table = dict(zip(itertools.product(range(protocol.probe_dim), repeat=n), probs.tolist()))
    return JointDistribution(n, protocol.probe_dim, table)


def _check_defect_args(protocol: MeasurementProtocol, n: int, j: int, fixed) -> OutcomeSequence:
    if n < 2 or n > protocol.n_steps:
        raise ProtocolError(f"n = {n} not in 2..{protocol.n_steps}")
    if j == n:
        raise ProtocolError(
            "marginalizing the final step is trivially consistent (POVM completeness); "
            "the defect is exactly 0 and is not a substantive consistency check"
        )
    if not 1 <= j <= n - 1:
        raise ProtocolError(f"j = {j} not in 1..{n - 1}")
    fixed = tuple(int(m) for m in fixed)
    if len(fixed) != n - 1:
        raise ProtocolError(f"need {n - 1} fixed outcomes, got {len(fixed)}")
    for m in fixed:
        if not 0 <= m < protocol.probe_dim:
            raise LabelError(f"outcome {m} is not in 0..{protocol.probe_dim - 1}")
    return fixed


def kc_defect_state(
    protocol: MeasurementProtocol,
    rho: np.ndarray,
    n: int,
    j: int,
    fixed,
    tol: Tolerances = DEFAULT,
) -> float:
    """State-level consistency defect ``sum_{m_j} P_n - P_{n-1}``.

    ``fixed`` lists the outcomes of all steps except ``j`` in time order;
    the ``P_{n-1}`` term uses the protocol with step ``j`` removed and the
    remaining steps unchanged.  Computed from sequence probabilities, not
    from the operator defect, so the two routes stay independent.
    """
    fixed = _check_defect_args(protocol, n, j, fixed)
    rho = check_density(rho, tol)
    total = 0.0
    for m_j in range(protocol.probe_dim):
        seq = fixed[: j - 1] + (m_j,) + fixed[j - 1 :]
        total += joint_probability(rho, history_operator(protocol.prefix(n), seq), tol)
    reduced = protocol.prefix(n).drop_step(j)
    return total - joint_probability(rho, history_operator(reduced, fixed), tol)


def kc_defect_operator(
    protocol: MeasurementProtocol,
    n: int,
    j: int,
    fixed,
    tol: Tolerances = DEFAULT,
) -> np.ndarray:
    """Operator-level defect ``D = sum_{m_j} Q_n - Q_{n-1}``.

    For every state, ``tr(rho D)`` equals :func:`kc_defect_state`, so
    ``D = 0`` decides the all-states consistency question for this
    ``(n, j, fixed)`` in one check.
    """
    fixed = _check_defect_args(protocol, n, j, fixed)
    pre = _kraus_product(protocol, fixed[: j - 1])
    post = _kraus_product(protocol, fixed[j - 1 :], start=j)
    r = post @ protocol.step_measurements[j - 1].kraus @ pre  # one R per m_j
    r0 = post @ pre
    defect = (r.conj().swapaxes(1, 2) @ r).sum(axis=0) - r0.conj().T @ r0
    return (defect + defect.conj().T) / 2


@dataclass(frozen=True)
class KCEntry:
    n: int
    j: int
    fixed: OutcomeSequence
    operator_defect: float
    state_defects: tuple[float, ...] | None

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "j": self.j,
            "fixed": list(self.fixed),
            "operator_defect": self.operator_defect,
        }
        if self.state_defects is not None:
            out["state_defects"] = list(self.state_defects)
        return out


@dataclass(frozen=True)
class KCReport:
    """Verdict and per-condition defects of a full consistency scan."""

    n_max: int
    entries: tuple[KCEntry, ...]
    verdict: str
    max_operator_defect: float
    max_state_defect: float | None
    decided_by_n2_j1: bool
    tolerances: dict

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "verdict": self.verdict,
            "max_operator_defect": self.max_operator_defect,
            "max_state_defect": self.max_state_defect,
            "decided_by_n2_j1": self.decided_by_n2_j1,
            "entries": [e.to_dict() for e in self.entries],
            "tolerances": self.tolerances,
        }


def check_kc_all(
    protocol: MeasurementProtocol,
    n_max: int,
    rho=None,
    tol: Tolerances = DEFAULT,
) -> KCReport:
    """Evaluate every substantive consistency condition up to ``n_max`` steps.

    Scans all ``2 <= n <= n_max``, ``1 <= j <= n-1`` and all assignments of
    the fixed outcomes, in lexicographic order.  The verdict is decided by
    the operator defects alone; if ``rho`` (one state or a sequence of
    states) is supplied, per-state defects ``tr(rho D)`` are recorded
    alongside; an empty sequence of states is read as ``rho=None``.  The
    report also notes whether the ``(n=2, j=1)`` conditions already decide
    the verdict on their own.
    """
    if n_max < 2:
        raise ProtocolError(f"n_max must be at least 2, got {n_max}")
    if n_max > protocol.n_steps:
        raise ProtocolError(f"n_max = {n_max} exceeds protocol length {protocol.n_steps}")
    _check_capacity(protocol.probe_dim, n_max, tol)
    states: tuple[np.ndarray, ...] | None
    if rho is None:
        states = None
    elif isinstance(rho, np.ndarray):
        states = (check_density(rho, tol),)
    else:
        states = tuple(check_density(r, tol) for r in rho) or None
    entries = []
    max_defect = 0.0
    max_defect_n2 = 0.0
    max_state = 0.0 if states is not None else None
    for n in range(2, n_max + 1):
        for j in range(1, n):
            for fixed in itertools.product(range(protocol.probe_dim), repeat=n - 1):
                defect = kc_defect_operator(protocol, n, j, fixed, tol)
                norm = frobenius(defect)
                if not math.isfinite(norm):
                    raise NumericalFault(
                        f"defect norm {norm} at n={n}, j={j}, fixed={fixed} is not finite"
                    )
                max_defect = max(max_defect, norm)
                if n == 2 and j == 1:
                    max_defect_n2 = max(max_defect_n2, norm)
                state_defects = None
                if states is not None:
                    state_defects = tuple(
                        float(np.trace(r @ defect).real) for r in states
                    )
                    max_state = max(max_state, max(abs(x) for x in state_defects))
                entries.append(KCEntry(n, j, fixed, norm, state_defects))
    verdict = "consistent" if max_defect <= tol.kc else "violated"
    decided = (max_defect_n2 > tol.kc) == (max_defect > tol.kc)
    return KCReport(
        n_max=n_max,
        entries=tuple(entries),
        verdict=verdict,
        max_operator_defect=max_defect,
        max_state_defect=max_state,
        decided_by_n2_j1=decided,
        tolerances=tol.as_dict(),
    )


@dataclass(frozen=True)
class FixedPointResult:
    is_fixed: bool
    commutator_norms: tuple[float, ...]
    map_defect: float


def fixed_point_check(
    a: np.ndarray,
    model: DephasingModel,
    preparation: PreparationState,
    tol: Tolerances = DEFAULT,
) -> FixedPointResult:
    """Test whether ``a`` is invariant under the outcome-averaged dual map.

    For a full-support preparation, invariance is equivalent to ``a``
    commuting with every conditional Hamiltonian; both sides are evaluated
    and a disagreement beyond tolerance raises :class:`NumericalFault`
    (e.g. at resonant step times where the unitaries commute with ``a``
    but the Hamiltonians do not).
    """
    probs = np.abs(preparation.amplitudes) ** 2
    if float(probs.min()) <= 1e-12:
        raise PreconditionError(
            "fixed-point/commutator equivalence needs every preparation amplitude nonzero"
        )
    mapped = nonselective_apply(model, preparation, a, direction="observable")
    map_defect = frobenius(mapped - np.asarray(a, dtype=complex))
    is_fixed = map_defect <= tol.fixed_point
    norms = tuple(frobenius(commutator(h, a)) for h in model.hamiltonians)
    commutes = max(norms) <= tol.commutator
    if is_fixed != commutes:
        raise NumericalFault(
            f"fixed-point predicate ({map_defect:.3e}) and commutator predicate "
            f"(max norm {max(norms):.3e}) disagree"
        )
    return FixedPointResult(is_fixed, norms, map_defect)
