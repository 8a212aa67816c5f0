"""Brute-force cross-validation of sequence statistics.

Every probability and KC defect is recomputed along the most naive route
available: the Kraus chain ``K = K_{m_k} ... K_{m_1}`` of each sequence is
multiplied out from its own first factor, with no prefix reuse and no
intermediate shared between sequences, and read through its effect
``K^H K`` (:func:`_chain_effects`).  The chains go through in stacks of at
most ``PREFIX_BLOCK_BYTES // (16 d**2)`` matrices (at least one), one
batched product per step.  A defect's reduced chain reads the protocol's
own steps with step ``j`` left out.  Within one :func:`oracle_compare`,
the chains of each distinct step list (keyed by its step measurements, so
that the reduced list of a uniform protocol is that of ``n - 1``) are
multiplied out once, into one table of effects that both gates read
(:func:`_effect_tables`), while all the tables fit in one block; past that,
each gate builds its own chains piece by piece.  The states of one command
share one call (:func:`_oracle_reports`), so that the tables, the operator
gate and the model's commutativity, which read no state, are built once
for all of them.  The probabilities are
compared with the optimized enumeration, and every operator defect ``D``
of the scan, one scan of every ``(n, j)`` (every smaller ``n`` read off
the deepest sweep), with its naive reassembly in Frobenius norm, which
bounds the gap in ``tr(rho D)`` for every state.  For commutative models
the effect-product form of the probability is a third route.  No product
or pull-back code is shared with :mod:`kcprobe.sequences`, whose
single-entry routes call the helpers here.  Both routes check their inputs
with the same functions, :func:`~kcprobe.linalg.check_density` and the
outcome and ``(n, j)`` checks of :mod:`kcprobe.model`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import sequences
from .algebra import is_commutative
from .linalg import _matrices, check_density
from .model import MeasurementProtocol, _defect_args, _n_max, _prefix, _sequence
from .sequences import _check_capacity, _defect_blocks, full_distribution
from .serialize import Record
from .tolerances import DEFAULT, Tolerances


def _all_outcomes(d_p: int, k: int) -> np.ndarray:
    """Every sequence of ``k`` outcomes, as the rows of a ``(d_P ** k, k)``
    array in lexicographic order."""
    return np.indices((d_p,) * k, dtype=np.min_scalar_type(d_p - 1)).reshape(k, -1).T


def _stacks(seqs: np.ndarray, d: int):
    """``seqs`` in row slices of at most ``PREFIX_BLOCK_BYTES // (16 d**2)``
    (at least one), each with its offset; the bound is read at call time."""
    count = sequences._fit(16 * d * d)
    for lo in range(0, len(seqs), count):
        yield lo, seqs[lo : lo + count]


def _chain_effects(protocol: MeasurementProtocol, seqs: np.ndarray, steps):
    """Yield ``(lo, effects)`` per stack of the checked outcomes ``seqs``, whose
    column ``c`` is an outcome of the 0-based step ``steps[c]``: ``effects[a]``
    is the Hermitian ``K^H K`` of the Kraus chain of row ``lo + a``."""
    kraus = [np.asarray(protocol.step_measurements[s].kraus) for s in steps]
    for lo, rows in _stacks(seqs, protocol.system_dim):
        r = kraus[0][rows[:, 0]]
        for c in range(1, len(kraus)):
            r = kraus[c][rows[:, c]] @ r
        effects = r.conj().swapaxes(1, 2) @ r
        del r  # freed before the effects are read, to keep the bound
        effects += effects.conj().swapaxes(1, 2)
        effects /= 2
        yield lo, effects
        del effects  # freed before the next stack is built, to keep the bound


def _chain_probabilities(
    protocol: MeasurementProtocol, rho: np.ndarray, seqs: np.ndarray, steps
) -> np.ndarray:
    """``tr(rho K^H K)`` for the Kraus chain of each row of ``seqs`` over ``steps``."""
    out = np.empty(len(seqs))
    for lo, effects in _chain_effects(protocol, seqs, steps):
        out[lo : lo + len(effects)] = np.einsum("ij,aji->a", rho, effects).real
        del effects  # freed before the next stack is built, to keep the bound
    return out


def _steps(n: int, j: int = 0) -> list:
    """The 0-based steps of a chain of the first ``n`` steps with step ``j``
    (1-based) left out, the reduced chain of ``(n, j)``; ``j = 0`` leaves
    none out."""
    return [s for s in range(n) if s != j - 1]


def _naive_defects(protocol: MeasurementProtocol, j: int, fixed: np.ndarray) -> np.ndarray:
    """The operator defects ``sum_{m_j} E(m_1 .. m_n) - E'(fixed)``, one for each
    row of the ``n - 1`` checked outcomes ``fixed``, from one chain per ``m_j``
    put in at step ``j`` and the reduced chain ``E'`` of the steps but ``j``."""
    d_p, d, n = protocol.probe_dim, protocol.system_dim, fixed.shape[1] + 1
    rows = np.empty((d_p, len(fixed), n), dtype=fixed.dtype)  # the full chains, m_j leading
    rows[:, :, : j - 1] = fixed[:, : j - 1]
    rows[:, :, j - 1] = np.arange(d_p)[:, None]
    rows[:, :, j:] = fixed[:, j - 1 :]
    out = np.zeros((len(fixed), d, d), dtype=complex)
    for m_j_rows in rows:
        for lo, effects in _chain_effects(protocol, m_j_rows, range(n)):
            out[lo : lo + len(effects)] += effects
            del effects  # freed before the next stack is built, to keep the bound
    for lo, effects in _chain_effects(protocol, fixed, _steps(n, j)):
        out[lo : lo + len(effects)] -= effects
        del effects  # likewise
    return out


def _key(protocol: MeasurementProtocol, steps) -> tuple:
    """The identities of the step measurements of the 0-based ``steps``:
    step lists with the same key have the same chains."""
    return tuple(id(protocol.step_measurements[s]) for s in steps)


def _effect_tables(protocol: MeasurementProtocol, n_max: int) -> dict | None:
    """The effects ``K^H K`` of every outcome sequence of each distinct step
    list that :func:`oracle_compare` reads up to ``n_max`` (the first ``n``
    steps, and those with step ``j`` left out), one ``(d_P**k, d, d)`` table
    in the order of :func:`_all_outcomes` per :func:`_key`, each from one
    :func:`_chain_effects` call over the first step list with that key.  None
    where the tables, counted before any is built, would not fit in one
    block of ``PREFIX_BLOCK_BYTES``.  They are built before the scan has
    checked its defects, so a non-finite effect raises no warning here: it
    fails the gate that reads it, and the scan raises its fault before the
    operator gate reads a defect it found non-finite."""
    d_p, d = protocol.probe_dim, protocol.system_dim
    lists = {}
    for n in range(1, n_max + 1):
        for j in range(n):
            steps = _steps(n, j)
            lists.setdefault(_key(protocol, steps), steps)
    if sum(d_p ** len(steps) for steps in lists.values()) > sequences._fit(16 * d * d):
        return None
    tables = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for key, steps in lists.items():
            ((_, tables[key]),) = _chain_effects(protocol, _all_outcomes(d_p, len(steps)), steps)
    return tables


def _table_defects(
    protocol: MeasurementProtocol, tables: dict, n: int, j: int, rows: slice
) -> np.ndarray:
    """The operator defects ``sum_{m_j} E - E'`` of ``(n, j)`` for the ``rows``
    of :func:`_all_outcomes` of the ``n - 1`` fixed outcomes, as
    :func:`_naive_defects` forms them, read off :func:`_effect_tables`."""
    d_p, d = protocol.probe_dim, protocol.system_dim
    after = d_p ** (n - j)  # the outcome sequences of the steps after j
    full = tables[_key(protocol, _steps(n))].reshape(-1, d_p, after, d, d)  # m_j on axis 1
    before, later = np.divmod(np.arange(rows.start, rows.stop), after)
    out = full[before, 0, later]
    for m_j in range(1, d_p):
        out += full[before, m_j, later]
    out -= tables[_key(protocol, _steps(n, j))][rows]
    return out


def _defect_gaps(protocol: MeasurementProtocol, pairs: list, tables: dict | None = None) -> np.ndarray:
    """The largest ``|D - D_naive|_F`` of each ``(n, j)`` of ``pairs``, in their
    order, over its operator defects ``D`` from one scan of every pair
    (:func:`~kcprobe.sequences._defect_blocks`), ``D`` turned back into
    matrices; ``np.maximum`` keeps a NaN.  ``D_naive`` is read off ``tables``
    (:func:`_effect_tables`) where given, else built per slice from its own
    chains (:func:`_naive_defects`).  A block's naive slices are built only
    once the scan has yielded, and so checked, the block."""
    d_p = protocol.probe_dim
    out = np.zeros(len(pairs))
    index = {pair: k for k, pair in enumerate(pairs)}
    if tables is None:  # the fixed outcomes of each n, for the per-piece chains
        fixed = {n: _all_outcomes(d_p, n - 1) for n in dict.fromkeys(n for n, _ in pairs)}
    for j, pieces, defects, _, _ in _defect_blocks(protocol, pairs):
        for n, first, row, size in pieces:
            gap = _matrices(defects[row : row + size])
            if tables is None:
                gap -= _naive_defects(protocol, j, fixed[n][first : first + size])
            else:
                gap -= _table_defects(protocol, tables, n, j, slice(first, first + size))
            gap = gap.reshape(len(gap), -1).view(float)  # real and imaginary parts
            k = index[n, j]
            out[k] = np.maximum(out[k], np.max(np.sqrt(np.einsum("ak,ak->a", gap, gap))))
            del gap  # freed before the next slice is built, to keep the bound
        del defects
    return out


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


def naive_sequence_probability(
    protocol: MeasurementProtocol, rho: np.ndarray, seq, tol: Tolerances = DEFAULT
) -> float:
    """Probability of one sequence with the Kraus product built from scratch."""
    seq = _sequence(protocol, seq)
    rho = check_density(rho, protocol.system_dim, tol)
    return float(_chain_probabilities(protocol, rho, np.array([seq]), range(len(seq)))[0])


def naive_distribution(protocol: MeasurementProtocol, rho: np.ndarray, n: int, tol: Tolerances = DEFAULT) -> dict:
    _prefix(protocol, n)
    _check_capacity(protocol.probe_dim, n, tol)
    rho = check_density(rho, protocol.system_dim, tol)
    probs = _chain_probabilities(protocol, rho, _all_outcomes(protocol.probe_dim, n), range(n))
    return dict(zip(itertools.product(range(protocol.probe_dim), repeat=n), probs.tolist()))


def naive_kc_defect(
    protocol: MeasurementProtocol, rho: np.ndarray, n: int, j: int, fixed, tol: Tolerances = DEFAULT
) -> float:
    """Consistency defect ``tr(rho D)`` of the operator defect ``D`` assembled
    from naive Kraus chains.  ``(n, j)`` must be a substantive condition and
    ``fixed`` hold ``n - 1`` outcomes; else :class:`ProtocolError`.
    """
    fixed = _defect_args(protocol, n, j, fixed)
    rho = check_density(rho, protocol.system_dim, tol)
    return float(np.einsum("ij,ji->", rho, _naive_defects(protocol, j, np.array([fixed]))[0]).real)


def effect_product_probability(
    protocol: MeasurementProtocol, rho: np.ndarray, seq, tol: Tolerances = DEFAULT
) -> float:
    """Commutative-model probability ``tr(rho E_{m_1} ... E_{m_n})``."""
    seq = _sequence(protocol, seq)
    rho = check_density(rho, protocol.system_dim, tol)
    return float(_effect_products(protocol, rho, np.array([seq]))[0])


@dataclass(frozen=True)
class OracleReport(Record):
    """Maximum discrepancies between the naive and optimized routes."""

    # the discrepancies that :attr:`agrees` gates; ``None`` where one does not apply
    GATED = ("max_abs_discrepancy", "max_defect_discrepancy", "max_product_form_discrepancy")

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
        return all(getattr(self, name) is None or getattr(self, name) <= cut for name in self.GATED)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "agrees": self.agrees}


def oracle_compare(
    protocol: MeasurementProtocol,
    rho: np.ndarray,
    n_max: int | None = None,
    tol: Tolerances = DEFAULT,
) -> OracleReport:
    """Recompute every probability up to ``n_max`` naively and compare.

    First gates every operator defect ``D`` of :func:`check_kc_all` (a
    non-finite one raises their fault): ``max_defect_discrepancy`` is the
    largest ``|D - D_naive|_F``, which bounds ``|tr(rho (D - D_naive))|`` for
    every state.  For commutative models it also checks the effect-product
    form.  ``rho`` is validated once.  Each gate takes its maximum with
    ``np.max``, so a NaN discrepancy anywhere makes the report disagree.
    """
    (report,) = _oracle_reports(protocol, [rho], n_max, tol)
    return report


def _oracle_reports(
    protocol: MeasurementProtocol, states: list, n_max: int | None, tol: Tolerances
) -> list[OracleReport]:
    """:func:`oracle_compare` of each state of ``states``, each validated once.
    What reads no state is done once for all of them: the effect tables, the
    operator gate, whose scan and naive defects hold for every state, and the
    commutativity of the model."""
    if n_max is None:
        n_max = protocol.n_steps
    _n_max(protocol, n_max, 1)
    states = [check_density(rho, protocol.system_dim, tol) for rho in states]
    d_p = protocol.probe_dim
    _check_capacity(d_p, n_max, tol)
    tables = _effect_tables(protocol, n_max)
    pairs = [(n, j) for n in range(2, n_max + 1) for j in range(1, n)]
    max_defect = float(np.max(_defect_gaps(protocol, pairs, tables), initial=0.0))
    commutative, _ = is_commutative(protocol.model.hamiltonians, tol)
    reports = []
    for rho in states:
        per_n = []
        product_gaps = [0.0]
        for n in range(1, n_max + 1):
            fast = np.array(list(full_distribution(protocol, rho, n, tol).table.values()))
            seqs = _all_outcomes(d_p, n)
            if tables is None:
                naive = _chain_probabilities(protocol, rho, seqs, range(n))
            else:
                naive = np.einsum("ij,aji->a", rho, tables[_key(protocol, _steps(n))]).real
            per_n.append(float(np.max(np.abs(fast - naive))))
            if commutative:
                product_gaps.append(np.max(np.abs(fast - _effect_products(protocol, rho, seqs))))
        reports.append(
            OracleReport(
                n_max=n_max,
                max_abs_discrepancy=float(np.max(per_n)),
                per_n=tuple(per_n),
                max_defect_discrepancy=max_defect,
                commutative=commutative,
                max_product_form_discrepancy=float(np.max(product_gaps)) if commutative else None,
                tolerances=tol.as_dict(),
            )
        )
    return reports
