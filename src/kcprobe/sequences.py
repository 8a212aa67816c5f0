"""Sequential-outcome statistics and Kolmogorov-consistency checks.

An outcome sequence is a tuple of integer labels in time order,
``(m_1, ..., m_n)``.  Its history operator is ``Q = R^H R`` with
``R = K_{m_n} ... K_{m_1}`` (later steps applied on the left), and the
sequence probability is ``tr(rho Q)``.

Every fast-route number is read off operators pulled back (Heisenberg
picture) one step at a time, ``X -> K_m^H X K_m`` by :func:`_pull`, the
observable recursion of Jaeger (Neural Computation 12, 1371, 2000): ``Q``
is the identity pulled back through the steps ``n .. 1``.  So the
probabilities of all ``d_P ** n`` sequences, which :func:`full_distribution`
reads, are the ``tr(rho Q)`` of :func:`_probabilities`.  Every batched stack
of this module is sized by one rule, :func:`_heads`: the leading outcomes
are walked in lexicographic order, each such ``head`` leaving at most a
given count of sequences of the trailing steps to one stack at the offset
the walk gives, so the memory is bounded before allocation; each pull-back
puts its outcome first, so the stacks are lexicographic by construction.

Kolmogorov consistency asks that summing out an intermediate step of the
n-step distribution gives that of the protocol without the step.  Its
defect is a Hermitian ``D`` with ``delta P = tr(rho D)`` for every state, so
``D = 0`` decides all states in one finite check.  Summing out the *final*
step is consistent by POVM completeness, and is rejected.

Every batched defect comes from :func:`_defect_blocks`, which takes the
norms and owns the non-finite fault.  Its one loop, :func:`_scan`, writes
their norms and ``tr(rho D)`` for a stack of states into two arrays sized
before the scan, for :func:`check_kc_all` (every ``(n, j)``) and
:func:`_state_defects` (every ``(n, j)`` and state one witness or
noise-ensemble reader needs).

The scan holds each operator as its ``d**2`` real coordinates ``c(X)`` in a
fixed orthonormal Hermitian basis (:func:`~kcprobe.linalg._coordinates`), so
a Frobenius norm is a Euclidean norm, ``tr(rho D) = c(rho) . c(D)``, and
every ``D`` is Hermitian by construction.  Up to :data:`_TRANSFER_MAX_DIM`
the Heisenberg step of a step's Kraus operators is a real
``(d_P, d**2, d**2)`` transfer ``T``, ``c(K_m^H X K_m) = c(X) @ T[m]``
(:func:`~kcprobe.model._transfer`, built once per distinct step measurement
and kept on it, ``8 d_P d**4`` bytes), so pulling a stack back through a
step is one BLAS product per outcome (:func:`_pull`); the step's effects,
``c(1)`` pulled back through it, are kept on it alike (:func:`_last_effects`),
so a later scan of the step builds neither again (:func:`_kept_bytes`).
Above it the scan holds each operator's ``d x d`` matrix, flattened to one
row, and pulls it back through ``K_m^H X K_m`` (:func:`_pull_back`), one step
at a time alike, the identity to the step's effects too.  So the scan reads
a step's Kraus operators in :func:`_pull` alone, through its transfer or
directly, and never its stored effects.

Each ``j`` is swept once (:func:`_sweep`), at the largest ``n`` asked of it,
``n_j``, and the ``j`` that share ``n_j`` share one backward sweep: ``P = 1``
pulled back through step ``n_j``; then for ``j = n_j - 1 .. 1``, ``X`` is
``P`` pulled back through step ``j`` (every outcome), ``M = sum_m X[m] - P``,
``D(n_j, j)`` is ``M`` pulled back through the steps ``j - 1 .. 1``, and
``P`` becomes ``X``.  With ``a`` the outcomes before step ``j`` and ``b``
those after it, ``D[a, b] = pre_a^H M_b pre_a`` for the Kraus products
``pre_a``, and each pull-back puts its outcome first, so the entries come out
in the lexicographic order of ``fixed``.  Every smaller ``n`` of ``j`` is read
off that sweep (:func:`_levels`): summing out the final step is consistent
by POVM completeness, so ``D(n, j)[a, b] = sum_c D(n + 1, j)[a, b, c]``, the
sum of ``d_P`` adjacent entries, added left to right, level by level from
``n_j`` down.  So :func:`check_kc_all` makes one sweep, at ``n_max``.  If
the effects of step ``k`` sum to ``1 + Delta_k``, a level ``n`` differs from
the sweep of ``n`` alone by at most ``2 sum_{k=n+1}^{n_j} |Delta_k|_F``: the
Kraus products are contractions, and the dual of a unital,
trace-preserving step is a Frobenius contraction; for a commutative model
the term vanishes to first order.  A built step's ``Delta_k`` is rounding,
but a preparation or meter basis read from a file is checked to 1e-10 only,
so a level is read off the sweep only while that bound, from the residuals
kept on the steps (:func:`~kcprobe.model._residual`), stays within
:data:`_LEVEL_BOUND` (1e-13); past it, that ``n`` is swept itself and the
smaller ``n`` read off its sweep (:func:`_tops`).  A non-finite defect stops
the sweep, which is freed, and each ``(n, j)`` is then scanned alone, in
entry order, for its fault (:func:`_raise_fault`), so the fault names the
first non-finite ``(n, j, fixed)`` in entry order, as the sweep of that
``n`` alone finds it, on either side of :data:`_TRANSFER_MAX_DIM`.

The leading outcomes of ``fixed`` are walked so that a stack holds at most
``PREFIX_BLOCK_BYTES // (32 d**2 d_P)`` operators (at least one) before a
pull-back, fixed before it is built; while ``P`` would hold more, it stays
at the last level that fits, and each head pulls its own suffix outcomes
back from there.  A block's entries fill whole runs of each level down to
one entry; below that, each level's partial sum carries over from block to
block.  So the work space stays below
``SCAN_BLOCKS * PREFIX_BLOCK_BYTES + SCAN_OVERHEAD_BYTES`` (4 KiB) besides
the results, which the scan lays out once per ``(n, j)`` in the
:class:`_KCEntries` it fills, and the transfers, whose first build holds
about six times a transfer's size for a moment.  No value depends on the
chunking: each product is computed alike whatever the length of its stack,
and each level's entry adds the same terms in the same order, carried or not.
The other route to a defect is the oracle's Kraus chains, read as a batch
of one by :func:`history_operator`, :func:`kc_defect_operator` and
:func:`kc_defect_state`.

A grid axis runs through :func:`_pull`, :func:`_sweep`,
:func:`_defect_blocks` and :func:`_scan`: a :class:`~kcprobe.model._Grid`
of ``G`` protocols of one shape (a sweep's chunk of step times or models)
holds each step's Kraus operators, effects and transfer as one stack, the
point after the outcome, and every operator of the scan holds one row per
point, ``(N, G, d**2)``, so that every slice and sum along the operators
and outcomes reads as for one protocol.  Each point is pulled back through
its own steps by the same matrix products as alone (one BLAS call per
point and outcome, on the point's own columns), and every other step is
elementwise or a reduction along the point's own rows, so a point's entries
are bit for bit those of its protocol scanned alone; the ``G`` points share
the block, each stack holding at most ``1 / G`` of what one protocol's
would.  One protocol carries no grid axis.  The state-defect tensors of a
grid lead with its point.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericalFault, PreconditionError, ProtocolError
from .linalg import _basis, _coordinates, check_density, commutator, frobenius
from .model import (
    DephasingModel,
    MeasurementProtocol,
    PreparationState,
    _Grid,
    _defect_args,
    _n_max,
    _prefix,
    _residual,
    _sequence,
    _transfer,
    nonselective_apply,
)
from .serialize import Record
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


def history_operator(protocol: MeasurementProtocol, seq) -> HistoryOperator:
    """History operator of an outcome sequence, from the oracle's Kraus chain."""
    from .oracle import _chain_effects

    seq = _sequence(protocol, seq)
    _, (q,) = next(_chain_effects(protocol, np.array([seq]), range(len(seq))))
    return HistoryOperator(q, seq)


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


# Most bytes one block of effects or operator defects may hold, ``16 d**2``
# for each ``d x d`` complex matrix in it.  A pull-back in
# :func:`_probabilities` holds four stacks of at most a quarter block (the
# trailing effects, the stack, the product and its pull-back; ``tracemalloc``
# saw 1.13 blocks at 64 KiB blocks and d = 16), so its work space stays below
# twice this bound, and that of :func:`_defect_blocks` below
# :data:`SCAN_BLOCKS` times it (and 4 KiB).  It only trades speed for memory,
# so it is not a tolerance.
PREFIX_BLOCK_BYTES = 16 * 2**20


def _check_capacity(probe_dim: int, n: int, tol: Tolerances) -> None:
    count = probe_dim**n
    if count > tol.enumeration_cap:
        raise CapacityError(f"{probe_dim}^{n} = {count} sequences exceeds cap {tol.enumeration_cap}")


def _fit(item_bytes: int) -> int:
    """How many items of ``item_bytes`` bytes one block of
    :data:`PREFIX_BLOCK_BYTES`, read at call time, may hold (at least one):
    the one block-fit rule of every stack and chunk of the package."""
    return max(1, PREFIX_BLOCK_BYTES // item_bytes)


def _block_len(d: int) -> int:
    """How many ``d x d`` complex matrices one block may hold (at least one)."""
    return _fit(16 * d * d)


def _lead(d_p: int, steps: int, count: int) -> int:
    """The fewest leading steps of ``steps`` that leave at most ``count`` (at
    least one) sequences of the trailing steps."""
    lead = 0
    while lead < steps and d_p ** (steps - lead) > count:
        lead += 1
    return lead


def _heads(d_p: int, steps: int, lead: int):
    """``(start, head)`` for the outcomes ``head`` of the ``lead`` leading
    steps of ``steps`` (as :func:`_lead` counts them), in lexicographic order;
    ``start`` indexes the first of the sequences that start with ``head``
    among all ``d_p ** steps``."""
    heads = itertools.product(range(d_p), repeat=lead)
    return zip(itertools.count(0, d_p ** (steps - lead)), heads)


def _probabilities(
    protocol: MeasurementProtocol, rho: np.ndarray, n: int, tol: Tolerances
) -> np.ndarray:
    """Probabilities of all sequences of the first ``n`` steps, lexicographic.

    ``rho`` must already be a validated density matrix of the system and
    ``d_P ** n`` within the enumeration cap.  Each entry passes the guards of
    :func:`joint_probability`, the one :func:`_born_rule`.  A vector whose sum is
    farther than ``distribution_sum`` from 1 raises :class:`NumericalFault`.

    The effects of the trailing steps are pulled back once, then on through
    each head's own outcomes (:func:`_pull_prefixes`); ``tr(rho E)`` is
    ``c(E) . z`` on coordinates.
    """
    d_p, d = protocol.probe_dim, protocol.system_dim
    count = _block_len(d) // (4 * d_p)  # a stack holds at most d_P count, a quarter block
    lead = _lead(d_p, n - 1, count)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value fails the Born rule
        post = np.ascontiguousarray(_last_effects(protocol, n))  # C-ordered rows, for the trace products below
        for k in range(n - 1, lead, -1):
            post = _flat(_pull(protocol, k - 1, post))
        if d <= _TRANSFER_MAX_DIM:
            # z_a = tr(B_a rho), complex for a non-Hermitian rho, so tr(rho E) = c(E) . z
            z = (_basis(d) @ rho.T.ravel()).view(float).reshape(-1, 2)
        out = np.empty(d_p**n)
        for start, head in _heads(d_p, n - 1, lead):  # head: outcomes of steps 1 .. lead
            effects = _pull_prefixes(protocol, post, head, lead)
            if d > _TRANSFER_MAX_DIM:
                vals = np.einsum("aij,ji->a", effects.reshape(-1, d, d), rho)
            else:
                vals = np.einsum("ak,ks->as", effects, z).view(complex)[:, 0]
            del effects  # freed before the next head is pulled, to keep the bound
            out[d_p * start : d_p * start + len(vals)] = _born_rule(vals, tol)
    total = float(out.sum())
    if not abs(total - 1.0) <= tol.distribution_sum:
        raise NumericalFault(f"distribution sums to {total}, expected 1")
    return out


def full_distribution(
    protocol: MeasurementProtocol,
    rho: np.ndarray,
    n: int,
    tol: Tolerances = DEFAULT,
) -> JointDistribution:
    """Enumerate all ``d_P ** n`` sequences of the first ``n`` steps.

    The table is keyed lexicographically in ``(m_1, ..., m_n)`` and is
    byte-stable.  Its values are ``tr(rho Q)`` for the history operators
    ``Q`` that the batched pull-back route of :func:`_probabilities` makes,
    whose work space stays below ``2 * PREFIX_BLOCK_BYTES`` whatever ``n`` is.
    """
    _prefix(protocol, n)
    _check_capacity(protocol.probe_dim, n, tol)
    rho = check_density(rho, protocol.system_dim, tol)
    probs = _probabilities(protocol, rho, n, tol)
    table = dict(zip(itertools.product(range(protocol.probe_dim), repeat=n), probs.tolist()))
    return JointDistribution(n, protocol.probe_dim, table)


def kc_defect_state(
    protocol: MeasurementProtocol, rho: np.ndarray, n: int, j: int, fixed, tol: Tolerances = DEFAULT
) -> float:
    """State-level consistency defect ``sum_{m_j} P_n - P_{n-1}``.

    ``fixed`` lists the outcomes of all steps except ``j`` in time order;
    the ``P_{n-1}`` term uses the protocol with step ``j`` removed and the
    remaining steps unchanged.  It is :func:`~kcprobe.oracle.naive_kc_defect`,
    ``tr(rho D)`` for the ``D`` of :func:`kc_defect_operator`, except that a
    non-finite value raises :class:`NumericalFault`.
    """
    from .oracle import naive_kc_defect

    fixed = _defect_args(protocol, n, j, fixed)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite defect fails below
        value = naive_kc_defect(protocol, rho, n, j, fixed, tol)
    if not math.isfinite(value):
        raise NumericalFault(f"defect {value} at n={n}, j={j}, fixed={fixed} is not finite")
    return value


def kc_defect_operator(
    protocol: MeasurementProtocol, n: int, j: int, fixed, tol: Tolerances = DEFAULT
) -> np.ndarray:
    """Operator-level defect ``D = sum_{m_j} Q_n - Q_{n-1}``.

    For every state, ``tr(rho D)`` equals :func:`kc_defect_state`, so
    ``D = 0`` decides the all-states consistency question for this
    ``(n, j, fixed)`` in one check.  ``D`` comes from the oracle's Kraus chains.
    """
    from .oracle import _naive_defects

    fixed = _defect_args(protocol, n, j, fixed)
    return _naive_defects(protocol, j, np.array([fixed]))[0]


@dataclass(frozen=True)
class KCEntry(Record):
    OMIT_IF_NONE = ("state_defects",)

    n: int
    j: int
    fixed: OutcomeSequence
    operator_defect: float
    state_defects: tuple[float, ...] | None


class _KCEntries(Sequence):
    """The entries of a consistency scan, held as arrays: one Frobenius norm
    per entry in ``norms`` and, per state, one ``tr(rho D)`` in the rows of
    the ``(entries, s)`` array ``traces`` (``s = 0`` for no state), laid out
    before the scan fills them: ``starts[k]`` is the first entry of
    ``(n, j) = pairs[k]``.  A :class:`KCEntry` is made only when one is read.
    The scan of a grid of ``G`` protocols holds ``(entries, G)`` norms and
    ``(entries, G, s)`` traces, which only :meth:`_pair` reads."""

    def __init__(self, d_p: int, pairs: list, states: int, grid: tuple = ()):
        self._d_p = d_p
        self._pairs = pairs
        self._starts = starts = [0]
        for n, _ in pairs:
            starts.append(starts[-1] + d_p ** (n - 1))
        self._norms = np.empty((starts[-1],) + grid)
        self._traces = np.empty((starts[-1],) + grid + (states,))
        self._largest = -math.inf  # of the norms filled in

    def _pair(self, n: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """The norms and the rows of ``traces`` of the entries of ``(n, j)``, as views."""
        k = self._pairs.index((n, j))
        part = slice(self._starts[k], self._starts[k + 1])
        return self._norms[part], self._traces[part]

    def _fill(self, j: int, pieces: list, norms: np.ndarray, traces: np.ndarray | None, largest: float) -> None:
        """Fill the entries of one block of :func:`_defect_blocks`: for each
        ``(n, first, row, size)`` of ``pieces``, the entries ``first ..`` of
        ``(n, j)`` from the rows ``row ..`` of ``norms`` and of ``traces``
        (None when the scan has no state); ``largest`` is the largest of
        ``norms``."""
        self._largest = max(self._largest, largest)
        for n, first, row, size in pieces:
            at = self._starts[self._pairs.index((n, j))] + first
            self._norms[at : at + size] = norms[row : row + size]
            if traces is not None:
                self._traces[at : at + size] = traces[row : row + size]

    def _max(self) -> tuple[float, float | None]:
        """The largest norm, as the blocks gave it, and the largest
        ``|tr(rho D)|`` (None for no state)."""
        max_state = float(np.abs(self._traces).max()) if self._traces.shape[1] else None
        return self._largest, max_state

    def __len__(self) -> int:
        return len(self._norms)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(*k.indices(len(self)))))
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("KC entry index out of range")
        pair = bisect.bisect_right(self._starts, k) - 1
        n, j = self._pairs[pair]
        fixed = tuple(map(int, np.unravel_index(k - self._starts[pair], (self._d_p,) * (n - 1))))
        row = tuple(self._traces[k].tolist()) if self._traces.shape[1] else None
        return KCEntry(n, j, fixed, self._norms[k].item(), row)

    def _rows(self, row_type=None):
        """``(n, j, fixed, norm, state defects or None)`` of every entry in
        order, the state defects as ``row_type`` (a list if ``None``)."""
        repeat = itertools.repeat
        for n, j in self._pairs:
            norms, traces = self._pair(n, j)
            if traces.shape[1]:
                rows = traces.tolist()
                rows = rows if row_type is None else map(row_type, rows)
            else:
                rows = repeat(None)
            fixed = itertools.product(range(self._d_p), repeat=n - 1)
            yield from zip(repeat(n), repeat(j), fixed, norms.tolist(), rows)

    def __iter__(self):
        return itertools.starmap(KCEntry, self._rows(tuple))

    def dicts(self) -> list:
        """``[e.to_dict() for e in self]``, written straight from the arrays."""
        out = []
        for n, j, fixed, norm, row in self._rows():
            entry = {"n": n, "j": j, "fixed": list(fixed), "operator_defect": norm}
            if row is not None:
                entry["state_defects"] = row
            out.append(entry)
        return out

    def __eq__(self, other):
        if not isinstance(other, _KCEntries):
            return NotImplemented
        return self.dicts() == other.dicts()


@dataclass(frozen=True)
class KCReport(Record):
    """Verdict and per-condition defects of a full consistency scan.

    ``entries`` is the read-only sequence of :class:`KCEntry` in scan order
    that :func:`check_kc_all` returns: it holds the entries as arrays and
    makes each one when it is read."""

    n_max: int
    entries: _KCEntries
    verdict: str
    max_operator_defect: float
    max_state_defect: float | None
    decided_by_n2_j1: bool
    tolerances: dict

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"

    def to_dict(self) -> dict:
        return {**super().to_dict(), "entries": self.entries.dicts()}


# Most blocks of PREFIX_BLOCK_BYTES that :func:`_defect_blocks` holds at once.
# Its stacks hold at most ``1 / (2 d_P)`` of a block as matrices (half that
# as coordinates) before a pull-back, and ``post`` at most ``d_P`` times that.
# The most is held while :func:`_sweep` pulls a suffix stack back through step
# ``j`` for every outcome above _TRANSFER_MAX_DIM: ``post``, the stack, the
# last head's ``M``, and the product and its pull-back, each ``d_P`` times as
# long as the stack.  A swept block and its levels (:func:`_levels`) are at
# most ``d_P / (d_P - 1)`` times the block's rows of coordinates, a quarter of
# a block at most, and each level below a block carries one row.
# ``tracemalloc`` saw 2.4 blocks at 64 KiB blocks (d_P 2, d 16, every pair up
# to n 9; 2.2 for one pair) and 1.5 at 256 KiB (d_P 3, d 9), besides the
# entries; a pull-back through the steps before ``j`` holds less.  The
# transfers of the steps are not counted: they are built once per
# measurement.  A block is at least one stack, 32 d**2 d_P bytes.  The scan's
# own objects add a fixed SCAN_OVERHEAD_BYTES: at 1 KiB blocks (d_S <= 4, 2-3
# states) ``tracemalloc`` saw at most 3.8 KiB beside the three blocks.
SCAN_BLOCKS = 3
SCAN_OVERHEAD_BYTES = 4 * 2**10

# Largest system dimension whose scan pulls its stacks back through the real
# transfer of each step.  Per operator, one pull-back took 2.1, 14, 188 and
# 3262 ns at d = 2, 4, 8 and 16 through a transfer against 602, 888, 1926
# and 6248 ns through ``K_m^H X K_m`` (one BLAS thread, a 2-core x86 box).  A
# transfer holds ``8 d_P d**4`` bytes, at most 128 KiB up to here; at d = 32
# it is 16 MiB a step, and a 5-nucleus nv scan to n_max = 4 took 40.5 ms
# through transfers against 2.1 ms.  The rule reads ``d`` alone, so no value
# depends on the chunking.
_TRANSFER_MAX_DIM = 8


def _pull_back(products: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Heisenberg step ``C_c^H X_b C_c`` for every matrix ``C_c`` of the
    stack ``products`` and every matrix ``X_b`` of the stack ``x``, as a
    ``(len(products), len(x), ..., d, d)`` array with ``c`` leading; of a
    grid, ``products`` and each ``X_b`` hold one matrix per point, ``...``."""
    return products.conj().swapaxes(-1, -2)[:, None] @ (x @ products[:, None])


def _pull(protocol: MeasurementProtocol, k: int, stack: np.ndarray, m: int | None = None) -> np.ndarray:
    """The Heisenberg step ``X -> K_m^H X K_m`` of the 0-based step ``k`` for
    each operator ``X`` of ``stack`` and each outcome ``m`` (only ``m`` if
    given), as an array with the outcome leading and the operators of
    ``stack`` next, so that the pairs flatten in lexicographic order.  Of a
    grid (:class:`~kcprobe.model._Grid`), an operator holds one row per
    point, ``(N, G, d**2)``, and each point is pulled back through its own
    step.

    An operator is held as :func:`_last_effects` holds it, as rows of ``d**2``
    reals: up to :data:`_TRANSFER_MAX_DIM` its coordinates, and the step is
    one product with ``T[m]^T`` per outcome (and point) for the transfer
    ``T`` of the step; above it its flattened ``d x d`` matrix."""
    measurement = protocol.step_measurements[k]
    outcomes = slice(None) if m is None else slice(m, m + 1)
    if stack.shape[-1] > _TRANSFER_MAX_DIM**2:
        d = math.isqrt(stack.shape[-1])
        pulled = _pull_back(np.asarray(measurement.kraus)[outcomes], stack.reshape(stack.shape[:-1] + (d, d)))
        return pulled.reshape(pulled.shape[:-2] + (d * d,))
    transfer = _transfer(measurement)
    if m is not None:
        transfer = transfer[outcomes]
    # The columns c(X) of a C-ordered (d**2, N) array times each whole T[m]^T:
    # OpenBLAS (Haswell kernels) rounds each column of that product alike for
    # every N > 1 (checked bit for bit at d = 1..8, N up to 30000), but not a
    # row of a (N, d**2) product at d = 5..7, nor a product of one column.  A
    # grid's point makes this product with its own (d**2, N) columns.
    grid = stack.ndim == 3
    columns = np.ascontiguousarray(stack.transpose(1, 2, 0) if grid else stack.T)
    count = len(stack)
    if count == 1:
        columns = np.concatenate((columns, columns), axis=-1)
    if grid:  # out is (d**2, G, outcome, N), each product where the swapped view puts it
        out = np.empty((columns.shape[1], len(columns), len(transfer), columns.shape[2]))
        np.matmul(transfer.swapaxes(-1, -2), columns, out=out.swapaxes(0, -2))
        return out.transpose(2, 3, 1, 0)[:, :count]
    out = np.empty((len(columns), len(transfer), columns.shape[1]))
    np.matmul(transfer.transpose(0, 2, 1), columns, out=out.transpose(1, 0, 2))
    return out.transpose(1, 2, 0)[:, :count]


def _pull_prefixes(protocol: MeasurementProtocol, stack: np.ndarray, head: tuple, stop: int) -> np.ndarray:
    """``pre_a^H X_b pre_a`` for each operator ``X_b`` of ``stack`` and each
    Kraus product ``pre_a`` of the steps ``1 .. stop`` whose leading outcomes
    are ``head``, with ``a`` leading: the pull-back through the steps ``stop``
    down to ``1``, one :func:`_pull` a step, of the outcome of ``head`` alone
    at a step of ``head``."""
    for s in range(stop, 0, -1):
        stack = _flat(_pull(protocol, s - 1, stack, head[s - 1] if s <= len(head) else None))
    return stack


def _flat(pulled: np.ndarray) -> np.ndarray:
    """A pull-back's ``(outcome, operator)`` pairs as one stack of operators."""
    return pulled.reshape((-1,) + pulled.shape[2:])


def _step_defects(pulled: np.ndarray, post: np.ndarray) -> np.ndarray:
    """``M_b = sum_m K_m^H P_b K_m - P_b`` for each operator ``P_b`` of ``post``,
    from ``pulled``, the :func:`_pull` of ``post`` through step ``j``: the
    outcomes added in order, ``(X_0 + X_1) + X_2 + ...``, then ``P_b`` taken off."""
    # a new array: pulled becomes the next post, so it is not written to
    total = pulled[0] + pulled[1] if len(pulled) > 1 else pulled[0].copy()
    for m in range(2, len(pulled)):
        total += pulled[m]
    total -= post
    return total


def _kept_bytes(d_p: int, d: int) -> int:
    """Bytes that a step measurement keeps for the scan once scanned: up to
    :data:`_TRANSFER_MAX_DIM` its transfer, ``8 d_P d**4``, and its first
    suffix effects, ``8 d_P d**2`` (:func:`_last_effects`); above it nothing."""
    return 8 * d_p * d * d * (d * d + 1) if d <= _TRANSFER_MAX_DIM else 0


def _last_effects(protocol: MeasurementProtocol, n: int) -> np.ndarray:
    """The effects ``E_m = K_m^H 1 K_m`` of step ``n``, the first suffix
    effects of a sweep: the identity pulled back through the step, from its
    Kraus operators as every other pull-back is, held as the scan holds
    operators at the protocol's ``d``.  Up to :data:`_TRANSFER_MAX_DIM` they
    are the rows ``c(1) @ T[m]`` of coordinates, the sums of the rows of
    ``T[m]`` at the diagonal coordinates, laid out with the outcome
    innermost, as :func:`_pull` lays out a pull-back, so that their first
    pull-back reads them in place; they are built at the first call and kept
    on the measurement, read-only, as its transfer is (a grid's point reads
    its own rows of the stack's).  Above it they are the flattened ``d x d``
    matrices of :func:`_pull` of the identity, pulled back at each call and
    kept nowhere (:func:`_kept_bytes`)."""
    d = protocol.system_dim
    if d > _TRANSFER_MAX_DIM:
        return _pull(protocol, n - 1, np.eye(d).reshape(1, d * d))[:, 0]
    measurement = protocol.step_measurements[n - 1]
    kept = vars(measurement)
    if "_last_effects" not in kept:
        effects = _transfer(measurement)[..., :d, :].sum(axis=-2)
        lead = effects.ndim - 1  # the outcome axis goes last in memory, the others keep their order
        effects = np.ascontiguousarray(effects.transpose(*range(1, lead + 1), 0)).transpose(lead, *range(lead))
        effects.flags.writeable = False
        kept["_last_effects"] = effects
    return kept["_last_effects"]


def _sweep(protocol: MeasurementProtocol, n: int, js, count: int):
    """Yield ``(j, start, stack)`` for each ``j`` of ``js``, from ``n - 1`` down:
    ``stack`` holds the operator defects ``D`` of the entries ``start ..
    start + len(stack) - 1`` of ``(n, j)``, as :func:`_pull` holds operators.
    The leading :func:`_lead` outcomes of the entries are walked, so that a
    stack holds at most ``count`` operators before a pull-back (each of a
    grid's with one row per point).

    One backward sweep serves every ``j``: ``post`` holds the suffix effect
    ``P_b`` of every outcome ``b`` of the steps ``j + 1 .. n``, from ``1``
    pulled back through step ``n``, and each ``j`` pulls it back through step
    ``j`` once, for both ``M_b`` and the next ``post``; then ``D[a, b]`` is
    ``M_b`` pulled back through the steps before ``j``.  While ``post`` would
    hold more than ``count``, it stays at the last level that fits, and each
    head pulls its own suffix outcomes back from there.  Its one reader is
    :func:`_defect_blocks`, which sweeps each ``j`` at the deepest ``n``
    asked of it, and through which a fault scans each pair alone
    (:func:`_raise_fault`)."""
    d_p = protocol.probe_dim
    lead = _lead(d_p, n - 1, count)
    width = d_p ** (n - 1 - lead)
    post = _last_effects(protocol, n)
    for j in range(n - 1, max(lead, min(js) - 1), -1):
        pulled = _pull(protocol, j - 1, post)
        if j in js:
            m_ops = _step_defects(pulled, post)
            for start, head in _heads(d_p, n - 1, lead):  # head: outcomes of steps 1 .. lead
                yield j, start, _pull_prefixes(protocol, m_ops, head, j - 1)
        post = _flat(pulled)
    for j in range(lead, 0, -1):
        if j not in js:
            continue
        # head: the outcomes of steps 1 .. j - 1, then of steps j + 1 .. lead + 1
        for start, head in _heads(d_p, n - 1, lead):
            b = head[lead - 1]
            stack = post[b * width : (b + 1) * width]
            for s in range(lead, j, -1):
                stack = _pull(protocol, s - 1, stack, head[s - 2])[0]
            m_ops = _step_defects(_pull(protocol, j - 1, stack), stack)
            yield j, start, _pull_prefixes(protocol, m_ops, head[: j - 1], j - 1)


def _rows(stack: np.ndarray, d: int) -> np.ndarray:
    """A swept stack of defects as the C-ordered ``(B, ..., d**2)`` rows of their coordinates."""
    if d > _TRANSFER_MAX_DIM:
        return _coordinates(stack.reshape(stack.shape[:-1] + (d, d)))
    return np.ascontiguousarray(stack)


def _norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row, the Frobenius norm of its operator."""
    return np.sqrt(np.einsum("...k,...k->...", rows, rows))


def _sum_runs(runs: np.ndarray, out: np.ndarray, d_p: int) -> None:
    """``out[i] = runs[d_P i] + runs[d_P i + 1] + ...``, added left to right, as
    a carried partial sum adds them too."""
    if d_p == 1:
        out[:] = runs
        return
    np.add(runs[0::d_p], runs[1::d_p], out=out)
    for c in range(2, d_p):
        out += runs[c::d_p]


def _levels(rows: np.ndarray, start: int, top: int, bits: int, d_p: int, carry: np.ndarray | None):
    """The rows of a swept block of ``D(top, j)``, entries ``start ..``, and of
    its marginal levels ``D(n, j)`` down to the lowest ``n`` of ``bits`` (the
    ``n`` asked of ``j``, as the set bits of an int), as one ``(R, d**2)``
    stack, with ``(n, first entry, first row, row count)`` of each asked
    level it holds.

    An entry of a level is the sum of ``d_P`` adjacent entries of the level
    above (:func:`_sum_runs`).  The block's ``d_P ** w`` entries fill whole
    runs down to the level of one entry; below it each level's sum is carried
    over from block to block in a row of ``carry``, the first for the first
    level below the block, and joins the stack in the block that completes it."""
    width = len(rows)
    depth = top - _lowest(bits)
    if depth == 0:
        return rows, [(top, start, 0, width)]
    sizes = [width]
    while len(sizes) <= depth and sizes[-1] >= d_p:
        sizes.append(sizes[-1] // d_p)
    entry = start // d_p ** (len(sizes) - 1)  # the one of the block's last level
    done = 0  # the levels below the block that it completes
    while len(sizes) + done <= depth and entry // d_p**done % d_p == d_p - 1:
        done += 1
    if len(sizes) + done == 1:
        stack = rows
    else:
        stack = np.empty((sum(sizes) + done,) + rows.shape[1:])
        stack[:width] = rows
    levels, row = [(top, start, 0, width)], 0
    for k in range(1, len(sizes)):
        runs = stack[row : row + sizes[k - 1]]
        row += sizes[k - 1]
        _sum_runs(runs, stack[row : row + sizes[k]], d_p)
        levels.append((top - k, start // d_p**k, row, sizes[k]))
    for k in range(len(sizes), depth + 1):  # the entry of level k - 1 joins its sum
        if entry % d_p == 0:
            carry[k - len(sizes)] = stack[row]
        else:
            carry[k - len(sizes)] += stack[row]
        if entry % d_p != d_p - 1:
            break
        entry //= d_p
        row += 1
        stack[row] = carry[k - len(sizes)]
        levels.append((top - k, entry, row, 1))
    return stack, [level for level in levels if bits >> level[0] & 1]


def _lowest(bits: int) -> int:
    """The lowest set bit of ``bits``."""
    return (bits & -bits).bit_length() - 1


# Largest bound ``2 sum_{k=n+1}^{top} |Delta_k|_F`` (the completeness
# residuals of the steps summed out) under which :func:`_defect_blocks` reads
# a level ``n`` off the sweep of a deeper ``top``; above it ``n`` is swept
# itself.  A built step's effects sum to 1 within rounding: on the ten
# ``kc_deep`` cases of perfbench seeds 1-59 (d_S 2-4, n_max 5-10) the bound
# of ``n = 2`` was at most 5.8e-14, and over 300 random models (d_S 2-16)
# one step's residual at most 9.2e-15, so a d_S = 16 scan to n_max 9 may
# sweep twice.  A preparation or meter basis read from a file is checked to
# 1e-10 only, which would move a level by about that much a step.
_LEVEL_BOUND = 1e-13


def _tops(protocol: MeasurementProtocol, bits: int) -> int:
    """The ``n`` of ``bits`` (its set bits, the ``n`` asked of one ``j``) that
    :func:`_defect_blocks` sweeps, as the bits of an int: the largest, and
    each ``n`` whose level, read off the sweep of the ``top`` above it, could
    differ from its own sweep by more than :data:`_LEVEL_BOUND`, by the bound
    ``2 sum_{k=n+1}^{top} |Delta_k|_F`` (at any point of a grid)."""
    top = bits.bit_length() - 1
    tops, bound = 1 << top, 0.0
    for n in range(top - 1, _lowest(bits) - 1, -1):
        bound += 2.0 * _residual(protocol.step_measurements[n])  # step n + 1, summed out
        if bits >> n & 1 and bound > _LEVEL_BOUND:
            tops, bound = tops | 1 << n, 0.0
    return tops


def _grid(protocol) -> tuple:
    """The grid axis of a scanned ``protocol``: ``(G,)`` for a
    :class:`~kcprobe.model._Grid` of ``G`` points, ``()`` for one protocol."""
    return (len(protocol.models),) if isinstance(protocol, _Grid) else ()


def _defect_blocks(protocol: MeasurementProtocol, pairs: list):
    """Yield the operator defects of every ``(n, j)`` of ``pairs``, block by
    block, as ``(j, pieces, defects, norms, largest)``: ``defects`` is a
    ``(R, d**2)`` stack of coordinates (each ``D`` is Hermitian by
    construction), ``norms`` their ``R`` Frobenius norms and ``largest`` the
    largest of them, as a float, and each ``(n, first, row, size)`` of
    ``pieces`` says that the ``size`` entries of ``(n, j)`` from ``first`` on
    are the rows from ``row`` on.  Of a grid of ``G`` protocols
    (:class:`~kcprobe.model._Grid`) they hold one row per point, ``(R, G,
    d**2)`` and ``(R, G)``, and its points share a block: a stack holds at
    most ``count / G`` operators of each point (at least one).

    Each ``j`` is swept (:func:`_sweep`) at the largest ``n`` of ``pairs``
    with that ``j``, and every smaller ``n`` of that ``j`` is read off the
    sweep level by level (:func:`_levels`): summing out the final step is
    consistent by POVM completeness, so ``D(n, j)[a, b] = sum_c D(n + 1,
    j)[a, b, c]``.  Only where the completeness residuals of the steps summed
    out could move a level by more than :data:`_LEVEL_BOUND` is that ``n``
    swept itself, and the smaller ``n`` read off its sweep (:func:`_tops`).
    The norms of a swept block and of all its levels come from one pass.  A
    non-finite norm of an entry of ``pairs`` stops the sweep, which is freed,
    and :func:`_raise_fault` raises the :class:`NumericalFault` of the first
    non-finite ``(n, j, fixed)`` in entry order, as the scan of its pair
    alone finds it (of a grid, that of the first point whose own scan finds
    one); no block is yielded after one is found.  A grid reads a level off
    a deeper sweep only where the bound holds at every point, so where its
    points would split it differently, a point may differ from its own scan
    within the bound; with one ``n`` for each ``j``, as the witnesses ask,
    every point is bit for bit its own scan."""
    d_p, d = protocol.probe_dim, protocol.system_dim
    grid = _grid(protocol)
    count = _block_len(d) // (2 * d_p * math.prod(grid))  # the points of a grid share the block
    # the n of pairs with each j, and the n swept of them, as the bits of an int
    # (lists: the scan's own objects are a fixed overhead beside its blocks)
    asked = [0] * max(pairs, default=(0,))[0]  # j < n
    for n, j in pairs:
        asked[j] |= 1 << n
    tops = [_tops(protocol, bits) if bits & bits - 1 else bits for bits in asked]  # one n: swept
    for top in range(2, len(asked) + 1):
        js = [j for j, swept in enumerate(tops) if swept >> top & 1]
        if not js:
            continue
        # the n of each j read off this sweep: those of asked[j] up to top,
        # whose smaller n earlier sweeps have cleared
        upto = (1 << top + 1) - 1
        blocks = _sweep(protocol, top, js, count)
        # a block is one head of the lead walked steps, whole runs of the
        # levels down to n = lead + 1; below, down to the smallest n of a j,
        # each level's sum carries over from block to block in one row
        lead = _lead(d_p, top - 1, count)
        below = lead + 1 - min(_lowest(asked[j]) for j in js) if lead > 1 else 0
        carry = np.empty((below,) + grid + (d * d,)) if below > 0 else None
        found = None
        for _ in range(len(js) * d_p**lead):  # _sweep's blocks: one per head of each j
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite defect fails below
                j, start, stack = next(blocks)
                defects, pieces = _levels(_rows(stack, d), start, top, asked[j] & upto, d_p, carry)
                del stack
                norms = _norms(defects)
            largest = float(norms.max())
            if not math.isfinite(largest):  # NaN if any norm is NaN
                for n, first, row, size in pieces:
                    bad = ~np.isfinite(norms[row : row + size])
                    if bad.any():
                        # the first bad entry; of a grid, the first point with one
                        k = int(np.argmax(bad.any(axis=0) if grid else bad))
                        found = (k,) if grid else (n, j, first + k, norms[row + k])
                        break
                if found is not None:
                    break
            yield j, pieces, defects, norms, largest
            del pieces, defects, norms  # freed before the next block is built, to keep the bound
        for j in js:
            asked[j] &= ~upto
        if found is not None:
            # the sweep, its block and the carried sums are freed first, to keep the bound
            blocks.close()
            del blocks, pieces, defects, norms, carry
            _raise_fault(protocol, pairs, found)


def _raise_fault(protocol, pairs: list, found: tuple):
    """Raise the :class:`NumericalFault` of the first non-finite operator
    defect of ``pairs`` in entry order, of which the scan of
    :func:`_defect_blocks` found ``found``: ``(n, j, entry, norm)``, or of a
    grid ``(point,)``.  Each scan below runs through :func:`_defect_blocks`
    again, which raises the fault it finds.  A grid's points are scanned
    alone up to that point: the found point's entries are bit for bit its own
    scan's, so it raises if none before it does.  More than one pair are
    scanned one pair alone at a time, in the order of ``pairs``: a bad step
    beyond ``n`` spoils the levels read off a deeper sweep, but not the
    sweep of ``n`` alone.  One pair's blocks come in entry order, so
    ``found`` is its first bad entry, and is raised, as it is if no pair
    alone raises."""
    if isinstance(protocol, _Grid):
        for g in range(found[0] + 1):
            for block in _defect_blocks(protocol.protocol(g), pairs):
                del block  # freed before the next block is built, to keep the bound
        raise NumericalFault(f"a defect norm of grid point {found[0]} is not finite")
    for pair in pairs if len(pairs) > 1 else ():
        for block in _defect_blocks(protocol, [pair]):
            del block  # likewise
    n, j, entry, norm = found
    fixed = tuple(map(int, np.unravel_index(entry, (protocol.probe_dim,) * (n - 1))))
    raise NumericalFault(f"defect norm {norm} at n={n}, j={j}, fixed={fixed} is not finite")


def _scan(protocol: MeasurementProtocol, pairs: list, states: list) -> _KCEntries:
    """The entries of the operator defects of every ``(n, j)`` of ``pairs``,
    with ``tr(rho D)`` for each validated state of ``states``: the one loop
    over :func:`_defect_blocks`, which sweeps each ``j`` at its deepest ``n``,
    filling the arrays of the layout that :class:`_KCEntries` sizes first,
    block by block, the traces of a block and all its levels in one pass.  A
    grid's entries hold one row per point."""
    entries = _KCEntries(protocol.probe_dim, pairs, len(states), _grid(protocol))
    # c(rho) for each state, so that tr(rho D) is a dot product with c(D);
    # without a state the traces are empty and the product is not made
    coords = _coordinates(np.array(states, dtype=complex)) if states else None
    for j, pieces, defects, norms, largest in _defect_blocks(protocol, pairs):
        traced = None if coords is None else np.einsum("a...k,sk->a...s", defects, coords)
        del defects  # freed before the next block is built, to keep the bound
        entries._fill(j, pieces, norms, traced, largest)
        del pieces, norms, traced  # likewise
    return entries


def _state_defects(
    protocol: MeasurementProtocol, states, pairs: list, tol: Tolerances
) -> list[np.ndarray]:
    """Every state-level defect ``sum_{m_j} P_n - P_{n-1}`` of each ``(n, j)``
    of ``pairs`` and each validated state, from one :func:`_scan`: per pair,
    ``tr(rho D)`` for each operator defect as an ``(s,) + (d_P,) * (n - 1)``
    tensor indexed by state, then ``fixed`` (``(G, s) + ...`` for a grid of
    ``G`` protocols).  Each ``(n, j)`` and the cap of the largest
    ``d_P ** n`` are checked here."""
    for n, j in pairs:
        _defect_args(protocol, n, j)
    d_p = protocol.probe_dim
    _check_capacity(d_p, max(n for n, _ in pairs), tol)
    entries = _scan(protocol, pairs, states)
    lead = _grid(protocol) + (len(states),)
    tensors = []
    for n, j in pairs:
        traces = entries._pair(n, j)[1]  # (entries,) + lead: the entries go last
        tensors.append(traces.transpose(*range(1, traces.ndim), 0).reshape(lead + (d_p,) * (n - 1)))
    return tensors


def check_kc_all(
    protocol: MeasurementProtocol,
    n_max: int,
    rho=None,
    tol: Tolerances = DEFAULT,
) -> KCReport:
    """Evaluate every substantive consistency condition up to ``n_max`` steps.

    Scans all ``2 <= n <= n_max``, ``1 <= j <= n-1`` and all assignments of
    the fixed outcomes, in lexicographic order.  The verdict is decided by
    the operator defects alone; if ``rho`` (one state, a 2-D array-like, or
    a sequence of states) is supplied, per-state defects ``tr(rho D)`` are
    recorded alongside; an empty sequence of states is read as ``rho=None``.  The
    report also notes whether the ``(n=2, j=1)`` conditions already decide
    the verdict on their own.  The scan is one backward sweep, at
    ``n_max``, and every smaller ``n`` is read off it by summing out the final
    steps, so an entry of ``n < n_max`` agrees with :func:`kc_defect_operator`
    to rounding and to ``2 sum_{k=n+1}^{n_max} |Delta_k|_F``, with ``1 +
    Delta_k`` the sum of step ``k``'s effects; where that bound would pass
    1e-13, an ``n`` is swept itself (:func:`_defect_blocks`).  The entries
    are held as arrays, 8 bytes per norm and per state defect, and a
    :class:`KCEntry` is made only when one is read.

    Without a state the scan sizes no state defects and makes no trace
    product; its norms, verdict, ``decided_by_n2_j1`` and entries are bit for
    bit those of the same scan with states, which only adds their traces.
    Each step keeps what the scan builds of it (its transfer and first
    suffix effects), the largest defect is the largest of the blocks', which
    the non-finite check reads anyway, and the tolerances the report echoes
    are a copy of a dict built once per :class:`Tolerances`, so a small scan
    costs little beyond its arithmetic.
    """
    _n_max(protocol, n_max, 2)
    _check_capacity(protocol.probe_dim, n_max, tol)
    try:
        one_state = rho is not None and np.ndim(rho) == 2
    except ValueError:  # states of different shapes make no array
        one_state = False
    states = [rho] if one_state else [] if rho is None else rho
    states = [check_density(r, protocol.system_dim, tol) for r in states]
    pairs = [(n, j) for n in range(2, n_max + 1) for j in range(1, n)]
    entries = _scan(protocol, pairs, states)
    max_defect, max_state = entries._max()
    # at n_max 2 the entries of (2, 1) are all the entries
    max_defect_n2 = max_defect if n_max == 2 else float(entries._pair(2, 1)[0].max())
    verdict = "consistent" if max_defect <= tol.kc else "violated"
    decided = (max_defect_n2 > tol.kc) == (max_defect > tol.kc)
    return KCReport(
        n_max=n_max,
        entries=entries,
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
    but the Hamiltonians do not).  The commutator side cuts
    ``max_i |[H_i, a]|_F`` at ``tol.commutator * max_i |H_i|_F * |a|_F`` and
    the map side ``|Phi(a) - a|_F`` at ``tol.fixed_point * |a|_F``, so
    neither depends on the units of ``H`` or of ``a``.
    """
    probs = np.abs(preparation.amplitudes) ** 2
    if float(probs.min()) <= 1e-12:
        raise PreconditionError(
            "fixed-point/commutator equivalence needs every preparation amplitude nonzero"
        )
    mapped = nonselective_apply(model, preparation, a, direction="observable")
    map_defect = frobenius(mapped - np.asarray(a, dtype=complex))
    is_fixed = map_defect <= tol.fixed_point * frobenius(a)
    norms = tuple(frobenius(commutator(h, a)) for h in model.hamiltonians)
    scale = max(map(frobenius, model.hamiltonians)) * frobenius(a)
    commutes = max(norms) <= tol.commutator * scale
    if is_fixed != commutes:
        raise NumericalFault(
            f"fixed-point predicate ({map_defect:.3e}) and commutator predicate "
            f"(max norm {max(norms):.3e}) disagree"
        )
    return FixedPointResult(is_fixed, norms, map_defect)
