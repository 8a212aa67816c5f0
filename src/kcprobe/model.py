"""Probe-system pure-dephasing model and the measurement machinery it induces.

A probe of dimension ``d_P`` dephases in a fixed pointer basis while the
system evolves under one conditional Hamiltonian per pointer state.  A
prepare-evolve-measure cycle on the probe (preparation ``|g>``, meter basis
``{|m>}``) induces Kraus operators on the system

    K_m = sum_i  g_i conj(m_i) U_i,       U_i = exp(-i t H_i),

where ``g_i`` and ``m_i`` are ket coefficients in the pointer basis.  The
effects ``E_m = K_m^H K_m`` form a POVM; completeness is enforced when a
measurement is constructed, so downstream sequence probabilities are always
normalized, and positivity holds by construction.  One assembly,
:func:`_cycle_stacks`, builds the Kraus data of every protocol and of every
grid of protocols, so a grid's point is its protocol built alone.

Outcome labels are integers ``0 .. d_P-1`` throughout; meter bases carry
display labels (``+``/``-`` for the qubit X/Y bases) and witnesses apply
their own outcome-value conventions.  The outcome sequences, ``(n, j)``
pairs and ``fixed`` outcomes given to a protocol are checked here, once for
the fast route of :mod:`kcprobe.sequences` and the naive one of
:mod:`kcprobe.oracle` alike.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvariantViolation, LabelError, ProtocolError
from .linalg import (
    _basis,
    _finite_step_time,
    _first,
    _frobenius,
    as_complex_matrix,
    check_hermitian,
    frobenius,
    unitary_from_eigensystem,
)
from .tolerances import DEFAULT, Tolerances


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PreparationState:
    """Probe preparation, stored as ket coefficients in the pointer basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= DEFAULT.density_trace:  # NaN fails too
            raise InvariantViolation(f"preparation amplitudes have norm^2 = {norm}, expected 1")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class MeterBasis:
    """Orthonormal probe measurement basis.

    ``states[k]`` holds the ket coefficients of the meter state for outcome
    ``k`` in the pointer basis.  ``labels`` are display names only; ``name``
    tags the basis (e.g. ``"X"`` or ``"Y"``) for protocol-shape checks.
    """

    states: np.ndarray
    labels: tuple[str, ...]
    name: str = ""

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        if states.ndim != 2 or states.shape[0] != states.shape[1]:
            raise DimensionError(f"meter basis must be square, got shape {states.shape}")
        d = states.shape[0]
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite state fails below
            gram = states @ states.conj().T
        if not frobenius(gram - np.eye(d)) <= DEFAULT.unitarity:  # NaN fails too
            raise InvariantViolation("meter states do not form an orthonormal basis")
        if len(self.labels) != d:
            raise DimensionError(f"{len(self.labels)} labels for {d} meter states")
        object.__setattr__(self, "states", _frozen(states))
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))

    @property
    def dim(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True, eq=False)
class DephasingModel:
    """Pure-dephasing coupling: one system Hamiltonian per probe pointer state.

    ``eigenvalues[i], eigenvectors[i]`` is ``eigh(hamiltonians[i])``, computed
    once here as read-only ``(d_P, d)`` and ``(d_P, d, d)`` stacks, so every
    conditional unitary of the model is formed without a new diagonalization.
    """

    probe_dim: int
    system_dim: int
    hamiltonians: tuple[np.ndarray, ...]
    step_time: float
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.probe_dim < 1 or self.system_dim < 1:
            raise DimensionError("dimensions must be positive")
        if len(self.hamiltonians) != self.probe_dim:
            raise DimensionError(
                f"expected {self.probe_dim} conditional Hamiltonians, got {len(self.hamiltonians)}"
            )
        step_time = _finite_step_time(self.step_time)
        hams = []
        for i, h in enumerate(self.hamiltonians):
            h = check_hermitian(h, what=f"conditional Hamiltonian {i}")
            if h.shape[0] != self.system_dim:
                raise DimensionError(
                    f"conditional Hamiltonian {i} has dimension {h.shape[0]}, expected {self.system_dim}"
                )
            hams.append(_frozen(h))
        w, v = np.linalg.eigh(np.array(hams))
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "hamiltonians", tuple(hams))
        object.__setattr__(self, "step_time", step_time)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    def with_step_time(self, t: float) -> "DephasingModel":
        """The same model at step time ``t``; the eigensystems are shared."""
        out = object.__new__(type(self))
        vars(out).update(vars(self), step_time=_finite_step_time(t))
        return out


@dataclass(frozen=True, eq=False)
class InducedMeasurement:
    """Kraus operators and effects of one probe cycle, ``kraus[m]`` and
    ``effects[m]`` for outcome ``m``, stored as read-only complex
    ``(d_P, d, d)`` arrays whatever they are given as."""

    kraus: np.ndarray
    effects: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        kraus, effects = _frozen(self.kraus), _frozen(self.effects)
        if kraus.ndim != 3 or kraus.shape[1] != kraus.shape[2] or effects.shape != kraus.shape:
            raise DimensionError(
                f"Kraus operators {kraus.shape} and effects {effects.shape} must both be (d_P, d, d)"
            )
        if len(self.labels) != kraus.shape[0]:
            raise DimensionError(f"{len(self.labels)} labels for {kraus.shape[0]} outcomes")
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "effects", effects)


def _transfers(kraus: np.ndarray) -> np.ndarray:
    """The real ``(..., d_P, d**2, d**2)`` transfers ``T`` of a stack of Kraus
    operators ``(..., d_P, d, d)`` in the coordinates ``c`` of
    :func:`~kcprobe.linalg._coordinates`: ``c(K_m^H X K_m) = c(X) @ T[m]`` for
    every Hermitian ``X``, so row ``a`` of ``T[m]`` is ``c(K_m^H B_a K_m)``.
    Each transfer is the same two matrix products whatever the leading axes,
    so a stack's transfers are bit for bit those of its members alone."""
    *lead, d_p, d, _ = kraus.shape
    # pairs[..., m, (k, l), (i, j)] = conj(K_m)_ki (K_m)_lj, so that
    # (K_m^H X K_m)_ij = sum_kl X_kl pairs[..., m, (k, l), (i, j)]
    pairs = kraus.conj()[..., :, :, None, :, None] * kraus[..., None, :, None, :]
    pairs = pairs.reshape(*lead, d_p, d * d, d * d)
    basis = _basis(d)
    # row a of basis @ pairs[m] is the flattened K_m^H B_a K_m; its
    # coordinates are the dot products of its real and imaginary parts
    # with those of each B_b
    return (basis @ pairs).view(float) @ basis.view(float).T


def _transfer(measurement) -> np.ndarray:
    """The transfers (:func:`_transfers`) of the Kraus operators of
    ``measurement``, ``(d_P, d**2, d**2)``, or ``(d_P, G, d**2, d**2)`` for a
    :class:`_Stacked` grid of them.  They are built at the first call and kept
    on the measurement, ``8 d_P d**4`` bytes a member, so the steps that share
    a measurement share one transfer across every scan of them."""
    kept = vars(measurement)
    if "_transfer" not in kept:
        kept["_transfer"] = _transfers(np.asarray(measurement.kraus))
    return kept["_transfer"]


def _residual(measurement) -> float:
    """``|sum_m E_m - 1|_F``, the completeness residual of ``measurement``,
    with ``E_m`` the Hermitian part of ``K_m^H K_m`` for its Kraus operators
    ``K_m``, which the scan pulls back through.  Every measurement that
    :func:`_cycles` builds keeps the residual it checked (a :class:`_Stacked`
    grid the largest of its points'); for any other it is computed at the
    first call and kept likewise, as a transfer is."""
    kept = vars(measurement)
    if "_residual" not in kept:
        kraus = np.asarray(measurement.kraus)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite one fails in the scan
            total = np.einsum("mki,mkj->ij", kraus.conj(), kraus)
            kept["_residual"] = float(np.linalg.norm((total + total.conj().T) / 2 - np.eye(len(total))))
    return kept["_residual"]


def build_conditional_hamiltonians(
    h_system: np.ndarray,
    v_system: np.ndarray,
    epsilons,
    couplings,
    *,
    step_time: float = 1.0,
) -> DephasingModel:
    """Assemble ``H_i = eps_i * 1 + H_S + v_i * V_S`` from a system Hamiltonian
    and a coupling operator, one (eps_i, v_i) pair per probe pointer state."""
    h_system = check_hermitian(as_complex_matrix(h_system), what="system Hamiltonian")
    v_system = check_hermitian(as_complex_matrix(v_system), what="coupling operator")
    d = h_system.shape[0]
    if v_system.shape[0] != d:
        raise DimensionError(f"coupling dimension {v_system.shape[0]} != system dimension {d}")
    eps = np.asarray(epsilons, dtype=float).reshape(-1)
    vs = np.asarray(couplings, dtype=float).reshape(-1)
    if eps.shape != vs.shape:
        raise DimensionError(f"{eps.size} level shifts vs {vs.size} couplings")
    if eps.size < 2:
        raise DimensionError("need at least two pointer states")
    eye = np.eye(d)
    hams = tuple(e * eye + h_system + v * v_system for e, v in zip(eps, vs))
    return DephasingModel(eps.size, d, hams, step_time)


def conditional_unitaries(model: DephasingModel, t: float | None = None) -> np.ndarray:
    """Per-pointer-state evolution operators ``U_i = exp(-i t H_i)``, as one
    ``(d_P, d, d)`` stack."""
    if t is None:
        t = model.step_time
    return unitary_from_eigensystem(model.eigenvalues, model.eigenvectors, t)


def induced_kraus(
    model: DephasingModel,
    preparation: PreparationState,
    meter: MeterBasis,
    *,
    unitaries: np.ndarray | tuple[np.ndarray, ...] | None = None,
    tol: Tolerances = DEFAULT,
) -> InducedMeasurement:
    """Build the induced measurement ``{K_m, E_m}`` for one probe cycle, at
    the given ``unitaries`` (the model's own at its step time if None).

    POVM completeness is verified here at ``tol.povm_completeness``, the one
    place a caller's value of it is read (every protocol build and the search
    screen check at :data:`DEFAULT`); a failure indicates a non-orthonormal
    meter basis or a numerical fault and raises :class:`InvariantViolation`.
    Each effect is positive as built (see :func:`_cycles`).
    """
    weights = _cycle_weights(model.probe_dim, preparation, meter)
    if unitaries is None:
        unitaries = conditional_unitaries(model)
    kraus, effects, completeness = _cycles(weights, np.asarray(unitaries), tol)
    return _measurement(kraus, effects, meter.labels, completeness)


def _cycle_weights(probe_dim: int, preparation: PreparationState, meter: MeterBasis) -> np.ndarray:
    """The ``(d_P, d_P)`` weights ``g_i conj(m_i)`` of ``K_m = sum_i weights[m, i] U_i``;
    a preparation or meter of another dimension than ``probe_dim`` raises
    :class:`DimensionError`."""
    if preparation.dim != probe_dim or meter.dim != probe_dim:
        raise DimensionError(f"preparation/meter dimension must equal probe dimension {probe_dim}")
    return preparation.amplitudes * meter.states.conj()


def _cycles(
    weights: np.ndarray, unitaries: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one builder of Kraus data: the read-only Kraus operators and effects
    of a stack of probe cycles, each ``(..., d_P, d, d)``, from their weights
    ``(..., d_P, d_P)`` (see :func:`_cycle_weights`) and conditional unitaries
    ``(..., d_P, d, d)``, whose leading axes broadcast, and each cycle's
    completeness residual ``|sum_m E_m - 1|_F``, shape ``(...)``.  Every
    cycle's effects must sum to the identity; the first cycle in C order that
    fails raises :class:`InvariantViolation`.  That is the one check: each
    effect is the Hermitian part of a Gram matrix ``K_m^H K_m``, so its lowest
    eigenvalue is at least ``-O(d eps) |K_m|^2``, and completeness, which a
    NaN fails too, bounds ``|K_m|^2`` by ``1 + povm_completeness``; no
    spectrum is computed.

    Every protocol and every grid of protocols is built in one call of
    :func:`_cycle_stacks`; the search screen and :func:`induced_kraus` call
    it directly.  Each cycle is the same elementwise steps and matrix products
    whatever the leading axes, so a member of a stack is bit for bit the
    cycle built alone, its unitaries too
    (:func:`~kcprobe.linalg.unitary_from_eigensystem`)."""
    # K_m = sum_i g_i conj(m_i) U_i for every outcome m at once
    kraus = np.einsum("...mi,...ikl->...mkl", weights, unitaries)
    effects = kraus.conj().swapaxes(-1, -2) @ kraus
    effects += effects.conj().swapaxes(-1, -2)  # in place: the stack holds one effects array
    effects /= 2
    completeness = _frobenius(effects.sum(axis=-3) - np.eye(effects.shape[-1]))
    if not completeness.max() <= tol.povm_completeness:  # NaN fails too
        k = _first(~(completeness <= tol.povm_completeness))
        raise InvariantViolation(f"effects do not sum to the identity: defect {completeness[k]:.3e}")
    kraus.setflags(write=False)
    effects.setflags(write=False)
    return kraus, effects, completeness


def _measurement(kraus: np.ndarray, effects: np.ndarray, labels, residual) -> InducedMeasurement:
    """The :class:`InducedMeasurement` of one cycle of read-only arrays that
    :func:`_cycles` made, without the copies and checks of ``__init__``, with
    its completeness residual kept (see :func:`_residual`)."""
    measurement = object.__new__(InducedMeasurement)
    object.__setattr__(measurement, "kraus", kraus)
    object.__setattr__(measurement, "effects", effects)
    object.__setattr__(measurement, "labels", labels)
    vars(measurement)["_residual"] = float(residual)
    return measurement


def _cycle_stacks(models, preparation: PreparationState, step_bases, step_times=None):
    """The one assembly of a protocol's Kraus data: ``(picks, kraus, effects,
    residuals)`` for the steps ``step_bases`` prepared in ``preparation`` on
    each of ``models`` (of one shape), where ``picks[k]`` is the cycle of step
    ``k`` and the rest is what one :func:`_cycles` call returns for every
    cycle at every model, ``(G, C, d_P, d, d)`` and ``(G, C)``, the model
    leading.  Steps with equal meter kets, labels and step time share one
    cycle.  Without ``step_times`` every step of a model runs at its model's
    step time, from one stack of unitaries a model; with them ``models`` holds
    one model, with one stack of unitaries per distinct time."""
    keys: dict[tuple[bytes, tuple[str, ...], float | None], int] = {}
    times = step_times if step_times is not None else (None,) * len(step_bases)
    picks = [keys.setdefault((b.states.tobytes(), b.labels, t), len(keys)) for b, t in zip(step_bases, times)]
    cycles = dict(zip(picks, step_bases))
    weights = np.array([_cycle_weights(models[0].probe_dim, preparation, b) for b in cycles.values()])
    if step_times is None:
        unitaries = unitary_from_eigensystem(
            np.stack([m.eigenvalues for m in models])[:, None],  # (G, 1, d_P, d)
            np.stack([m.eigenvectors for m in models])[:, None],
            np.array([m.step_time for m in models])[:, None, None],
        )
    else:
        (model,) = models
        distinct = {t: k for k, t in enumerate(dict.fromkeys(step_times))}  # in order of first use
        unitaries = unitary_from_eigensystem(model.eigenvalues, model.eigenvectors, np.array([*distinct])[:, None])
        unitaries = unitaries[[distinct[t] for *_, t in keys]][None]  # each cycle's, (1, C, d_P, d, d)
    return (picks, *_cycles(weights, unitaries, DEFAULT))


def _assemble(model, preparation, step_bases, step_times, step_measurements) -> "MeasurementProtocol":
    """A :class:`MeasurementProtocol` of steps whose measurements are already
    built and checked, skipping ``__init__``: a slice of a protocol
    (:meth:`MeasurementProtocol._with_steps`) or a point of a grid
    (:meth:`_Grid.protocol`)."""
    protocol = object.__new__(MeasurementProtocol)
    for name, value in (
        ("model", model),
        ("preparation", preparation),
        ("step_bases", step_bases),
        ("step_times", step_times),
        ("step_measurements", step_measurements),
    ):
        object.__setattr__(protocol, name, value)
    return protocol


@dataclass(frozen=True, eq=False)
class MeasurementProtocol:
    """A sequence of prepare-evolve-measure cycles with a fixed preparation.

    The preparation is re-used at every step; meter bases may differ per
    step.  All steps share ``model.step_time`` unless ``step_times`` is
    given (experimental; witnesses and consistency checks accept it, but
    the standard protocols in this package use identical intervals).
    """

    model: DephasingModel
    preparation: PreparationState
    step_bases: tuple[MeterBasis, ...]
    step_times: tuple[float, ...] | None = None
    step_measurements: tuple[InducedMeasurement, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.step_bases:
            raise ProtocolError("a protocol needs at least one step")
        for basis in self.step_bases:
            if basis.dim != self.model.probe_dim:
                raise DimensionError(
                    f"meter basis dimension {basis.dim} != probe dimension {self.model.probe_dim}"
                )
        if self.step_times is not None:
            object.__setattr__(self, "step_times", tuple(float(t) for t in self.step_times))
            if len(self.step_times) != len(self.step_bases):
                raise ProtocolError(
                    f"{len(self.step_times)} step times for {len(self.step_bases)} steps"
                )
        picks, kraus, effects, residuals = _cycle_stacks((self.model,), self.preparation, self.step_bases, self.step_times)
        built = {
            c: _measurement(kraus[0, c], effects[0, c], basis.labels, residuals[0, c])
            for c, basis in dict(zip(picks, self.step_bases)).items()
        }
        object.__setattr__(self, "step_bases", tuple(self.step_bases))
        object.__setattr__(self, "step_measurements", tuple(map(built.__getitem__, picks)))

    @property
    def n_steps(self) -> int:
        return len(self.step_bases)

    @property
    def probe_dim(self) -> int:
        return self.model.probe_dim

    @property
    def system_dim(self) -> int:
        return self.model.system_dim

    @property
    def axes(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.step_bases)

    def effective_step_times(self) -> tuple[float, ...]:
        if self.step_times is not None:
            return self.step_times
        return tuple(self.model.step_time for _ in self.step_bases)

    def _with_steps(self, pick) -> "MeasurementProtocol":
        """Protocol of the steps ``pick`` selects from each per-step tuple.

        The selected steps were validated and their measurements built when
        this protocol was, so the result reuses them and skips ``__init__``.
        """
        return _assemble(
            self.model,
            self.preparation,
            pick(self.step_bases),
            None if self.step_times is None else pick(self.step_times),
            pick(self.step_measurements),
        )

    def prefix(self, n: int) -> "MeasurementProtocol":
        _prefix(self, n)
        return self if n == self.n_steps else self._with_steps(lambda steps: steps[:n])

    def drop_step(self, j: int) -> "MeasurementProtocol":
        """Protocol with step ``j`` (1-based) removed; remaining steps unchanged."""
        if not 1 <= j <= self.n_steps:
            raise ProtocolError(f"step {j} out of range 1..{self.n_steps}")
        if self.n_steps == 1:
            raise ProtocolError("cannot drop the only step of a protocol")
        return self._with_steps(lambda steps: steps[: j - 1] + steps[j:])


@dataclass(frozen=True, eq=False)
class _Stacked:
    """The measurements of one cycle at every point of a grid, as
    :func:`_grids` builds them: read-only ``(d_P, G, d, d)`` Kraus operators
    and effects, each outcome's matrix at every point, and the ``(G,)``
    completeness residuals.  :func:`_transfer` reads it as it reads one
    measurement, and :func:`_residual` as the largest residual of its
    points, so that the scan's level rule holds at every point."""

    kraus: np.ndarray
    effects: np.ndarray
    labels: tuple[str, ...]
    residuals: np.ndarray

    def __post_init__(self):
        vars(self)["_residual"] = float(self.residuals.max())


def _member(stacked: _Stacked, g: int) -> InducedMeasurement:
    """The measurement of point ``g`` of ``stacked``, views of its arrays, with
    its residual and, if the stack keeps them, its transfer and the scan's
    first suffix effects (:func:`~kcprobe.sequences._last_effects`)."""
    kept = vars(stacked)
    measurement = _measurement(stacked.kraus[:, g], stacked.effects[:, g], stacked.labels, stacked.residuals[g])
    for name in ("_transfer", "_last_effects"):
        if name in kept:
            vars(measurement)[name] = kept[name][:, g]
    return measurement


@dataclass(frozen=True, eq=False)
class _Grid:
    """Protocols of one shape, one per point of a grid, as the scan of
    :mod:`kcprobe.sequences` reads them: point ``g`` prepares ``preparation``
    and measures ``step_bases`` on ``models[g]`` at its step time, and each
    step holds the :class:`_Stacked` measurements of its cycle (steps with
    equal meter kets and labels share one)."""

    models: tuple[DephasingModel, ...]
    preparation: PreparationState
    step_bases: tuple[MeterBasis, ...]
    step_measurements: tuple[_Stacked, ...]

    @property
    def probe_dim(self) -> int:
        return self.models[0].probe_dim

    @property
    def system_dim(self) -> int:
        return self.models[0].system_dim

    @property
    def n_steps(self) -> int:
        return len(self.step_bases)

    @property
    def axes(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.step_bases)

    def protocol(self, g: int) -> MeasurementProtocol:
        """The protocol of point ``g``, assembled from the stacks, with no build:
        bit for bit the protocol that its model, preparation and bases build."""
        members = {s: _member(s, g) for s in dict.fromkeys(self.step_measurements)}
        steps = tuple(map(members.__getitem__, self.step_measurements))
        return _assemble(self.models[g], self.preparation, self.step_bases, None, steps)


def _grids(models, preparation: PreparationState, protocols: dict) -> dict:
    """``{key: _Grid}`` for the step bases ``protocols[key]`` of each key, on
    ``models`` (of one shape) each at its own step time: every distinct cycle
    at every model comes from one :func:`_cycle_stacks`, the assembly of a
    protocol build, so the first point, and then cycle, that fails a check
    raises, as building the protocols point by point would."""
    steps = [basis for bases in protocols.values() for basis in bases]
    picks, kraus, effects, residuals = _cycle_stacks(models, preparation, steps)
    stacks = {  # each cycle's outcome first, then the point
        c: _Stacked(kraus[:, c].swapaxes(0, 1), effects[:, c].swapaxes(0, 1), basis.labels, residuals[:, c])
        for c, basis in dict(zip(picks, steps)).items()
    }
    picks, models = iter(picks), tuple(models)
    return {
        name: _Grid(models, preparation, tuple(bases), tuple(stacks[next(picks)] for _ in bases))
        for name, bases in protocols.items()
    }


def _labels(protocol: MeasurementProtocol, seq) -> tuple[int, ...]:
    """``seq`` as a tuple of outcome labels in ``0..d_P - 1``.

    A label must be an integer (numpy integers included); anything else,
    such as ``0.9``, raises :class:`LabelError` rather than being truncated.
    """
    try:
        labels = tuple(map(operator.index, seq))
    except TypeError:
        raise LabelError(f"outcome labels must be integers, got {seq!r}") from None
    d_p = protocol.probe_dim
    if labels and not (0 <= min(labels) and max(labels) < d_p):
        k, m = next((k, m) for k, m in enumerate(labels) if not 0 <= m < d_p)
        raise LabelError(f"outcome {m} at position {k + 1} is not in 0..{d_p - 1}")
    return labels


def _sequence(protocol: MeasurementProtocol, seq) -> tuple[int, ...]:
    """``seq`` as the labels of an outcome sequence of ``1..n_steps`` steps;
    an empty or too long one raises :class:`ProtocolError`."""
    seq = _labels(protocol, seq)
    if not 1 <= len(seq) <= protocol.n_steps:
        raise ProtocolError(f"{len(seq)} outcomes for a protocol of {protocol.n_steps} steps")
    return seq


def _prefix(protocol: MeasurementProtocol, n: int) -> None:
    """Raise :class:`ProtocolError` unless ``n`` is a prefix length, ``1..n_steps``."""
    if not 1 <= n <= protocol.n_steps:
        raise ProtocolError(f"n = {n} not in 1..{protocol.n_steps}")


def _n_max(protocol: MeasurementProtocol, n_max: int, least: int) -> None:
    """Raise :class:`ProtocolError` unless ``n_max`` is in ``least..n_steps``."""
    if not least <= n_max <= protocol.n_steps:
        raise ProtocolError(f"n_max = {n_max} not in {least}..{protocol.n_steps}")


def _defect_args(protocol: MeasurementProtocol, n: int, j: int, fixed=None):
    """Raise :class:`ProtocolError` unless ``(n, j)`` is a substantive
    consistency condition; then ``fixed``, if given, as the labels of its
    ``n - 1`` outcomes."""
    if n < 2 or n > protocol.n_steps:
        raise ProtocolError(f"n = {n} not in 2..{protocol.n_steps}")
    if j == n:
        raise ProtocolError(
            "marginalizing the final step is trivially consistent (POVM completeness); "
            "the defect is exactly 0 and is not a substantive consistency check"
        )
    if not 1 <= j <= n - 1:
        raise ProtocolError(f"j = {j} not in 1..{n - 1}")
    if fixed is None:
        return None
    fixed = _labels(protocol, fixed)
    if len(fixed) != n - 1:
        raise ProtocolError(f"need {n - 1} fixed outcomes, got {len(fixed)}")
    return fixed


def plus_x_preparation() -> PreparationState:
    return PreparationState(np.array([1.0, 1.0]) / np.sqrt(2.0))


def uniform_preparation(d: int) -> PreparationState:
    return PreparationState(np.full(d, 1.0 / np.sqrt(d), dtype=complex))


@functools.cache  # a MeterBasis is immutable, so every step may hold the same one
def xy_meter_basis(axis: str) -> MeterBasis:
    """Qubit meter basis along X or Y.

    The Y kets are chosen so that the induced Kraus operators come out as
    ``K^Y_+- = (U_up +- i U_dn)/2`` with the ``|+x>`` preparation; the plus
    outcome then carries effect ``(1 - sigma_y)/2``.
    """
    s = 1.0 / np.sqrt(2.0)
    if axis == "X":
        states = np.array([[s, s], [s, -s]], dtype=complex)
    elif axis == "Y":
        states = np.array([[s, -1j * s], [s, 1j * s]], dtype=complex)
    else:
        raise ProtocolError(f"axis must be 'X' or 'Y', got {axis!r}")
    return MeterBasis(states, ("+", "-"), name=axis)


def fourier_meter_basis(d: int) -> MeterBasis:
    """Discrete-Fourier meter basis; reduces to the X basis for ``d = 2``."""
    idx = np.arange(d)
    states = np.exp(2j * np.pi * np.outer(idx, idx) / d) / np.sqrt(d)
    return MeterBasis(states, tuple(str(k) for k in idx), name="F")


def _qubit(probe_dim: int) -> None:
    """Raise :class:`DimensionError` unless ``probe_dim`` is 2, as the X/Y meters and witnesses need."""
    if probe_dim != 2:
        raise DimensionError(f"X/Y protocols need a qubit probe, got dimension {probe_dim}")


def qubit_xy_protocol(model: DephasingModel, axes, step_times=None) -> MeasurementProtocol:
    """Protocol with ``|+x>`` re-preparations and per-step X or Y meter bases.

    Steps along the same axis have equal meter kets, so a protocol such as
    ``"XXX"`` builds one induced measurement per distinct step time.
    """
    _qubit(model.probe_dim)
    bases = tuple(map(xy_meter_basis, axes))
    return MeasurementProtocol(model, plus_x_preparation(), bases, step_times)


def fourier_protocol(model: DephasingModel, n_steps: int) -> MeasurementProtocol:
    """Uniform-superposition preparation with the Fourier meter basis at every step."""
    basis = fourier_meter_basis(model.probe_dim)
    return MeasurementProtocol(
        model, uniform_preparation(model.probe_dim), (basis,) * n_steps
    )


def nonselective_apply(
    model: DephasingModel,
    preparation: PreparationState,
    a: np.ndarray,
    direction: str = "state",
) -> np.ndarray:
    """Apply the outcome-averaged measurement map.

    ``direction="state"`` applies the random-unitary channel
    ``sum_i |g_i|^2 U_i a U_i^H`` (trace preserving); ``"observable"``
    applies its dual ``sum_i |g_i|^2 U_i^H a U_i`` (unital).
    """
    if preparation.dim != model.probe_dim:
        raise DimensionError("preparation dimension does not match the probe")
    a = as_complex_matrix(a)
    if a.shape[0] != model.system_dim:
        raise DimensionError(f"operator dimension {a.shape[0]} != system dimension {model.system_dim}")
    if direction not in ("state", "observable"):
        raise ProtocolError(f"direction must be 'state' or 'observable', got {direction!r}")
    probs = np.abs(preparation.amplitudes) ** 2
    out = np.zeros_like(a)
    for p, u in zip(probs, conditional_unitaries(model)):
        if direction == "state":
            out = out + p * (u @ a @ u.conj().T)
        else:
            out = out + p * (u.conj().T @ a @ u)
    return out
