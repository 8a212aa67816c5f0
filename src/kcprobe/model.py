"""Probe-system pure-dephasing model and the measurement machinery it induces.

A probe of dimension ``d_P`` dephases in a fixed pointer basis while the
system evolves under one conditional Hamiltonian per pointer state.  A
prepare-evolve-measure cycle on the probe (preparation ``|g>``, meter basis
``{|m>}``) induces Kraus operators on the system

    K_m = sum_i  g_i conj(m_i) U_i,       U_i = exp(-i t H_i),

where ``g_i`` and ``m_i`` are ket coefficients in the pointer basis.  The
effects ``E_m = K_m^H K_m`` form a POVM; completeness is enforced when a
measurement is constructed, so downstream sequence probabilities are always
normalized.

Outcome labels are integers ``0 .. d_P-1`` throughout; meter bases carry
display labels (``+``/``-`` for the qubit X/Y bases) and witnesses apply
their own outcome-value conventions.  The outcome sequences, ``(n, j)``
pairs and ``fixed`` outcomes given to a protocol are checked here, once for
the fast route of :mod:`kcprobe.sequences` and the naive one of
:mod:`kcprobe.oracle` alike.
"""

from __future__ import annotations

import copy
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
        out = copy.copy(self)
        object.__setattr__(out, "step_time", _finite_step_time(t))
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


def _transfer(measurement) -> np.ndarray:
    """The real ``(d_P, d**2, d**2)`` transfer ``T`` of the Kraus operators of
    ``measurement`` in the coordinates ``c`` of :func:`~kcprobe.linalg._coordinates`:
    ``c(K_m^H X K_m) = c(X) @ T[m]`` for every Hermitian ``X``, so row ``a`` of
    ``T[m]`` is ``c(K_m^H B_a K_m)``.  It is built at the first call and kept on
    the measurement, ``8 d_P d**4`` bytes, so the steps that share a
    measurement share one transfer across every scan of them."""
    kept = vars(measurement)
    if "_transfer" not in kept:
        kraus = np.asarray(measurement.kraus)
        d_p, d = kraus.shape[:2]
        # pairs[m, (k, l), (i, j)] = conj(K_m)_ki (K_m)_lj, so that
        # (K_m^H X K_m)_ij = sum_kl X_kl pairs[m, (k, l), (i, j)]
        pairs = (kraus.conj()[:, :, None, :, None] * kraus[:, None, :, None, :]).reshape(d_p, d * d, d * d)
        basis = _basis(d)
        # row a of basis @ pairs[m] is the flattened K_m^H B_a K_m; its
        # coordinates are the dot products of its real and imaginary parts
        # with those of each B_b
        kept["_transfer"] = (basis @ pairs).view(float) @ basis.view(float).T
    return kept["_transfer"]


def _residual(measurement) -> float:
    """``|sum_m E_m - 1|_F``, the completeness residual of ``measurement``,
    with ``E_m`` the Hermitian part of ``K_m^H K_m`` for its Kraus operators
    ``K_m``, which the scan pulls back through.  :func:`induced_kraus` keeps
    the residual it checked on the measurement it builds; for any other it is
    computed at the first call and kept likewise, as a transfer is."""
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
    """Build the induced measurement ``{K_m, E_m}`` for one probe cycle.

    POVM completeness and positivity of every effect are verified here;
    a failure indicates a non-orthonormal meter basis or a numerical fault
    and raises :class:`InvariantViolation`.
    """
    if preparation.dim != model.probe_dim or meter.dim != model.probe_dim:
        raise DimensionError(
            f"preparation/meter dimension must equal probe dimension {model.probe_dim}"
        )
    if unitaries is None:
        unitaries = conditional_unitaries(model)
    kraus, effects, completeness = _cycles(_cycle_weights(preparation, meter), np.asarray(unitaries), tol)
    measurement = InducedMeasurement(kraus, effects, meter.labels)
    vars(measurement)["_residual"] = float(completeness)  # see _residual
    return measurement


def _cycle_weights(preparation: PreparationState, meter: MeterBasis) -> np.ndarray:
    """The ``(d_P, d_P)`` weights ``g_i conj(m_i)`` of ``K_m = sum_i weights[m, i] U_i``."""
    return preparation.amplitudes * meter.states.conj()


def _cycles(
    weights: np.ndarray, unitaries: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Kraus operators and effects of a stack of probe cycles, each
    ``(..., d_P, d, d)``, from their weights ``(..., d_P, d_P)`` (see
    :func:`_cycle_weights`) and conditional unitaries ``(..., d_P, d, d)``,
    whose leading axes broadcast, and each cycle's completeness residual
    ``|sum_m E_m - 1|_F``, shape ``(...)``.  Every cycle's effects must sum to
    the identity and be positive; the first cycle in C order that fails raises
    :class:`InvariantViolation`."""
    # K_m = sum_i g_i conj(m_i) U_i for every outcome m at once
    kraus = np.einsum("...mi,...ikl->...mkl", weights, unitaries)
    effects = kraus.conj().swapaxes(-1, -2) @ kraus
    effects += effects.conj().swapaxes(-1, -2)  # in place: the stack holds one effects array
    effects /= 2
    completeness = _frobenius(effects.sum(axis=-3) - np.eye(effects.shape[-1]))
    if not completeness.max() <= tol.povm_completeness:  # NaN fails too
        k = _first(~(completeness <= tol.povm_completeness))
        raise InvariantViolation(f"effects do not sum to the identity: defect {completeness[k]:.3e}")
    lowest = np.linalg.eigvalsh(effects)[..., 0]
    if not lowest.min() >= -tol.effect_psd:
        k = _first(~(lowest >= -tol.effect_psd))
        raise InvariantViolation(f"effect {k[-1]} has negative eigenvalue {lowest[k]:.3e}")
    return kraus, effects, completeness


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
        # steps with equal meter kets, labels and duration share one measurement
        unitaries: dict[float, np.ndarray] = {}
        built: dict[tuple[bytes, tuple[str, ...], float], InducedMeasurement] = {}
        measurements = []
        for basis, t in zip(self.step_bases, self.effective_step_times()):
            key = (basis.states.tobytes(), basis.labels, t)
            if key not in built:
                if t not in unitaries:
                    unitaries[t] = conditional_unitaries(self.model, t)
                built[key] = induced_kraus(
                    self.model, self.preparation, basis, unitaries=unitaries[t]
                )
            measurements.append(built[key])
        object.__setattr__(self, "step_bases", tuple(self.step_bases))
        object.__setattr__(self, "step_measurements", tuple(measurements))

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
        sub = object.__new__(MeasurementProtocol)
        for name, value in (
            ("model", self.model),
            ("preparation", self.preparation),
            ("step_bases", pick(self.step_bases)),
            ("step_times", None if self.step_times is None else pick(self.step_times)),
            ("step_measurements", pick(self.step_measurements)),
        ):
            object.__setattr__(sub, name, value)
        return sub

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
