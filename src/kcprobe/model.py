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
their own outcome-value conventions.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvariantViolation, ProtocolError
from .linalg import (
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


def _finite_step_time(t) -> float:
    if not np.isfinite(t):
        raise InvariantViolation(f"step time must be finite, got {t}")
    return float(t)


@dataclass(frozen=True, eq=False)
class PreparationState:
    """Probe preparation, stored as ket coefficients in the pointer basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > DEFAULT.density_trace:
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
        gram = states @ states.conj().T
        if frobenius(gram - np.eye(d)) > DEFAULT.unitarity:
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

    ``eigensystems[i]`` is ``eigh(hamiltonians[i])``, computed once here, so
    every conditional unitary of the model is formed without a new
    diagonalization.
    """

    probe_dim: int
    system_dim: int
    hamiltonians: tuple[np.ndarray, ...]
    step_time: float
    eigensystems: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.probe_dim < 1 or self.system_dim < 1:
            raise DimensionError("dimensions must be positive")
        if len(self.hamiltonians) != self.probe_dim:
            raise DimensionError(
                f"expected {self.probe_dim} conditional Hamiltonians, got {len(self.hamiltonians)}"
            )
        step_time = _finite_step_time(self.step_time)
        hams = []
        eigensystems = []
        for i, h in enumerate(self.hamiltonians):
            h = check_hermitian(h, what=f"conditional Hamiltonian {i}")
            if h.shape[0] != self.system_dim:
                raise DimensionError(
                    f"conditional Hamiltonian {i} has dimension {h.shape[0]}, expected {self.system_dim}"
                )
            h = _frozen(h)
            w, v = np.linalg.eigh(h)
            w.setflags(write=False)
            v.setflags(write=False)
            hams.append(h)
            eigensystems.append((w, v))
        object.__setattr__(self, "hamiltonians", tuple(hams))
        object.__setattr__(self, "step_time", step_time)
        object.__setattr__(self, "eigensystems", tuple(eigensystems))

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


def conditional_unitaries(model: DephasingModel, t: float | None = None) -> tuple[np.ndarray, ...]:
    """Per-pointer-state evolution operators ``U_i = exp(-i t H_i)``."""
    if t is None:
        t = model.step_time
    return tuple(unitary_from_eigensystem(w, v, t) for w, v in model.eigensystems)


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
    # K_m = sum_i g_i conj(m_i) U_i for every outcome m at once
    weights = preparation.amplitudes * meter.states.conj()
    kraus = np.einsum("mi,ikl->mkl", weights, np.asarray(unitaries))
    effects = kraus.conj().swapaxes(1, 2) @ kraus
    effects = (effects + effects.conj().swapaxes(1, 2)) / 2
    completeness = frobenius(effects.sum(axis=0) - np.eye(model.system_dim))
    if not completeness <= tol.povm_completeness:
        raise InvariantViolation(
            f"effects do not sum to the identity: defect {completeness:.3e}"
        )
    lowest = np.linalg.eigvalsh(effects)[:, 0]
    bad = ~(lowest >= -tol.effect_psd)
    if bad.any():
        m = int(np.argmax(bad))
        raise InvariantViolation(f"effect {m} has negative eigenvalue {lowest[m]:.3e}")
    return InducedMeasurement(kraus, effects, meter.labels)


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
        times: tuple[float, ...]
        if self.step_times is None:
            times = tuple(self.model.step_time for _ in self.step_bases)
        else:
            times = tuple(float(t) for t in self.step_times)
            if len(times) != len(self.step_bases):
                raise ProtocolError(
                    f"{len(times)} step times for {len(self.step_bases)} steps"
                )
            object.__setattr__(self, "step_times", times)
        # steps with the same basis and duration share one measurement
        unitaries: dict[float, np.ndarray] = {}
        built: dict[tuple[MeterBasis, float], InducedMeasurement] = {}
        measurements = []
        for basis, t in zip(self.step_bases, times):
            if (basis, t) not in built:
                if t not in unitaries:
                    unitaries[t] = np.asarray(conditional_unitaries(self.model, t))
                built[basis, t] = induced_kraus(
                    self.model, self.preparation, basis, unitaries=unitaries[t]
                )
            measurements.append(built[basis, t])
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
        if not 1 <= n <= self.n_steps:
            raise ProtocolError(f"cannot take {n}-step prefix of {self.n_steps}-step protocol")
        if n == self.n_steps:
            return self
        return self._with_steps(lambda steps: steps[:n])

    def drop_step(self, j: int) -> "MeasurementProtocol":
        """Protocol with step ``j`` (1-based) removed; remaining steps unchanged."""
        if not 1 <= j <= self.n_steps:
            raise ProtocolError(f"step {j} out of range 1..{self.n_steps}")
        if self.n_steps == 1:
            raise ProtocolError("cannot drop the only step of a protocol")
        return self._with_steps(lambda steps: steps[: j - 1] + steps[j:])


def plus_x_preparation() -> PreparationState:
    return PreparationState(np.array([1.0, 1.0]) / np.sqrt(2.0))


def uniform_preparation(d: int) -> PreparationState:
    return PreparationState(np.full(d, 1.0 / np.sqrt(d), dtype=complex))


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


def qubit_xy_protocol(model: DephasingModel, axes, step_times=None) -> MeasurementProtocol:
    """Protocol with ``|+x>`` re-preparations and per-step X or Y meter bases.

    Steps along the same axis share one meter basis, so a protocol such as
    ``"XXX"`` builds one induced measurement per distinct step time.
    """
    if model.probe_dim != 2:
        raise DimensionError(f"X/Y protocols need a qubit probe, got dimension {model.probe_dim}")
    meters = {a: xy_meter_basis(a) for a in dict.fromkeys(axes)}
    bases = tuple(meters[a] for a in axes)
    if not bases:
        raise ProtocolError("need at least one measurement axis")
    return MeasurementProtocol(model, plus_x_preparation(), bases, step_times)


def fourier_protocol(model: DephasingModel, n_steps: int) -> MeasurementProtocol:
    """Uniform-superposition preparation with the Fourier meter basis at every step."""
    if n_steps < 1:
        raise ProtocolError("need at least one step")
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
