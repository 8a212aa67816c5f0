"""Reproducible model builders and seeded searches.

All randomness flows through ``numpy.random.default_rng`` (PCG64) seeded
explicitly, so a scenario specification fully determines the constructed
model.  Ensemble trials derive child generators from ``(seed, index)``
pairs, which keeps individual trials reproducible in isolation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PreconditionError
from .algebra import effect_nondegenerate, is_commutative
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, frobenius, commutator
from .model import (
    DephasingModel,
    MeasurementProtocol,
    fourier_protocol,
    plus_x_preparation,
    qubit_xy_protocol,
    xy_meter_basis,
)
from .sequences import (
    JointDistribution,
    _check_capacity,
    _state_defects,
    check_kc_all,
    full_distribution,
)
from .serialize import fingerprint, model_payload
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True)
class ScenarioSpec:
    """Named, seeded description of a model-building recipe."""

    kind: str
    seed: int
    params: dict = field(default_factory=dict)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the R diagonal phase fixed,
    which makes the draw deterministic for a given generator state."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))


def random_model(
    seed: int,
    probe_dim: int,
    system_dim: int,
    commuting: bool,
    scale: float = 1.0,
    step_time: float = 1.0,
) -> DephasingModel:
    """Seeded random dephasing model.

    ``commuting=True`` draws one Haar basis and independent spectra in
    ``[-scale, scale]``, so the conditional Hamiltonians commute exactly.
    Otherwise they are independent Gaussian Hermitian matrices, redrawn in
    the (measure-zero) event that the pair is numerically too close to
    commuting to be a useful noncommutative sample.
    """
    if not 2 <= probe_dim <= 4:
        raise DimensionError(f"probe dimension {probe_dim} not in 2..4")
    if not 2 <= system_dim <= 16:
        raise DimensionError(f"system dimension {system_dim} not in 2..16")
    rng = np.random.default_rng(seed)
    if commuting:
        v = haar_unitary(system_dim, rng)
        hams = []
        for _ in range(probe_dim):
            spectrum = rng.uniform(-scale, scale, size=system_dim)
            h = (v * spectrum) @ v.conj().T
            hams.append((h + h.conj().T) / 2)
        return DephasingModel(probe_dim, system_dim, tuple(hams), step_time)
    while True:
        hams = []
        for _ in range(probe_dim):
            g = scale * (
                rng.standard_normal((system_dim, system_dim))
                + 1j * rng.standard_normal((system_dim, system_dim))
            ) / np.sqrt(2.0)
            hams.append((g + g.conj().T) / 2)
        worst = max(
            frobenius(commutator(a, b)) for a, b in itertools.combinations(hams, 2)
        )
        if worst >= 1e-6:
            return DephasingModel(probe_dim, system_dim, tuple(hams), step_time)


def _site_operator(n_sites: int, site: int, op: np.ndarray) -> np.ndarray:
    mats = [np.eye(2, dtype=complex)] * n_sites
    mats[site] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def nv_center_model(
    n_nuclei: int,
    omega: float,
    splitting: float,
    couplings,
    step_time: float = 1.0,
) -> DephasingModel:
    """Qubit probe coupled to a bath of noninteracting spin-1/2 nuclei.

    The probe's two pointer states see ``H_0 = omega * sum_k I_z^k`` and
    ``H_1 = splitting * 1 + sum_k (omega I_z^k + sum_j A[k, j] I_j^k)``,
    with ``I_j^k`` the spin-1/2 operators of nucleus ``k`` and ``A`` the
    per-nucleus coupling vectors.  The splitting enters only as a scalar
    offset on the coupled branch and never affects commutativity.
    """
    if not 1 <= n_nuclei <= 5:
        raise DimensionError(f"nucleus count {n_nuclei} not in 1..5")
    a = np.asarray(couplings, dtype=float)
    if a.shape == (3,) and n_nuclei == 1:
        a = a.reshape(1, 3)
    if a.shape != (n_nuclei, 3):
        raise DimensionError(f"couplings must have shape ({n_nuclei}, 3), got {a.shape}")
    d = 2**n_nuclei
    spin = {"x": SIGMA_X / 2, "y": SIGMA_Y / 2, "z": SIGMA_Z / 2}
    h0 = np.zeros((d, d), dtype=complex)
    h1 = splitting * np.eye(d, dtype=complex)
    for k in range(n_nuclei):
        iz = _site_operator(n_nuclei, k, spin["z"])
        h0 = h0 + omega * iz
        h1 = h1 + omega * iz
        for j, ax in enumerate("xyz"):
            if a[k, j] != 0.0:
                h1 = h1 + a[k, j] * _site_operator(n_nuclei, k, spin[ax])
    return DephasingModel(2, d, (h0, h1), step_time)


@dataclass(frozen=True)
class NoiseRealization:
    """Piecewise-constant classical frequency noise along one protocol run."""

    xis: tuple[float, ...]
    durations: tuple[float, ...]

    def __post_init__(self):
        xis = tuple(float(x) for x in self.xis)
        durations = tuple(float(t) for t in self.durations)
        if len(xis) != len(durations):
            raise DimensionError(f"{len(xis)} noise values for {len(durations)} segments")
        if not all(np.isfinite(xis)) or not all(np.isfinite(durations)):
            raise PreconditionError("noise realization contains non-finite values")
        object.__setattr__(self, "xis", xis)
        object.__setattr__(self, "durations", durations)

    @property
    def n_segments(self) -> int:
        return len(self.xis)

    def phases(self) -> tuple[float, ...]:
        """Accumulated phase per segment, ``alpha_k = xi_k * duration_k``."""
        return tuple(x * t for x, t in zip(self.xis, self.durations))


def random_noise_realization(
    seed: int, n_segments: int, xi_scale: float = np.pi, duration: float = 1.0
) -> NoiseRealization:
    rng = np.random.default_rng(seed)
    xis = rng.uniform(-xi_scale, xi_scale, size=n_segments)
    return NoiseRealization(tuple(xis), (duration,) * n_segments)


def classical_noise_model(realization: NoiseRealization, n_steps: int) -> MeasurementProtocol:
    """X-measurement protocol driven by classical frequency noise.

    The system collapses to a one-dimensional algebra; the per-segment
    Kraus scalars are ``cos(alpha_k)`` and ``-i sin(alpha_k)``, realized as
    a pair of opposite-sign scalar Hamiltonians with the accumulated phase
    as the per-step duration.
    """
    if n_steps < 1:
        raise PreconditionError("need at least one step")
    if realization.n_segments < n_steps:
        raise PreconditionError(
            f"realization has {realization.n_segments} segments, protocol needs {n_steps}"
        )
    model = DephasingModel(
        2, 1, (np.array([[1.0]], dtype=complex), np.array([[-1.0]], dtype=complex)), 1.0
    )
    basis = xy_meter_basis("X")
    return MeasurementProtocol(
        model,
        plus_x_preparation(),
        (basis,) * n_steps,
        realization.phases()[:n_steps],
    )


def _ensemble_weights(realizations, weights, tol: Tolerances) -> np.ndarray:
    """Mixture weights, one per realization, nonnegative and summing to 1."""
    weights = np.asarray(weights, dtype=float)
    if len(realizations) != weights.size:
        raise PreconditionError(f"{len(realizations)} realizations for {weights.size} weights")
    if weights.size == 0:
        raise PreconditionError("need at least one realization")
    if float(weights.min()) < 0.0:
        raise PreconditionError("weights must be nonnegative")
    if abs(float(weights.sum()) - 1.0) > tol.weight_sum:
        raise PreconditionError(f"weights sum to {float(weights.sum())}, expected 1")
    return weights


def noise_ensemble_average(
    realizations,
    weights,
    n_steps: int,
    tol: Tolerances = DEFAULT,
) -> JointDistribution:
    """Convex mixture of per-realization outcome distributions."""
    weights = _ensemble_weights(realizations, weights, tol)
    rho = np.array([[1.0]], dtype=complex)
    table: dict = {}
    for w, realization in zip(weights, realizations):
        dist = full_distribution(classical_noise_model(realization, n_steps), rho, n_steps, tol)
        for seq, p in dist.table.items():
            table[seq] = table.get(seq, 0.0) + float(w) * p
    return JointDistribution(n_steps, 2, table)


def ensemble_kc_max_defect(
    realizations,
    weights,
    n_max: int,
    tol: Tolerances = DEFAULT,
) -> float:
    """Largest consistency defect of a noise-ensemble distribution family.

    For each ``(n, j)`` the defect of the ``n``-step mixture marginalized
    over step ``j`` against the mixture with segment ``j`` removed.  The
    defects are linear in the distribution, so this is the weighted sum of
    the realizations' state-defect tensors.
    """
    if n_max < 2:
        raise PreconditionError(f"n_max must be >= 2, got {n_max}")
    weights = _ensemble_weights(realizations, weights, tol)
    protocols = [classical_noise_model(r, n_max) for r in realizations]
    _check_capacity(2, n_max, tol)
    rho = np.array([[1.0]], dtype=complex)
    worst = 0.0
    for n in range(2, n_max + 1):
        for j in range(1, n):
            mixed = sum(w * _state_defects(p, rho, n, j, tol) for w, p in zip(weights, protocols))
            worst = max(worst, float(np.max(np.abs(mixed))))
    return worst


def degenerate_qubit_instance(step_time: float = np.pi / 2) -> DephasingModel:
    """Canonical noncommutative qubit pair whose X-axis effects are maximally
    degenerate at ``step_time = pi/2`` while the X statistics stay consistent."""
    return DephasingModel(2, 2, (SIGMA_Z, SIGMA_X), step_time)


@dataclass(frozen=True)
class CounterexampleFinding:
    """A degenerate-effect, consistency-preserving, noncommutative instance."""

    source: str
    seed: int | None
    index: int | None
    axis: str
    step_time: float
    max_operator_defect: float
    max_effect_gap: float
    generator_commutator: float
    model_fingerprint: str

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "seed": self.seed,
            "index": self.index,
            "axis": self.axis,
            "step_time": self.step_time,
            "max_operator_defect": self.max_operator_defect,
            "max_effect_gap": self.max_effect_gap,
            "generator_commutator": self.generator_commutator,
            "model_fingerprint": self.model_fingerprint,
        }


def _single_axis_protocol(model: DephasingModel, axis: str, n_steps: int) -> MeasurementProtocol:
    if model.probe_dim == 2 and axis in ("X", "Y"):
        return qubit_xy_protocol(model, axis * n_steps)
    return fourier_protocol(model, n_steps)


def _evaluate_candidate(model, axis, t, source, seed, index, tol) -> CounterexampleFinding | None:
    candidate = model.with_step_time(t)
    protocol = _single_axis_protocol(candidate, axis, 3)
    gaps = []
    for measurement in protocol.step_measurements[:1]:
        for effect in measurement.effects:
            ok, gap = effect_nondegenerate(effect, tol=tol)
            if ok:
                return None
            gaps.append(gap)
    commutative, worst = is_commutative(candidate.hamiltonians, tol)
    if commutative:
        return None
    report = check_kc_all(protocol, 3, tol=tol)
    if not report.consistent:
        return None
    return CounterexampleFinding(
        source=source,
        seed=seed,
        index=index,
        axis=axis,
        step_time=float(t),
        max_operator_defect=report.max_operator_defect,
        max_effect_gap=float(max(gaps)),
        generator_commutator=worst,
        model_fingerprint=fingerprint(model_payload(candidate)),
    )


def counterexample_search(
    seed: int,
    trials: int,
    probe_dim: int = 2,
    system_dim: int = 2,
    t_grid=(np.pi / 2,),
    include=(),
    commuting: bool = False,
    tol: Tolerances = DEFAULT,
) -> list[CounterexampleFinding]:
    """Search for degenerate-effect models that keep consistency despite
    noncommuting generators.

    ``include`` holds ``(model, axis)`` pairs evaluated at every grid time
    before the random trials; random trials draw seeded models (commuting
    ones only if ``commuting=True``, which documents that the
    noncommutativity filter then rejects everything).  Findings carry full
    reproduction data; an empty result is a valid outcome.
    """
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    findings = []
    for idx, (model, axis) in enumerate(include):
        for t in t_grid:
            found = _evaluate_candidate(model, axis, t, "include", None, idx, tol)
            if found is not None:
                findings.append(found)
    axes = ("X", "Y") if probe_dim == 2 else ("F",)
    for index in range(trials):
        rng = np.random.default_rng([seed, index])
        model_seed = int(rng.integers(0, 2**63 - 1))
        model = random_model(model_seed, probe_dim, system_dim, commuting=commuting)
        axis = axes[int(rng.integers(0, len(axes)))]
        for t in t_grid:
            found = _evaluate_candidate(model, axis, t, "random", seed, index, tol)
            if found is not None:
                findings.append(found)
    return findings


def build_scenario(spec: ScenarioSpec):
    """Construct the object a scenario describes.

    ``random``, ``nv`` and ``explicit`` yield a :class:`DephasingModel`;
    ``classical_noise`` yields a ready :class:`MeasurementProtocol`.
    """
    params = dict(spec.params)
    if spec.kind == "random":
        return random_model(
            spec.seed,
            int(params.get("probe_dim", 2)),
            int(params.get("system_dim", 2)),
            bool(params.get("commuting", False)),
            float(params.get("scale", 1.0)),
            float(params.get("step_time", 1.0)),
        )
    if spec.kind == "nv":
        return nv_center_model(
            int(params["n_nuclei"]),
            float(params["omega"]),
            float(params.get("splitting", 0.0)),
            params["couplings"],
            float(params.get("step_time", 1.0)),
        )
    if spec.kind == "classical_noise":
        if "xis" in params:
            realization = NoiseRealization(
                tuple(params["xis"]), tuple(params["durations"])
            )
        else:
            realization = random_noise_realization(
                spec.seed,
                int(params.get("n_segments", 5)),
                float(params.get("xi_scale", np.pi)),
                float(params.get("duration", 1.0)),
            )
        return classical_noise_model(realization, int(params.get("n_steps", realization.n_segments)))
    if spec.kind == "explicit":
        hams = tuple(np.asarray(h, dtype=complex) for h in params["hamiltonians"])
        return DephasingModel(
            len(hams), hams[0].shape[0], hams, float(params.get("step_time", 1.0))
        )
    raise PreconditionError(f"unknown scenario kind {spec.kind!r}")
