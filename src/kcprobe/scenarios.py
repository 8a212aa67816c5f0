"""Reproducible model builders and seeded searches.

All randomness flows through ``numpy.random.default_rng`` (PCG64) seeded
explicitly, so a scenario specification fully determines the constructed
model.  Ensemble trials derive child generators from ``(seed, index)``
pairs, which keeps individual trials reproducible in isolation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import sequences
from .errors import DimensionError, PreconditionError
from .algebra import _commutator_norms, effect_nondegenerate, is_commutative
from .linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _finite_step_time,
    check_hermitian,
    unitary_from_eigensystem,
)
from .model import (
    DephasingModel,
    MeasurementProtocol,
    _cycle_weights,
    _cycles,
    _n_max,
    conditional_unitaries,
    fourier_meter_basis,
    plus_x_preparation,
    qubit_xy_protocol,
    uniform_preparation,
    xy_meter_basis,
)
from .sequences import (
    JointDistribution,
    _state_defects,
    check_kc_all,
    full_distribution,
)
from .serialize import Record, fingerprint, model_payload
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


# A noncommuting draw whose largest commutator norm is below this times
# ``scale**2`` is too close to commuting to be a useful sample: it is redrawn.
_REDRAW_CUT = 1e-6
# The largest ``|scale|`` that :func:`random_model` draws at.  numpy's normal
# draw stays below 13.71 in magnitude (its ziggurat's tail ends there), so at
# d_S <= 16 every entry of a Hamiltonian stays below 1.4e65, of a commutator
# below 1e132, and every squared Frobenius norm below 1e267: no step of a
# draw, of its redraw test or of the model's Hermitian check can overflow.
_MAX_SCALE = 1e64


def _hermitian_parts(draws: np.ndarray, scale: float) -> np.ndarray:
    """The Hermitian parts ``(G + G^H) / 2`` of ``G = scale (X + iY) / sqrt(2)``
    for the standard-normal draws ``(..., d_P, 2, d, d)``, whose axis ``-3``
    holds ``X`` and then ``Y`` of each Hamiltonian: ``(..., d_P, d, d)``."""
    g = scale * (draws[..., 0, :, :] + 1j * draws[..., 1, :, :]) / np.sqrt(2.0)
    return (g + g.conj().swapaxes(-1, -2)) / 2


def _noncommuting_hamiltonians(seeds, probe_dim: int, system_dim: int, scale: float = 1.0) -> np.ndarray:
    """The conditional Hamiltonians of :func:`random_model`'s noncommuting
    branch for each seed of ``seeds``, one ``(C, d_P, d, d)`` stack.

    A seed's generator ``default_rng(seed)`` makes one
    ``standard_normal((d_P, 2, d, d))`` draw: the same numbers, in the same
    order, as a real and then an imaginary ``(d, d)`` block per Hamiltonian.
    The Hermitian parts and the commutator norms of every pair of
    Hamiltonians (:func:`~kcprobe.algebra._commutator_norms`, bit for bit
    :func:`is_commutative`'s) are formed over the whole stack.  A trial whose
    largest norm is below the cut ``_REDRAW_CUT * scale**2`` is redrawn from
    a new generator of its seed, past the draw just decided, while below the
    cut.  So every trial's Hamiltonians are those of a draw of its seed alone."""
    shape = (probe_dim, 2, system_dim, system_dim)
    draws = np.empty((len(seeds),) + shape)
    for c, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=draws[c])
    hams = _hermitian_parts(draws, scale)
    del draws
    cut = _REDRAW_CUT * scale**2
    for c in np.flatnonzero(_commutator_norms(hams).max(axis=-1) < cut):
        rng = np.random.default_rng(seeds[c])
        rng.standard_normal(shape)
        while _commutator_norms(hams[c]).max() < cut:
            hams[c] = _hermitian_parts(rng.standard_normal(shape), scale)
    return hams


def _random_shape(probe_dim: int, system_dim: int) -> None:
    """Raise :class:`DimensionError` unless random models of this shape are drawn."""
    if not 2 <= probe_dim <= 4:
        raise DimensionError(f"probe dimension {probe_dim} not in 2..4")
    if not 2 <= system_dim <= 16:
        raise DimensionError(f"system dimension {system_dim} not in 2..16")


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
    ``[-|scale|, |scale|]``, so the conditional Hamiltonians commute exactly.
    Otherwise they are independent Gaussian Hermitian matrices of entries of
    size ``scale``, redrawn in the (measure-zero) event that their largest
    commutator norm is below ``1e-6 * scale**2``, too close to commuting to
    be a useful noncommutative sample; the draw is
    :func:`_noncommuting_hamiltonians` of the one seed.  ``scale`` must be
    finite and nonzero, and at most ``1e64`` in magnitude, so that no draw,
    commutator or squared norm of it can overflow; any other raises
    :class:`PreconditionError` before anything is drawn.
    """
    if not (math.isfinite(scale) and scale != 0):
        raise PreconditionError(f"scale must be finite and nonzero, got {scale}")
    if not abs(scale) <= _MAX_SCALE:
        raise PreconditionError(f"|scale| must be at most {_MAX_SCALE:g}, got {scale}")
    _random_shape(probe_dim, system_dim)
    if commuting:
        rng = np.random.default_rng(seed)
        v = haar_unitary(system_dim, rng)
        hams = []
        for _ in range(probe_dim):
            spectrum = rng.uniform(-abs(scale), abs(scale), size=system_dim)
            h = (v * spectrum) @ v.conj().T
            hams.append((h + h.conj().T) / 2)
        return DephasingModel(probe_dim, system_dim, tuple(hams), step_time)
    hams = _noncommuting_hamiltonians([seed], probe_dim, system_dim, scale)[0]
    return DephasingModel(probe_dim, system_dim, tuple(hams), step_time)


def _site_operator(n_sites: int, site: int, op: np.ndarray) -> np.ndarray:
    mats = [np.eye(2, dtype=complex)] * n_sites
    mats[site] = op
    return functools.reduce(np.kron, mats)


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
    if realization.n_segments < n_steps:
        raise PreconditionError(
            f"realization has {realization.n_segments} segments, protocol needs {n_steps}"
        )
    model = DephasingModel(
        2, 1, (np.array([[1.0]], dtype=complex), np.array([[-1.0]], dtype=complex)), 1.0
    )
    return qubit_xy_protocol(model, "X" * n_steps, realization.phases()[:n_steps])


def _ensemble_weights(realizations, weights, tol: Tolerances) -> np.ndarray:
    """Mixture weights, one per realization, nonnegative and summing to 1."""
    weights = np.asarray(weights, dtype=float)
    if len(realizations) != weights.size:
        raise PreconditionError(f"{len(realizations)} realizations for {weights.size} weights")
    if weights.size == 0:
        raise PreconditionError("need at least one realization")
    if not float(weights.min()) >= 0.0:  # NaN fails too
        raise PreconditionError("weights must be nonnegative")
    if not abs(float(weights.sum()) - 1.0) <= tol.weight_sum:
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
    the realizations' state-defect tensors, from one scan per realization.
    """
    weights = _ensemble_weights(realizations, weights, tol)
    protocols = [classical_noise_model(r, n_max) for r in realizations]
    _n_max(protocols[0], n_max, 2)  # every protocol has n_max steps
    rho = np.array([[1.0]], dtype=complex)
    pairs = [(n, j) for n in range(2, n_max + 1) for j in range(1, n)]
    mixed = [0.0] * len(pairs)
    for w, p in zip(weights, protocols):
        mixed = [m + w * t for m, t in zip(mixed, _state_defects(p, [rho], pairs, tol))]
    return max(float(np.max(np.abs(m))) for m in mixed)


def degenerate_qubit_instance(step_time: float = np.pi / 2) -> DephasingModel:
    """Canonical noncommutative qubit pair whose X-axis effects are maximally
    degenerate at ``step_time = pi/2`` while the X statistics stay consistent."""
    return DephasingModel(2, 2, (SIGMA_Z, SIGMA_X), step_time)


@dataclass(frozen=True)
class CounterexampleFinding(Record):
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


def _candidate_cycle(probe_dim: int, axis: str):
    """The preparation and meter basis of every step of a search candidate
    read along ``axis``: ``|+x>`` and the X or Y basis on a qubit probe, and
    the uniform superposition and the Fourier basis otherwise."""
    if probe_dim == 2 and axis in ("X", "Y"):
        return plus_x_preparation(), xy_meter_basis(axis)
    return uniform_preparation(probe_dim), fourier_meter_basis(probe_dim)


def _evaluate_candidate(model, axis, t, gap, source, seed, index, tol) -> CounterexampleFinding | None:
    """The finding of ``model`` at step time ``t`` on three steps of ``axis``,
    or ``None``: a candidate that :func:`_screen` keeps, whose first-step
    effects are all degenerate with ``gap`` the largest of their gaps."""
    candidate = model.with_step_time(t)
    preparation, meter = _candidate_cycle(model.probe_dim, axis)
    protocol = MeasurementProtocol(candidate, preparation, (meter,) * 3)
    commutative, worst = is_commutative(candidate.hamiltonians, tol)
    # commuting unitaries (as at t = 0) make every defect exactly 0
    if commutative or is_commutative(conditional_unitaries(candidate), tol)[0]:
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
        max_effect_gap=float(gap),
        generator_commutator=worst,
        model_fingerprint=fingerprint(model_payload(candidate)),
    )


def _trials(trials: int) -> None:
    """Raise :class:`PreconditionError` unless a seeded search has a trial."""
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")


def _screen_pairs(probe_dim: int, system_dim: int) -> int:
    """How many (candidate, time) pairs one screened chunk holds: their
    conditional unitaries, Kraus operators and effects, ``48 d_P d**2`` bytes
    a pair, fill at most ``PREFIX_BLOCK_BYTES``; at least one pair.  A drawn
    trial's own stacks count as one more pair: its draws and Hamiltonians,
    then its Hamiltonians and eigensystems, hold at most ``48 d_P d**2``
    bytes at a time."""
    return sequences._fit(3 * 16 * probe_dim * system_dim**2)


def _screen(eigenvalues, eigenvectors, axes, t_grid, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """The ``(C, len(t_grid))`` mask of the candidates whose first-step
    effects, each candidate read along its axis of ``axes`` at each time, are
    all degenerate: the only ones :func:`_evaluate_candidate` can keep; and,
    of the same shape, the largest of those effects' gaps
    (:func:`effect_nondegenerate`), the one each finding reports.  The
    candidates are the eigensystems of their conditional Hamiltonians, one
    ``(C, d_P, d)`` and one ``(C, d_P, d, d)`` stack (an included model's
    own, as a one-model stack), so no model is built to screen it.  The
    unitaries, Kraus operators and effects of every pair are built, with
    their checks, in one stack per slice of the grid; a slice is the whole
    grid unless one candidate's grid alone outgrows :func:`_screen_pairs`.
    Completeness is checked at :data:`DEFAULT`, as a protocol build checks
    it; ``tol`` gives the gap."""
    count, d_p, d = eigenvalues.shape
    w, v = eigenvalues[:, None], eigenvectors[:, None]  # (C, 1, d_P, d), (C, 1, d_P, d, d)
    by_axis = {a: _cycle_weights(d_p, *_candidate_cycle(d_p, a)) for a in set(axes)}
    weights = np.stack([by_axis[a] for a in axes])[:, None]  # (C, 1, d_P, d_P)
    times = np.asarray(t_grid, dtype=float)
    screened = np.zeros((count, times.size), dtype=bool)
    largest = np.zeros((count, times.size))
    width = max(1, _screen_pairs(d_p, d) // count)
    for start in range(0, times.size, width):
        # the checks read (C, G, d_P) stacks in C order, the search order:
        # candidate, time, pointer state; only the effects outlive _cycles
        unitaries = unitary_from_eigensystem(w, v, times[start : start + width, None])
        effects = _cycles(weights, unitaries, DEFAULT)[1]
        del unitaries
        ok, gaps = effect_nondegenerate(effects, tol=tol)
        screened[:, start : start + width] = ~np.broadcast_to(ok, effects.shape[:-2]).any(axis=-1)
        largest[:, start : start + width] = np.broadcast_to(gaps, effects.shape[:-2]).max(axis=-1)
    return screened, largest


def _findings(eigensystems, axes, t_grid, model, source, seed, indices, tol: Tolerances) -> list:
    """The findings among the candidates of the stacks ``eigensystems``
    (reproduced by ``indices``), each read along its axis of ``axes`` at
    every time of ``t_grid``, in search order.  Only the candidates that
    :func:`_screen` keeps are evaluated, with the gap it read, and
    ``model(c)`` builds candidate ``c``'s model only for them, once each."""
    screened, gaps = _screen(*eigensystems, axes, t_grid, tol)
    findings = []
    for c in np.flatnonzero(screened.any(axis=1)):
        built = model(c)
        for g in np.flatnonzero(screened[c]):
            found = _evaluate_candidate(built, axes[c], t_grid[g], gaps[c, g], source, seed, indices[c], tol)
            if found is not None:
                findings.append(found)
    return findings


def counterexample_search(
    seed: int,
    trials: int,
    probe_dim: int = 2,
    system_dim: int = 2,
    t_grid=(np.pi / 2,),
    include=(),
    tol: Tolerances = DEFAULT,
) -> list[CounterexampleFinding]:
    """Search for degenerate-effect models that keep consistency despite
    noncommuting generators.

    ``include`` holds ``(model, axis)`` pairs evaluated at every grid time
    before the random trials; random trials draw seeded noncommuting models,
    read along X or Y on a qubit probe and along the Fourier meter
    otherwise.  Findings carry full reproduction data; an empty result is a
    valid outcome.

    Every candidate is first screened on its first-step effects, a chunk of
    trials (or one included model, whose shape may differ) across the whole
    grid at a time, within ``PREFIX_BLOCK_BYTES``.  A chunk's trials are
    drawn as one stack (:func:`_noncommuting_hamiltonians`) with one
    Hermitian check and one stacked ``eigh``, in the draw order of
    :func:`random_model`; only a candidate whose effects are all degenerate
    gets its model and protocol built and scanned.
    """
    _trials(trials)
    t_grid = tuple(map(_finite_step_time, t_grid))
    findings = []
    for idx, (model, axis) in enumerate(include):
        eigensystems = model.eigenvalues[None], model.eigenvectors[None]
        findings += _findings(eigensystems, [axis], t_grid, lambda c: model, "include", None, [idx], tol)
    _random_shape(probe_dim, system_dim)
    axes = ("X", "Y") if probe_dim == 2 else ("F",)
    chunk = max(1, _screen_pairs(probe_dim, system_dim) // (len(t_grid) + 1))
    for start in range(0, trials, chunk):
        indices = range(start, min(start + chunk, trials))
        seeds, picked = [], []
        for index in indices:
            rng = np.random.default_rng([seed, index])
            seeds.append(int(rng.integers(0, 2**63 - 1)))
            picked.append(axes[int(rng.integers(0, len(axes)))])
        hams = _noncommuting_hamiltonians(seeds, probe_dim, system_dim)
        eigensystems = np.linalg.eigh(check_hermitian(hams, what="conditional Hamiltonian", stack=True))
        findings += _findings(
            eigensystems,
            picked,
            t_grid,
            lambda c: DephasingModel(probe_dim, system_dim, tuple(hams[c]), 1.0),
            "random",
            seed,
            indices,
            tol,
        )
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
