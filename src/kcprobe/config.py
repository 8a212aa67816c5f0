"""Run-configuration loading and experiment assembly.

Configurations are JSON documents validated against the packaged schema
(``config_schema.json``, ``schema_version`` 1).  Complex numbers are
``[re, im]`` pairs and matrices are row-major nested arrays throughout.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
from dataclasses import dataclass, field

import jsonschema
import numpy as np

from .errors import ConfigError, InvariantViolation
from .linalg import check_density
from .model import (
    DephasingModel,
    MeasurementProtocol,
    MeterBasis,
    PreparationState,
    _n_max,
    fourier_meter_basis,
    uniform_preparation,
    xy_meter_basis,
)
from .scenarios import ScenarioSpec, build_scenario
from .serialize import pairs_vector, rows_matrix
from .tolerances import DEFAULT, Tolerances

SCHEMA_VERSION = 1

# Tolerances that no command reads (``unitarity`` and ``povm_completeness``
# are read only at their defaults, and nothing reads ``effect_psd``: an effect
# is positive once completeness holds), so a setting would change nothing: a
# config or ``--tol`` naming one is refused.
_INERT_TOLERANCES = frozenset({
    "closure", "effect_psd", "fixed_point", "kraus_effect", "povm_completeness",
    "rank", "spacing", "unitarity", "weight_sum",
})


def load_schema() -> dict:
    text = importlib.resources.files("kcprobe").joinpath("config_schema.json").read_text()
    return json.loads(text)


@functools.cache
def _schema_validator():
    """Validator for the packaged schema, meta-checked once per process."""
    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    scenario: ScenarioSpec
    protocol_spec: dict
    states: tuple[dict, ...]
    checks: tuple[str, ...]
    tolerances: Tolerances
    expect: dict
    search: dict
    output_dir: str | None = None


@dataclass(frozen=True)
class Experiment:
    """Concrete objects a config resolves to."""

    config: RunConfig
    model: DephasingModel
    protocol: MeasurementProtocol
    n_max: int
    states: tuple[tuple[str, np.ndarray], ...] = field(default=())


def _reject_constant(name: str):
    raise ConfigError(f"config contains the non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text} overflows to {value}")
    return value


def load_run_config(path, overrides: dict | None = None, seed: int | None = None) -> RunConfig:
    """Parse and validate a configuration file.

    ``overrides`` patches tolerance fields; ``seed`` replaces the scenario
    seed.  Any malformation, including a non-finite number (``NaN``,
    ``Infinity``, or a literal that overflows), raises :class:`ConfigError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    error = jsonschema.exceptions.best_match(_schema_validator().iter_errors(raw))
    if error is not None:
        raise ConfigError(f"config does not match schema: {error.message}") from error
    scenario_raw = dict(raw["scenario"])
    kind = scenario_raw.pop("kind")
    cfg_seed = scenario_raw.pop("seed", 0)
    if seed is not None:
        if not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {seed!r}")
        cfg_seed = seed
    if kind == "explicit":
        scenario_raw["hamiltonians"] = [rows_matrix(h) for h in scenario_raw["hamiltonians"]]
    settings = raw.get("tolerances", {})
    inert = sorted(_INERT_TOLERANCES.intersection([*settings, *(overrides or ())]))
    if inert:
        raise ConfigError(f"tolerance(s) {inert} cannot be set: no check reads them")
    tol = DEFAULT.replace(**settings)
    if overrides:
        tol = tol.replace(**overrides)
    return RunConfig(
        raw=raw,
        scenario=ScenarioSpec(kind, int(cfg_seed), scenario_raw),
        protocol_spec=dict(raw.get("protocol", {})),
        states=tuple(raw.get("states", ({"name": "maximally_mixed"},))),
        checks=tuple(raw.get("checks", ("kc",))),
        tolerances=tol,
        expect=dict(raw.get("expect", {})),
        search=dict(raw.get("search", {})),
        output_dir=raw.get("output", {}).get("dir"),
    )


def _resolve_state(spec: dict, dim: int) -> np.ndarray:
    name = spec["name"]
    if name == "maximally_mixed":
        return np.eye(dim, dtype=complex) / dim
    if name == "pure":
        if "ket" not in spec:
            raise ConfigError("pure state needs a 'ket' entry")
        ket = pairs_vector(spec["ket"])
        if ket.size != dim:
            raise ConfigError(f"ket has dimension {ket.size}, system has {dim}")
        with np.errstate(over="ignore"):  # an overflowing norm is rejected below
            norm = float(np.linalg.norm(ket))
        if not math.isfinite(norm):
            raise ConfigError(f"ket norm {norm} is not finite")
        if norm < 1e-12:
            raise ConfigError("ket has zero norm")
        ket = ket / norm
        return np.outer(ket, ket.conj())
    if name == "random":
        rng = np.random.default_rng(int(spec.get("seed", 0)))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real
    raise ConfigError(f"unknown state name {name!r}")


def _resolve_protocol(
    built: DephasingModel | MeasurementProtocol, spec: dict, n_max: int
) -> MeasurementProtocol:
    """The protocol of a model and a config's protocol block.

    The bases come from at most one of ``axes``, ``meter_bases`` and
    ``fourier_steps``; without one, from X axes on a qubit probe and the
    Fourier meter otherwise, ``max(n_max, 2)`` steps each.  ``preparation``
    (default uniform, ``|+x>`` on a qubit) and ``step_times`` apply to every
    form.  A ``classical_noise`` scenario is built as its own protocol, so its
    block may hold only ``n_max``.
    """
    if isinstance(built, MeasurementProtocol):
        fields = sorted(set(spec) - {"n_max"})
        if fields:
            raise ConfigError(f"classical_noise builds its own protocol: {fields} cannot be set")
        return built
    forms = [form for form in ("axes", "meter_bases", "fourier_steps") if form in spec]
    if len(forms) > 1:
        raise ConfigError(f"protocol names {len(forms)} forms {forms}; give at most one")
    d = built.probe_dim
    if "meter_bases" in spec:
        labels = tuple(str(k) for k in range(d))
        bases = tuple(MeterBasis(rows_matrix(rows), labels) for rows in spec["meter_bases"])
    elif "fourier_steps" in spec or ("axes" not in spec and d != 2):
        bases = (fourier_meter_basis(d),) * int(spec.get("fourier_steps", max(n_max, 2)))
    else:
        axes = spec.get("axes", ["X"] * max(n_max, 2))
        bases = tuple(map(xy_meter_basis, axes))
    if "preparation" in spec:
        preparation = PreparationState(pairs_vector(spec["preparation"]))
    else:
        preparation = uniform_preparation(d)
    return MeasurementProtocol(built, preparation, bases, spec.get("step_times"))


def build_experiment(config: RunConfig) -> Experiment:
    """Resolve a config into model, protocol, and concrete states.

    A model, protocol or state that fails one of its defining invariants
    (a non-Hermitian Hamiltonian, a non-orthonormal meter basis, a state
    that is not a density matrix, ...) is a :class:`ConfigError`.
    """
    n_max = int(config.protocol_spec.get("n_max", 2))
    try:
        try:
            built = build_scenario(config.scenario)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"scenario parameters are incomplete: {exc}") from exc
        protocol = _resolve_protocol(built, config.protocol_spec, n_max)
        _n_max(protocol, n_max, 1)
        states = tuple(
            (spec["name"], _resolve_state(spec, protocol.system_dim)) for spec in config.states
        )
        for _, rho in states:
            check_density(rho, protocol.system_dim, config.tolerances)
    except InvariantViolation as exc:
        raise ConfigError(str(exc)) from exc
    return Experiment(config, protocol.model, protocol, n_max, states)
