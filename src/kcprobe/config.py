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

from .errors import ConfigError, InvariantViolation, KCProbeError
from .linalg import check_density
from .model import (
    DephasingModel,
    MeasurementProtocol,
    MeterBasis,
    PreparationState,
    fourier_protocol,
    qubit_xy_protocol,
    uniform_preparation,
)
from .scenarios import ScenarioSpec, build_scenario
from .serialize import pairs_vector, rows_matrix
from .tolerances import DEFAULT, Tolerances

SCHEMA_VERSION = 1


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
        cfg_seed = seed
    if kind == "explicit":
        if "hamiltonians" not in scenario_raw:
            raise ConfigError("explicit scenario needs 'hamiltonians'")
        scenario_raw["hamiltonians"] = [rows_matrix(h) for h in scenario_raw["hamiltonians"]]
    tol = DEFAULT.replace(**raw.get("tolerances", {}))
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


def _resolve_protocol(model: DephasingModel, spec: dict, n_max: int) -> MeasurementProtocol:
    step_times = spec.get("step_times")
    if "axes" in spec:
        return qubit_xy_protocol(model, spec["axes"], step_times)
    if "meter_bases" in spec:
        bases = tuple(
            MeterBasis(rows_matrix(rows), tuple(str(k) for k in range(model.probe_dim)))
            for rows in spec["meter_bases"]
        )
        if "preparation" in spec:
            prep = PreparationState(pairs_vector(spec["preparation"]))
        else:
            prep = uniform_preparation(model.probe_dim)
        times = tuple(step_times) if step_times is not None else None
        return MeasurementProtocol(model, prep, bases, times)
    steps = int(spec.get("fourier_steps", n_max))
    return fourier_protocol(model, max(steps, n_max))


def build_experiment(config: RunConfig) -> Experiment:
    """Resolve a config into model, protocol, and concrete states.

    A model, protocol or state that fails one of its defining invariants
    (a non-Hermitian Hamiltonian, a non-orthonormal meter basis, a state
    that is not a density matrix, ...) is a :class:`ConfigError`.
    """
    try:
        return _build_experiment(config)
    except InvariantViolation as exc:
        raise ConfigError(str(exc)) from exc


def _build_experiment(config: RunConfig) -> Experiment:
    try:
        built = build_scenario(config.scenario)
    except KCProbeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"scenario parameters are incomplete: {exc}") from exc
    n_max = int(config.protocol_spec.get("n_max", 2))
    if isinstance(built, MeasurementProtocol):
        protocol = built
        model = built.model
        if n_max > protocol.n_steps:
            raise ConfigError(
                f"n_max = {n_max} exceeds the {protocol.n_steps}-step noise protocol"
            )
    else:
        model = built
        spec = dict(config.protocol_spec)
        if "axes" not in spec and "meter_bases" not in spec and "fourier_steps" not in spec:
            if model.probe_dim == 2:
                spec["axes"] = ["X"] * max(n_max, 2)
            else:
                spec["fourier_steps"] = max(n_max, 2)
        protocol = _resolve_protocol(model, spec, n_max)
        if n_max > protocol.n_steps:
            raise ConfigError(
                f"n_max = {n_max} exceeds the protocol length {protocol.n_steps}"
            )
    states = tuple(
        (spec["name"], _resolve_state(spec, model.system_dim)) for spec in config.states
    )
    for _, rho in states:
        check_density(rho, config.tolerances)
    return Experiment(config=config, model=model, protocol=protocol, n_max=n_max, states=states)
