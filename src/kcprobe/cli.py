"""Command-line front end.

Commands
--------
run <config>      execute the configured checks and write a report bundle
sweep <config>    tabulate defects and witnesses against a parameter grid
oracle <config>   cross-validate sequence statistics along the naive route
search <config>   seeded searches (degenerate-effect or inequality-violation)

Exit codes: 0 success (and expectations, if any, matched), 1 an expectation
was not met, 2 configuration or usage error (including invalid tolerances,
config numbers and config objects), 3 numerical fault (including an oracle
disagreement), 4 internal error.  Reports are deterministic for a fixed
config; wall-clock timings go to a separate file so the report bundle stays
byte-stable.  A command writes all of its output files or none.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .algebra import _commutator_norms, algebra_report, zero_entanglement_condition
from .config import SCHEMA_VERSION, Experiment, build_experiment, load_run_config
from .errors import ConfigError, InvariantViolation, KCProbeError, NumericalFault
from . import sequences
from .model import (
    DephasingModel,
    MeasurementProtocol,
    MeterBasis,
    PreparationState,
    _Grid,
    _grids,
    _qubit,
    xy_meter_basis,
)
from .oracle import OracleReport, _oracle_reports
from .scenarios import (
    ScenarioSpec,
    build_scenario,
    counterexample_search,
    degenerate_qubit_instance,
)
from .sequences import check_kc_all
from .serialize import fingerprint, protocol_payload, write_json
from .witnesses import _axis_deltas, _lg, _witness_report, lg_violation_search

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

# Most points a `start:stop:num` grid may ask for, checked before any is made.
MAX_GRID_POINTS = 10**5


def _parse_tol_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--tol expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            overrides[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--tol value for {name!r} is not a number: {value!r}") from exc
    return overrides


def _parse_grid(spec: str) -> list[float]:
    spec = spec.strip()
    if not spec:
        return []
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ConfigError(f"grid range must be start:stop:num, got {spec!r}")
            start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
            if not 0 <= num <= MAX_GRID_POINTS:
                raise ConfigError(f"grid point count {num} not in 0..{MAX_GRID_POINTS}")
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite points fail below
                values = [float(x) for x in np.linspace(start, stop, num)]
        else:
            values = [float(x) for x in spec.split(",")]
    except ValueError as exc:
        raise ConfigError(f"malformed --grid {spec!r}: {exc}") from exc
    if not all(math.isfinite(x) for x in values):
        raise ConfigError(f"--grid {spec!r} has a non-finite value")
    return values


def _write_outputs(args, config, writers: dict) -> None:
    """Write ``{file name: write(path)}`` into ``--out``, else ``output.dir``,
    else ``kcprobe-out``.  Every file goes to a temporary name first and all
    are renamed into place only once each is written; an ``OSError`` is a
    config error."""
    out_dir = Path(args.out or config.output_dir or "kcprobe-out")
    staged = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, write in writers.items():
            staged.append((out_dir / f".{name}.{os.getpid()}.tmp", out_dir / name))
            write(staged[-1][0])
        for tmp, path in staged:
            tmp.replace(path)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _header(config) -> dict:
    """The fields that ``report.json``, ``oracle.json`` and ``search.json`` share."""
    return {"schema_version": SCHEMA_VERSION, "config_fingerprint": fingerprint(config.raw)}


def _oracle_rows(experiment: Experiment) -> list[dict]:
    """One oracle report per state, from one operator gate for all of them.  A
    non-finite discrepancy disagrees and has no JSON form, so it is a
    numerical fault and no bundle is written."""
    states = [rho for _, rho in experiment.states]
    reports = _oracle_reports(experiment.protocol, states, experiment.n_max, experiment.config.tolerances)
    rows = []
    for (name, _), report in zip(experiment.states, reports):
        row = {"state": name, **report.to_dict()}
        if not all(math.isfinite(row[key]) for key in OracleReport.GATED if row[key] is not None):
            raise NumericalFault(f"oracle disagrees for state {name!r}: a discrepancy is not finite")
        rows.append(row)
    return rows


def _witness_steps(model: DephasingModel, step_times=None) -> int:
    """Steps of each protocol that :func:`_witness_protocols` builds for ``model``."""
    _qubit(model.probe_dim)
    return 3 if step_times is None else len(step_times)


def _witness_bases(model: DephasingModel, step_times=None) -> dict[str, tuple[MeterBasis, ...]]:
    """``{"X": (X, ..., X), "Y": (Y, ..., Y)}``, the step bases of the protocols
    the witnesses read: :func:`_witness_steps` steps each."""
    n = _witness_steps(model, step_times)
    return {axis: (xy_meter_basis(axis),) * n for axis in "XY"}


def _witness_protocols(
    model: DephasingModel, preparation: PreparationState, step_times=None
) -> dict[str, MeasurementProtocol]:
    """``{"X": X...X, "Y": Y...Y}``, the protocols the witnesses read: each prepared
    in ``preparation``, with the steps of :func:`_witness_bases` at ``step_times``
    (the model's step time if None).  Δ21, Δ32 and the LG check (on X) read their prefixes."""
    return {
        axis: MeasurementProtocol(model, preparation, bases, step_times)
        for axis, bases in _witness_bases(model, step_times).items()
    }


def _delta_names(steps: int) -> dict[str, tuple[int, str]]:
    """``{name: (n, axis)}`` of Δ21 (``n = 2``) and Δ32 (``n = 3``) on X and Y
    protocols of ``steps`` steps, in column order: ``delta_x_21``, ``delta_y_21``, ..."""
    # Δ21 raises on fewer than two steps
    ns = (2, 3) if steps >= 3 else (2,)
    return {f"delta_{a.lower()}_{n}{n - 1}": (n, a) for n in ns for a in "XY"}


def _delta_columns(by_axis: dict, states: list, tol) -> dict:
    """``{name: (n, axis, values, tensor)}`` of the columns of :func:`_delta_names`
    for every validated state, one scan per axis protocol, or per axis grid of
    protocols (:class:`~kcprobe.model._Grid`), whose point leads each array."""
    names = _delta_names(by_axis["X"].n_steps)
    ns = sorted({n for n, _ in names.values()})
    read = {a: dict(zip(ns, _axis_deltas(p, states, ns, tol, "XY"))) for a, p in by_axis.items()}
    return {name: (n, a, *read[a][n]) for name, (n, a) in names.items()}


def _witness_rows(experiment: Experiment) -> list[dict]:
    tol = experiment.config.tolerances
    configured = experiment.protocol
    by_axis = _witness_protocols(configured.model, configured.preparation, configured.step_times)
    columns = _delta_columns(by_axis, [rho for _, rho in experiment.states], tol)
    rows = [{"state": state} for state, _ in experiment.states]
    for name, (n, axis, values, _) in columns.items():
        # one protocol and fingerprint per column, shared by its states
        kind = f"delta{n}{n - 1}_{axis.lower()}"
        model_fingerprint = fingerprint(protocol_payload(by_axis[axis].prefix(n)))
        for entry, value in zip(rows, values):
            report = _witness_report(kind, value, model_fingerprint, {"state": entry["state"]}, tol)
            entry[name] = report.to_dict()
    # the LG check reads the X protocol's Δ21 tensor
    for entry, (_, rho), defects in zip(rows, experiment.states, columns["delta_x_21"][3]):
        entry["lg"] = _lg(by_axis["X"], rho, float(defects[0]), tol).to_dict()
    return rows


def _entanglement_rows(experiment: Experiment) -> list[dict]:
    rows = []
    for state_name, rho in experiment.states:
        ok, diag = zero_entanglement_condition(rho, experiment.model, experiment.config.tolerances)
        rows.append({"state": state_name, "zero_entanglement": ok, "diagnostics": diag})
    return rows


def _witnesses_fired(rows: list[dict]) -> bool:
    return any(
        value.get("verdict") == "nonzero" or value.get("lg_satisfied") is False
        for row in rows
        for value in row.values()
        if isinstance(value, dict)
    )


class _Check(NamedTuple):
    run: Callable[[Experiment], object]  # the check's result, as written to report.json
    summary: Callable[[object], str]  # that result's one-word outcome


# The checks of `kcprobe run`, in one place: config `checks` names one of these.
_CHECKS = {
    "kc": _Check(
        lambda e: check_kc_all(
            e.protocol, e.n_max, [rho for _, rho in e.states], e.config.tolerances
        ).to_dict(),
        lambda report: report["verdict"],
    ),
    "witnesses": _Check(
        _witness_rows, lambda rows: "nonzero" if _witnesses_fired(rows) else "zero"
    ),
    "algebra": _Check(
        lambda e: algebra_report(e.model, e.protocol, e.config.tolerances).to_dict(),
        lambda report: "commutative" if report["commutative"] else "noncommutative",
    ),
    "entanglement": _Check(
        _entanglement_rows,
        lambda rows: "zero" if all(row["zero_entanglement"] for row in rows) else "nonzero",
    ),
    "oracle": _Check(
        _oracle_rows, lambda rows: "agrees" if all(row["agrees"] for row in rows) else "disagrees"
    ),
}


# Config `expect` names one of these: (the check it reads, its value in that
# check's result).  Rows are evaluated in this order.
_EXPECTATIONS = {
    "kc_verdict": ("kc", lambda report: report["verdict"]),
    "commutative": ("algebra", lambda report: report["commutative"]),
    "lg_satisfied": ("witnesses", lambda rows: rows[0]["lg"]["lg_satisfied"]),
}


def _cmd_run(args, config) -> int:
    experiment = build_experiment(config)
    # the configured checks, then each check an expectation reads that they omit
    expected_checks = [check for name, (check, _) in _EXPECTATIONS.items() if name in config.expect]
    results, timings = {}, {}
    for check in dict.fromkeys([*config.checks, *expected_checks]):
        started = time.perf_counter()
        results[check] = _CHECKS[check].run(experiment)
        timings[check] = time.perf_counter() - started
    expectations = []
    for name, (check, read) in _EXPECTATIONS.items():
        if name in config.expect:
            row = {"name": name, "expected": config.expect[name], "actual": read(results[check])}
            expectations.append({**row, "matched": row["expected"] == row["actual"]})
    bundle = {
        **_header(config),
        "config": config.raw,
        "results": results,
        "summary": {check: _CHECKS[check].summary(result) for check, result in results.items()},
        "expectations": expectations,
        "tolerances": config.tolerances.as_dict(),
    }
    outputs = {
        "report.json": lambda path: write_json(path, bundle),
        "timings.json": lambda path: write_json(path, {"seconds": timings}),
    }
    _write_outputs(args, config, outputs)
    for row in expectations:
        if not row["matched"]:
            print(
                f"expectation {row['name']}: expected {row['expected']}, got {row['actual']}",
                file=sys.stderr,
            )
    if _oracle_disagrees(results.get("oracle", ())):
        return EXIT_NUMERICAL
    if any(not row["matched"] for row in expectations):
        return EXIT_EXPECTATION
    return EXIT_OK


def _oracle_disagrees(rows) -> bool:
    """Report oracle rows with ``agrees: false`` on stderr; True if there are any."""
    disagreeing = [row["state"] for row in rows if not row["agrees"]]
    if disagreeing:
        print(f"numerical fault: oracle disagrees for state(s) {disagreeing}", file=sys.stderr)
    return bool(disagreeing)


def _sweep_model(experiment: Experiment, param: str, value: float):
    """The model at ``value`` of ``param``: the step time ``t`` or the nv
    scenario's ``omega``, which :func:`_cmd_sweep` has checked."""
    if param == "t":
        return experiment.model.with_step_time(value)
    scenario = experiment.config.scenario
    return build_scenario(ScenarioSpec("nv", scenario.seed, {**scenario.params, "omega": value}))


# Bytes of the objects that a sweep point keeps while its chunk is swept,
# whatever ``d``: its model, its task and its row (``tracemalloc`` saw about
# 2 KiB a point at d = 2).
SWEEP_POINT_OVERHEAD_BYTES = 2 * 2**10


def _sweep_points(system_dim: int) -> int:
    """How many grid points one sweep chunk holds: what a point keeps while
    its chunk is swept fills at most ``PREFIX_BLOCK_BYTES`` (the block-fit
    rule :func:`~kcprobe.sequences._fit`); at least one point.  A point keeps
    the Kraus operators and effects of its X and Y cycles, ``64 d_P d**2``
    bytes, and :data:`SWEEP_POINT_OVERHEAD_BYTES`; besides, first its
    conditional unitaries, ``16 d_P d**2`` bytes, which
    :func:`~kcprobe.model._grids` frees once the cycles are built, then what
    the two cycles keep once scanned
    (:func:`~kcprobe.sequences._kept_bytes`): up to the transfer cut their
    first suffix effects, ``16 d_P d**2`` bytes, so ``80 d_P d**2`` in all
    still holds, and their transfers, ``16 d_P d**4`` bytes.  The chunk's
    scans count its points against their own blocks."""
    d_p, d = 2, system_dim
    kept = max(16 * d_p * d**2, 2 * sequences._kept_bytes(d_p, d))  # the unitaries are freed before the scans
    return sequences._fit(64 * d_p * d**2 + kept + SWEEP_POINT_OVERHEAD_BYTES)


def _sweep_grids(experiment: Experiment, param: str, values) -> dict[str, _Grid]:
    """The witness protocols (:func:`_witness_bases`) of the models at
    ``values`` of ``param``, as one grid per axis from one stacked build.  A
    value that breaks an invariant is a config error, as in the config, and
    the first such point names it, as building the points one by one would."""
    bases = _witness_bases(experiment.model)
    preparation = experiment.protocol.preparation
    models = []
    try:
        for value in values:
            try:
                models.append(_sweep_model(experiment, param, value))
            except InvariantViolation:
                if models:  # the points before it raise their own violation first
                    _grids(models, preparation, bases)
                raise
        return _grids(models, preparation, bases)
    except InvariantViolation as exc:
        raise ConfigError(str(exc)) from exc


def _sweep_chunk(experiment: Experiment, param: str, values: list, pool) -> list[list[str]]:
    """The ``sweep.csv`` rows of the grid points ``values``, each the
    ``repr`` of its columns in the header's order (the value,
    ``max_kc_defect``, the columns of :func:`_delta_names`,
    ``commutator_norm``).  One stacked build and one batched witness scan per
    axis for the whole chunk run on this thread (the scans read the first
    configured state only), and one stacked read of every point's largest
    generator commutator norm (:func:`~kcprobe.algebra._commutator_norms`,
    bit for bit :func:`~kcprobe.algebra.is_commutative`'s); then each row
    is one task on ``pool``, whose X and Y protocols, assembled from the
    stacks, each get one KC scan, with no state, for ``max_kc_defect``, and
    which formats its own row."""
    tol = experiment.config.tolerances
    n_max = max(2, min(experiment.n_max, 3))
    grids = _sweep_grids(experiment, param, values)
    rho = experiment.states[0][1]  # validated once by build_experiment
    deltas = [column[2][:, 0] for column in _delta_columns(grids, [rho], tol).values()]
    models = next(iter(grids.values())).models
    norms = _commutator_norms(np.array([m.hamiltonians for m in models])).max(axis=-1, initial=0.0)

    def row(g: int) -> list[str]:
        protocols = [grid.protocol(g) for grid in grids.values()]
        kc = max(check_kc_all(p, n_max, tol=tol).max_operator_defect for p in protocols)
        return [repr(float(x)) for x in (values[g], kc, *(column[g] for column in deltas), norms[g])]

    return list(pool.map(row, range(len(values))))


def _cmd_sweep(args, config) -> int:
    experiment = build_experiment(config)
    if config.scenario.kind == "classical_noise":
        raise ConfigError("sweep is not defined for the classical_noise scenario")
    grid = _parse_grid(args.grid)
    if args.param == "omega" and config.scenario.kind != "nv":
        raise ConfigError("parameter 'omega' is only defined for the nv scenario")
    # every grid's columns, an empty one's too; a row's witness steps do not depend on its value
    deltas = _delta_names(_witness_steps(experiment.model))
    header = [args.param, "max_kc_defect", *deltas, "commutator_norm"]
    # chunks sized before any is built; one worker, since more were no faster,
    # and perfbench counts one executor task per row
    points = _sweep_points(experiment.model.system_dim)
    rows = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        for start in range(0, len(grid), points):
            rows += _sweep_chunk(experiment, args.param, grid[start : start + points], pool)

    def write_csv(path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    _write_outputs(args, config, {"sweep.csv": write_csv})
    return EXIT_OK


def _cmd_oracle(args, config) -> int:
    rows = _oracle_rows(build_experiment(config))
    document = {**_header(config), "reports": rows}
    _write_outputs(args, config, {"oracle.json": lambda path: write_json(path, document)})
    worst = max(row[key] for row in rows for key in OracleReport.GATED if row[key] is not None)
    print(f"oracle max discrepancy: {worst:.3e}")
    return EXIT_NUMERICAL if _oracle_disagrees(rows) else EXIT_OK


# The config blocks, scenario fields and `search` fields that each search
# mode does not read.
_UNREAD_BLOCKS = {"protocol", "states", "checks", "expect"}
_SEARCH_UNREAD = {
    "degenerate": _UNREAD_BLOCKS | {"commuting", "scale", "step_time"},
    "lg": _UNREAD_BLOCKS
    | {"probe_dim", "system_dim", "commuting", "scale", "step_time"}  # scenario
    | {"t_grid", "include_canonical"},  # search
}


def _cmd_search(args, config) -> int:
    if config.scenario.kind != "random":  # both modes draw random models of their own
        raise ConfigError(f"search needs the random scenario, not {config.scenario.kind!r}")
    search = config.search
    trials = int(search.get("trials", 100))
    mode = search.get("mode", "degenerate")
    named = [*config.raw, *config.scenario.params, *search]
    unread = sorted(_SEARCH_UNREAD[mode].intersection(named))
    if unread:
        raise ConfigError(f"search mode {mode!r} does not read {unread}")
    if mode == "lg":
        found = lg_violation_search(config.scenario.seed, trials, tol=config.tolerances)
    else:
        include = []
        if search.get("include_canonical", False):
            include.append((degenerate_qubit_instance(), "X"))
        t_grid = tuple(search.get("t_grid", (float(np.pi / 2),)))
        params = config.scenario.params
        try:  # a t_grid time that breaks an invariant is a config error, as a step_time is
            found = counterexample_search(
                config.scenario.seed,
                trials,
                int(params.get("probe_dim", 2)),
                int(params.get("system_dim", 2)),
                t_grid,
                include=include,
                tol=config.tolerances,
            )
        except InvariantViolation as exc:
            raise ConfigError(str(exc)) from exc
    document = {**_header(config), "mode": mode, "findings": [f.to_dict() for f in found]}
    _write_outputs(args, config, {"search.json": lambda path: write_json(path, document)})
    print(f"search findings: {len(found)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcprobe",
        description="Consistency checks and noncommutativity witnesses for dephasing-probe measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("run", _cmd_run),
        ("sweep", _cmd_sweep),
        ("oracle", _cmd_oracle),
        ("search", _cmd_search),
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="path to a JSON run configuration")
        cmd.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        cmd.add_argument(
            "--tol", action="append", metavar="NAME=VALUE", help="override one tolerance"
        )
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.set_defaults(handler=fn)
        if name == "sweep":
            cmd.add_argument("--param", required=True, choices=("t", "omega"))
            cmd.add_argument(
                "--grid",
                required=True,
                help="comma-separated values or start:stop:num",
            )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing reads it and leaves it as it
    was (each call gets a new namespace and its own ``--tol`` list), so it
    is built once, not once per command."""
    return build_parser()


def _joined_grid(argv: list[str]) -> list[str]:
    """Write ``--grid VALUE`` as ``--grid=VALUE``, so that argparse does not
    take a value such as ``-1,0`` for an option."""
    while "--grid" in argv[:-1]:
        i = argv.index("--grid")
        argv[i : i + 2] = [f"--grid={argv[i + 1]}"]
    return argv


def main(argv=None) -> int:
    args = _parser().parse_args(_joined_grid(list(sys.argv[1:] if argv is None else argv)))
    try:
        config = load_run_config(args.config, _parse_tol_overrides(args.tol), args.seed)
        return args.handler(args, config)
    except (NumericalFault, InvariantViolation, np.linalg.LinAlgError) as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except KCProbeError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
