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
import math
import os
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .algebra import algebra_report, is_commutative, zero_entanglement_condition
from .config import SCHEMA_VERSION, Experiment, build_experiment, load_run_config
from .errors import (
    CapacityError,
    ConfigError,
    InvariantViolation,
    KCProbeError,
    NumericalFault,
)
from .linalg import commutator, frobenius
from .model import DephasingModel, MeasurementProtocol, qubit_xy_protocol
from .oracle import oracle_compare
from .scenarios import (
    ScenarioSpec,
    build_scenario,
    counterexample_search,
    degenerate_qubit_instance,
)
from .sequences import check_kc_all
from .serialize import fingerprint, write_json
from .witnesses import (
    _axis_delta,
    delta_2_1,
    delta_3_2,
    lg_check,
    lg_violation_search,
    witness_report,
)

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4


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
            if num < 0:
                raise ConfigError(f"grid point count must not be negative, got {num}")
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
    tol = experiment.config.tolerances
    return [
        {"state": name, **oracle_compare(experiment.protocol, rho, experiment.n_max, tol).to_dict()}
        for name, rho in experiment.states
    ]


def _witness_protocols(
    model: DephasingModel, protocol: MeasurementProtocol | None = None
) -> tuple[dict[str, MeasurementProtocol], MeasurementProtocol]:
    """The protocols the witnesses read: ``{axis: protocol}`` and the LG check's.

    A protocol with its own step times is read as it is.  Otherwise one
    3-step protocol is built per axis, and Δ21, Δ32 and the LG check (on
    ``XXX``) read its prefixes.  The LG check needs X steps; if the given
    protocol has none, it reads ``XX`` at the model's step time.
    """
    if model.probe_dim != 2:
        raise ConfigError("witnesses need a qubit probe")
    if protocol is not None and protocol.step_times is not None:
        by_axis = {protocol.axes[0]: protocol}
    else:
        by_axis = {axis: qubit_xy_protocol(model, axis * 3) for axis in "XY"}
    return by_axis, by_axis.get("X") or qubit_xy_protocol(model, "XX")


def _witness_rows(experiment: Experiment) -> list[dict]:
    tol = experiment.config.tolerances
    by_axis, lg_protocol = _witness_protocols(experiment.model, experiment.protocol)
    rows = []
    for state_name, rho in experiment.states:
        entry: dict = {"state": state_name}
        for axis, protocol in by_axis.items():
            axis = axis.lower()
            for n, witness in ((2, delta_2_1), (3, delta_3_2)):
                if n > max(protocol.n_steps, 2):
                    break  # Δ32 needs three steps; Δ21 raises on fewer than two
                value = witness(protocol, rho, tol)
                entry[f"delta_{axis}_{n}{n - 1}"] = witness_report(
                    f"delta{n}{n - 1}_{axis}", value, protocol.prefix(n), {"state": state_name}, tol
                ).to_dict()
        entry["lg"] = lg_check(lg_protocol, rho, tol).to_dict()
        rows.append(entry)
    return rows


def _run_checks(experiment: Experiment) -> tuple[dict, dict]:
    config = experiment.config
    tol = config.tolerances
    results: dict = {}
    timings: dict = {}
    for check in config.checks:
        started = time.perf_counter()
        if check == "kc":
            rhos = [rho for _, rho in experiment.states]
            report = check_kc_all(experiment.protocol, experiment.n_max, rhos, tol)
            results["kc"] = report.to_dict()
        elif check == "witnesses":
            results["witnesses"] = _witness_rows(experiment)
        elif check == "algebra":
            results["algebra"] = algebra_report(experiment.model, experiment.protocol, tol).to_dict()
        elif check == "entanglement":
            rows = []
            for state_name, rho in experiment.states:
                ok, diag = zero_entanglement_condition(rho, experiment.model, tol)
                rows.append({"state": state_name, "zero_entanglement": ok, "diagnostics": diag})
            results["entanglement"] = rows
        elif check == "oracle":
            results["oracle"] = _oracle_rows(experiment)
        timings[check] = time.perf_counter() - started
    return results, timings


def _summarize(results: dict) -> dict:
    """One-word outcome per executed check."""
    summary = {}
    if "kc" in results:
        summary["kc"] = results["kc"]["verdict"]
    if "witnesses" in results:
        fired = any(
            value.get("verdict") == "nonzero" or value.get("lg_satisfied") is False
            for row in results["witnesses"]
            for value in row.values()
            if isinstance(value, dict)
        )
        summary["witnesses"] = "nonzero" if fired else "zero"
    if "algebra" in results:
        summary["algebra"] = "commutative" if results["algebra"]["commutative"] else "noncommutative"
    if "entanglement" in results:
        clean = all(row["zero_entanglement"] for row in results["entanglement"])
        summary["entanglement"] = "zero" if clean else "nonzero"
    if "oracle" in results:
        summary["oracle"] = "agrees" if all(r["agrees"] for r in results["oracle"]) else "disagrees"
    return summary


def _evaluate_expectations(experiment: Experiment, results: dict) -> list[dict]:
    expect = experiment.config.expect
    tol = experiment.config.tolerances
    rows = []
    if "kc_verdict" in expect:
        if "kc" in results:
            actual = results["kc"]["verdict"]
        else:
            actual = check_kc_all(experiment.protocol, experiment.n_max, tol=tol).verdict
        rows.append(
            {"name": "kc_verdict", "expected": expect["kc_verdict"], "actual": actual}
        )
    if "commutative" in expect:
        actual, _ = is_commutative(experiment.model.hamiltonians, tol)
        rows.append({"name": "commutative", "expected": expect["commutative"], "actual": actual})
    if "lg_satisfied" in expect:
        if "witnesses" in results:
            actual = results["witnesses"][0]["lg"]["lg_satisfied"]
        else:
            _, lg_protocol = _witness_protocols(experiment.model, experiment.protocol)
            actual = lg_check(lg_protocol, experiment.states[0][1], tol).lg_satisfied
        rows.append({"name": "lg_satisfied", "expected": expect["lg_satisfied"], "actual": actual})
    for row in rows:
        row["matched"] = row["expected"] == row["actual"]
    return rows


def _cmd_run(args, config) -> int:
    experiment = build_experiment(config)
    results, timings = _run_checks(experiment)
    expectations = _evaluate_expectations(experiment, results)
    bundle = {
        **_header(config),
        "config": config.raw,
        "results": results,
        "summary": _summarize(results),
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
    scenario = experiment.config.scenario
    if param == "t":
        return experiment.model.with_step_time(value)
    if param == "omega":
        if scenario.kind != "nv":
            raise ConfigError("parameter 'omega' is only defined for the nv scenario")
        params = dict(scenario.params)
        params["omega"] = value
        return build_scenario(ScenarioSpec("nv", scenario.seed, params))
    raise ConfigError(f"unknown sweep parameter {param!r}")


def _sweep_row(experiment: Experiment, param: str, value: float) -> list:
    tol = experiment.config.tolerances
    try:  # a grid value that breaks an invariant is a config error, as in the config
        model = _sweep_model(experiment, param, value)
        protocols = _witness_protocols(model)[0].values()
    except InvariantViolation as exc:
        raise ConfigError(str(exc)) from exc
    rho = experiment.states[0][1]  # validated once, by build_experiment
    n_max = max(2, min(experiment.n_max, 3))
    defect = max(check_kc_all(p, n_max, tol=tol).max_operator_defect for p in protocols)
    comm = frobenius(commutator(model.hamiltonians[0], model.hamiltonians[1]))
    return [
        value,
        defect,
        *(_axis_delta(p, rho, n, tol) for n in (2, 3) for p in protocols),
        comm,
    ]


def _cmd_sweep(args, config) -> int:
    experiment = build_experiment(config)
    if config.scenario.kind == "classical_noise":
        raise ConfigError("sweep is not defined for the classical_noise scenario")
    grid = _parse_grid(args.grid)
    # one worker, since more were no faster; perfbench counts one executor task per row
    with ThreadPoolExecutor(max_workers=1) as pool:
        rows = list(pool.map(lambda v: _sweep_row(experiment, args.param, v), grid))
    header = [
        args.param,
        "max_kc_defect",
        "delta_x_21",
        "delta_y_21",
        "delta_x_32",
        "delta_y_32",
        "commutator_norm",
    ]

    def write_csv(path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(x)) for x in row])

    _write_outputs(args, config, {"sweep.csv": write_csv})
    return EXIT_OK


def _cmd_oracle(args, config) -> int:
    rows = _oracle_rows(build_experiment(config))
    document = {**_header(config), "reports": rows}
    _write_outputs(args, config, {"oracle.json": lambda path: write_json(path, document)})
    worst = max(row["max_abs_discrepancy"] for row in rows)
    print(f"oracle max discrepancy: {worst:.3e}")
    return EXIT_NUMERICAL if _oracle_disagrees(rows) else EXIT_OK


def _cmd_search(args, config) -> int:
    search = config.search
    trials = int(search.get("trials", 100))
    mode = search.get("mode", "degenerate")
    if mode == "lg":
        findings = [f.to_dict() for f in lg_violation_search(config.scenario.seed, trials, tol=config.tolerances)]
    else:
        include = []
        if search.get("include_canonical", False):
            include.append((degenerate_qubit_instance(), "X"))
        t_grid = tuple(search.get("t_grid", (float(np.pi / 2),)))
        params = config.scenario.params
        findings = [
            f.to_dict()
            for f in counterexample_search(
                config.scenario.seed,
                trials,
                int(params.get("probe_dim", 2)),
                int(params.get("system_dim", 2)),
                t_grid,
                include=include,
                commuting=bool(params.get("commuting", False)),
                tol=config.tolerances,
            )
        ]
    document = {**_header(config), "mode": mode, "findings": findings}
    _write_outputs(args, config, {"search.json": lambda path: write_json(path, document)})
    print(f"search findings: {len(findings)}")
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


def _joined_grid(argv: list[str]) -> list[str]:
    """Write ``--grid VALUE`` as ``--grid=VALUE``, so that argparse does not
    take a value such as ``-1,0`` for an option."""
    while "--grid" in argv[:-1]:
        i = argv.index("--grid")
        argv[i : i + 2] = [f"--grid={argv[i + 1]}"]
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_grid(list(sys.argv[1:] if argv is None else argv)))
    try:
        config = load_run_config(args.config, _parse_tol_overrides(args.tol), args.seed)
        return args.handler(args, config)
    except (NumericalFault, InvariantViolation, np.linalg.LinAlgError) as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KCProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
