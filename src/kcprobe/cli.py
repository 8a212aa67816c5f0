"""Command-line front end.

Commands
--------
run <config>      execute the configured checks and write a report bundle
sweep <config>    tabulate defects and witnesses against a parameter grid
oracle <config>   cross-validate sequence statistics along the naive route
search <config>   seeded searches (degenerate-effect or inequality-violation)

Exit codes: 0 success (and expectations, if any, matched), 1 an expectation
was not met, 2 configuration or usage error (including invalid tolerances and
non-finite config numbers), 3 numerical fault (including an oracle
disagreement).  Reports are deterministic for a fixed config; wall-clock
timings go to a separate file so the report bundle stays byte-stable.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
import time
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
from .model import qubit_xy_protocol
from .oracle import oracle_compare
from .scenarios import (
    ScenarioSpec,
    build_scenario,
    counterexample_search,
    degenerate_qubit_instance,
)
from .sequences import check_kc_all
from .serialize import fingerprint, write_json
from .witnesses import delta_2_1, delta_3_2, lg_check, lg_violation_search, witness_report

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


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


def _out_dir(args, config) -> Path:
    """The output directory, created if missing."""
    out_dir = Path(args.out or config.output_dir or "kcprobe-out")
    with _output_errors():
        out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


@contextlib.contextmanager
def _output_errors():
    """Turn a failure to create or write an output into a config error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def _witness_rows(experiment: Experiment) -> list[dict]:
    model = experiment.model
    protocol = experiment.protocol
    tol = experiment.config.tolerances
    if model.probe_dim != 2:
        raise ConfigError("witness checks need a qubit probe")
    if protocol.step_times is not None:
        # noise-style protocol: evaluate the witnesses on its own steps
        axis = protocol.axes[0]
        pairs = [(axis.lower(), protocol, protocol if protocol.n_steps >= 3 else None)]
    else:
        pairs = [
            ("x", qubit_xy_protocol(model, "XX"), qubit_xy_protocol(model, "XXX")),
            ("y", qubit_xy_protocol(model, "YY"), qubit_xy_protocol(model, "YYY")),
        ]
    lg_protocol = (
        protocol
        if protocol.step_times is not None and protocol.axes[0] == "X"
        else qubit_xy_protocol(model, "XX")
    )
    rows = []
    for state_name, rho in experiment.states:
        entry: dict = {"state": state_name}
        for axis, two, three in pairs:
            value = delta_2_1(two, rho, tol)
            entry[f"delta_{axis}_21"] = witness_report(
                f"delta21_{axis}", value, two, {"state": state_name}, tol
            ).to_dict()
            if three is not None:
                value = delta_3_2(three, rho, tol)
                entry[f"delta_{axis}_32"] = witness_report(
                    f"delta32_{axis}", value, three, {"state": state_name}, tol
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
            report = check_kc_all(experiment.protocol, experiment.n_max, rhos or None, tol)
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
            rows = []
            for state_name, rho in experiment.states:
                report = oracle_compare(experiment.protocol, rho, experiment.n_max, tol)
                rows.append({"state": state_name, **report.to_dict()})
            results["oracle"] = rows
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
        if experiment.model.probe_dim != 2:
            raise ConfigError("lg_satisfied expectation needs a qubit probe")
        protocol = (
            experiment.protocol
            if experiment.protocol.step_times is not None
            else qubit_xy_protocol(experiment.model, "XX")
        )
        rho = experiment.states[0][1]
        actual = lg_check(protocol, rho, tol).lg_satisfied
        rows.append({"name": "lg_satisfied", "expected": expect["lg_satisfied"], "actual": actual})
    for row in rows:
        row["matched"] = row["expected"] == row["actual"]
    return rows


def _cmd_run(args) -> int:
    config = load_run_config(args.config, _parse_tol_overrides(args.tol), args.seed)
    experiment = build_experiment(config)
    results, timings = _run_checks(experiment)
    expectations = _evaluate_expectations(experiment, results)
    out_dir = _out_dir(args, config)
    bundle = {
        "schema_version": SCHEMA_VERSION,
        "config": config.raw,
        "config_fingerprint": fingerprint(config.raw),
        "results": results,
        "summary": _summarize(results),
        "expectations": expectations,
        "tolerances": config.tolerances.as_dict(),
    }
    with _output_errors():
        write_json(out_dir / "report.json", bundle)
        write_json(out_dir / "timings.json", {"seconds": timings})
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
    model = _sweep_model(experiment, param, value)
    if model.probe_dim != 2:
        raise ConfigError("sweep witness columns need a qubit probe")
    rho = experiment.states[0][1]
    n_max = max(2, min(experiment.n_max, 3))
    defect = 0.0
    for axis in ("X", "Y"):
        protocol = qubit_xy_protocol(model, axis * n_max)
        defect = max(defect, check_kc_all(protocol, n_max, tol=tol).max_operator_defect)
    comm = frobenius(commutator(model.hamiltonians[0], model.hamiltonians[1]))
    return [
        value,
        defect,
        delta_2_1(qubit_xy_protocol(model, "XX"), rho, tol),
        delta_2_1(qubit_xy_protocol(model, "YY"), rho, tol),
        delta_3_2(qubit_xy_protocol(model, "XXX"), rho, tol),
        delta_3_2(qubit_xy_protocol(model, "YYY"), rho, tol),
        comm,
    ]


def _cmd_sweep(args) -> int:
    config = load_run_config(args.config, _parse_tol_overrides(args.tol), args.seed)
    experiment = build_experiment(config)
    if config.scenario.kind == "classical_noise":
        raise ConfigError("sweep is not defined for the classical_noise scenario")
    grid = _parse_grid(args.grid)
    out_dir = _out_dir(args, config)
    rows: list[list] = []
    if grid:
        workers = max(1, args.threads)
        with ThreadPoolExecutor(max_workers=workers) as pool:
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
    with _output_errors(), open(out_dir / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) for x in row])
    return EXIT_OK


def _cmd_oracle(args) -> int:
    config = load_run_config(args.config, _parse_tol_overrides(args.tol), args.seed)
    experiment = build_experiment(config)
    rows = []
    for state_name, rho in experiment.states:
        report = oracle_compare(
            experiment.protocol, rho, experiment.n_max, config.tolerances
        )
        rows.append({"state": state_name, **report.to_dict()})
    out_dir = _out_dir(args, config)
    with _output_errors():
        write_json(
            out_dir / "oracle.json",
            {
                "schema_version": SCHEMA_VERSION,
                "config_fingerprint": fingerprint(config.raw),
                "reports": rows,
            },
        )
    worst = max(row["max_abs_discrepancy"] for row in rows)
    print(f"oracle max discrepancy: {worst:.3e}")
    return EXIT_NUMERICAL if _oracle_disagrees(rows) else EXIT_OK


def _cmd_search(args) -> int:
    config = load_run_config(args.config, _parse_tol_overrides(args.tol), args.seed)
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
    out_dir = _out_dir(args, config)
    with _output_errors():
        write_json(
            out_dir / "search.json",
            {
                "schema_version": SCHEMA_VERSION,
                "config_fingerprint": fingerprint(config.raw),
                "mode": mode,
                "findings": findings,
            },
        )
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
        cmd.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
        cmd.set_defaults(handler=fn)
        if name == "sweep":
            cmd.add_argument("--param", required=True, choices=("t", "omega"))
            cmd.add_argument(
                "--grid",
                required=True,
                help="comma-separated values or start:stop:num",
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (NumericalFault, InvariantViolation) as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KCProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
