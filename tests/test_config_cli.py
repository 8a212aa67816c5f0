import contextlib
import copy
import csv
import dataclasses
import io
import itertools
import json
import tempfile
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kcprobe as kp
from kcprobe import cli
from kcprobe.cli import _parse_grid, main
from kcprobe.config import build_experiment, load_run_config, load_schema
from kcprobe.errors import ConfigError
from kcprobe.linalg import check_density
from kcprobe.oracle import OracleReport
from kcprobe.serialize import complex_pair, matrix_rows, pairs_vector, rows_matrix, write_json

from conftest import nan_chain, shifted_blocks, swapped_transfer, transposed_transfer


def write_config(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def sigma_pair_config(**extra):
    cfg = {
        "schema_version": 1,
        "scenario": {
            "kind": "explicit",
            "hamiltonians": [
                matrix_rows(kp.SIGMA_Z),
                matrix_rows(kp.SIGMA_X),
            ],
            "step_time": float(np.pi / 2),
        },
        "protocol": {"axes": ["Y", "Y"], "n_max": 2},
        "states": [
            {"name": "pure", "ket": [[2 ** -0.5, 0.0], [0.0, 2 ** -0.5]]},
            {"name": "maximally_mixed"},
        ],
        "checks": ["kc"],
    }
    cfg.update(extra)
    return cfg


# Tolerances that no command reads, or reads only at its default; the fields
# stay, but setting one is a config error.
INERT = (
    "closure",
    "effect_psd",
    "fixed_point",
    "kraus_effect",
    "povm_completeness",
    "rank",
    "spacing",
    "unitarity",
    "weight_sum",
)


class TestSerialize:
    def test_complex_round_trip(self):
        z = 1.25 - 0.5j
        assert kp.serialize.pair_complex(complex_pair(z)) == z

    def test_matrix_round_trip(self):
        m = np.array([[1.0, 1j], [-1j, 0.5]])
        assert np.array_equal(rows_matrix(matrix_rows(m)), m)

    def test_vector_parsing_rejects_garbage(self):
        with pytest.raises(ConfigError):
            pairs_vector([[1.0], [2.0]])

    def test_model_round_trips_through_config_format(self, tmp_path):
        model = kp.random_model(91, 2, 3, commuting=False, step_time=0.4)
        cfg = {
            "schema_version": 1,
            # the config-format scenario block that rebuilds this model exactly
            "scenario": {
                "kind": "explicit",
                "hamiltonians": [matrix_rows(h) for h in model.hamiltonians],
                "step_time": model.step_time,
            },
            "protocol": {"axes": ["X", "X"], "n_max": 2},
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        rebuilt = build_experiment(load_run_config(path)).model
        assert rebuilt.step_time == model.step_time
        for ha, hb in zip(model.hamiltonians, rebuilt.hamiltonians):
            assert np.array_equal(ha, hb)


class TestConfigLoading:
    def test_load_and_build(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", sigma_pair_config())
        config = load_run_config(path)
        experiment = build_experiment(config)
        assert experiment.model.probe_dim == 2
        assert experiment.protocol.axes == ("Y", "Y")
        assert experiment.states[0][0] == "pure"
        # the pure ket [1, i]/sqrt(2) is the +y state
        assert np.allclose(
            experiment.states[0][1], np.array([[0.5, -0.5j], [0.5j, 0.5]])
        )

    def test_schema_rejects_unknown_fields(self, tmp_path):
        cfg = sigma_pair_config()
        cfg["surprise"] = True
        path = write_config(tmp_path / "cfg.json", cfg)
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_packaged_schema_is_a_valid_schema(self):
        schema = load_schema()
        jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_schema_error_message_matches_jsonschema_validate(self, tmp_path):
        cfg = sigma_pair_config(surprise=True)
        cfg["protocol"]["n_max"] = "two"
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(cfg, load_schema())
        path = write_config(tmp_path / "cfg.json", cfg)
        for _ in range(2):  # the validator is built on the first load and reused after
            with pytest.raises(ConfigError) as got:
                load_run_config(path)
            assert str(got.value) == f"config does not match schema: {expected.value.message}"

    def test_tolerance_overrides(self, tmp_path):
        cfg = sigma_pair_config(tolerances={"kc": 1e-6})
        path = write_config(tmp_path / "cfg.json", cfg)
        config = load_run_config(path)
        assert config.tolerances.kc == 1e-6
        with pytest.raises(ConfigError):
            load_run_config(path, overrides={"nonsense": 1.0})

    @pytest.mark.parametrize("tol", [kp.DEFAULT, kp.DEFAULT.replace(kc=1e-6, enumeration_cap=7)])
    def test_tolerances_as_dict_is_a_fresh_asdict(self, tol):
        first = tol.as_dict()
        assert first == dataclasses.asdict(tol)
        assert list(first) == list(dataclasses.asdict(tol))
        assert tol.as_dict() is not first

    def test_each_report_echoes_tolerances_of_its_own(self):
        # as_dict's dict is built once per Tolerances, and each caller gets a copy
        protocol = kp.qubit_xy_protocol(kp.random_model(3, 2, 2, commuting=False), "XY")
        first, second = kp.check_kc_all(protocol, 2), kp.check_kc_all(protocol, 2)
        first.tolerances["kc"] = 1.0
        first.tolerances["extra"] = 2.0
        assert second.tolerances == kp.DEFAULT.as_dict() == dataclasses.asdict(kp.DEFAULT)
        assert kp.DEFAULT.as_dict()["kc"] == kp.DEFAULT.kc == 1e-9

    def test_a_replaced_tolerance_echoes_its_override(self):
        tol = kp.DEFAULT.replace(kc=1e-6, enumeration_cap=7.0)
        echoed = tol.as_dict()
        assert echoed == {**kp.DEFAULT.as_dict(), "kc": 1e-6, "enumeration_cap": 7}
        assert type(echoed["enumeration_cap"]) is int
        protocol = kp.qubit_xy_protocol(kp.random_model(3, 2, 2, commuting=False), "XY")
        assert kp.check_kc_all(protocol, 2, tol=tol).tolerances == echoed
        assert kp.DEFAULT.as_dict()["kc"] == 1e-9

    def test_random_scenario_seed_override(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": {"kind": "random", "seed": 3, "probe_dim": 2, "system_dim": 3},
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        base = build_experiment(load_run_config(path)).model
        overridden = build_experiment(load_run_config(path, seed=4)).model
        assert not np.allclose(base.hamiltonians[0], overridden.hamiltonians[0])

    def test_negative_seed_override_is_rejected(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", sigma_pair_config())
        with pytest.raises(ConfigError, match="--seed must be a non-negative integer, got -1"):
            load_run_config(path, seed=-1)

    def test_settable_tolerances_are_accepted_in_the_config_and_by_tol(self, tmp_path):
        settable = [f.name for f in dataclasses.fields(kp.Tolerances) if f.name not in INERT]
        assert len(settable) == 14
        values = {name: getattr(kp.DEFAULT, name) * 2 for name in settable}
        path = write_config(tmp_path / "cfg.json", sigma_pair_config(tolerances=values))
        assert load_run_config(path).tolerances == kp.DEFAULT.replace(**values)
        plain = write_config(tmp_path / "plain.json", sigma_pair_config())
        assert load_run_config(plain, overrides=values).tolerances == kp.DEFAULT.replace(**values)

    def test_schema_names_the_checks_and_expectations_the_cli_runs(self):
        properties = load_schema()["properties"]
        assert set(properties["checks"]["items"]["enum"]) == set(cli._CHECKS)
        assert set(properties["expect"]["properties"]) == set(cli._EXPECTATIONS)
        assert all(check in cli._CHECKS for check, _ in cli._EXPECTATIONS.values())


class TestRunCommand:
    def test_run_writes_reports_and_exit_zero(self, tmp_path):
        cfg = sigma_pair_config(
            checks=["kc", "witnesses", "algebra", "entanglement", "oracle"],
            expect={"kc_verdict": "violated", "commutative": False},
        )
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        bundle = json.loads((out / "report.json").read_text())
        assert bundle["results"]["kc"]["verdict"] == "violated"
        assert all(row["matched"] for row in bundle["expectations"])
        assert all(row["agrees"] for row in bundle["results"]["oracle"])
        # both conditional evolutions act identically on the +y state, so the
        # consistency violation here coexists with entanglement-free dephasing
        assert bundle["summary"] == {
            "kc": "violated",
            "witnesses": "nonzero",
            "algebra": "noncommutative",
            "entanglement": "zero",
            "oracle": "agrees",
        }
        assert (out / "timings.json").exists()

    def test_report_bundle_is_byte_stable(self, tmp_path):
        cfg = sigma_pair_config(checks=["kc", "algebra"])
        path = write_config(tmp_path / "cfg.json", cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(out1)]) == 0
        assert main(["run", path, "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_expectation_mismatch_exits_one(self, tmp_path):
        cfg = sigma_pair_config(expect={"kc_verdict": "consistent"})
        path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 1

    def test_malformed_config_exits_two_without_reports(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 2}')
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_no_expectations_exit_zero_with_verdict_in_bundle(self, tmp_path):
        cfg = sigma_pair_config()
        cfg.pop("expect", None)
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        bundle = json.loads((out / "report.json").read_text())
        assert bundle["results"]["kc"]["verdict"] == "violated"
        assert bundle["expectations"] == []

    def test_commuting_expectation_passes(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": {
                "kind": "random",
                "seed": 8,
                "probe_dim": 2,
                "system_dim": 3,
                "commuting": True,
            },
            "protocol": {"axes": ["X", "X"], "n_max": 2},
            "checks": ["kc"],
            "expect": {"kc_verdict": "consistent", "commutative": True},
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0

    def test_tol_flag_changes_verdict(self, tmp_path):
        # a huge consistency cut turns the violated verdict consistent
        cfg = sigma_pair_config()
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--tol", "kc=10"]) == 0
        bundle = json.loads((out / "report.json").read_text())
        assert bundle["results"]["kc"]["verdict"] == "consistent"

    @pytest.mark.parametrize("override", ["kc=nan", "kc=-1", "enumeration_cap=0"])
    def test_invalid_tolerance_exits_two_without_reports(self, tmp_path, override):
        path = write_config(tmp_path / "cfg.json", sigma_pair_config())
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--tol", override]) == 2
        assert not out.exists()

    def test_integral_float_enumeration_cap_is_accepted(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", sigma_pair_config())
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--tol", "enumeration_cap=1000"]) == 0
        bundle = json.loads((out / "report.json").read_text())
        assert type(bundle["tolerances"]["enumeration_cap"]) is int

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_config_number_exits_two(self, tmp_path, literal):
        step_time = f'"step_time": {np.pi / 2!r}'
        text = json.dumps(sigma_pair_config())
        assert step_time in text
        text = text.replace(step_time, f'"step_time": {literal}')
        path = tmp_path / "cfg.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert not out.exists()


PHASE_OVERFLOW = {
    "schema_version": 1,
    "scenario": {
        "kind": "random",
        "seed": 3,
        "probe_dim": 2,
        "system_dim": 2,
        "scale": 3.0,
        "step_time": 1e308,
    },
    "protocol": {"axes": ["X", "X", "X"], "n_max": 3},
    "checks": ["kc"],
}


def invalid_object_configs() -> dict:
    """Configs that pass the schema but describe an invalid model, protocol or state."""
    not_hermitian = sigma_pair_config()
    not_hermitian["scenario"]["hamiltonians"][0] = matrix_rows(np.array([[0, 1], [0, 0]]))
    overflowing_norm = sigma_pair_config()
    overflowing_norm["scenario"]["hamiltonians"][0][0][0] = [1.0, 1e308]
    return {
        "phase overflow": PHASE_OVERFLOW,
        "non-Hermitian Hamiltonian": not_hermitian,
        "Hamiltonian norm overflows": overflowing_norm,
        "preparation norm^2 4": sigma_pair_config(
            protocol={
                "meter_bases": [matrix_rows(np.eye(2)), matrix_rows(np.eye(2))],
                "preparation": [[2.0, 0.0], [0.0, 0.0]],
            }
        ),
        "non-orthonormal meter basis": sigma_pair_config(
            protocol={"meter_bases": [matrix_rows(np.ones((2, 2))), matrix_rows(np.eye(2))]}
        ),
        "overflowing ket": sigma_pair_config(
            states=[{"name": "pure", "ket": [[1e308, 0.0], [1e308, 0.0]]}]
        ),
    }


@pytest.mark.parametrize("name", list(invalid_object_configs()))
def test_invalid_config_object_exits_two_without_outputs(tmp_path, capsys, name):
    path = write_config(tmp_path / "cfg.json", invalid_object_configs()[name])
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SIGMA_PAIR_Y = CONFIGS / "sigma_pair_y.json"


@pytest.mark.parametrize("step_time, code", [(1e308, 2), (1e6, 2), (1e5, 0)])
def test_phase_beyond_double_precision_is_a_config_error(tmp_path, capsys, step_time, code):
    cfg = json.loads(SIGMA_PAIR_Y.read_text())
    cfg["scenario"]["step_time"] = step_time
    path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()
    else:
        assert err == "" and (out / "report.json").exists()


@pytest.mark.parametrize(
    "command, config, seed",
    [("search", "search_degenerate.json", "-5"), ("run", "commuting_random.json", "-1")],
)
def test_negative_seed_is_a_config_error(tmp_path, capsys, command, config, seed):
    out = tmp_path / "out"
    assert main([command, str(CONFIGS / config), "--seed", seed, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --seed must be a non-negative integer, got {seed}\n"
    assert not out.exists()


def test_empty_commutant_is_a_numerical_fault(tmp_path, capsys):
    # its Hamiltonians round the commutant's null space to values above 1e-17
    out = tmp_path / "out"
    config = CONFIGS / "commuting_random.json"
    argv = ["run", str(config), "--tol", "nullspace=1e-17", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical fault: empty commutant") and err.count("\n") == 1
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("name", INERT)
@pytest.mark.parametrize("route", ["config", "--tol"])
def test_inert_tolerance_is_a_config_error(tmp_path, capsys, name, route):
    cfg = json.loads(SIGMA_PAIR_Y.read_text())
    argv = []
    if route == "config":
        cfg["tolerances"] = {name: 1e-30}
    else:
        argv = ["--tol", f"{name}=1e-30"]
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path / "cfg.json", cfg), *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: tolerance(s) ['{name}'] cannot be set: no check reads them\n"
    assert not out.exists()


def test_every_exit_two_error_has_the_config_error_prefix(tmp_path, capsys):
    cfg = {"schema_version": 1, "scenario": {"kind": "random", "system_dim": 1}}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: system dimension 1 not in 2..16\n"
    assert not out.exists()


@pytest.mark.parametrize("fourier_steps, code", [(2, 2), (4, 0)])
def test_fourier_steps_below_n_max_is_a_config_error(tmp_path, capsys, fourier_steps, code):
    cfg = {
        "schema_version": 1,
        "scenario": {"kind": "random", "seed": 1, "probe_dim": 3},
        "protocol": {"fourier_steps": fourier_steps, "n_max": 4},
    }
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err == "config error: n_max = 4 not in 1..2\n"
        assert not out.exists()
    else:
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["kc"]["n_max"] == 4


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_witnesses_keep_to_the_enumeration_cap(tmp_path, capsys, command):
    # Δ32 reads the 2^3 sequences of three steps; the sweep's KC scan needs only 2^2
    cfg = json.loads((CONFIGS / "nv_sweep.json").read_text())
    cfg["checks"] = ["witnesses"]
    argv = [command, write_config(tmp_path / "cfg.json", cfg)]
    if command == "sweep":
        argv += ["--param", "t", "--grid", "1,2"]
    out = tmp_path / "out"
    assert main([*argv, "--tol", "enumeration_cap=4", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: 2^3 = 8 sequences exceeds cap 4\n"
    assert not out.exists()


class TestExitCodes:
    @pytest.fixture
    def run_raising(self, tmp_path, monkeypatch, capsys):
        def run(exc):
            def raising(*args, **kwargs):
                raise exc

            monkeypatch.setattr("kcprobe.cli.check_kc_all", raising)
            path = write_config(tmp_path / "cfg.json", sigma_pair_config())
            code = main(["run", path, "--out", str(tmp_path / "out")])
            return code, capsys.readouterr().err

        return run

    def test_linalg_error_is_a_numerical_fault(self, run_raising):
        code, err = run_raising(np.linalg.LinAlgError("Eigenvalues did not converge"))
        assert code == 3
        assert err == "numerical fault: Eigenvalues did not converge\n"

    def test_any_other_exception_is_an_internal_error_with_its_traceback(self, run_raising):
        code, err = run_raising(RuntimeError("unexpected"))
        assert code == 4
        assert err.startswith("Traceback") and err.endswith("RuntimeError: unexpected\n")


class TestParser:
    """``main`` parses every call with one parser per process."""

    def test_the_parser_is_built_once(self, tmp_path, monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            path = write_config(tmp_path / "cfg.json", sigma_pair_config())
            for k in range(3):
                assert main(["run", path, "--out", str(tmp_path / f"out{k}")]) == 0
            assert built == [1]
        finally:
            cli._parser.cache_clear()

    def test_no_option_reaches_the_next_call(self, tmp_path, capsys):
        # --tol, --seed and --param of one call are not defaults of the next
        path = str(CONFIGS / "commuting_random.json")
        reports = {}
        for name, extra in [("plain", []), ("overridden", ["--tol", "kc=1e-6", "--seed", "5"]), ("again", [])]:
            assert main(["run", path, *extra, "--out", str(tmp_path / name)]) == 0
            reports[name] = (tmp_path / name / "report.json").read_bytes()
        assert reports["again"] == reports["plain"] != reports["overridden"]
        assert json.loads(reports["overridden"])["tolerances"]["kc"] == 1e-6
        assert json.loads(reports["again"])["tolerances"]["kc"] == kp.DEFAULT.kc
        nv = str(CONFIGS / "nv_sweep.json")
        assert main(["sweep", nv, "--param", "omega", "--grid", "0.5", "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as missing:
            main(["sweep", nv, "--grid", "0.5", "--out", str(tmp_path / "t")])
        assert missing.value.code == 2
        assert "--param" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("argv", [[], ["run"], ["sweep", "cfg.json"], ["run", "cfg.json", "--seed", "x"], ["fly"]])
    def test_a_bad_argv_exits_two_every_time(self, tmp_path, capsys, argv):
        path = write_config(tmp_path / "cfg.json", sigma_pair_config())
        for _ in range(2):
            with pytest.raises(SystemExit) as bad:
                main(argv)
            assert bad.value.code == 2
            assert capsys.readouterr().err.startswith("usage: kcprobe")
            assert main(["run", path, "--out", str(tmp_path / "out")]) == 0


FUZZ_BASE = sigma_pair_config(checks=["kc", "witnesses", "algebra", "entanglement", "oracle"])


def _paths(node, prefix=()):
    """Every path below ``node``: ``(path, is_leaf)``, depth first."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        path = prefix + (key,)
        is_leaf = not isinstance(child, (dict, list))
        yield path, is_leaf
        if not is_leaf:
            yield from _paths(child, path)


FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.sampled_from([0.0, 1e308, -1e308, 1e-320]),
    st.text(max_size=4),
    st.just([]),
    st.sampled_from(["random", "nv", "classical_noise", "explicit", "X", "Y"]),
)


def fuzz_edits(base):
    """One edit of ``base``: a leaf replaced by a fuzz value, or a key deleted."""
    leaves = [path for path, is_leaf in _paths(base) if is_leaf]
    keys = [path for path, _ in _paths(base) if isinstance(path[-1], str)]
    return st.one_of(
        st.tuples(st.just("replace"), st.sampled_from(leaves), FUZZ_VALUES),
        st.tuples(st.just("delete"), st.sampled_from(keys), st.none()),
    )


def _refuse_constant(name):
    raise ValueError(f"report.json holds the non-JSON number {name}")


def read_report(path) -> dict:
    """A written ``report.json``, parsed as strict JSON (no NaN or Infinity)."""
    return json.loads(Path(path).read_text(), parse_constant=_refuse_constant)


def run_fuzzed(command: str, base: dict, edit, outputs: list[str]) -> int:
    """Run ``command`` on ``base`` with ``edit`` applied and return its exit
    code, which must be documented; the command must print no traceback and
    write ``outputs`` whole (the first one strict JSON) or nothing."""
    action, path, value = edit
    cfg = copy.deepcopy(base)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if action == "replace":
        parent[path[-1]] = value
    else:
        del parent[path[-1]]
    with tempfile.TemporaryDirectory() as tmp:
        config_path = write_config(Path(tmp) / "cfg.json", cfg)
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, config_path, "--out", str(out)])
        assert code in {0, 1, 2, 3}, err.getvalue()
        assert "Traceback" not in err.getvalue()
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert written in ([], outputs)
        if written:
            read_report(out / outputs[0])
    return code


@settings(max_examples=50, deadline=None)
@given(fuzz_edits(FUZZ_BASE))
@example(("replace", ("protocol", "n_max"), 1e308))
def test_fuzzed_config_exits_with_a_documented_code_and_a_whole_bundle(edit):
    run_fuzzed("run", FUZZ_BASE, edit, ["report.json", "timings.json"])


SEARCH_FUZZ_BASE = {
    "schema_version": 1,
    "scenario": {"kind": "random", "seed": 11, "probe_dim": 2, "system_dim": 2},
    "search": {"trials": 3, "t_grid": [0.5, 1.5], "include_canonical": True, "mode": "degenerate"},
}


@settings(max_examples=30, deadline=None)
@given(fuzz_edits(SEARCH_FUZZ_BASE))
@example(("replace", ("search", "trials"), 1e308))
@example(("replace", ("search", "t_grid", 0), 1e300))
def test_fuzzed_search_config_exits_with_a_documented_code_and_a_whole_bundle(edit):
    # search has no expectations and no oracle: it succeeds or refuses its config
    assert run_fuzzed("search", SEARCH_FUZZ_BASE, edit, ["search.json"]) in {0, 2}


class TestClassicalNoiseRun:
    def test_run_with_witnesses_on_noise_protocol(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": {"kind": "classical_noise", "seed": 5, "n_segments": 4},
            "protocol": {"n_max": 3},
            "states": [{"name": "maximally_mixed"}],
            "checks": ["kc", "witnesses", "oracle"],
            "expect": {"kc_verdict": "consistent", "commutative": True},
        }
        path = write_config(tmp_path / "noise.json", cfg)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        bundle = json.loads((out / "report.json").read_text())
        assert bundle["results"]["kc"]["verdict"] == "consistent"
        row = bundle["results"]["witnesses"][0]
        assert abs(row["delta_x_21"]["value"]) <= 1e-9
        assert row["lg"]["lg_satisfied"]


NOISE_SCENARIO = {"kind": "classical_noise", "seed": 5, "n_segments": 4}
RANDOM_SCENARIO = {"kind": "random", "seed": 11}


class TestConfigBounds:
    @pytest.mark.parametrize(
        "cfg",
        [
            sigma_pair_config(protocol={"n_max": 1e12}),
            sigma_pair_config(protocol={"n_max": 1e308}),
            sigma_pair_config(protocol={"n_max": 65}),
            sigma_pair_config(protocol={"fourier_steps": 1e12}),
            {"schema_version": 1, "scenario": {**NOISE_SCENARIO, "n_segments": 1e12}},
            {"schema_version": 1, "scenario": {**NOISE_SCENARIO, "n_steps": 1e12}},
        ],
        ids=["n_max-1e12", "n_max-1e308", "n_max-65", "fourier_steps", "n_segments", "n_steps"],
    )
    def test_a_step_count_above_64_is_a_config_error(self, tmp_path, capsys, cfg):
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config does not match schema: ")
        assert "is greater than the maximum of 64" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["degenerate", "lg"])
    @pytest.mark.parametrize("trials", [100001, 1e12, 1e308])
    def test_search_trials_above_the_bound_exit_two_before_any_trial(
        self, tmp_path, capsys, monkeypatch, mode, trials
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a search trial ran")

        monkeypatch.setattr(cli, "counterexample_search", refuse)
        monkeypatch.setattr(cli, "lg_violation_search", refuse)
        cfg = {"schema_version": 1, "scenario": RANDOM_SCENARIO, "search": {"trials": trials, "mode": mode}}
        out = tmp_path / "out"
        assert main(["search", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config does not match schema: ")
        assert "is greater than the maximum of 100000" in err and err.count("\n") == 1
        assert not out.exists()

    def test_search_trials_at_the_bound_load(self, tmp_path):
        cfg = {"schema_version": 1, "scenario": RANDOM_SCENARIO, "search": {"trials": 100000}}
        assert load_run_config(write_config(tmp_path / "cfg.json", cfg)).search["trials"] == 100000

    def test_a_step_count_of_64_loads(self, tmp_path):
        cfg = sigma_pair_config(protocol={"fourier_steps": 64, "n_max": 64})
        assert load_run_config(write_config(tmp_path / "cfg.json", cfg)).protocol_spec["n_max"] == 64

    @pytest.mark.parametrize(
        "command, extra",
        [
            (["run"], {"expect": {"lg_satisfied": True}}),
            (["run"], {}),
            (["oracle"], {}),
            (["sweep", "--param", "t", "--grid", "0.5"], {}),
        ],
        ids=["run-lg", "run-kc", "oracle", "sweep"],
    )
    def test_empty_states_is_a_config_error(self, tmp_path, capsys, command, extra):
        path = write_config(tmp_path / "cfg.json", sigma_pair_config(states=[], **extra))
        out = tmp_path / "out"
        assert main([command[0], path, *command[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config does not match schema: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestStrictJSON:
    @pytest.mark.parametrize(
        "scenario",
        [
            NOISE_SCENARIO,
            {"kind": "explicit", "hamiltonians": [[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]},
        ],
        ids=["classical_noise", "explicit-1x1"],
    )
    def test_one_dimensional_system_writes_a_null_gap(self, tmp_path, scenario):
        cfg = {"schema_version": 1, "scenario": scenario, "checks": ["algebra"]}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 0
        rows = read_report(out / "report.json")["results"]["algebra"]["effect_nondegeneracy"]
        assert rows
        assert all(row["nondegenerate"] and row["min_gap"] is None for row in rows)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_write_json_refuses_a_non_finite_number(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_json(tmp_path / "x.json", {"value": value})

    def test_a_non_finite_result_writes_no_bundle(self, tmp_path, monkeypatch, capsys):
        class Report:
            def to_dict(self):
                return {"verdict": "consistent", "max_operator_defect": float("inf")}

        monkeypatch.setattr(cli, "check_kc_all", lambda *args, **kwargs: Report())
        out = tmp_path / "out"
        path = write_config(tmp_path / "cfg.json", sigma_pair_config())
        assert main(["run", path, "--out", str(out)]) == 4
        assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
        assert list(out.iterdir()) == []


def count_protocol_builds(monkeypatch) -> list:
    """Count full protocol builds; prefix and drop_step slices are not builds."""
    builds = []
    post_init = kp.MeasurementProtocol.__post_init__

    def counted(self):
        builds.append(self.axes)
        post_init(self)

    monkeypatch.setattr(kp.MeasurementProtocol, "__post_init__", counted)
    return builds


class TestWitnessProtocols:
    def test_lg_expectation_reads_the_lg_row_protocol(self, tmp_path):
        cfg = sigma_pair_config(
            protocol={"axes": ["Y", "Y"], "step_times": [np.pi / 2, np.pi / 2], "n_max": 2},
            checks=["witnesses"],
            expect={"lg_satisfied": True},
        )
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        bundle = json.loads((out / "report.json").read_text())
        (row,) = bundle["expectations"]
        assert row["actual"] == bundle["results"]["witnesses"][0]["lg"]["lg_satisfied"]

    def test_lg_expectation_without_the_witness_check(self, tmp_path):
        cfg = sigma_pair_config(
            protocol={"axes": ["Y", "Y"], "step_times": [np.pi / 2, np.pi / 2], "n_max": 2},
            expect={"lg_satisfied": True},
        )
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        (row,) = json.loads((out / "report.json").read_text())["expectations"]
        assert row["actual"] is True

    def test_step_times_witnesses_fingerprint_the_prefix_they_read(self, tmp_path):
        cfg = sigma_pair_config(
            protocol={"axes": ["Y"] * 3, "step_times": [0.4, 0.9, 1.3], "n_max": 3},
            checks=["witnesses"],
        )
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        protocol = build_experiment(load_run_config(path)).protocol
        row = json.loads((out / "report.json").read_text())["results"]["witnesses"][0]
        for key, n in (("delta_y_21", 2), ("delta_y_32", 3)):
            want = kp.serialize.fingerprint(kp.serialize.protocol_payload(protocol.prefix(n)))
            assert row[key]["model_fingerprint"] == want

    @pytest.mark.parametrize(
        "form",
        [
            {"fourier_steps": 3},
            {"meter_bases": [matrix_rows(np.eye(2))] * 3},
            {"axes": ["X", "Y", "X"]},
            {"axes": ["X", "X", "Y"]},
        ],
    )
    def test_timed_protocol_off_one_axis_reads_x_and_y_at_its_step_times(self, tmp_path, form):
        # its steps are named F, nothing or two axes; the witnesses read XXX and YYY
        # at its step times all the same
        times = {"step_times": [0.5, 1.0, 1.5], "n_max": 3}
        rows = {}
        for name, protocol in (("form", form), ("axes", {"axes": ["X", "X", "X"]})):
            cfg = {
                "schema_version": 1,
                "scenario": {"kind": "random", "seed": 1},
                "protocol": {**protocol, **times},
                "checks": ["kc", "witnesses"],
            }
            out = tmp_path / name
            assert main(["run", write_config(tmp_path / f"{name}.json", cfg), "--out", str(out)]) == 0
            rows[name] = json.loads((out / "report.json").read_text())["results"]["witnesses"]
        x_keys = ["delta_x_21", "delta_x_32", "lg"]
        assert {"delta_y_21", "delta_y_32", *x_keys} <= set(rows["form"][0])
        for got, want in zip(rows["form"], rows["axes"], strict=True):
            assert {k: got[k] for k in x_keys} == {k: want[k] for k in x_keys}

    def test_witness_rows_do_not_depend_on_the_configured_axes(self, tmp_path):
        # one rule for every config: XXX and YYY at the configured step times
        rows = {}
        for axes in ("XXX", "YYY", "XYX"):
            cfg = {
                "schema_version": 1,
                "scenario": {"kind": "random", "seed": 1},
                "protocol": {"axes": list(axes), "step_times": [0.4, 0.9, 1.3], "n_max": 3},
                "checks": ["witnesses"],
            }
            out = tmp_path / axes
            assert main(["run", write_config(tmp_path / f"{axes}.json", cfg), "--out", str(out)]) == 0
            rows[axes] = json.loads((out / "report.json").read_text())["results"]["witnesses"]
        assert rows["XXX"] == rows["YYY"] == rows["XYX"]
        (row,) = rows["XXX"]
        assert sorted(row) == ["delta_x_21", "delta_x_32", "delta_y_21", "delta_y_32", "lg", "state"]

    def test_timed_one_axis_protocol_builds_xxx_and_yyy(self, tmp_path, monkeypatch):
        cfg = sigma_pair_config(
            protocol={"axes": ["Y"] * 3, "step_times": [0.4, 0.9, 1.3], "n_max": 3},
            checks=["witnesses"],
        )
        path = write_config(tmp_path / "cfg.json", cfg)
        builds = count_protocol_builds(monkeypatch)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        # the configured protocol, then the witnesses' own
        assert builds == [("Y", "Y", "Y"), ("X", "X", "X"), ("Y", "Y", "Y")]

    def test_each_column_takes_its_protocol_and_fingerprint_once(self, tmp_path, monkeypatch):
        # sigma_pair_y has two states and four Δ columns, plus the config's own fingerprint
        calls = {"prefix": 0, "fingerprint": 0}
        prefix, fingerprint = kp.MeasurementProtocol.prefix, kp.serialize.fingerprint

        def counted_prefix(protocol, n):
            calls["prefix"] += 1
            return prefix(protocol, n)

        def counted_fingerprint(payload):
            calls["fingerprint"] += 1
            return fingerprint(payload)

        monkeypatch.setattr(kp.MeasurementProtocol, "prefix", counted_prefix)
        for module in ("cli", "witnesses"):
            monkeypatch.setattr(f"kcprobe.{module}.fingerprint", counted_fingerprint)
        cfg = json.loads(SIGMA_PAIR_Y.read_text())
        cfg["checks"] = ["witnesses"]
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 0
        assert calls == {"prefix": 4, "fingerprint": 4 + 1}
        rows = json.loads((out / "report.json").read_text())["results"]["witnesses"]
        assert [row["state"] for row in rows] == ["pure", "maximally_mixed"]
        for key in ("delta_y_21", "delta_y_32", "delta_x_21", "delta_x_32"):
            assert rows[0][key]["model_fingerprint"] == rows[1][key]["model_fingerprint"]
            assert [row[key]["parameters"] for row in rows] == [{"state": "pure"}, {"state": "maximally_mixed"}]

    def test_run_with_witnesses_builds_three_protocols(self, tmp_path, monkeypatch):
        cfg = {
            "schema_version": 1,
            "scenario": {"kind": "random", "seed": 42, "probe_dim": 2, "system_dim": 4, "commuting": True},
            "protocol": {"axes": ["X", "Y", "X"], "n_max": 3},
            "states": [{"name": "random", "seed": 7}],
            "checks": ["witnesses"],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        builds = count_protocol_builds(monkeypatch)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert sorted(builds) == [("X", "X", "X"), ("X", "Y", "X"), ("Y", "Y", "Y")]

    @pytest.mark.parametrize(
        "name, expected, check, read",
        [
            ("kc_verdict", "violated", "kc", lambda report: report["verdict"]),
            ("commutative", False, "algebra", lambda report: report["commutative"]),
            ("lg_satisfied", True, "witnesses", lambda rows: rows[0]["lg"]["lg_satisfied"]),
        ],
        ids=["kc_verdict", "commutative", "lg_satisfied"],
    )
    def test_expectation_reports_the_check_it_reads(self, tmp_path, name, expected, check, read):
        cfg = json.loads(SIGMA_PAIR_Y.read_text())
        cfg["checks"] = ["entanglement"]
        cfg["expect"] = {name: expected}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 0
        bundle = json.loads((out / "report.json").read_text())
        assert list(bundle["results"]) == sorted(["entanglement", check])
        assert set(bundle["summary"]) == {"entanglement", check}
        (row,) = bundle["expectations"]
        assert row == {"name": name, "expected": expected, "actual": expected, "matched": True}
        assert row["actual"] == read(bundle["results"][check])

    def test_expectation_checks_run_once_after_the_configured_ones(self, tmp_path, monkeypatch):
        ran = []

        def counted(check, run):
            def wrapper(experiment):
                ran.append(check)
                return run(experiment)

            return wrapper

        for check, entry in list(cli._CHECKS.items()):
            monkeypatch.setitem(cli._CHECKS, check, entry._replace(run=counted(check, entry.run)))
        cfg = json.loads(SIGMA_PAIR_Y.read_text())
        cfg["checks"] = ["entanglement", "kc"]
        cfg["expect"] = {"lg_satisfied": True, "commutative": False, "kc_verdict": "violated"}
        path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert ran == ["entanglement", "kc", "algebra", "witnesses"]

    def test_witnesses_read_the_configured_preparation(self, tmp_path):
        # a probe prepared in one pointer state reads no coherence: KC holds and
        # the witnesses vanish, on the same protocol that the KC check reads
        cfg = {
            "schema_version": 1,
            "scenario": {"kind": "random", "seed": 2, "probe_dim": 2},
            "protocol": {"axes": ["X", "Y"]},
            "checks": ["witnesses", "kc"],
        }
        rows, kc = {}, {}
        for prep in (None, [[1, 0], [0, 0]]):
            if prep is not None:
                cfg["protocol"]["preparation"] = prep
            path = write_config(tmp_path / "cfg.json", cfg)
            out = tmp_path / f"out{prep is None}"
            assert main(["run", path, "--out", str(out)]) == 0
            results = json.loads((out / "report.json").read_text())["results"]
            rows[prep is None], kc[prep is None] = results["witnesses"][0], results["kc"]
        assert kc[True]["verdict"] == "violated" and kc[False]["verdict"] == "consistent"
        assert rows[True]["delta_x_32"]["verdict"] == "nonzero"
        assert rows[False]["delta_x_32"]["verdict"] == "zero"
        assert rows[True]["lg"] != rows[False]["lg"]
        assert rows[False]["lg"]["p1_plus"] == pytest.approx(0.5, abs=1e-12)
        experiment = build_experiment(load_run_config(path))
        for key in ("delta_x_21", "delta_y_21", "delta_x_32", "delta_y_32"):
            n = int(key[-2])
            steps = (kp.xy_meter_basis(key[6].upper()),) * n
            read = kp.MeasurementProtocol(experiment.model, experiment.protocol.preparation, steps)
            want = kp.serialize.fingerprint(kp.serialize.protocol_payload(read))
            assert rows[False][key]["model_fingerprint"] == want
            assert rows[True][key]["model_fingerprint"] != want

    def test_run_validates_each_state_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(rho, dim, tol):
            calls.append(1)
            return check_density(rho, dim, tol)

        monkeypatch.setattr("kcprobe.witnesses.check_density", counted)
        cfg = json.loads(SIGMA_PAIR_Y.read_text())
        cfg["checks"] = ["witnesses"]
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 0
        assert len(json.loads((out / "report.json").read_text())["results"]["witnesses"]) == 2
        assert calls == []

    @pytest.mark.parametrize(
        "config, step_times",
        [("sigma_pair_y", None), ("commuting_random", None), ("sigma_pair_y", [0.4, 0.9, 1.3])],
        ids=["sigma_pair_y", "commuting_random", "timed_yyy"],
    )
    def test_run_scans_once_per_protocol(self, tmp_path, monkeypatch, config, step_times):
        # the KC check, then one scan per witness axis gives every state's
        # Δ21, Δ32 and LG delta: 3 + 2 + 2 (n, j); a timed Y protocol too
        cfg = json.loads((CONFIGS / f"{config}.json").read_text())
        if step_times is not None:
            cfg["protocol"]["step_times"] = step_times
        scans = []
        scan = kp.sequences._scan
        monkeypatch.setattr(
            "kcprobe.sequences._scan", lambda *args: scans.append((args[0].axes, args[1])) or scan(*args)
        )
        assert main(["run", write_config(tmp_path / "cfg.json", cfg), "--out", str(tmp_path / "out")]) == 0
        assert scans == [
            (tuple(cfg["protocol"]["axes"]), [(2, 1), (3, 1), (3, 2)]),
            (("X",) * 3, [(2, 1), (3, 2)]),
            (("Y",) * 3, [(2, 1), (3, 2)]),
        ]

    def test_sweep_columns_are_the_witness_names_of_run(self, tmp_path):
        # with one state and with two, whose first the sweep reads alone
        two = [{"name": "pure", "ket": [[0.6, 0], [0, 0.8]]}, {"name": "maximally_mixed"}]
        for k, states in enumerate((None, two)):
            cfg = json.loads((CONFIGS / "nv_sweep.json").read_text())
            cfg["checks"] = ["witnesses"]
            if states is not None:
                cfg["states"] = states
            path = write_config(tmp_path / f"cfg{k}.json", cfg)
            assert main(["run", path, "--out", str(tmp_path / f"run{k}")]) == 0
            sweep = ["sweep", path, "--param", "t", "--grid", "1.0", "--out", str(tmp_path / f"sweep{k}")]
            assert main(sweep) == 0
            row = json.loads((tmp_path / f"run{k}" / "report.json").read_text())["results"]["witnesses"][0]
            with open(tmp_path / f"sweep{k}" / "sweep.csv", newline="") as fh:
                (sweep_row,) = csv.DictReader(fh)
            names = [key for key in sweep_row if key.startswith("delta_")]
            assert names == ["delta_x_21", "delta_y_21", "delta_x_32", "delta_y_32"]
            assert sorted(names) == sorted(key for key in row if key.startswith("delta_"))
            for name in names:
                assert float(sweep_row[name]) == row[name]["value"]

    def test_sweep_reads_the_configured_preparation(self, tmp_path):
        cfg = json.loads((CONFIGS / "nv_sweep.json").read_text())
        cfg["checks"] = ["witnesses"]
        cfg["protocol"]["preparation"] = [[1, 0], [0, 0]]
        path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["run", path, "--out", str(tmp_path / "run")]) == 0
        assert main(["sweep", path, "--param", "t", "--grid", "1.0", "--out", str(tmp_path / "sweep")]) == 0
        row = json.loads((tmp_path / "run" / "report.json").read_text())["results"]["witnesses"][0]
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            (sweep_row,) = csv.DictReader(fh)
        assert float(sweep_row["max_kc_defect"]) <= 1e-9  # nonzero with the |+x> preparation
        for name in ("delta_x_21", "delta_y_21", "delta_x_32", "delta_y_32"):
            assert float(sweep_row[name]) == row[name]["value"]


class TestSweepCommand:
    def nv_config(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": {
                "kind": "nv",
                "n_nuclei": 1,
                "omega": 1.0,
                "splitting": 0.0,
                "couplings": [[1.0, 0.0, 0.0]],
                "step_time": 1.0,
            },
            "protocol": {"n_max": 2},
            "states": [{"name": "maximally_mixed"}],
        }
        return write_config(tmp_path / "nv.json", cfg)

    @pytest.mark.parametrize("chunk, shapes", [(None, [5]), (2, [2, 2, 1])])
    @pytest.mark.parametrize("param, grid", [("t", "0.5:2:5"), ("omega", "0:2:5")])
    def test_commutator_norm_is_read_once_per_chunk(self, tmp_path, monkeypatch, param, grid, chunk, shapes):
        # one stacked read of the chunk's Hamiltonians, whichever parameter
        # moves; each row's norm is is_commutative's of its point's model
        seen = []
        norms = cli._commutator_norms
        monkeypatch.setattr(cli, "_commutator_norms", lambda stack: seen.append(stack.shape[0]) or norms(stack))
        if chunk is not None:
            monkeypatch.setattr(cli, "_sweep_points", lambda system_dim: chunk)
        path, out = self.nv_config(tmp_path), tmp_path / "out"
        assert main(["sweep", path, "--param", param, "--grid", grid, "--out", str(out)]) == 0
        assert seen == shapes
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 5 and len({row["commutator_norm"] for row in rows}) == (1 if param == "t" else 5)
        experiment = build_experiment(load_run_config(path))
        for row in rows:
            model = cli._sweep_model(experiment, param, float(row[param]))
            assert row["commutator_norm"] == repr(kp.is_commutative(model.hamiltonians)[1])

    def test_omega_grid_has_commutative_zero_row(self, tmp_path):
        path = self.nv_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", path, "--param", "omega", "--grid", "0,1", "--out", str(out)]) == 0
        rows = list(csv.reader((out / "sweep.csv").read_text().splitlines()))
        assert rows[0][0] == "omega"
        zero_row = [float(x) for x in rows[1]]
        assert max(abs(v) for v in zero_row[1:]) <= 1e-9
        one_row = [float(x) for x in rows[2]]
        assert one_row[1] > 1e-3  # kc defect column
        assert one_row[6] == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-10)

    # an empty grid builds only the configured protocol: its header needs none
    @pytest.mark.parametrize(
        "param, grid, points", [("t", "0.1:2:7", 7), ("omega", "0,0.5,1", 3), ("t", "", 0)]
    )
    @pytest.mark.parametrize("chunk", [None, 3])
    def test_builds_two_protocols_per_point(self, tmp_path, monkeypatch, param, grid, points, chunk):
        # one stacked build per chunk, from which each point's X and Y
        # protocols are assembled; only the configured protocol is built alone
        path = self.nv_config(tmp_path)
        if chunk is not None:  # blocks that hold `chunk` points of this d = 2 model
            point_bytes = 80 * 2 * 2**2 + 16 * 2 * 2**4 + cli.SWEEP_POINT_OVERHEAD_BYTES
            monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", chunk * point_bytes)
        builds = count_protocol_builds(monkeypatch)
        stacked, assembled = [], []
        grids, protocol = cli._grids, kp.model._Grid.protocol
        monkeypatch.setattr(cli, "_grids", lambda models, *args: stacked.append(len(models)) or grids(models, *args))
        monkeypatch.setattr(kp.model._Grid, "protocol", lambda grid, g: assembled.append(g) or protocol(grid, g))
        out = tmp_path / "out"
        assert main(["sweep", path, "--param", param, "--grid", grid, "--out", str(out)]) == 0
        assert len(builds) == 1
        per_chunk = chunk or max(1, points)
        assert stacked == [min(per_chunk, points - start) for start in range(0, points, per_chunk)]
        assert sorted(assembled) == sorted([g for size in stacked for g in range(size)] * 2)

    @pytest.mark.parametrize("param, grid", [("t", "0.05:20:40"), ("omega", "0:2:21")])
    @pytest.mark.parametrize("block_bytes", [1, 5000])
    def test_a_chunked_sweep_writes_the_bytes_of_one_chunk(self, tmp_path, monkeypatch, param, grid, block_bytes):
        # every point's row is bit for bit that point alone, so chunks of one
        # point, or of a few, write the file that one chunk of the grid does
        argv = ["sweep", str(CONFIGS / "nv_sweep.json"), "--param", param, "--grid", grid]
        assert main([*argv, "--out", str(tmp_path / "one")]) == 0
        chunks = []
        chunk = cli._sweep_chunk
        monkeypatch.setattr(cli, "_sweep_chunk", lambda e, p, values, *args: chunks.append(len(values)) or chunk(e, p, values, *args))
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        assert main([*argv, "--out", str(tmp_path / "chunked")]) == 0
        assert len(chunks) > 1 and max(chunks) < sum(chunks)
        assert (tmp_path / "chunked" / "sweep.csv").read_bytes() == (tmp_path / "one" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("block_bytes", [None, 5000])
    def test_a_non_finite_point_raises_its_own_fault(self, tmp_path, monkeypatch, capsys, block_bytes):
        # NaN transfers at t = 0.5 alone (X steps): the sweep exits 3 with the
        # fault that the point gives swept alone, and writes no sweep.csv
        experiment = build_experiment(load_run_config(str(CONFIGS / "nv_sweep.json")))
        target = kp.qubit_xy_protocol(experiment.model.with_step_time(0.5), "X").step_measurements[0].kraus
        transfers = kp.model._transfers

        def poisoned(kraus):
            out = transfers(kraus)
            if kraus.ndim == 3:  # one measurement
                out[...] = np.nan if np.array_equal(kraus, target) else out
            for g in range(kraus.shape[1] if kraus.ndim == 4 else 0):  # a grid: outcome, then point
                if np.array_equal(kraus[:, g], target):
                    out[:, g] = np.nan
            return out

        monkeypatch.setattr(kp.model, "_transfers", poisoned)
        if block_bytes is not None:  # 0.5 in the second chunk
            monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        argv = ["sweep", str(CONFIGS / "nv_sweep.json"), "--param", "t"]
        assert main([*argv, "--grid", "0.5", "--out", str(tmp_path / "alone")]) == 3
        alone = capsys.readouterr().err
        assert alone == "numerical fault: defect norm nan at n=2, j=1, fixed=(0,) is not finite\n"
        out = tmp_path / "grid"
        assert main([*argv, "--grid", "0.1,0.2,1.0,0.7,0.5,1.5,0.5", "--out", str(out)]) == 3
        assert capsys.readouterr().err == alone
        assert not (out / "sweep.csv").exists()
        assert main([*argv, "--grid", "0.1,0.2,1.0", "--out", str(tmp_path / "fine")]) == 0

    @pytest.mark.parametrize("grid, first", [("1e7,1e200", "1e7"), ("0.5,1e200,1e7", "1e200")])
    def test_the_first_bad_point_names_the_config_error(self, tmp_path, capsys, grid, first):
        # omega = 1e7 breaks the phase rule of its unitaries, 1e200 its
        # Hamiltonian's norm: the chunk's first bad point names the error,
        # as building the points one by one would
        argv = ["sweep", str(CONFIGS / "nv_sweep.json"), "--param", "omega"]
        assert main([*argv, "--grid", first, "--out", str(tmp_path / "alone")]) == 2
        alone = capsys.readouterr().err
        assert main([*argv, "--grid", grid, "--out", str(tmp_path / "grid")]) == 2
        assert capsys.readouterr().err == alone
        assert not (tmp_path / "grid").exists()

    @pytest.mark.parametrize("d_s, block, points", [(2, 16 * 2**10, 200), (4, 64 * 2**10, 100), (8, 512 * 2**10, 40), (16, 128 * 2**10, 40)])
    def test_a_chunk_stays_within_the_block_bound(self, tmp_path, monkeypatch, d_s, block, points):
        # a chunk's stacks fill at most one block; the temporaries of its build
        # and its scans, its rows and their tasks at most two more
        cfg = {
            "schema_version": 1,
            "scenario": {"kind": "random", "seed": 3, "probe_dim": 2, "system_dim": d_s},
            "protocol": {"n_max": 3},
            "states": [{"name": "maximally_mixed"}],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block)
        point_bytes = 80 * 2 * d_s**2 + cli.SWEEP_POINT_OVERHEAD_BYTES + (16 * 2 * d_s**4 if d_s <= 8 else 0)
        assert points * point_bytes >= 8 * block  # the stacks of one chunk of the whole grid
        argv = ["sweep", path, "--param", "t", "--grid", f"0.1:3:{points}"]
        assert main([*argv[:-1], "0.1,0.2", "--out", str(tmp_path / "warm")]) == 0  # imports and caches first
        peaks = []
        chunk = cli._sweep_chunk

        def measured(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            rows = chunk(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return rows

        monkeypatch.setattr(cli, "_sweep_chunk", measured)
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        finally:
            tracemalloc.stop()
        assert len(peaks) == -(-points // cli._sweep_points(d_s)) > 1
        assert max(peaks) <= 3 * block

    def test_validates_the_state_once_per_sweep(self, tmp_path, monkeypatch):
        calls = []

        def counted(rho, dim, tol):
            calls.append(1)
            return check_density(rho, dim, tol)

        for module in ("config", "sequences", "witnesses"):
            monkeypatch.setattr(f"kcprobe.{module}.check_density", counted)
        path = self.nv_config(tmp_path)
        counts = []
        for points in (4, 40):
            calls.clear()
            out = tmp_path / f"out{points}"
            assert main(["sweep", path, "--param", "t", "--grid", f"0.1:4:{points}", "--out", str(out)]) == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] >= 1

    def test_empty_grid_writes_header_only(self, tmp_path):
        path = self.nv_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", path, "--param", "t", "--grid", "", "--out", str(out)]) == 0
        rows = list(csv.reader((out / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 1
        assert main(["sweep", path, "--param", "t", "--grid", "1", "--out", str(tmp_path / "one")]) == 0
        assert rows[0] == list(csv.reader((tmp_path / "one" / "sweep.csv").read_text().splitlines()))[0]

    def test_empty_grid_makes_no_scan(self, tmp_path, monkeypatch):
        # the header is named from the witness protocols, not from a scanned row
        scans = []
        scan = kp.sequences._scan
        monkeypatch.setattr("kcprobe.sequences._scan", lambda *args: scans.append(args[1]) or scan(*args))
        argv = ["sweep", str(CONFIGS / "nv_sweep.json"), "--param", "t", "--grid", ""]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert scans == []

    @pytest.mark.parametrize("grid", ["", "0.5"])
    def test_qutrit_probe_cannot_be_swept_even_on_an_empty_grid(self, tmp_path, capsys, grid):
        cfg = {"schema_version": 1, "scenario": {"kind": "random", "probe_dim": 3}}
        out = tmp_path / "out"
        argv = ["sweep", write_config(tmp_path / "q.json", cfg), "--param", "t", "--grid", grid]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: X/Y protocols need a qubit probe, got dimension 3\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid",
        ["nan", "inf", "0.5,-inf", "a,b", "0:1:-3", "0:1:2.5", "0:nan:3", "1e400:1:2",
         "-1e308:1e308:3", "0:1", "0:1:100001", "0:1:1000000000000"],
    )
    def test_malformed_grid_is_config_error(self, tmp_path, grid):
        with pytest.raises(ConfigError):
            _parse_grid(grid)
        path = self.nv_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", path, "--param", "t", f"--grid={grid}", "--out", str(out)]) == 2
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("grid, rows", [("-1,0", 2), ("-1:0:3", 3)])
    def test_grid_value_may_start_with_a_minus(self, tmp_path, grid, rows):
        path = self.nv_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", path, "--param", "t", "--grid", grid, "--out", str(out)]) == 0
        assert len(list(csv.reader((out / "sweep.csv").read_text().splitlines()))) == 1 + rows

    def test_non_finite_grid_after_a_space_is_a_config_error(self, tmp_path, capsys):
        path = self.nv_config(tmp_path)
        out = tmp_path / "out"
        argv = ["sweep", path, "--param", "t", "--grid", "-1e308:1e308:3", "--out", str(out)]
        assert main(argv) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_grid_point_count_at_the_bound_parses(self):
        assert len(_parse_grid(f"0:1:{cli.MAX_GRID_POINTS}")) == cli.MAX_GRID_POINTS

    @pytest.mark.parametrize(
        "grid, values", [("0.5, 1", [0.5, 1.0]), ("0:1:3", [0.0, 0.5, 1.0]), ("0:1:0", []), (" ", [])]
    )
    def test_well_formed_grid(self, grid, values):
        assert _parse_grid(grid) == values

    @pytest.mark.parametrize("param", ["t", "omega"])
    def test_grid_phase_too_large_to_round_is_a_config_error(self, param, capsys, tmp_path):
        out = tmp_path / "out"
        argv = ["sweep", str(CONFIGS / "nv_sweep.json"), "--param", param, "--grid", "1e7", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("param", ["t", "omega"])
    def test_grid_phase_that_rounds_still_runs(self, param, tmp_path):
        out = tmp_path / "out"
        argv = ["sweep", str(CONFIGS / "nv_sweep.json"), "--param", param, "--grid", "1e5", "--out", str(out)]
        assert main(argv) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 2

    def test_unknown_parameter_is_config_error(self, tmp_path):
        cfg = sigma_pair_config()
        path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["sweep", path, "--param", "omega", "--grid", "0,1", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("grid", ["", "0,1"])
    def test_omega_off_nv_is_a_config_error_whatever_the_grid(self, tmp_path, capsys, grid):
        out = tmp_path / "out"
        assert main(["sweep", str(SIGMA_PAIR_Y), "--param", "omega", "--grid", grid, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: parameter 'omega' is only defined for the nv scenario\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["run", "oracle", "search", "sweep"])
def test_threads_is_a_sweep_only_flag(tmp_path, command, capsys):
    path = write_config(tmp_path / "cfg.json", sigma_pair_config(search={"trials": 2}))
    extra = ["--param", "t", "--grid", "0.5"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        main([command, path, *extra, "--threads", "2", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


class TestOracleCommand:
    def test_oracle_report_written(self, tmp_path):
        cfg = sigma_pair_config(checks=["kc"])
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main(["oracle", path, "--out", str(out)]) == 0
        report = json.loads((out / "oracle.json").read_text())
        assert all(r["max_abs_discrepancy"] <= 1e-11 for r in report["reports"])

    def test_the_state_free_gates_run_once_for_every_state(self, tmp_path, monkeypatch):
        # sigma_pair_y.json: Y, Y, Y to n 3 and two states, whose reports share
        # the naive effect tables (3 step lists, 2 + 4 + 8 chains), the
        # operator gate's one scan and the model's commutativity
        chains, scans, commutes = [], [], []
        oracle = kp.oracle
        chain_effects, blocks, is_commutative = oracle._chain_effects, oracle._defect_blocks, oracle.is_commutative
        monkeypatch.setattr(oracle, "_chain_effects", lambda p, seqs, steps: chains.append(len(seqs)) or chain_effects(p, seqs, steps))
        monkeypatch.setattr(oracle, "_defect_blocks", lambda p, pairs: scans.append(pairs) or blocks(p, pairs))
        monkeypatch.setattr(oracle, "is_commutative", lambda hams, tol: commutes.append(1) or is_commutative(hams, tol))
        out = tmp_path / "out"
        assert main(["oracle", str(SIGMA_PAIR_Y), "--out", str(out)]) == 0
        assert (len(chains), sum(chains), len(scans), len(commutes)) == (3, 14, 1, 1)
        rows = json.loads((out / "oracle.json").read_text())["reports"]
        experiment = build_experiment(load_run_config(str(SIGMA_PAIR_Y)))
        tol = experiment.config.tolerances
        want = [
            {"state": name, **kp.oracle_compare(experiment.protocol, rho, experiment.n_max, tol).to_dict()}
            for name, rho in experiment.states
        ]
        assert len(rows) == 2 and rows == want

    def test_oracle_disagreement_exits_three(self, tmp_path, monkeypatch):
        def disagreeing(protocol, states, n_max, tol):
            return [OracleReport(n_max, 1.0, (1.0,) * n_max, 0.0, False, None, tol.as_dict()) for _ in states]

        monkeypatch.setattr("kcprobe.cli._oracle_reports", disagreeing)
        path = write_config(tmp_path / "cfg.json", sigma_pair_config())
        out = tmp_path / "out"
        assert main(["oracle", path, "--out", str(out)]) == 3
        report = json.loads((out / "oracle.json").read_text())
        assert not any(r["agrees"] for r in report["reports"])

    def test_stdout_reports_the_worst_gated_discrepancy(self, tmp_path, monkeypatch, capsys):
        # a traceless slip of 1e-6 sigma_x fails only the defect gate at the
        # maximally mixed state; the printed worst must be that gate's 1.4e-6
        for target in ("kcprobe.sequences._defect_blocks", "kcprobe.oracle._defect_blocks"):
            monkeypatch.setattr(target, shifted_blocks(1e-6 * kp.SIGMA_X))
        cfg = sigma_pair_config(checks=["oracle"], states=[{"name": "maximally_mixed"}])
        path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["oracle", path, "--out", str(tmp_path / "o")]) == 3
        (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("oracle max discrepancy:")]
        assert float(line.rpartition(" ")[2]) >= 1e-6


class TestRunOracleCheck:
    def test_run_exits_three_when_the_oracle_disagrees(self, tmp_path, monkeypatch, capsys):
        def disagreeing(protocol, states, n_max, tol):
            return [OracleReport(n_max, 1.0, (1.0,) * n_max, 0.0, False, None, tol.as_dict()) for _ in states]

        monkeypatch.setattr("kcprobe.cli._oracle_reports", disagreeing)
        path = write_config(tmp_path / "cfg.json", sigma_pair_config(checks=["kc", "oracle"]))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["oracle"] == "disagrees"
        assert not any(r["agrees"] for r in report["results"]["oracle"])
        assert "oracle disagrees" in capsys.readouterr().err

    def test_a_shifted_defect_route_fails_both_commands(self, tmp_path, monkeypatch):
        # every D gains 1e-3 times the identity, whose Frobenius norm is 1e-3 sqrt(2)
        monkeypatch.setattr("kcprobe.oracle._defect_blocks", shifted_blocks(1e-3 * np.eye(2)))
        path = write_config(tmp_path / "cfg.json", sigma_pair_config(checks=["oracle"]))
        assert main(["oracle", path, "--out", str(tmp_path / "o")]) == 3
        rows = json.loads((tmp_path / "o" / "oracle.json").read_text())["reports"]
        assert not any(r["agrees"] for r in rows)
        assert all(r["max_abs_discrepancy"] <= 1e-11 for r in rows)
        assert all(r["max_defect_discrepancy"] == pytest.approx(1e-3 * np.sqrt(2)) for r in rows)
        assert main(["run", path, "--out", str(tmp_path / "r")]) == 3
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert report["summary"]["oracle"] == "disagrees"

    def test_a_traceless_slip_fails_at_the_maximally_mixed_state(self, tmp_path, monkeypatch):
        # the only state is 1 / 2, which sees only tr D, so a slip of eps T
        # with a traceless T shows only in the gate on the whole operator
        eps, slip = 1e-6, kp.SIGMA_X
        for target in ("kcprobe.sequences._defect_blocks", "kcprobe.oracle._defect_blocks"):
            monkeypatch.setattr(target, shifted_blocks(eps * slip), raising=False)
        cfg = sigma_pair_config(checks=["oracle"], states=[{"name": "maximally_mixed"}])
        path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["oracle", path, "--out", str(tmp_path / "o")]) == 3
        (row,) = json.loads((tmp_path / "o" / "oracle.json").read_text())["reports"]
        assert row["agrees"] is False
        assert row["max_abs_discrepancy"] <= 1e-11
        assert row["max_defect_discrepancy"] == pytest.approx(eps * np.sqrt(2), rel=1e-9)

    def test_a_slip_in_the_scan_fails_the_oracle_command(self, tmp_path, monkeypatch):
        # swapped outcomes give a valid distribution, which only the oracle sees
        monkeypatch.setattr("kcprobe.sequences._transfer", swapped_transfer)
        path = write_config(tmp_path / "cfg.json", sigma_pair_config(checks=["oracle"]))
        assert main(["oracle", path, "--out", str(tmp_path / "o")]) == 3
        rows = json.loads((tmp_path / "o" / "oracle.json").read_text())["reports"]
        assert rows and not any(r["agrees"] for r in rows)

    def test_a_transposed_transfer_stops_the_oracle_command(self, tmp_path, monkeypatch, capsys):
        # K^T X K breaks the fast probabilities, so the Born-rule guard stops the command
        monkeypatch.setattr("kcprobe.sequences._transfer", transposed_transfer)
        path = write_config(tmp_path / "cfg.json", sigma_pair_config(checks=["oracle"]))
        assert main(["oracle", path, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("numerical fault: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("steps", [(0,), (1,)], ids=["probabilities", "defects"])
    def test_a_nan_discrepancy_fails_both_commands(self, tmp_path, monkeypatch, capsys, steps):
        # a NaN at the second sequence of the n = 1 chains or of the reduced
        # chains of (n, j) = (2, 1); it has no JSON form, so no bundle either.
        # The steps measure along X and Y, so that each of those step lists
        # has its own chains, which one gate alone reads: along Y and Y the
        # n = 1 chains are also the reduced chains of (2, 1)
        monkeypatch.setattr("kcprobe.oracle._chain_effects", nan_chain(steps, (1,)))
        cfg = sigma_pair_config(checks=["oracle"], protocol={"axes": ["X", "Y"], "n_max": 2})
        path = write_config(tmp_path / "cfg.json", cfg)
        for command in ("oracle", "run"):
            out = tmp_path / command
            assert main([command, path, "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err == "numerical fault: oracle disagrees for state 'pure': a discrepancy is not finite\n"
            assert not out.exists()

    def test_run_exits_zero_when_the_oracle_agrees(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", sigma_pair_config(checks=["oracle"]))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["summary"]["oracle"] == "agrees"


COMMAND_OUTPUTS = [
    (["run"], "report.json"),
    (["sweep", "--param", "t", "--grid", "0.5"], "sweep.csv"),
    (["oracle"], "oracle.json"),
    (["search"], "search.json"),
]
COMMAND_IDS = [command[0] for command, _ in COMMAND_OUTPUTS]


class TestOutputErrors:
    @pytest.mark.parametrize("blocked", ["directory", "file"])
    @pytest.mark.parametrize("command, output", COMMAND_OUTPUTS, ids=COMMAND_IDS)
    def test_unwritable_out_is_a_one_line_config_error(
        self, tmp_path, capsys, command, output, blocked
    ):
        cfg = sigma_pair_config()
        if command[0] == "search":  # search reads a random scenario and its own block only
            cfg = {
                "schema_version": 1,
                "scenario": {"kind": "random", "seed": 11},
                "search": {"trials": 2},
            }
        path = write_config(tmp_path / "cfg.json", cfg)
        if blocked == "directory":
            out = tmp_path / "cfg.json" / "sub"  # below a regular file
        else:
            out = tmp_path / "out"
            (out / output).mkdir(parents=True)  # a directory holds the output's name
        assert main([command[0], path, *command[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_a_failed_write_keeps_the_earlier_bundle(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path / "cfg.json", sigma_pair_config())
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        calls = []

        def second_write_fails(file, data):
            calls.append(file)
            if len(calls) == 2:
                raise OSError("disk full")
            write_json(file, data)

        monkeypatch.setattr("kcprobe.cli.write_json", second_write_fails)
        # a changed tolerance changes report.json, so a partial write would show
        assert main(["run", path, "--out", str(out), "--tol", "kc=10"]) == 2
        assert capsys.readouterr().err.endswith("cannot write output: disk full\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_sweep_creates_out_only_when_it_writes(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", sigma_pair_config())
        out = tmp_path / "out"
        assert main(["sweep", path, "--param", "omega", "--grid", "0", "--out", str(out)]) == 2
        assert not out.exists()


class TestSearchCommand:
    def test_degenerate_search_finds_canonical(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": {"kind": "random", "seed": 11, "probe_dim": 2, "system_dim": 2},
            "search": {"trials": 3, "include_canonical": True},
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main(["search", path, "--out", str(out)]) == 0
        report = json.loads((out / "search.json").read_text())
        assert any(f["source"] == "include" for f in report["findings"])

    def test_lg_search_mode(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": {"kind": "random", "seed": 20240811},
            "search": {"trials": 10, "mode": "lg"},
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main(["search", path, "--out", str(out)]) == 0
        report = json.loads((out / "search.json").read_text())
        assert report["mode"] == "lg"
        assert report["findings"]

    @pytest.mark.parametrize("config", ["nv_sweep", "classical_noise", "sigma_pair_y"])
    def test_search_on_a_scenario_it_does_not_read_is_a_config_error(self, tmp_path, capsys, config):
        # both search modes draw their own random models, so another scenario is not searched
        out = tmp_path / "out"
        assert main(["search", str(CONFIGS / f"{config}.json"), "--out", str(out)]) == 2
        out_err = capsys.readouterr()
        assert out_err.out == ""
        assert out_err.err.startswith("config error: search needs the random scenario")
        assert out_err.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, unread",
        [
            ("degenerate", {"scenario": {"scale": 7.0, "step_time": 0.1}}),
            ("degenerate", {"scenario": {"commuting": False}}),
            ("lg", {"scenario": {"probe_dim": 2}}),
            ("lg", {"scenario": {"system_dim": 3}}),
            ("lg", {"scenario": {"commuting": True}}),
            ("lg", {"scenario": {"scale": 2.0}}),
            ("lg", {"scenario": {"step_time": 0.5}}),
            ("lg", {"search": {"t_grid": [0.5]}}),
            ("lg", {"search": {"include_canonical": False}}),
        ],
    )
    def test_a_field_the_search_mode_does_not_read_is_a_config_error(
        self, tmp_path, capsys, mode, unread
    ):
        cfg = {
            "schema_version": 1,
            "scenario": {"kind": "random", "seed": 11, **unread.get("scenario", {})},
            "search": {"trials": 2, "mode": mode, **unread.get("search", {})},
        }
        out = tmp_path / "out"
        assert main(["search", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 2
        names = sorted([*unread.get("scenario", {}), *unread.get("search", {})])
        assert capsys.readouterr().err == f"config error: search mode {mode!r} does not read {names}\n"
        assert not out.exists()

    @pytest.mark.parametrize("include_canonical", [False, True])
    @pytest.mark.parametrize("t", [1e6, 1e300])
    def test_a_t_grid_time_that_breaks_an_invariant_is_a_config_error(
        self, tmp_path, capsys, t, include_canonical
    ):
        # as the same time does as a scenario step_time or a sweep --grid value
        search = {"trials": 2, "t_grid": [t], "include_canonical": include_canonical}
        cfg = {"schema_version": 1, "scenario": RANDOM_SCENARIO, "search": search}
        out = tmp_path / "out"
        assert main(["search", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: phase |w*t| = ") and err.count("\n") == 1
        assert f"at time {t!r} " in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "block, value",
        [
            ("protocol", {"n_max": 2}),
            ("states", [{"name": "maximally_mixed"}]),
            ("checks", ["kc"]),
            ("expect", {"kc_verdict": "consistent"}),
        ],
    )
    @pytest.mark.parametrize("mode", ["degenerate", "lg"])
    def test_a_config_block_search_does_not_read_is_a_config_error(
        self, tmp_path, capsys, mode, block, value
    ):
        cfg = {
            "schema_version": 1,
            "scenario": {"kind": "random", "seed": 11},
            "search": {"trials": 2, "mode": mode},
            block: value,
        }
        out = tmp_path / "out"
        assert main(["search", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: search mode {mode!r} does not read {[block]}\n"
        assert not out.exists()


# Every shipped config under each command that reads a config alone.
SHIPPED_EXIT_CODES = {
    "classical_noise": {"run": 0, "oracle": 0, "search": 2},
    "commuting_random": {"run": 0, "oracle": 0, "search": 2},
    "nv_sweep": {"run": 0, "oracle": 0, "search": 2},
    "search_degenerate": {"run": 0, "oracle": 0, "search": 0},
    "sigma_pair_y": {"run": 0, "oracle": 0, "search": 2},
}


def test_shipped_exit_code_table_covers_every_config():
    assert set(SHIPPED_EXIT_CODES) == {path.stem for path in CONFIGS.glob("*.json")}


@pytest.mark.parametrize(
    "config, command, code",
    [(c, command, code) for c, codes in SHIPPED_EXIT_CODES.items() for command, code in codes.items()],
)
def test_shipped_config_exit_code(tmp_path, capsys, config, command, code):
    out = tmp_path / "out"
    assert main([command, str(CONFIGS / f"{config}.json"), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("seed", [42, *range(8)])  # 42 is the shipped seed
def test_commuting_config_at_a_thousand_times_the_energy_scale_passes(tmp_path, capsys, seed):
    # H -> 1000 H with t -> t / 1000 leaves every unitary as it was, so the
    # verdicts and the `commutative: true` expectation must hold as well
    cfg = json.loads((CONFIGS / "commuting_random.json").read_text())
    cfg["scenario"].update(seed=seed, scale=1000, step_time=0.001)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    algebra = read_report(out / "report.json")["results"]["algebra"]
    assert algebra["commutative"] is True
    assert algebra["dimension"] == 4


def test_zero_energy_scale_is_a_config_error(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "commuting_random.json").read_text())
    cfg["scenario"].update(commuting=False, scale=0)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: scale must be finite and nonzero, got 0.0\n"
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e300, 1e308, -1e308])
@pytest.mark.parametrize("commuting", [False, True])
def test_an_energy_scale_whose_draw_could_overflow_is_a_config_error(tmp_path, capsys, scale, commuting):
    # refused before the draw, with one message: no OverflowError (exit 4), no
    # RuntimeWarning (an error under the suite's filters) and no Hermitian check
    # failed on an overflowed norm
    cfg = json.loads((CONFIGS / "commuting_random.json").read_text())
    cfg["scenario"].update(commuting=commuting, scale=scale)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: |scale| must be at most 1e+64, got {scale}\n"
    assert not out.exists()


FORMS = ("axes", "meter_bases", "fourier_steps")
RESOLVER_CASES = [
    (form, d, prep, times)
    for form in (*FORMS, None)
    for d in (2, 3)
    if not (form == "axes" and d == 3)
    for prep in (False, True)
    for times in (False, True)
]


def _protocol_config(d: int, protocol: dict, scenario: dict | None = None) -> dict:
    return {
        "schema_version": 1,
        "scenario": scenario or {"kind": "random", "seed": 4, "probe_dim": d, "system_dim": 2},
        "protocol": protocol,
        "checks": ["kc"],
    }


def _protocol_fingerprint(protocol) -> str:
    return kp.serialize.fingerprint(kp.serialize.protocol_payload(protocol))


class TestProtocolResolution:
    @pytest.mark.parametrize("form, d, prep, times", RESOLVER_CASES)
    def test_each_form_builds_the_protocol_it_describes(self, tmp_path, form, d, prep, times):
        rng = np.random.default_rng(d)
        n = 3
        spec = {"n_max": n}
        if form == "axes":
            spec["axes"] = ["X", "Y", "Y"]
            bases = [kp.xy_meter_basis(axis) for axis in spec["axes"]]
        elif form == "meter_bases":
            spec["meter_bases"] = [matrix_rows(kp.haar_unitary(d, rng)) for _ in range(n)]
            labels = tuple(map(str, range(d)))
            bases = [kp.MeterBasis(rows_matrix(rows), labels) for rows in spec["meter_bases"]]
        elif form == "fourier_steps" or d == 3:  # no form on a qutrit: the Fourier meter
            if form:
                spec["fourier_steps"] = n
            bases = [kp.fourier_meter_basis(d)] * n
        else:  # no form on a qubit: X axes
            bases = [kp.xy_meter_basis("X")] * n
        preparation = kp.uniform_preparation(d)
        if prep:
            amplitudes = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            spec["preparation"] = [complex_pair(a) for a in amplitudes / np.linalg.norm(amplitudes)]
            preparation = kp.PreparationState(pairs_vector(spec["preparation"]))
        step_times = None
        if times:
            step_times = spec["step_times"] = [0.1, 5.0, 0.3]
        path = write_config(tmp_path / "cfg.json", _protocol_config(d, spec))
        experiment = build_experiment(load_run_config(path))
        direct = kp.MeasurementProtocol(experiment.model, preparation, tuple(bases), step_times)
        assert _protocol_fingerprint(experiment.protocol) == _protocol_fingerprint(direct)

    def test_repeated_meter_bases_rows_share_one_measurement(self, tmp_path):
        rng = np.random.default_rng(5)
        rows, other = (matrix_rows(kp.haar_unitary(3, rng)) for _ in range(2))
        spec = {"meter_bases": [rows, other, rows], "n_max": 3}
        path = write_config(tmp_path / "cfg.json", _protocol_config(3, spec))
        first, second, third = build_experiment(load_run_config(path)).protocol.step_measurements
        assert first is third and first is not second

    def test_uniform_preparation_is_plus_x_on_a_qubit(self):
        uniform = kp.uniform_preparation(2).amplitudes
        assert np.array_equal(uniform, kp.plus_x_preparation().amplitudes)

    def test_fourier_preparation_and_step_times_decide_the_verdict(self, tmp_path):
        # a pointer-state preparation never leaves the pointer basis, so KC holds
        spec = {"fourier_steps": 3, "step_times": [0.1, 5.0, 0.3], "n_max": 3}
        verdicts = {}
        for name, prep in (("uniform", None), ("pointer", [[1, 0], [0, 0], [0, 0]])):
            protocol = dict(spec, **({"preparation": prep} if prep else {}))
            cfg = _protocol_config(3, protocol, {"kind": "random", "probe_dim": 3})
            out = tmp_path / name
            assert main(["run", write_config(tmp_path / f"{name}.json", cfg), "--out", str(out)]) == 0
            verdicts[name] = json.loads((out / "report.json").read_text())["results"]["kc"]
        assert verdicts["uniform"]["verdict"] == "violated"
        assert verdicts["pointer"]["verdict"] == "consistent"
        assert verdicts["pointer"]["max_operator_defect"] <= 1e-15

    @pytest.mark.parametrize("pair", list(itertools.combinations(FORMS, 2)))
    def test_two_forms_are_a_config_error(self, tmp_path, capsys, pair):
        values = {"axes": ["X", "X"], "meter_bases": [matrix_rows(np.eye(2))] * 2, "fourier_steps": 2}
        cfg = _protocol_config(2, {form: values[form] for form in pair})
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: protocol names 2 forms {list(pair)}; give at most one\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("axes", ["X", "X", "X"]), ("preparation", [[1, 0], [0, 0]]), ("step_times", [1.0] * 3)],
    )
    def test_classical_noise_takes_only_n_max(self, tmp_path, capsys, field, value):
        cfg = _protocol_config(
            2, {field: value, "n_max": 3}, {"kind": "classical_noise", "seed": 5, "n_segments": 4}
        )
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: classical_noise builds its own protocol: ['{field}'] cannot be set\n"
        )
        assert not out.exists()

    def test_every_protocol_field_in_the_schema_changes_the_experiment(self, tmp_path):
        # ties the schema to the resolver: no declared field may be dropped on the way
        settings = {
            "axes": ["Y", "Y"],
            "meter_bases": [matrix_rows(np.eye(2))] * 2,
            "fourier_steps": 2,
            "preparation": [[0.6, 0.0], [0.0, 0.8]],
            "step_times": [0.3, 0.7],
            "n_max": 3,
        }
        assert set(settings) == set(load_schema()["properties"]["protocol"]["properties"])

        def built(protocol):
            path = write_config(tmp_path / "cfg.json", _protocol_config(2, protocol))
            experiment = build_experiment(load_run_config(path))
            return _protocol_fingerprint(experiment.protocol), experiment.n_max

        base_fingerprint, base_n_max = built({})
        for name, value in settings.items():
            fingerprint, n_max = built({name: value})
            if name == "n_max":
                assert n_max == value != base_n_max
            else:
                assert fingerprint != base_fingerprint, name


# one field of another kind per scenario kind; every kind reads its seed
UNREAD_SCENARIO_FIELDS = {
    "random": {"kind": "random", "omega": 1.0},
    "nv": {"kind": "nv", "n_nuclei": 1, "omega": 1.0, "couplings": [[1.0, 0.0, 0.0]], "probe_dim": 2},
    "classical_noise": {"kind": "classical_noise", "n_segments": 4, "step_time": 0.5},
    "explicit": {**sigma_pair_config()["scenario"], "omega": 1.0},
}


@pytest.mark.parametrize("kind", list(UNREAD_SCENARIO_FIELDS))
def test_scenario_field_its_kind_does_not_read_is_a_config_error(tmp_path, capsys, kind):
    scenario = dict(UNREAD_SCENARIO_FIELDS[kind])
    unread = list(scenario)[-1]
    cfg = {"schema_version": 1, "scenario": {**scenario, "seed": 3}}
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config does not match schema: '{unread}' is not one of")
    assert err.count("\n") == 1 and not out.exists()
    del scenario[unread]
    load_run_config(write_config(tmp_path / "cfg.json", {**cfg, "scenario": {**scenario, "seed": 3}}))


def test_every_shipped_config_matches_the_schema():
    root = CONFIGS.parent
    for path in [*CONFIGS.glob("*.json"), *(root / "perfbench" / "inputs").glob("*.json")]:
        load_run_config(path)
