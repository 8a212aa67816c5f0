import contextlib
import copy
import csv
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kcprobe as kp
from kcprobe.cli import _parse_grid, main
from kcprobe.config import build_experiment, load_run_config, load_schema
from kcprobe.errors import ConfigError
from kcprobe.linalg import check_density
from kcprobe.oracle import OracleReport
from kcprobe.sequences import _state_defects
from kcprobe.serialize import complex_pair, matrix_rows, pairs_vector, rows_matrix, write_json


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
            "scenario": kp.serialize.explicit_scenario(model),
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

    def test_random_scenario_seed_override(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": {"kind": "random", "seed": 3, "probe_dim": 2, "system_dim": 3},
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        base = build_experiment(load_run_config(path)).model
        overridden = build_experiment(load_run_config(path, seed=4)).model
        assert not np.allclose(base.hamiltonians[0], overridden.hamiltonians[0])


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


FUZZ_LEAVES = [path for path, is_leaf in _paths(FUZZ_BASE) if is_leaf]
FUZZ_KEYS = [path for path, _ in _paths(FUZZ_BASE) if isinstance(path[-1], str)]
FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.sampled_from([0.0, 1e308, -1e308, 1e-320]),
    st.text(max_size=4),
    st.just([]),
    st.sampled_from(["random", "nv", "classical_noise", "explicit", "X", "Y"]),
)
FUZZ_EDITS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(FUZZ_LEAVES), FUZZ_VALUES),
    st.tuples(st.just("delete"), st.sampled_from(FUZZ_KEYS), st.none()),
)


@settings(max_examples=50, deadline=None)
@given(FUZZ_EDITS)
def test_fuzzed_config_exits_with_a_documented_code_and_a_whole_bundle(edit):
    action, path, value = edit
    cfg = copy.deepcopy(FUZZ_BASE)
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
            code = main(["run", config_path, "--out", str(out)])
        assert code in {0, 1, 2, 3}, err.getvalue()
        assert "Traceback" not in err.getvalue()
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert written in ([], ["report.json", "timings.json"])
        if written:
            json.loads((out / "report.json").read_text())


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

    @pytest.mark.parametrize("param, grid, points", [("t", "0.1:2:7", 7), ("omega", "0,0.5,1", 3)])
    def test_builds_two_protocols_per_point(self, tmp_path, monkeypatch, param, grid, points):
        path = self.nv_config(tmp_path)
        builds = count_protocol_builds(monkeypatch)
        out = tmp_path / "out"
        assert main(["sweep", path, "--param", param, "--grid", grid, "--out", str(out)]) == 0
        assert len(builds) == 1 + 2 * points

    def test_validates_the_state_once_per_sweep(self, tmp_path, monkeypatch):
        calls = []

        def counted(rho, tol):
            calls.append(1)
            return check_density(rho, tol)

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

    @pytest.mark.parametrize(
        "grid",
        ["nan", "inf", "0.5,-inf", "a,b", "0:1:-3", "0:1:2.5", "0:nan:3", "1e400:1:2",
         "-1e308:1e308:3", "0:1"],
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

    def test_oracle_disagreement_exits_three(self, tmp_path, monkeypatch):
        def disagreeing(protocol, rho, n_max, tol):
            return OracleReport(n_max, 1.0, (1.0,) * n_max, 0.0, False, None, tol.as_dict())

        monkeypatch.setattr("kcprobe.cli.oracle_compare", disagreeing)
        path = write_config(tmp_path / "cfg.json", sigma_pair_config())
        out = tmp_path / "out"
        assert main(["oracle", path, "--out", str(out)]) == 3
        report = json.loads((out / "oracle.json").read_text())
        assert not any(r["agrees"] for r in report["reports"])


class TestRunOracleCheck:
    def test_run_exits_three_when_the_oracle_disagrees(self, tmp_path, monkeypatch, capsys):
        def disagreeing(protocol, rho, n_max, tol):
            return OracleReport(n_max, 1.0, (1.0,) * n_max, 0.0, False, None, tol.as_dict())

        monkeypatch.setattr("kcprobe.cli.oracle_compare", disagreeing)
        path = write_config(tmp_path / "cfg.json", sigma_pair_config(checks=["kc", "oracle"]))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["oracle"] == "disagrees"
        assert not any(r["agrees"] for r in report["results"]["oracle"])
        assert "oracle disagrees" in capsys.readouterr().err

    def test_a_shifted_defect_route_fails_both_commands(self, tmp_path, monkeypatch):
        def shifted(*args):
            return _state_defects(*args) + 1e-3

        monkeypatch.setattr("kcprobe.oracle._state_defects", shifted)
        path = write_config(tmp_path / "cfg.json", sigma_pair_config(checks=["oracle"]))
        assert main(["oracle", path, "--out", str(tmp_path / "o")]) == 3
        rows = json.loads((tmp_path / "o" / "oracle.json").read_text())["reports"]
        assert not any(r["agrees"] for r in rows)
        assert all(r["max_abs_discrepancy"] <= 1e-11 for r in rows)
        assert main(["run", path, "--out", str(tmp_path / "r")]) == 3
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert report["summary"]["oracle"] == "disagrees"

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
        path = write_config(tmp_path / "cfg.json", sigma_pair_config(search={"trials": 2}))
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
