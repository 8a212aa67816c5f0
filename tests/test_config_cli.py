import csv
import json

import jsonschema
import numpy as np
import pytest

import kcprobe as kp
from kcprobe.cli import _parse_grid, main
from kcprobe.config import build_experiment, load_run_config, load_schema
from kcprobe.errors import ConfigError
from kcprobe.oracle import OracleReport
from kcprobe.serialize import complex_pair, matrix_rows, pairs_vector, rows_matrix


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
        rows = list(csv.reader((out / "sweep.csv").open()))
        assert rows[0][0] == "omega"
        zero_row = [float(x) for x in rows[1]]
        assert max(abs(v) for v in zero_row[1:]) <= 1e-9
        one_row = [float(x) for x in rows[2]]
        assert one_row[1] > 1e-3  # kc defect column
        assert one_row[6] == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-10)

    def test_t_grid_parallel_matches_serial(self, tmp_path):
        path = self.nv_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        grid = "0.2:1.0:5"
        assert main(["sweep", path, "--param", "t", "--grid", grid, "--out", str(out1)]) == 0
        assert main(
            ["sweep", path, "--param", "t", "--grid", grid, "--out", str(out2), "--threads", "4"]
        ) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("param, grid, points", [("t", "0.1:2:7", 7), ("omega", "0,0.5,1", 3)])
    def test_builds_two_protocols_per_point(self, tmp_path, monkeypatch, param, grid, points):
        path = self.nv_config(tmp_path)
        builds = count_protocol_builds(monkeypatch)
        out = tmp_path / "out"
        assert main(["sweep", path, "--param", param, "--grid", grid, "--out", str(out)]) == 0
        assert len(builds) == 1 + 2 * points

    def test_empty_grid_writes_header_only(self, tmp_path):
        path = self.nv_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", path, "--param", "t", "--grid", "", "--out", str(out)]) == 0
        rows = list(csv.reader((out / "sweep.csv").open()))
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
        assert len(list(csv.reader((out / "sweep.csv").open()))) == 1 + rows

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

    def test_unknown_parameter_is_config_error(self, tmp_path):
        cfg = sigma_pair_config()
        path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["sweep", path, "--param", "omega", "--grid", "0,1", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["run", "oracle", "search"])
def test_threads_is_a_sweep_only_flag(tmp_path, command):
    path = write_config(tmp_path / "cfg.json", sigma_pair_config(search={"trials": 2}))
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--threads", "2", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


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
