import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import arsusim
from arsusim.cli import main
from arsusim.config import parse_scenario
from arsusim.latency import LatencyModel, composed_csv_rows
from arsusim.messages import LinkTech
from arsusim.report import (
    build_report_dict,
    emit_table4,
    matrix_csv_rows,
    report_json,
    scenario_matrix,
)
from arsusim.sim import SimulationInvariantError, run

PRINTED_ROW1 = (5.470, 7.354, 9.166, 10.906, 12.574)

RUN_SCENARIO = """
duration_ms: 2000
scenario_speed_kmh: 60
seed: 9
arsu: {coverage_radius_m: 400}
users:
  - {kind: native_dsrc, id: U1, x_m: 10, gnss_error_std_m: 1.0}
  - {kind: native_cv2x, id: U2, x_m: 20, gnss_error_std_m: 1.0}
  - {kind: nonnative_cell, id: U3, x_m: 30, gnss_error_std_m: 1.0}
  - {kind: non_connected, id: P1, x_m: 60}
ipu: {noise_std_m: 1.0}
"""


class TestTable4Emission:
    def test_values_match_printed_table(self):
        matrix, text, rows = emit_table4(LatencyModel.default())
        assert matrix[0][0] == pytest.approx(5.470, abs=0.01)
        assert matrix[3][4] == pytest.approx(165.482, abs=0.01)
        assert matrix[6][4] == pytest.approx(382.741, abs=0.01)
        assert "5.470" in text
        assert "382.741*" in text  # reduced-latency marker

    def test_no_cell_is_unserviceable(self):
        matrix, text, _ = emit_table4(LatencyModel.default())
        assert all(v < 600.0 for row in matrix for v in row)
        assert "!" not in text.split("categories:")[0]

    def test_csv_rows_are_loadable_format(self):
        _, _, rows = emit_table4(LatencyModel.default())
        assert rows[0] == ["uplink", "downlink", "0", "30", "60", "90", "120"]
        assert rows[1][:2] == ["DSRC", "CV2X"]
        assert rows[1][2] == "5.470"
        assert len(rows) == 8


class TestScenarioMatrix:
    def test_ten_rows_in_order(self):
        rows = scenario_matrix(LatencyModel.default())
        assert [r["scenario"] for r in rows] == list(range(1, 11))

    def test_scenario_one_near_real_time_all_apps(self):
        rows = scenario_matrix(LatencyModel.default(), (0.0, 120.0))
        row = rows[0]
        assert row["uplink"] == "DSRC" and row["downlink"] == "CV2X"
        assert row["max_delay_ms"] == pytest.approx(12.574, abs=0.01)
        assert row["category"] == "near real-time"
        assert row["serviceable_apps"] == [
            "BSW", "DNPW", "EEBL", "FCW", "IMA", "LCW"
        ]

    def test_scenario_seven_time_sensitive_only(self):
        rows = scenario_matrix(LatencyModel.default(), (0.0, 120.0))
        row = rows[6]
        assert row["uplink"] == "Cell" and row["downlink"] == "Cell"
        assert row["max_delay_ms"] == pytest.approx(165.482, abs=0.01)
        assert row["category"] == "reduced latency"
        assert row["serviceable_apps"] == ["BSW", "DNPW", "LCW"]

    def test_scenario_ten_max_and_category(self):
        rows = scenario_matrix(LatencyModel.default(), (0.0, 120.0))
        row = rows[9]
        assert row["uplink"] == "Cam" and row["downlink"] == "Cell"
        assert row["max_delay_ms"] == pytest.approx(382.741, abs=0.01)
        assert row["category"] == "reduced latency"

    def test_observed_cross_check_not_flagged_on_faithful_run(self):
        result = run(parse_scenario(RUN_SCENARIO))
        rows = scenario_matrix(result.model, (0.0, 120.0), result)
        observed_rows = [r for r in rows if r["observed_count"]]
        assert observed_rows, "expected observations on some scenarios"
        assert all(not r["flagged"] for r in observed_rows)

    def test_csv_shape(self):
        rows = matrix_csv_rows(scenario_matrix(LatencyModel.default()))
        assert len(rows) == 11
        assert rows[0][0] == "scenario"
        assert rows[1][1] == "DSRC"


class TestReportDocument:
    def test_report_is_json_serializable_and_sorted(self):
        result = run(parse_scenario(RUN_SCENARIO))
        text = report_json(build_report_dict(result))
        data = json.loads(text)
        assert data["seed"] == 9
        assert data["coverage"]["no_pairs"] is False
        assert len(data["scenario_matrix"]) == 10
        assert len(data["table4_recomposition"]["rows"]) == 7

    def test_report_bytes_stable_across_runs(self):
        cfg = parse_scenario(RUN_SCENARIO)
        a = report_json(build_report_dict(run(cfg)))
        b = report_json(build_report_dict(run(cfg)))
        assert a == b

    def test_paths_carry_model_reference_and_small_error(self):
        result = run(parse_scenario(RUN_SCENARIO))
        report = build_report_dict(result)
        entry = report["paths"]["DSRC->CV2X"]
        assert entry["model_ms"] == pytest.approx(9.166, abs=0.01)
        assert entry["max_abs_error_ms"] <= 0.001

    @pytest.mark.parametrize("processing_ms", [300.0, 120.0, 37.5])
    def test_camera_paths_are_checked_at_the_scenario_processing_time(
        self, processing_ms
    ):
        """A standing pedestrian seen without noise reaches each
        technology after the IPU's processing time plus the downlink
        half: the run's ``processing_ms``, not the table's 300 ms."""
        text = RUN_SCENARIO.replace(
            "id: P1, x_m: 60}", "id: P1, x_m: 60, speed_kmh: 0}").replace(
            "ipu: {noise_std_m: 1.0}",
            f"ipu: {{noise_std_m: 0.0, processing_ms: {processing_ms}}}")
        result = run(parse_scenario(text))
        paths = build_report_dict(result)["paths"]
        for down, label in ((LinkTech.DSRC, "DSRC"), (LinkTech.CV2X, "CV2X"),
                            (LinkTech.CELL_MQTT, "Cell")):
            entry = paths[f"Cam->{label}"]
            expected = round(
                processing_ms + result.model.half_delay(down, 60.0), 3)
            assert entry["model_ms"] == expected == entry["min_ms"], label


class TestCli:
    def _write_scenario(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(RUN_SCENARIO)
        return path

    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        config = self._write_scenario(tmp_path)
        out = tmp_path / "out"
        code = main(["run", str(config), "--out", str(out), "--trace"])
        assert code == 0
        for name in ("report.json", "table4.csv", "matrix.csv", "trace.csv"):
            assert (out / name).exists(), f"{name} missing"
        report = json.loads((out / "report.json").read_text())
        assert report["counts"]["deliveries_to_users"] > 0

    def test_run_is_byte_identical_for_equal_seeds(self, tmp_path):
        config = self._write_scenario(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config), "--out", str(out1), "--trace"]) == 0
        assert main(["run", str(config), "--out", str(out2), "--trace"]) == 0
        assert (out1 / "report.json").read_bytes() == (
            out2 / "report.json"
        ).read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (
            out2 / "trace.csv"
        ).read_bytes()

    def test_seed_override_changes_trace(self, tmp_path):
        config = self._write_scenario(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config), "--out", str(out1), "--trace",
                     "--seed", "100"]) == 0
        assert main(["run", str(config), "--out", str(out2), "--trace",
                     "--seed", "200"]) == 0
        assert (out1 / "trace.csv").read_bytes() != (
            out2 / "trace.csv"
        ).read_bytes()

    def test_config_error_exits_two_without_outputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("duration_ms: 100\nspede: 1\n")
        out = tmp_path / "out"
        code = main(["run", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        config = self._write_scenario(tmp_path)
        bad = tmp_path / "bad.yaml"
        bad.write_text(RUN_SCENARIO.replace("seed: 9", "seed: -1"))
        out = tmp_path / "out"
        assert main(["validate-config", str(bad)]) == 2
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert main(["run", str(config), "--out", str(out),
                     "--seed", "-1"]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("config error: ") == 3
        assert err.count("must be a non-negative integer") == 3

    def test_user_past_a_pole_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("duration_ms: 1000\norigin: {lat: 89.9999, lon: 0}\n"
                       "users:\n  - {kind: native_dsrc, id: U1, y_m: 20}\n")
        out = tmp_path / "out"
        assert main(["validate-config", str(bad)]) == 2
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.count("past a pole") == 2

    def test_user_past_a_quarter_turn_east_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("duration_ms: 2000\nscenario_speed_kmh: 0\n"
                       "origin: {lat: 89.99999, lon: 0}\n"
                       "users:\n  - {kind: native_dsrc, id: U1}\n"
                       "  - {kind: non_connected, id: P1, x_m: 100}\n")
        out = tmp_path / "out"
        assert main(["validate-config", str(bad)]) == 2
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.count("past 90° of longitude") == 2

    def test_origin_on_a_pole_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("duration_ms: 1000\norigin: {lat: 90, lon: 0}\n"
                       "users:\n  - {kind: native_dsrc, id: U1}\n"
                       "  - {kind: non_connected, id: P1, x_m: 100}\n")
        out = tmp_path / "out"
        assert main(["validate-config", str(bad)]) == 2
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.count("is a pole") == 2

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        """``python -m arsusim`` from a source checkout runs the same CLI,
        exit code included."""
        config = self._write_scenario(tmp_path)
        src = str(Path(arsusim.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)

        def python_m(*args):
            return subprocess.run(
                [sys.executable, "-m", "arsusim", *args], env=env,
                cwd=tmp_path, capture_output=True, text=True, timeout=120,
            )

        done = python_m("run", str(config), "--out", "sub", "--trace")
        assert done.returncode == 0, done.stderr
        assert main(["run", str(config), "--out", str(tmp_path / "in"),
                     "--trace"]) == 0
        for name in ("report.json", "trace.csv"):
            assert (tmp_path / "sub" / name).read_bytes() == (
                tmp_path / "in" / name).read_bytes()
        bad = tmp_path / "bad.yaml"
        bad.write_text("duration_ms: 100\nspede: 1\n")
        done = python_m("validate-config", str(bad))
        assert done.returncode == 2
        assert "config error" in done.stderr

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 2

    def test_missing_latency_csv_exits_two(self, tmp_path, capsys):
        config = tmp_path / "scenario.yaml"
        config.write_text(
            "duration_ms: 100\nlatency_csv: /nonexistent/delays.csv\n"
            "users:\n  - {kind: native_dsrc}\n"
        )
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "latency_csv" in capsys.readouterr().err

    def _latency_csv_scenario(self, tmp_path, case):
        """A delay table that fails to load in the way ``case`` names,
        and a scenario that names it: (scenario path, table path)."""
        if case == "empty":
            table = ""
        elif case == "missing":
            table = "/nonexistent/table.csv"
        elif case == "directory":
            table = tmp_path / "tables"
            table.mkdir()
        else:
            rows = [list(r) for r in composed_csv_rows(
                LatencyModel.default().composed_matrix())]
            if case == "bad header":
                rows[0][0] = "from"
            else:  # inconsistent: row 1 no longer recomposes from halves
                rows[1][2] = f"{float(rows[1][2]) + 5.0:.3f}"
            table = tmp_path / "table.csv"
            table.write_text("\n".join(",".join(r) for r in rows) + "\n")
        config = tmp_path / "scenario.yaml"
        config.write_text(f"latency_csv: '{table}'\n" + RUN_SCENARIO)
        return config, table

    @pytest.mark.parametrize(
        "case", ["missing", "bad header", "inconsistent", "directory"])
    def test_validate_config_rejects_the_latency_csv_run_rejects(
        self, tmp_path, capsys, case
    ):
        config, _ = self._latency_csv_scenario(tmp_path, case)
        assert main(["validate-config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: latency_csv: ")
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == captured.err

    @pytest.mark.parametrize(
        "case", ["missing", "bad header", "inconsistent", "directory",
                 "empty"])
    def test_table4_matrix_and_run_give_one_message_for_a_bad_table(
        self, tmp_path, capsys, case
    ):
        config, table = self._latency_csv_scenario(tmp_path, case)
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        message = capsys.readouterr().err
        assert message.startswith("config error: latency_csv: ")
        for command in ("table4", "matrix"):
            assert main([command, "--latency-csv", str(table)]) == 2
            assert capsys.readouterr() == ("", message)

    def test_unwritable_output_exits_three(self, tmp_path):
        config = self._write_scenario(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(["run", str(config), "--out", str(blocker / "out")])
        assert code == 3

    def test_output_under_a_file_is_an_i_o_error(self, tmp_path, capsys):
        config = self._write_scenario(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["run", str(config), "--out", str(blocker / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, printed", [("table4", "5.470"), ("matrix", "near real-time")])
    def test_csv_under_a_file_exits_three_after_printing(
        self, tmp_path, capsys, command, printed
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main([command, "--csv", str(blocker / "out.csv")]) == 3
        out, err = capsys.readouterr()
        assert printed in out
        assert err.startswith("i/o error: ") and err.count("\n") == 1

    def test_invariant_violation_exits_four_without_outputs(
        self, tmp_path, capsys, monkeypatch
    ):
        def broken(config, seed=None):
            raise SimulationInvariantError("broken rule")

        monkeypatch.setattr("arsusim.cli.run_simulation", broken)
        config = self._write_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 4
        assert capsys.readouterr().err == "invariant violation: broken rule\n"
        assert not out.exists()

    def test_unwritable_output_permissions_exits_three(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory write permissions")
        config = self._write_scenario(tmp_path)
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        try:
            code = main(["run", str(config), "--out", str(locked / "out")])
        finally:
            locked.chmod(stat.S_IRWXU)
        assert code == 3

    def test_table4_prints_and_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "table4.csv"
        assert main(["table4", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "5.470" in out
        assert csv_path.exists()

    def test_table4_reload_from_own_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "table4.csv"
        assert main(["table4", "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        assert main(["table4", "--latency-csv", str(csv_path)]) == 0
        assert "5.470" in capsys.readouterr().out

    def test_table4_bad_csv_exits_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        assert main(["table4", "--latency-csv", str(bad)]) == 2

    def test_table4_csv_with_one_cell_row_exits_two(self, tmp_path, capsys):
        rows = [",".join(r) for r in composed_csv_rows(
            LatencyModel.default().composed_matrix())]
        rows[3] = "DSRC"
        bad = tmp_path / "short.csv"
        bad.write_text("\n".join(rows) + "\n")
        assert main(["table4", "--latency-csv", str(bad)]) == 2
        assert "config error:" in capsys.readouterr().err

    @staticmethod
    def _csv_with_nan(tmp_path, row):
        """The default delay table as CSV, with NaN in data row ``row``
        at 0 km/h."""
        rows = list(composed_csv_rows(
            LatencyModel.default().composed_matrix()))
        rows[row][2] = "nan"
        path = tmp_path / "nan.csv"
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        return path

    def test_table4_csv_with_nan_exits_two(self, tmp_path, capsys):
        path = self._csv_with_nan(tmp_path, 1)  # DSRC,CV2X
        assert main(["table4", "--latency-csv", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error: latency_csv: row 1 at 0 km/h" in err

    def test_run_with_nan_latency_csv_exits_two(self, tmp_path, capsys):
        path = self._csv_with_nan(tmp_path, 5)  # Cam,DSRC
        config = tmp_path / "scenario.yaml"
        config.write_text(f"latency_csv: {path}\n" + RUN_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error:" in err and "row 5 at 0 km/h" in err
        assert "Traceback" not in err

    def test_matrix_prints_ten_rows(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 10
        assert "near real-time" in out

    def test_matrix_speed_range_validation(self, capsys):
        assert main(["matrix", "--speed-range", "90", "30"]) == 2

    def test_matrix_csv(self, tmp_path):
        path = tmp_path / "matrix.csv"
        assert main(["matrix", "--csv", str(path)]) == 0
        assert path.read_text().startswith("scenario,")

    def test_validate_config_ok(self, tmp_path, capsys):
        config = self._write_scenario(tmp_path)
        assert main(["validate-config", str(config)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_config_bad(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("users: []\n")
        assert main(["validate-config", str(bad)]) == 2
