"""Command-line front-end: artifacts, exit codes, reproducibility."""
from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from stabmor import analysis, benchgen, cli
from stabmor.dynsys import LinearSystem, save_system


def read_csv(path):
    """Parse a versioned CSV into (columns, rows of strings)."""
    lines = path.read_text().splitlines()
    assert lines[0] == "# stabmor-v1"
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return columns, rows


def column(rows, columns, name):
    i = columns.index(name)
    return [row[i] for row in rows]


def floats(cells):
    return np.array([float(c) for c in cells])


def make_msd_bundle(path, masses=4):
    assert cli.main(["generate", "msd", "--masses", str(masses),
                     "--out", str(path)]) == 0
    return path


def make_crafted_bundle(path):
    # stable shear system whose rank-1 Galerkin projection flips sign
    system = LinearSystem(np.eye(2), np.array([[-1.0, 4.0], [0.0, -1.0]]),
                          np.array([[1.0], [1.0]]), np.array([[1.0, 0.0]]))
    save_system(system, path)
    return path


def make_unstable_bundle(path):
    system = LinearSystem(np.eye(2), np.diag([1.0, -2.0]),
                          np.ones((2, 1)), np.ones((1, 2)))
    save_system(system, path)
    return path


class TestGenerate:
    def test_msd_four_masses_gives_eight_states(self, tmp_path, capsys):
        out = tmp_path / "fom"
        assert cli.main(["generate", "msd", "--masses", "4",
                         "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "wrote system bundle (n = 8)" in captured.out
        assert "spectral abscissa" in captured.out
        for name in ("E.mtx", "A.mtx", "B.mtx", "C.mtx", "manifest.json",
                     "report.json"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["n"] == 8
        assert report["stability"]["alpha"] < 0.0

    def test_convdiff_reports_nonnegative_eigenvalue(self, tmp_path):
        out = tmp_path / "cd"
        assert cli.main(["generate", "convdiff", "--n", "400", "--grade", "8",
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["stability"]["k"] >= 1
        assert report["stability"]["mu_max"] > 0.0
        assert report["stability"]["alpha"] < 0.0

    def test_invalid_masses_exits_2_without_files(self, tmp_path, capsys):
        out = tmp_path / "nope"
        assert cli.main(["generate", "msd", "--masses", "0",
                         "--out", str(out)]) == cli.USAGE_ERROR
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")

    def test_cubic_msd_bundle_records_nonlinear_metadata(self, tmp_path):
        out = tmp_path / "nl"
        assert cli.main(["generate", "cubic-msd", "--masses", "3",
                         "--gamma", "0.7", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["nonlinear"]["kind"] == "cubic_msd"
        assert manifest["nonlinear"]["gamma"] == 0.7
        assert manifest["n"] == 6

    def test_module_is_runnable_as_subprocess(self, tmp_path):
        out = tmp_path / "fom"
        proc = subprocess.run(
            [sys.executable, "-m", "stabmor.cli", "generate", "msd",
             "--masses", "2", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "wrote system bundle (n = 4)" in proc.stdout
        assert (out / "manifest.json").exists()


class TestReduce:
    def test_stabilized_sweep_is_stable_columnwise(self, tmp_path):
        fom = make_msd_bundle(tmp_path / "fom", masses=6)
        out = tmp_path / "red"
        assert cli.main(["reduce", "--bundle", str(fom), "--r", "1:6",
                         "--stabilize", "--out", str(out)]) == 0
        columns, rows = read_csv(out / "error_sweep.csv")
        assert columns == ["r", "spectral_abscissa_conventional",
                           "spectral_abscissa_stabilized", "h2_error",
                           "max_output_error"]
        assert floats(column(rows, columns, "r")).tolist() == [1, 2, 3, 4, 5, 6]
        stab = floats(column(rows, columns, "spectral_abscissa_stabilized"))
        assert np.all(stab < 0.0)
        h2 = floats(column(rows, columns, "h2_error"))
        assert np.all(np.isfinite(h2)) and np.all(h2 >= 0.0)
        # ROM bundles and stabilizer factors are persisted alongside the sweep
        assert (out / "roms" / "r003_conventional" / "A.mtx").exists()
        assert (out / "roms" / "r003_stabilized" / "A.mtx").exists()
        assert (out / "stabilizer").is_dir()
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == 0
        assert report["stabilizer"]["k"] >= 1

    def test_crafted_case_is_conventionally_unstable(self, tmp_path):
        fom = make_crafted_bundle(tmp_path / "crafted")
        out = tmp_path / "plain"
        assert cli.main(["reduce", "--bundle", str(fom), "--r", "1",
                         "--out", str(out)]) == 0
        columns, rows = read_csv(out / "error_sweep.csv")
        alpha = float(column(rows, columns, "spectral_abscissa_conventional")[0])
        assert alpha == pytest.approx(0.2, abs=1e-12)
        # unstable model: abscissa reported, H2 error marked unavailable
        assert column(rows, columns, "h2_error")[0] == "NA"
        assert column(rows, columns, "spectral_abscissa_stabilized")[0] == "NA"

    def test_crafted_case_stabilized_column_is_stable(self, tmp_path):
        fom = make_crafted_bundle(tmp_path / "crafted")
        out = tmp_path / "stab"
        assert cli.main(["reduce", "--bundle", str(fom), "--r", "1",
                         "--stabilize", "--out", str(out)]) == 0
        columns, rows = read_csv(out / "error_sweep.csv")
        conv = float(column(rows, columns, "spectral_abscissa_conventional")[0])
        stab = float(column(rows, columns, "spectral_abscissa_stabilized")[0])
        assert conv > 0.0 > stab
        assert float(column(rows, columns, "h2_error")[0]) > 0.0

    def test_pod_method_runs(self, tmp_path):
        fom = make_msd_bundle(tmp_path / "fom")
        out = tmp_path / "pod"
        assert cli.main(["reduce", "--bundle", str(fom), "--method", "pod",
                         "--r", "1:3", "--input", "sine:4",
                         "--out", str(out)]) == 0
        _, rows = read_csv(out / "error_sweep.csv")
        assert len(rows) == 3

    def test_r_exceeding_n_exits_2(self, tmp_path, capsys):
        fom = make_msd_bundle(tmp_path / "fom")
        assert cli.main(["reduce", "--bundle", str(fom), "--r", "50",
                         "--out", str(tmp_path / "red")]) == cli.USAGE_ERROR
        assert "exceeds system dimension" in capsys.readouterr().err

    def test_nonlinear_bundle_is_rejected(self, tmp_path):
        out = tmp_path / "nl"
        cli.main(["generate", "cubic-msd", "--masses", "3", "--out", str(out)])
        assert cli.main(["reduce", "--bundle", str(out), "--r", "1",
                         "--out", str(tmp_path / "red")]) == cli.USAGE_ERROR

    def test_unstable_pencil_exits_3(self, tmp_path, capsys):
        fom = make_unstable_bundle(tmp_path / "unst")
        out = tmp_path / "red"
        assert cli.main(["reduce", "--bundle", str(fom), "--r", "1",
                         "--stabilize", "--s0", "3.5",
                         "--out", str(out)]) == cli.NUMERICAL_ERROR
        assert "numerical failure" in capsys.readouterr().err
        assert not (out / "error_sweep.csv").exists()

    def test_expansion_point_on_pole_exits_3(self, tmp_path):
        fom = make_unstable_bundle(tmp_path / "unst")
        assert cli.main(["reduce", "--bundle", str(fom), "--r", "1",
                         "--s0", "1.0",
                         "--out", str(tmp_path / "red")]) == cli.NUMERICAL_ERROR

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        fom = make_msd_bundle(tmp_path / "fom")
        args = ["reduce", "--bundle", str(fom), "--r", "1:4", "--stabilize"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        csv_a = (tmp_path / "a" / "error_sweep.csv").read_bytes()
        csv_b = (tmp_path / "b" / "error_sweep.csv").read_bytes()
        assert csv_a == csv_b
        rep_a = json.loads((tmp_path / "a" / "report.json").read_text())
        rep_b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert rep_a["settings"].pop("out") != rep_b["settings"].pop("out")
        assert rep_a == rep_b

    def test_report_captures_settings(self, tmp_path):
        fom = make_msd_bundle(tmp_path / "fom")
        out = tmp_path / "red"
        cli.main(["reduce", "--bundle", str(fom), "--r", "2,1", "--stabilize",
                  "--out", str(out)])
        text = (out / "report.json").read_text()
        report = json.loads(text)
        # stable formatting: sorted keys, trailing newline
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert report["version"] == analysis.CSV_VERSION
        settings = report["settings"]
        assert settings["command"] == "reduce"
        assert settings["r_list"] == [1, 2]
        assert settings["stabilize"] is True
        assert settings["adi"]["steps"] >= 1
        assert settings["seed"] == 0


class TestSimulate:
    def test_trapezoid_row_count(self, tmp_path):
        fom = make_msd_bundle(tmp_path / "fom")
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--bundle", str(fom),
                         "--input", "sine:1e-5", "--horizon", "1e-3",
                         "--integrator", "trapezoid:1000",
                         "--out", str(out)]) == 0
        columns, rows = read_csv(out / "trajectory.csv")
        assert columns == ["t", "y_1"]
        assert len(rows) == 1001
        report = json.loads((out / "report.json").read_text())
        assert report["rows"] == 1001
        assert report["stats"]["steps"] == 1000

    def test_zero_input_keeps_outputs_zero(self, tmp_path):
        fom = make_msd_bundle(tmp_path / "fom")
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--bundle", str(fom), "--input", "zero",
                         "--integrator", "trapezoid:200",
                         "--out", str(out)]) == 0
        columns, rows = read_csv(out / "trajectory.csv")
        assert np.all(floats(column(rows, columns, "y_1")) == 0.0)

    def test_adaptive_matches_trapezoid(self, tmp_path):
        fom = make_msd_bundle(tmp_path / "fom")
        shared = ["simulate", "--bundle", str(fom), "--input", "sine:4",
                  "--horizon", "10"]
        assert cli.main(shared + ["--integrator", "trapezoid:4000",
                                  "--out", str(tmp_path / "trap")]) == 0
        assert cli.main(shared + ["--integrator", "adaptive:1e-8",
                                  "--out", str(tmp_path / "adap")]) == 0
        ct, rt = read_csv(tmp_path / "trap" / "trajectory.csv")
        ca, ra = read_csv(tmp_path / "adap" / "trajectory.csv")
        t_t = floats(column(rt, ct, "t"))
        y_t = floats(column(rt, ct, "y_1"))
        y_a = np.interp(t_t, floats(column(ra, ca, "t")),
                        floats(column(ra, ca, "y_1")))
        assert np.abs(y_t - y_a).max() <= 2e-4

    def test_nonlinear_bundle_uses_the_cubic_dynamics(self, tmp_path):
        out = tmp_path / "nl"
        cli.main(["generate", "cubic-msd", "--masses", "3", "--gamma", "0.5",
                  "--out", str(out)])
        sim = tmp_path / "sim"
        assert cli.main(["simulate", "--bundle", str(out), "--input", "sine:4",
                         "--horizon", "5", "--integrator", "trapezoid:400",
                         "--out", str(sim)]) == 0
        columns, rows = read_csv(sim / "trajectory.csv")
        assert len(rows) == 401
        y_cli = floats(column(rows, columns, "y_1"))
        u = analysis.make_input("sine", period=4.0)
        nl = benchgen.gen_cubic_msd(masses=3, gamma=0.5)
        ref = analysis.integrate_trapezoidal(nl, u, np.zeros(6), (0.0, 5.0),
                                             steps=400)
        assert np.allclose(y_cli, ref.y[:, 0], atol=1e-12)
        lin = analysis.integrate_trapezoidal(benchgen.gen_msd_chain(masses=3),
                                             u, np.zeros(6), (0.0, 5.0),
                                             steps=400)
        assert np.abs(ref.y[:, 0] - lin.y[:, 0]).max() > 1e-6

    def test_unknown_integrator_exits_2(self, tmp_path):
        fom = make_msd_bundle(tmp_path / "fom")
        assert cli.main(["simulate", "--bundle", str(fom),
                         "--integrator", "euler",
                         "--out", str(tmp_path / "sim")]) == cli.USAGE_ERROR

    def test_unknown_input_exits_2(self, tmp_path):
        fom = make_msd_bundle(tmp_path / "fom")
        assert cli.main(["simulate", "--bundle", str(fom), "--input", "noise",
                         "--out", str(tmp_path / "sim")]) == cli.USAGE_ERROR


class TestAnalyze:
    def test_bode_table_written(self, tmp_path):
        fom = make_msd_bundle(tmp_path / "fom")
        out = tmp_path / "ana"
        assert cli.main(["analyze", "--bundle", str(fom), "--points", "50",
                         "--out", str(out)]) == 0
        columns, rows = read_csv(out / "bode.csv")
        assert columns == ["omega", "mag_db", "phase_deg"]
        assert len(rows) == 50
        omegas = floats(column(rows, columns, "omega"))
        assert np.all(np.diff(omegas) > 0.0)
        report = json.loads((out / "report.json").read_text())
        assert report["grid"]["points"] == 50
        assert report["stability"]["alpha"] < 0.0

    def test_compare_reports_h2_error(self, tmp_path, capsys):
        fom = make_msd_bundle(tmp_path / "fom")
        out = tmp_path / "ana"
        assert cli.main(["analyze", "--bundle", str(fom),
                         "--compare", str(fom), "--points", "20",
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["h2_error"]["value"] == 0.0
        assert sorted(report["h2_error"]) == ["slack", "value"]
        assert "h2 error" in capsys.readouterr().out

    def test_nonlinear_bundle_is_rejected(self, tmp_path):
        out = tmp_path / "nl"
        cli.main(["generate", "cubic-msd", "--masses", "3", "--out", str(out)])
        assert cli.main(["analyze", "--bundle", str(out),
                         "--out", str(tmp_path / "ana")]) == cli.USAGE_ERROR

    def test_missing_bundle_exits_2(self, tmp_path):
        assert cli.main(["analyze", "--bundle", str(tmp_path / "nowhere"),
                         "--out", str(tmp_path / "ana")]) == cli.USAGE_ERROR
