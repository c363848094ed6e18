import csv
import json

import numpy as np
import pytest

import ddmsim.cli
from ddmsim.analysis import FitConvergenceError
from ddmsim.cli import _read_table, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSweepCommands:
    def test_steady_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "steady", "--n-atoms", "4", "--rabi", "2.0,6.0"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# {")
        assert len(lines) == 4  # metadata, header, 2 rows

    def test_steady_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "steady.csv"
        code, out, _ = run_cli(
            capsys, "steady", "--n-atoms", "4", "--rabi", "2.0", "--out",
            str(out_path),
        )
        assert code == 0
        assert out == ""
        assert out_path.exists()

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "mode": "screening_curve",
            "grids": {"n_atoms": [20], "beta": [0.5, 2.0]},
        }))
        code, out, _ = run_cli(
            capsys, "screening", "--config", str(cfg), "--beta", "2.0"
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 3  # beta grid overridden to 1 point

    def test_mu_command(self, capsys):
        code, out, _ = run_cli(
            capsys, "mu", "--ell-ax", "22.5", "--ell-rad", "0.5"
        )
        assert code == 0
        row = out.strip().split("\n")[-1].split(",")
        header = out.strip().split("\n")[1].split(",")
        mu = float(row[header.index("mu")])
        assert 2.0e-3 <= mu <= 3.0e-3

    def test_dynamics_with_ns_units(self, capsys):
        # 150 ns at the default linewidth is 5.65 decay times.
        code, out, _ = run_cli(
            capsys, "dynamics", "--n-atoms", "2", "--rabi", "4.5",
            "--t-final-ns", "150", "--n-samples", "11",
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[1].split(",")
        last = lines[-1].split(",")
        t_final = float(last[header.index("t")])
        assert t_final == pytest.approx(150e-3 * 2 * np.pi * 6.0, rel=1e-12)

    def test_config_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "steady", "--rabi", "2.0")
        assert code == 1
        assert "config error" in err

    def test_non_integer_n_atoms_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "phase-diagram", "--n-atoms", "4,4.7", "--beta", "2.0"
        )
        assert code == 1
        assert out == ""
        assert "config error" in err and "4.7" in err

    def test_mode_mismatch_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mode": "dynamics", "grids": {}}))
        code, _, _ = run_cli(capsys, "steady", "--config", str(cfg))
        assert code == 1

    def test_solver_failure_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "steady", "--n-atoms", "-4", "--rabi", "2.0")
        assert code == 2
        assert "solver failure" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, capsys, threads):
        code, out, err = run_cli(
            capsys, "steady", "--n-atoms", "4", "--rabi", "2.0",
            "--threads", threads,
        )
        assert code == 1
        assert out == ""
        assert "config error" in err and "threads" in err

    @pytest.mark.parametrize("argv, status", [
        (("mu", "--ell-ax", "nan,22.5", "--ell-rad", "0.5"),
         "error: cloud sizes must be finite, got ell_ax=nan, ell_rad=0.5"),
        (("mu", "--ell-ax", "inf,22.5", "--ell-rad", "0.5"),
         "error: cloud sizes must be finite, got ell_ax=inf, ell_rad=0.5"),
        (("screening", "--n-atoms", "20", "--beta", "nan,0.5"),
         "error: beta must be finite and > 0, got nan"),
        (("screening", "--n-atoms", "20", "--beta", "inf,0.5"),
         "error: beta must be finite and > 0, got inf"),
        (("screening", "--n-atoms", "nan,20", "--beta", "0.5"),
         "error: n_atoms must be finite and >= 1, got nan"),
        # Finite input whose result overflows: N*x squared, 1/ell_ax.
        (("screening", "--n-atoms", "1e200", "--beta", "1e120,0.5"),
         "error: non-finite residual"),
        (("mu", "--ell-ax", "1e-320,22.5", "--ell-rad", "0.5"),
         "error: non-finite small_angle_estimate"),
    ])
    def test_non_finite_value_is_error_row(self, capsys, tmp_path, argv, status):
        path = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
        statuses = [row[rows[0].index("status")] for row in rows[1:]]
        assert statuses == [status, "ok"]
        table = _read_table(str(path))
        assert np.isnan(table["residual"][0])
        numeric = [col for name, col in table.items() if name != "status"]
        assert all(np.isfinite(col[1]) for col in numeric)

    @pytest.mark.parametrize("argv", [
        ("mu", "--ell-ax", "nan", "--ell-rad", "0.5"),
        ("mu", "--ell-ax", "2.0", "--ell-rad", "inf"),
        ("screening", "--n-atoms", "20", "--beta", "nan"),
        ("screening", "--n-atoms", "inf", "--beta", "0.5"),
    ])
    def test_all_non_finite_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "solver failure" in err

    def test_io_error_exit_code(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "steady", "--n-atoms", "4", "--rabi", "2.0",
            "--out", str(tmp_path / "missing" / "out.csv"),
        )
        assert code == 3

    def test_error_row_round_trips(self, capsys, tmp_path):
        # The error text of the failing point holds commas; quoting keeps
        # every row as wide as the header.
        path = tmp_path / "mu.csv"
        code, _, _ = run_cli(
            capsys, "mu", "--ell-ax=-1.0,22.5", "--ell-rad", "0.5",
            "--out", str(path),
        )
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
        header = rows[0]
        assert all(len(row) == len(header) for row in rows)
        status = [row[header.index("status")] for row in rows[1:]]
        assert status == [
            "error: cloud sizes must be > 0, got ell_ax=-1.0, ell_rad=0.5", "ok"
        ]
        table = _read_table(str(path))
        assert list(table) == header
        assert np.array_equal(table["ell_ax"], [-1.0, 22.5])
        assert np.array_equal(table["ell_rad"], [0.5, 0.5])
        assert np.isnan(table["mu"][0]) and 2.0e-3 <= table["mu"][1] <= 3.0e-3
        assert np.isnan(table["residual"][0]) and table["residual"][1] == 0.0


class TestFitCommands:
    def test_fit_omega_eff_round_trip(self, capsys, tmp_path):
        from ddmsim import obe_excited_population

        t = np.linspace(0.0, 10.0, 200)
        path = tmp_path / "trace.csv"
        rows = ["t,n_e"] + [
            f"{ti},{vi}" for ti, vi in zip(t, obe_excited_population(4.0, 1.0, t))
        ]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "fit-omega-eff", "--input", str(path))
        assert code == 0
        fit = json.loads(out)
        assert fit["omega_eff"] == pytest.approx(4.0, abs=1e-6)
        assert fit["decay"] == pytest.approx(1.0, abs=1e-6)

    def test_fit_omega_eff_from_dynamics_output(self, capsys, tmp_path):
        table = tmp_path / "dyn.csv"
        code, _, _ = run_cli(
            capsys, "dynamics", "--n-atoms", "2", "--rabi", "4.5",
            "--t-final", "8", "--n-samples", "161", "--out", str(table),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "fit-omega-eff", "--input", str(table))
        assert code == 0
        fit = json.loads(out)
        assert abs(fit["omega_eff"] - 4.5) / 4.5 < 0.1

    def test_fit_alpha(self, capsys, tmp_path):
        path = tmp_path / "rates.csv"
        n = np.arange(2, 11, dtype=float)
        rows = ["n_atoms,gamma_sr"] + [f"{ni},{2.0 * ni**2}" for ni in n]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "fit-alpha", "--input", str(path))
        assert code == 0
        fit = json.loads(out)
        assert fit["alpha"] == pytest.approx(2.0, abs=1e-10)
        assert fit["prefactor"] == pytest.approx(2.0, rel=1e-10)

    def test_fit_alpha_missing_column(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        code, _, _ = run_cli(capsys, "fit-alpha", "--input", str(path))
        assert code == 1

    def test_flat_trace_is_fit_failure(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        rows = ["t,n_e"] + [f"{ti},0.25" for ti in np.linspace(0.0, 10.0, 50)]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "fit-omega-eff", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("ddmsim: fit failure: ") and "flat" in err

    def test_fit_convergence_error_is_fit_failure(self, capsys, tmp_path, monkeypatch):
        def no_convergence(trace):
            raise FitConvergenceError("did not converge", best_params=None)

        monkeypatch.setattr(ddmsim.cli, "fit_omega_eff", no_convergence)
        path = tmp_path / "trace.csv"
        t = np.linspace(0.0, 10.0, 50)
        path.write_text("t,n_e\n" + "".join(f"{ti},{np.sin(ti)}\n" for ti in t))
        code, out, err = run_cli(capsys, "fit-omega-eff", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == "ddmsim: fit failure: did not converge\n"
