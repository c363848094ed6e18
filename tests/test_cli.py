import argparse
import csv
import json
import time

import numpy as np
import pytest

import ddmsim.cli
import ddmsim.sweep
from ddmsim.analysis import FitConvergenceError
from ddmsim.cli import _read_table, build_parser, main


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

    def test_outputs_flag_selects_columns(self, capsys):
        code, out, _ = run_cli(capsys, "steady", "--n-atoms", "4", "--rabi", "2.0",
                               "--outputs", " g2, n_e ,")
        assert code == 0
        assert out.split("\n")[1] == "n_atoms,rabi,n_e,g2,residual,status"

    def test_invalid_json_config_exits_1(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text('{"mode": "steady_state",')
        code, out, err = run_cli(capsys, "steady", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"ddmsim: config error: invalid JSON in {path}: ")

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

    @pytest.mark.parametrize("argv", [
        ("steady", "--n-atoms", "4", "--rabi", "nan"),
        ("steady", "--n-atoms", "4", "--rabi", "inf"),
        ("phase-diagram", "--n-atoms", "4", "--beta=-inf"),
    ])
    def test_non_finite_drive_is_an_error_row(self, capsys, recwarn, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("ddmsim: solver failure: ")
        assert "rabi must be finite" in err and err.count("\n") == 1
        assert not recwarn.list

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
        table = _read_table(str(path), rows[0])
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
        table = _read_table(str(path), header)
        assert list(table) == header
        assert np.array_equal(table["ell_ax"], [-1.0, 22.5])
        assert np.array_equal(table["ell_rad"], [0.5, 0.5])
        assert np.isnan(table["mu"][0]) and 2.0e-3 <= table["mu"][1] <= 3.0e-3
        assert np.isnan(table["residual"][0]) and table["residual"][1] == 0.0


# The options of each subcommand; -h/--help aside, it takes no others.
OPTIONS = {
    "dynamics": {"--config", "--out", "--threads", "--outputs", "--n-atoms",
                 "--rabi", "--t-final", "--t-final-ns", "--gamma-mhz",
                 "--n-samples", "--tol"},
    "steady": {"--config", "--out", "--threads", "--outputs", "--n-atoms",
               "--rabi"},
    "phase-diagram": {"--config", "--out", "--threads", "--outputs",
                      "--n-atoms", "--beta"},
    "screening": {"--config", "--out", "--threads", "--outputs", "--n-atoms",
                  "--beta"},
    "mu": {"--config", "--out", "--threads", "--outputs", "--ell-ax",
           "--ell-rad"},
    "fit-omega-eff": {"--input", "--out"},
    "fit-alpha": {"--input", "--out"},
}

VALID_ARGV = {
    "dynamics": ["--n-atoms", "2", "--rabi", "1"],
    "steady": ["--n-atoms", "2", "--rabi", "1"],
    "phase-diagram": ["--n-atoms", "2", "--beta", "1"],
    "screening": ["--n-atoms", "2", "--beta", "1"],
    "mu": ["--ell-ax", "2", "--ell-rad", "1"],
    "fit-omega-eff": ["--input", "missing.csv"],
    "fit-alpha": ["--input", "missing.csv"],
}

ALL_FLAGS = sorted(set().union(*OPTIONS.values()))


def subcommand_options():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


class TestOptions:
    def test_each_subcommand_takes_the_options_it_reads(self):
        options = subcommand_options()
        assert options == OPTIONS
        assert sum(map(len, options.values())) == 39

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in OPTIONS for flag in ALL_FLAGS
        if flag not in OPTIONS[command]
    ])
    def test_flag_of_another_subcommand_is_config_error(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, *VALID_ARGV[command], flag, "1")
        assert code == 1
        assert out == ""
        assert err.startswith("ddmsim: config error: unrecognized arguments: " + flag)

    @pytest.mark.parametrize("argv", [
        ("steady", "--n-atoms", "4", "--rabi", "2", "--bogus", "1"),
        ("steady", "--n-atoms", "abc", "--rabi", "2"),
        ("steady", "--n-atoms", "4", "--rabi", "2", "--threads", "x"),
        ("dynamics", "--n-atoms", "2", "--rabi", "1", "--n-samples", "2.7"),
        ("dynamics", "--n-atoms", "2", "--rabi", "1", "--t-final", "1",
         "--t-final-ns", "100"),
        ("fit-alpha",),
        ("nope",),
        (),
    ])
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("ddmsim: config error: ")

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        # _Parser makes the top parser and each subparser. A usage error
        # in the first call leaves the shared parser as it was.
        builds = []
        init = ddmsim.cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        monkeypatch.setattr(ddmsim.cli._Parser, "__init__", counting_init)
        build_parser.cache_clear()
        argv = ["steady", "--n-atoms", "4", "--rabi", "2"]
        assert run_cli(capsys, *argv, "--bogus", "1")[0] == 1
        built = len(builds)
        assert built > 0
        reused = run_cli(capsys, *argv)
        assert len(builds) == built
        build_parser.cache_clear()
        fresh = run_cli(capsys, *argv)
        assert len(builds) == 2 * built
        assert reused == fresh and reused[0] == 0

    @pytest.mark.parametrize("prefix", ["--thread", "--outp", "--t-final-n"])
    def test_option_prefix_is_config_error(self, capsys, prefix):
        # A prefix of an option is not that option (--thread is not
        # --threads), in every subcommand.
        code, out, err = run_cli(
            capsys, "dynamics", "--n-atoms", "2", "--rabi", "1", prefix, "2"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("ddmsim: config error: ")

    @pytest.mark.parametrize("argv", [("--help",), ("--version",), ("mu", "--help")])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 0
        assert capsys.readouterr().out


class TestSettings:
    @pytest.mark.parametrize("flags", [
        ("--t-final", "nan"), ("--t-final", "inf"), ("--t-final", "0"),
        ("--t-final-ns", "nan"), ("--tol", "inf"), ("--tol", "nan"),
        ("--tol", "0"), ("--n-samples", "0"), ("--n-samples", "1"),
    ])
    def test_bad_dynamics_flag_exits_1_at_once(self, capsys, flags):
        start = time.monotonic()
        code, out, err = run_cli(
            capsys, "dynamics", "--n-atoms", "2", "--rabi", "1", *flags
        )
        assert time.monotonic() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("ddmsim: config error: ")

    @pytest.mark.parametrize("doc", [
        [1],
        {"mode": "steady_state", "grids": {"n_atoms": 2, "rabi": [1.0]}},
        {"mode": "steady_state", "grids": [1]},
        {"mode": "steady_state", "grids": {"n_atoms": [2], "rabi": [1.0]},
         "settings": 5},
        {"mode": "steady_state", "grids": {"n_atoms": [2], "rabi": [1.0]},
         "tol": 1e-6},
        {"mode": "steady_state", "grids": {"n_atoms": [2], "rabi": [1.0]},
         "settings": {"t_final": 5.0}},
        {"mode": "dynamics", "grids": {"n_atoms": [2], "rabi": [1.0]},
         "settings": {"n_samples": 2.7}},
        {"mode": "dynamics", "grids": {"n_atoms": [2], "rabi": [1.0]},
         "settings": {"n_samples": "abc"}},
        {"mode": "dynamics", "grids": {"n_atoms": [2], "rabi": [1.0]},
         "settings": {"t_final": "nan"}},
    ])
    def test_bad_config_exits_1(self, capsys, tmp_path, doc):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        dynamics = isinstance(doc, dict) and doc["mode"] == "dynamics"
        command = "dynamics" if dynamics else "steady"
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("ddmsim: config error: ")

    @pytest.mark.parametrize("doc, name", [
        ({"mode": "steady_state", "grids": {"n_atoms": [True], "rabi": [1.0]}},
         "n_atoms"),
        ({"mode": "steady_state", "grids": {"n_atoms": [2], "rabi": [1.0, False]}},
         "rabi"),
        ({"mode": "phase_diagram", "grids": {"n_atoms": [2], "beta": [True]}},
         "beta"),
        ({"mode": "screening_curve", "grids": {"n_atoms": [True], "beta": [0.5]}},
         "n_atoms"),
        ({"mode": "cooperativity", "grids": {"ell_ax": [True], "ell_rad": [0.5]}},
         "ell_ax"),
        ({"mode": "dynamics", "grids": {"n_atoms": [2], "rabi": [1.0]},
          "tol": True}, "tol"),
        ({"mode": "dynamics", "grids": {"n_atoms": [2], "rabi": [1.0]},
          "settings": {"t_final": True}}, "t_final"),
        ({"mode": "dynamics", "grids": {"n_atoms": [2], "rabi": [1.0]},
          "settings": {"n_samples": True}}, "n_samples"),
    ])
    def test_json_boolean_is_config_error(self, capsys, tmp_path, doc, name):
        # JSON true/false is not read as 1/0.
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        command = ddmsim.sweep.SWEEP_MODES[doc["mode"]].command
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("ddmsim: config error: ") and name in err

    def test_flags_override_config_settings(self, capsys, tmp_path):
        path = tmp_path / "dyn.json"
        path.write_text(json.dumps({
            "mode": "dynamics", "grids": {"n_atoms": [2], "rabi": [1.0]},
            "settings": {"t_final": 4.0, "n_samples": 9},
        }))
        code, out, _ = run_cli(
            capsys, "dynamics", "--config", str(path), "--n-samples", "5"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2 + 5
        assert float(lines[-1].split(",")[lines[1].split(",").index("t")]) == 4.0


class TestFitCommands:
    def test_fit_omega_eff_round_trip(self, capsys, tmp_path):
        from ddmsim.analysis import obe_excited_population

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

    def test_fit_alpha_to_file(self, capsys, tmp_path):
        path, out_path = tmp_path / "rates.csv", tmp_path / "fit.json"
        path.write_text("n_atoms,gamma_sr\n" + "".join(
            f"{n},{2.0 * n**2}\n" for n in range(2, 8)))
        code, out, _ = run_cli(capsys, "fit-alpha", "--input", str(path),
                               "--out", str(out_path))
        assert code == 0 and out == ""
        fit = json.loads(out_path.read_text())
        assert list(fit) == ["alpha", "prefactor", "alpha_stderr"]
        assert fit["alpha"] == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("header", ["n_atoms,gamma_sr,n_atoms,gamma_sr",
                                        "n_atoms,gamma_sr,n_atoms"])
    def test_repeated_column_is_config_error(self, capsys, tmp_path, header):
        path = tmp_path / "rates.csv"
        path.write_text(header + "\n2,8,3,18\n3,18,4,32\n4,32,5,50\n")
        code, out, err = run_cli(capsys, "fit-alpha", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err == (f"ddmsim: config error: {path}: column n_atoms appears "
                       "2 times in the header\n")

    def test_fit_alpha_missing_column(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        code, _, _ = run_cli(capsys, "fit-alpha", "--input", str(path))
        assert code == 1

    @pytest.mark.parametrize("command, text, column", [
        ("fit-alpha", "n_atoms,gamma_sr\n2,8\n3,18\n4,abc\n5,50\n", "gamma_sr"),
        ("fit-alpha", "n_atoms,gamma_sr\n2,8\nx,18\n4,32\n5,50\n", "n_atoms"),
        ("fit-omega-eff", "t,n_e\n" + "".join(
            f"{k},{'abc' if k == 5 else 0.01 * k}\n" for k in range(20)), "n_e"),
    ])
    def test_non_numeric_cell_is_config_error(self, capsys, tmp_path, command,
                                              text, column):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("ddmsim: config error: ")
        assert f"column {column} " in err

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
