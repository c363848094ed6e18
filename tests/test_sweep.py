import json

import numpy as np
import pytest

import ddmsim.ladder
import ddmsim.sweep
from ddmsim import ModelParams, liouvillian_rhs, observables, steady_state
from ddmsim.analysis import TimeTrace
from ddmsim.sweep import (
    ConfigError,
    SweepSpec,
    format_csv,
    run,
    steady_window_average,
    write_csv,
)


def make_spec(**overrides):
    doc = {
        "mode": "steady_state",
        "grids": {"n_atoms": [4, 8], "rabi": [2.0, 6.0]},
    }
    doc.update(overrides)
    return SweepSpec.from_dict(doc)


class TestSweepSpec:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({"mode": "nope", "grids": {"n_atoms": [1]}})

    def test_missing_grid(self):
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({"mode": "steady_state", "grids": {"n_atoms": [2]}})

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            make_spec(grids={"n_atoms": [], "rabi": [1.0]})

    def test_unknown_observable(self):
        with pytest.raises(ConfigError):
            make_spec(outputs=["bogus"])

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({"mode": "steady_state", "grids": {}, "extra": 1})

    def test_bad_schema_version(self):
        with pytest.raises(ConfigError):
            make_spec(schema_version=99)

    @pytest.mark.parametrize("mode,other", [
        ("dynamics", "rabi"), ("steady_state", "rabi"), ("phase_diagram", "beta"),
    ])
    def test_non_integer_n_atoms(self, mode, other):
        for bad in (4.7, float("nan"), "four"):
            with pytest.raises(ConfigError):
                SweepSpec.from_dict({
                    "mode": mode, "grids": {"n_atoms": [4, bad], other: [1.0]},
                })
        SweepSpec.from_dict({"mode": mode, "grids": {"n_atoms": [3.0], other: [1.0]}})

    def test_screening_keeps_real_n_atoms(self):
        spec = SweepSpec.from_dict({
            "mode": "screening_curve", "grids": {"n_atoms": [4.7], "beta": [2.0]},
        })
        assert run(spec).rows[0]["status"] == "ok"

    def test_hash_stable(self):
        assert make_spec().canonical_hash() == make_spec().canonical_hash()
        assert make_spec().canonical_hash() != make_spec(tol=1e-6).canonical_hash()


class TestRun:
    def test_steady_state_sweep(self):
        result = run(make_spec())
        assert len(result.rows) == 4
        assert result.metadata["n_points"] == 4
        for row in result.rows:
            assert row["status"] == "ok"
            assert row["residual"] < 1e-10
        # Row values match direct solver calls.
        row = result.rows[0]
        obs = observables(steady_state(ModelParams(n_atoms=4, rabi=2.0)))
        assert row["gamma_sr"] == pytest.approx(obs.gamma_sr, rel=1e-10)

    def test_phase_diagram_knee(self):
        spec = SweepSpec.from_dict({
            "mode": "phase_diagram",
            "grids": {"n_atoms": [3, 10], "beta": list(np.linspace(0.1, 3.0, 12))},
        })
        result = run(spec)
        by_n = {}
        for row in result.rows:
            by_n.setdefault(row["n_atoms"], []).append(row)
        for n, rows in by_n.items():
            sz = np.array([r["s_z"] for r in rows])
            assert sz[0] < -0.9
            assert sz[-1] > -0.2
            assert np.all(np.diff(sz) > 0)
        # Crossover sharpens with N: larger max slope for N = 10.
        slopes = {
            n: np.max(np.diff([r["s_z"] for r in rows]))
            for n, rows in by_n.items()
        }
        assert slopes[10] > slopes[3]

    def test_screening_curve(self):
        betas = list(np.linspace(0.2, 3.0, 15))
        spec = SweepSpec.from_dict({
            "mode": "screening_curve",
            "grids": {"n_atoms": [20], "beta": betas},
        })
        result = run(spec)
        for row in result.rows:
            assert row["residual"] < 1e-12
            if row["beta"] < 1.0:
                assert row["x"] < 0.15
            elif row["beta"] > 1.5:
                assert row["x"] == pytest.approx(row["x_asymptote"], rel=0.05)

    def test_dynamics_rows(self):
        spec = SweepSpec.from_dict({
            "mode": "dynamics",
            "grids": {"n_atoms": [2], "rabi": [4.5]},
            "settings": {"t_final": 2.0, "n_samples": 21},
        })
        result = run(spec)
        assert len(result.rows) == 21
        times = [r["t"] for r in result.rows]
        assert times[0] == 0.0 and times[-1] == 2.0
        assert all(r["status"] == "ok" for r in result.rows)

    def test_cooperativity_mode(self):
        spec = SweepSpec.from_dict({
            "mode": "cooperativity",
            "grids": {"ell_ax": [22.5], "ell_rad": [0.5]},
        })
        result = run(spec)
        assert 2.0e-3 <= result.rows[0]["mu"] <= 3.0e-3

    def test_per_point_failure_recorded(self):
        spec = SweepSpec.from_dict({
            "mode": "steady_state",
            "grids": {"n_atoms": [4, -3], "rabi": [2.0]},
        })
        result = run(spec)
        statuses = [r["status"] for r in result.rows]
        assert statuses[0] == "ok"
        assert statuses[1].startswith("error")

    def test_outputs_filter_columns(self):
        result = run(make_spec(outputs=["gamma_sr"]))
        assert "gamma_sr" in result.columns
        assert "g2" not in result.columns
        assert "n_atoms" in result.columns  # grid columns always kept

    def test_parallel_matches_serial(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        spec = make_spec()
        serial = format_csv(run(spec, threads=1))
        parallel = format_csv(run(spec, threads=2))
        assert serial == parallel

    def test_deterministic_output(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert format_csv(run(make_spec())) == format_csv(run(make_spec()))


class TestCsv:
    def test_metadata_header_and_shape(self, tmp_path):
        result = run(make_spec())
        path = tmp_path / "out.csv"
        write_csv(result, str(path))
        lines = path.read_text().strip().split("\n")
        meta = json.loads(lines[0][1:])
        assert meta["mode"] == "steady_state"
        assert meta["code_version"]
        assert lines[1].split(",") == result.columns
        assert len(lines) == 2 + len(result.rows)


class TestSteadyWindowAverage:
    def test_constant_trace(self):
        trace = TimeTrace(times=np.linspace(0, 10, 50), values=np.full(50, 0.37))
        assert steady_window_average(trace, 2.0) == pytest.approx(0.37)

    def test_linear_ramp_midpoint(self):
        t = np.linspace(0, 10, 10001)
        trace = TimeTrace(times=t, values=0.05 * t)
        # Mean over the final window is the value at its midpoint.
        assert steady_window_average(trace, 2.0) == pytest.approx(0.45, abs=1e-4)

    def test_matches_steady_state_observable(self):
        from ddmsim import DickeLadderState, evolve

        n, rabi = 6, 4.0
        params = ModelParams(n_atoms=n, rabi=rabi)
        t, states = evolve(
            DickeLadderState.ground(n), params, 30.0, tol=1e-10, n_samples=3001
        )
        trace = TimeTrace(
            times=t, values=np.array([observables(s).n_e for s in states])
        )
        target = observables(steady_state(params)).n_e
        assert abs(steady_window_average(trace, 1.88) - target) < 1e-6

    def test_window_validation(self):
        trace = TimeTrace(times=np.linspace(0, 1, 11), values=np.zeros(11))
        with pytest.raises(ValueError):
            steady_window_average(trace, 2.0)
        with pytest.raises(ValueError):
            steady_window_average(trace, 0.0)


class TestSteadyResidual:
    @pytest.fixture
    def rhs_calls(self, monkeypatch):
        calls = []

        def counted(state, params):
            calls.append(state.n_atoms)
            return liouvillian_rhs(state, params)

        monkeypatch.setattr(ddmsim.ladder, "liouvillian_rhs", counted)
        monkeypatch.setattr(ddmsim.sweep, "liouvillian_rhs", counted)
        return calls

    @pytest.mark.parametrize("mode, grids", [
        ("steady_state", {"n_atoms": [6], "rabi": [1.5]}),
        ("phase_diagram", {"n_atoms": [40], "beta": [2.0]}),
    ])
    def test_one_residual_per_resonant_row(self, rhs_calls, mode, grids):
        result = run(SweepSpec.from_dict({"mode": mode, "grids": grids}))
        assert len(result.rows) == 1 and result.rows[0]["status"] == "ok"
        assert len(rhs_calls) == 1

    @pytest.mark.parametrize("n, rabi", [(4, 0.0), (6, 1.5), (40, 40.0)])
    def test_residual_column_unchanged(self, n, rabi):
        row = run(make_spec(grids={"n_atoms": [n], "rabi": [rabi]})).rows[0]
        params = ModelParams(n_atoms=n, rabi=rabi)
        state = steady_state(params)
        assert row["residual"] == float(
            np.max(np.abs(liouvillian_rhs(state, params)))
        )


class TestThreads:
    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_fewer_than_one(self, threads):
        with pytest.raises(ConfigError, match="threads"):
            run(make_spec(), threads=threads)
