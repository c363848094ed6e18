import json

import numpy as np
import pytest

import ddmsim.ladder
import ddmsim.sweep
from ddmsim.ladder import (
    DickeLadderState,
    evolve,
    liouvillian_rhs,
    observables,
    steady_state,
)
from ddmsim.params import ModelParams
from ddmsim.sweep import ConfigError, SweepSpec, format_csv, run, write_csv


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

    @pytest.mark.parametrize("grids", [
        {"n_atoms": 2, "rabi": [1.0]},
        {"n_atoms": [2], "rabi": "1.0"},
        [["n_atoms", [2]], ["rabi", [1.0]]],
    ])
    def test_grid_shapes(self, grids):
        with pytest.raises(ConfigError):
            make_spec(grids=grids)

    def test_unknown_grid(self):
        with pytest.raises(ConfigError, match=r"unknown grids for mode 'steady_state': \['beta'\]"):
            make_spec(grids={"n_atoms": [2], "rabi": [1.0], "beta": [0.5]})

    def test_dict_round_trip_over_the_declared_fields(self):
        spec = make_spec(outputs=["g2"], output_path="out.csv")
        doc = spec.to_dict()
        assert list(doc) == ["schema_version", *SweepSpec.__dataclass_fields__]
        assert SweepSpec.from_dict(doc) == spec
        assert SweepSpec.from_dict(doc).canonical_hash() == spec.canonical_hash()

    def test_mode_is_required(self):
        with pytest.raises(ConfigError, match="unknown mode None"):
            SweepSpec.from_dict({"grids": {"n_atoms": [2], "rabi": [1.0]}})

    def test_root_not_object(self):
        with pytest.raises(ConfigError, match="root"):
            SweepSpec.from_dict([1])

    @pytest.mark.parametrize("overrides, unread", [
        ({"tol": 1e-6}, "tol"),
        ({"settings": {"t_final": 5.0}}, "t_final"),
        ({"settings": {"bogus": 1}}, "bogus"),
    ])
    def test_rejects_what_the_mode_does_not_read(self, overrides, unread):
        with pytest.raises(ConfigError, match=f"does not read.*{unread}"):
            make_spec(**overrides)

    @pytest.mark.parametrize("overrides, message", [
        ({"tol": float("nan")}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"tol": None}, "tol"),
        ({"settings": {"t_final": float("nan")}}, "t_final"),
        ({"settings": {"t_final": float("inf")}}, "t_final"),
        ({"settings": {"t_final": 0.0}}, "t_final"),
        ({"settings": {"n_samples": 0}}, "n_samples"),
        ({"settings": {"n_samples": 1}}, "n_samples"),
        ({"settings": {"n_samples": 2.7}}, "n_samples"),
        ({"settings": {"n_samples": "abc"}}, "n_samples"),
        ({"settings": {"tol": 1e-6}}, "does not read"),
        # A string was read as its number.
        ({"tol": "1e-6"}, "tol must be a number, got '1e-6'"),
        ({"settings": {"t_final": "2"}}, "t_final must be a number, got '2'"),
        ({"settings": {"n_samples": "3"}}, "n_samples must be a number, got '3'"),
    ])
    def test_dynamics_settings(self, overrides, message):
        doc = {"mode": "dynamics", "grids": {"n_atoms": [2], "rabi": [1.0]}}
        with pytest.raises(ConfigError, match=message):
            SweepSpec.from_dict({**doc, **overrides})

    @pytest.mark.parametrize("mode, grids", [
        ("steady_state", {"n_atoms": ["10"], "rabi": [1.0]}),
        ("steady_state", {"n_atoms": [4], "rabi": [None]}),
        ("phase_diagram", {"n_atoms": [4], "beta": [[1.0]]}),
        ("screening_curve", {"n_atoms": [None], "beta": [0.5]}),
        ("screening_curve", {"n_atoms": [10.0], "beta": [{}]}),
        ("cooperativity", {"ell_ax": ["22.5"], "ell_rad": [0.5]}),
        ("dynamics", {"n_atoms": [2], "rabi": ["1"]}),
    ])
    def test_grid_value_that_is_not_a_number(self, mode, grids):
        # A string was read as its number, and null, a list or an object
        # escaped the row builders as a TypeError.
        name = next(k for k, grid in grids.items() if not isinstance(grid[0], (int, float)))
        with pytest.raises(ConfigError, match=f"grid '{name}' must hold numbers"):
            SweepSpec.from_dict({"mode": mode, "grids": grids})

    def test_screening_keeps_real_n_atoms(self):
        spec = SweepSpec.from_dict({
            "mode": "screening_curve", "grids": {"n_atoms": [4.7], "beta": [2.0]},
        })
        assert run(spec).rows[0]["status"] == "ok"

    @pytest.mark.parametrize("doc, message", [
        ({"mode": "steady_state", "grids": {"n_atoms": [10**400], "rabi": [1.0]}},
         "grid 'n_atoms' holds a number beyond the float range"),
        ({"mode": "steady_state", "grids": {"n_atoms": [2], "rabi": [1.0, -10**400]}},
         "grid 'rabi' holds a number beyond the float range"),
        ({"mode": "screening_curve", "grids": {"n_atoms": [10**400], "beta": [0.5]}},
         "grid 'n_atoms' holds a number beyond the float range"),
        ({"mode": "cooperativity", "grids": {"ell_ax": [10**400], "ell_rad": [0.5]}},
         "grid 'ell_ax' holds a number beyond the float range"),
        ({"mode": "dynamics", "grids": {"n_atoms": [2], "rabi": [1.0]}, "tol": 10**400},
         "tol is beyond the float range"),
        ({"mode": "dynamics", "grids": {"n_atoms": [2], "rabi": [1.0]},
          "settings": {"t_final": 10**400}}, "t_final is beyond the float range"),
        ({"mode": "dynamics", "grids": {"n_atoms": [2], "rabi": [1.0]},
          "settings": {"n_samples": 10**400}}, "n_samples is beyond the float range"),
    ])
    def test_integer_beyond_the_float_range(self, doc, message):
        # It escaped as an OverflowError, or became an error row.
        with pytest.raises(ConfigError, match=message):
            SweepSpec.from_dict(doc)

    def test_large_integers_keep_their_hash(self):
        doc = {"mode": "screening_curve", "grids": {"n_atoms": [10**300, 4], "beta": [2]}}
        spec = SweepSpec.from_dict(doc)
        assert spec.to_dict()["grids"] == doc["grids"]
        assert type(spec.to_dict()["grids"]["n_atoms"][0]) is int

    def test_hash_stable(self):
        dynamics = {"mode": "dynamics", "grids": {"n_atoms": [2], "rabi": [1.0]}}
        assert make_spec().canonical_hash() == make_spec().canonical_hash()
        assert make_spec(**dynamics).canonical_hash() != make_spec(
            **dynamics, tol=1e-6
        ).canonical_hash()


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

    def test_parallel_dynamics_matches_serial(self, monkeypatch):
        # Dynamics traces go through BLAS matrix products; a worker must
        # write the same bytes as the serial run.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        spec = SweepSpec.from_dict({
            "mode": "dynamics",
            "grids": {"n_atoms": [20, 24], "rabi": [5.0, 18.0]},
        })
        serial = format_csv(run(spec, threads=1))
        parallel = format_csv(run(spec, threads=2))
        assert serial == parallel
        assert serial.count("\n") == 2 + 4 * 201

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
    def test_matches_steady_state_observable(self):
        # Mean of n_e over the final window of a relaxed trace.
        n, rabi = 6, 4.0
        params = ModelParams(n_atoms=n, rabi=rabi)
        t, states = evolve(
            DickeLadderState.ground(n), params, 30.0, tol=1e-10, n_samples=3001
        )
        n_e = np.array([observables(s).n_e for s in states])
        window_mean = float(np.mean(n_e[t >= t[-1] - 1.88]))
        target = observables(steady_state(params)).n_e
        assert abs(window_mean - target) < 1e-6


class TestSteadyResidual:
    @pytest.fixture
    def rhs_calls(self, monkeypatch):
        # Every row's residual is the band check of its chunk; no row
        # applies the full (N+1)^2 stencil.
        calls = []
        band, stencil = ddmsim.ladder._band_residual, ddmsim.ladder._gauged_rhs

        def counted(chunk, *args):
            calls.append(chunk.sizes.tolist())
            return band(chunk, *args)

        def unexpected(*args, **kwargs):
            raise AssertionError("a steady row applied the full stencil")

        monkeypatch.setattr(ddmsim.ladder, "_band_residual", counted)
        monkeypatch.setattr(ddmsim.ladder, "_gauged_rhs", unexpected)
        return calls

    @pytest.mark.parametrize("mode, grids", [
        ("steady_state", {"n_atoms": [6], "rabi": [1.5]}),
        ("phase_diagram", {"n_atoms": [40], "beta": [2.0]}),
    ])
    def test_one_residual_per_resonant_row(self, rhs_calls, mode, grids):
        result = run(SweepSpec.from_dict({"mode": mode, "grids": grids}))
        assert len(result.rows) == 1 and result.rows[0]["status"] == "ok"
        assert len(rhs_calls) == 1

    @pytest.mark.parametrize("n, rabi", [(4, 0.0), (6, 1.5), (40, 40.0), (500, 275.0)])
    def test_residual_column_is_the_band_residual(self, n, rabi):
        # max |L rho| over the diagonal and the first off-diagonal, the
        # entries that the row's observables read.
        row = run(make_spec(grids={"n_atoms": [n], "rabi": [rabi]})).rows[0]
        params = ModelParams(n_atoms=n, rabi=rabi)
        state = steady_state(params)
        rhs = liouvillian_rhs(state, params)
        band = max(np.abs(np.diagonal(rhs)).max(), np.abs(np.diagonal(rhs, 1)).max())
        assert row["residual"] == ddmsim.ladder.steady_columns([params])[0]["residual"][0]
        # Both are round-off of the same terms, the largest of which is
        # about S(S+1) max p.
        scale = 0.25 * n * (n + 2) * state.rho.diagonal().real.max()
        assert abs(row["residual"] - band) <= 128 * np.finfo(float).eps * scale
        assert row["residual"] <= 1e-10


class TestErrorRows:
    @pytest.mark.parametrize("mode, grids, failed", [
        ("screening_curve", {"n_atoms": [20, 0.5], "beta": [0.5, -1.0]}, 3),
        ("steady_state", {"n_atoms": [2, 3], "rabi": [1.0, -1.0]}, 2),
        ("cooperativity", {"ell_ax": [22.5, -1.0], "ell_rad": [0.5]}, 1),
    ])
    def test_one_builder_for_every_error_row(self, monkeypatch, mode, grids, failed):
        built = []
        error_row = ddmsim.sweep._error_row

        def counted(point, error):
            built.append(error_row(point, error))
            return built[-1]

        monkeypatch.setattr(ddmsim.sweep, "_error_row", counted)
        rows = run(SweepSpec.from_dict({"mode": mode, "grids": grids})).rows
        errors = [row for row in rows if row["status"] != "ok"]
        assert errors == [row for table in built for row in ddmsim.sweep._rows(table)]
        assert len(built) == failed
        for row in errors:
            assert list(row)[-2:] == ["residual", "status"]
            assert all(type(v) is float for v in list(row.values())[:-1])
            assert row["status"].startswith("error: ")


class TestThreads:
    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_fewer_than_one(self, threads):
        with pytest.raises(ConfigError, match="threads"):
            run(make_spec(), threads=threads)

    @pytest.fixture
    def started(self, monkeypatch):
        """The max_workers of each pool `run` starts; the pool runs its
        tasks in this process."""
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(ddmsim.sweep, "ProcessPoolExecutor", SerialPool)
        return started

    @pytest.mark.parametrize("threads, cpus, n_points, workers", [
        (1000, 8, 4, 4), (1000, 2, 6, 2), (3, 8, 6, 3), (2, None, 6, None),
        (4, 8, 1, None),
    ])
    def test_workers_capped(self, monkeypatch, started, threads, cpus, n_points, workers):
        # The cap is the CPUs this process may run on, not the machine's
        # count; cpus None is a platform without affinity masks whose
        # count is unknown.
        if cpus is None:
            monkeypatch.delattr(ddmsim.sweep.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(ddmsim.sweep.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(ddmsim.sweep.os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
            monkeypatch.setattr(ddmsim.sweep.os, "cpu_count", lambda: 64)
        spec = SweepSpec.from_dict({
            "mode": "screening_curve",
            "grids": {"n_atoms": [20], "beta": [0.5 + k for k in range(n_points)]},
        })
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert format_csv(run(spec, threads=threads)) == format_csv(run(spec))
        assert started == ([workers] if workers else [])

    def test_cpu_count_where_there_is_no_affinity_mask(self, monkeypatch, started):
        monkeypatch.delattr(ddmsim.sweep.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(ddmsim.sweep.os, "cpu_count", lambda: 3)
        spec = SweepSpec.from_dict({"mode": "screening_curve",
                                    "grids": {"n_atoms": [20], "beta": [0.5, 1.5, 2.5, 3.5]}})
        run(spec, threads=8)
        assert started == [3]


class TestLayerRouting:
    """Each mode reaches its layers through the `ddmsim.sweep` names, which
    is where the benchmark's tracer and correctness gate wrap them."""

    LAYERS = ("steady_state", "steady_columns", "evolve", "observables", "g2_zero",
              "solve_x", "cooperativity_column")

    @pytest.mark.parametrize("doc, reached", [
        ({"mode": "dynamics", "grids": {"n_atoms": [2], "rabi": [1.0]},
          "settings": {"t_final": 1.0, "n_samples": 3}},
         {"evolve": 1, "observables": 1}),
        # The steady modes take a chunk's rows in one batched call, which
        # builds no state and calls none of the per-state layers.
        ({"mode": "steady_state", "grids": {"n_atoms": [2], "rabi": [1.0]}},
         {"steady_columns": 1}),
        ({"mode": "phase_diagram", "grids": {"n_atoms": [2], "beta": [1.5]}},
         {"steady_columns": 1}),
        ({"mode": "screening_curve", "grids": {"n_atoms": [20], "beta": [0.5]}},
         {"solve_x": 1}),
        # So does mu: one `cooperativity_column` call per chunk.
        ({"mode": "cooperativity", "grids": {"ell_ax": [2.0], "ell_rad": [0.5]}},
         {"cooperativity_column": 1}),
    ])
    def test_mode_calls_layers_by_module_name(self, monkeypatch, doc, reached):
        calls = dict.fromkeys(self.LAYERS, 0)

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in self.LAYERS:
            monkeypatch.setattr(
                ddmsim.sweep, name, counting(name, getattr(ddmsim.sweep, name))
            )
        result = run(SweepSpec.from_dict(doc))
        assert all(row["status"] == "ok" for row in result.rows)
        assert calls == {**dict.fromkeys(self.LAYERS, 0), **reached}
