"""The array-pass table path against the per-row code it replaced.

Each reference below is the per-cell or per-point implementation that
the package used before its tables were built and written in array
passes; the package must reproduce it exactly: the same CSV bytes, the
same columns read back, the same rows and error texts.
"""

import csv
import dataclasses
import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ddmsim.cli
import ddmsim.ladder
import ddmsim.sweep
from ddmsim.cli import ConfigError, _column, _read_table, main
from ddmsim.ladder import (
    DickeLadderState,
    LadderTrajectory,
    UndefinedCorrelationError,
    evolve,
    g2_zero,
    observables,
    steady_state,
)
from ddmsim.params import ModelParams
from ddmsim.sweep import SweepResult, SweepSpec, format_csv, run

FAST = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def result_of(metadata, columns, rows):
    """The SweepResult of row dicts: its table holds "" where a row lacks
    a cell."""
    return SweepResult(metadata=metadata, columns=columns,
                       table={name: [row.get(name, "") for row in rows] for name in columns})


# --- CSV writer -----------------------------------------------------------

def reference_line(cells):
    """One CSV line: the cells as a csv.writer ending its rows in "\r\n"
    writes them, so that a cell holding "\r" is quoted too, ended by "\n"."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


def reference_format_csv(result):
    """The per-cell writer: csv lines of cells made one at a time."""
    lines = ["# " + json.dumps(result.metadata, sort_keys=True) + "\n",
             reference_line(result.columns)]
    for row in result.rows:
        cells = []
        for col in result.columns:
            val = row.get(col, "")
            if isinstance(val, float):
                cells.append(f"{val:.12g}")
            else:
                cells.append(str(val))
        lines.append(reference_line(cells))
    return "".join(lines)


TEXT = st.text(alphabet=st.sampled_from('ab ,"\n\r#:=-e0.'), max_size=12)
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e16, 1e-5,
                     np.float64(0.1), np.float64(-0.0), np.float64(math.nan)]),
    st.integers(min_value=-10**15, max_value=10**15),
    st.sampled_from([10**12, 10**12 + 1, -10**13, True, False, None,
                     np.int64(10**13), "ok", ""]),
    TEXT.map(lambda s: "error: " + s),
    TEXT,
)


# What one column of a table holds: one type throughout, or anything.
COLUMNS = [st.floats(allow_nan=True, allow_infinity=True),
           st.integers(min_value=-10**15, max_value=10**15), TEXT, CELLS]


@st.composite
def tables(draw):
    # A sweep table has at least its grid, residual and status columns;
    # csv writes a lone empty cell of a one-column row as "", which no
    # sweep table has.
    names = draw(st.lists(st.text(alphabet="abcxyz_ ,", min_size=1, max_size=6),
                          min_size=2, max_size=6, unique=True))
    kinds = {name: draw(st.sampled_from(COLUMNS)) for name in names}
    rows = [{name: draw(kinds[name]) for name in names
             if draw(st.integers(0, 9))}  # about one cell in ten is missing
            for _ in range(draw(st.integers(0, 12)))]
    return result_of({"mode": "x", "n_points": len(rows)}, names, rows)


class TestFormatCsv:
    @FAST
    @given(tables())
    def test_matches_per_cell_writer(self, result):
        assert format_csv(result) == reference_format_csv(result)

    @pytest.mark.parametrize("status", [
        'error: a, b', 'error: say "x"', "error: two\nlines", "error: cr\rhere",
        'error: all, "of"\nthem', "ok",
    ])
    def test_error_text(self, status):
        result = result_of({}, ["n_atoms", "beta", "x", "status"],
                           [{"n_atoms": 10.0, "beta": 0.5, "x": 0.1, "status": "ok"},
                            {"n_atoms": 10.0, "beta": math.nan, "status": status},
                            {"n_atoms": 10**13, "beta": -0.0, "x": math.inf,
                             "status": "ok"}])
        assert format_csv(result) == reference_format_csv(result)

    def test_carriage_return_reads_back_as_one_row(self, tmp_path):
        # Unquoted, "ok\r0" would read back as the rows 0,ok and 0.
        path = tmp_path / "t.csv"
        path.write_text(format_csv(result_of({}, ["t", "status"], [
            {"t": 0.0, "status": "ok\r0"}, {"t": 1.0, "status": "ok"}])), newline="")
        with open(path, newline="") as fh:
            assert list(csv.reader(fh))[2:] == [["0", "ok\r0"], ["1", "ok"]]
        np.testing.assert_array_equal(_read_table(str(path), ("t",))["t"], [0.0, 1.0])

    @pytest.mark.parametrize("mode, grids", [
        ("screening_curve", {"n_atoms": [20.0, math.nan, 1e200, 3.5], "beta": [1e120, 0.5]}),
        ("cooperativity", {"ell_ax": [-1.0, 22.5, math.inf], "ell_rad": [0.5]}),
        ("dynamics", {"n_atoms": [2, 3], "rabi": [1.0, math.nan]}),
        ("phase_diagram", {"n_atoms": [3, 10], "beta": [0.5, 2.0, -1.0]}),
    ])
    def test_sweep_tables(self, mode, grids):
        settings = {"t_final": 1.0, "n_samples": 5} if mode == "dynamics" else {}
        result = run(SweepSpec.from_dict({"mode": mode, "grids": grids,
                                          "settings": settings}))
        assert format_csv(result) == reference_format_csv(result)


# --- column reader ----------------------------------------------------------

def reference_read_table(path):
    """The reader that converted every cell of every column."""
    with open(path, newline="") as fh:
        lines = (ln for ln in fh if not ln.startswith("#"))
        rows = [row for row in csv.reader(lines) if any(map(str.strip, row))]
    if len(rows) < 2:
        raise ConfigError(f"{path}: no data rows")
    header = [c.strip() for c in rows[0]]
    cols = {name: [] for name in header}
    for row in rows[1:]:
        for name, cell in zip(header, row):
            try:
                cols[name].append(float(cell))
            except ValueError:
                cols[name].append(np.nan)
    return {name: np.asarray(vals) for name, vals in cols.items()}


def quoted(text):
    return '"' + text.replace('"', '""') + '"'


CSV_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.12g}"),
    st.integers(-10**14, 10**14).map(str),
    st.sampled_from(["", " ", " 1.5 ", "nan", "-inf", "-0", "1e999", "1_0", "abc",
                     "ok", "0x10", "#1"]),
    TEXT.map(quoted),
    st.floats(allow_nan=False).map(lambda v: quoted(repr(v))),
)

FIT_COLUMNS = ("t", "time", "times", "n_e", "n_atoms", "gamma_sr")


@st.composite
def csv_texts(draw):
    header = draw(st.lists(st.sampled_from(FIT_COLUMNS + ("x", "status", " n_e ")),
                           min_size=1, max_size=5))
    lines = []
    if draw(st.booleans()):
        lines.append('# {"mode": "x"}')
    lines.append(",".join(header))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment", "spaces"]))
        if kind == "blank":
            lines.append("")
        elif kind == "comment":
            lines.append("#" + draw(TEXT))
        elif kind == "spaces":
            lines.append(" , ,")
        else:
            width = len(header) + draw(st.integers(-2, 1))  # ragged rows too
            lines.append(",".join(draw(CSV_CELLS) for _ in range(max(width, 1))))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


STATUS = st.text(alphabet=st.sampled_from('ab :,"\n\r-e0.'), max_size=12)
NUMBER_CELLS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                         st.integers(-10**15, 10**15))


@st.composite
def sweep_csv_texts(draw):
    """(text, plain): a table as `format_csv` writes it, with quoted
    status texts, nan and inf cells, now and then a row of blank cells,
    and \n or \r\n line ends; plain when `_read_plain` must read it."""
    names = draw(st.lists(st.sampled_from(FIT_COLUMNS + ("x",)), min_size=1,
                          max_size=4, unique=True)) + ["status"]
    rows, blank = [], False
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            rows.append({})
            blank = True
        else:
            rows.append({**{name: draw(NUMBER_CELLS) for name in names[:-1]},
                         "status": draw(st.sampled_from(["ok", "error: "]))
                         + draw(STATUS)})
    text = format_csv(result_of({"mode": "x"}, names, rows))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    read = any(name in FIT_COLUMNS for name in names)
    return text, read and bool(rows) and not blank


def same_columns(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == np.float64
        np.testing.assert_array_equal(got[name], want[name])


class TestReadTable:
    @FAST
    @given(csv_texts())
    def test_matches_full_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(text.encode())
        try:
            want = reference_read_table(str(path))
        except ConfigError as exc:
            with pytest.raises(ConfigError, match="no data rows"):
                _read_table(str(path), FIT_COLUMNS)
            assert "no data rows" in str(exc)
            return
        # The reference interleaves the cells of a repeated column; the
        # reader rejects a read column that the header names twice.
        header = [c.strip() for c in next(
            ln for ln in text.splitlines() if ln and not ln.startswith("#")).split(",")]
        twice = [n for n in FIT_COLUMNS if header.count(n) > 1]
        if twice:
            with pytest.raises(ConfigError, match=f"column {twice[0]} appears"):
                _read_table(str(path), FIT_COLUMNS)
        names = [n for n in FIT_COLUMNS if n in want and n not in twice]
        if not twice:
            same_columns(_read_table(str(path), FIT_COLUMNS),
                         {n: want[n] for n in names})
        for name in names:  # the same ConfigError, naming the same data row
            try:
                expected = _column(want, name, "p")
            except ConfigError as exc:
                with pytest.raises(ConfigError) as got:
                    _column(_read_table(str(path), (name,)), name, "p")
                assert str(got.value) == str(exc)
            else:
                np.testing.assert_array_equal(
                    _column(_read_table(str(path), (name,)), name, "p"), expected)

    @FAST
    @given(sweep_csv_texts())
    def test_sweep_tables_take_the_fast_path(self, tmp_path_factory, case):
        text, plain = case
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(text.encode())
        if plain:
            assert ddmsim.cli._read_plain(str(path), FIT_COLUMNS) is not None
        try:
            want = reference_read_table(str(path))
        except ConfigError:
            with pytest.raises(ConfigError, match="no data rows"):
                _read_table(str(path), FIT_COLUMNS)
            return
        same_columns(_read_table(str(path), FIT_COLUMNS),
                     {n: want[n] for n in FIT_COLUMNS if n in want})

    def test_reads_only_the_named_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('# meta\nn_atoms,x,gamma_sr,status\n'
                        '2,1,8,"error: a, b"\n\n#c\n3,2,18,ok\n4,3\n')
        table = _read_table(str(path), ("gamma_sr", "n_atoms", "missing"))
        assert list(table) == ["gamma_sr", "n_atoms"]
        np.testing.assert_array_equal(table["gamma_sr"], [8.0, 18.0])
        np.testing.assert_array_equal(table["n_atoms"], [2.0, 3.0, 4.0])

    @pytest.mark.parametrize("header", ["n_atoms,gamma_sr,n_atoms,gamma_sr",
                                        "n_atoms,gamma_sr,n_atoms", " n_atoms,x,n_atoms "])
    def test_repeated_read_column_is_config_error(self, tmp_path, header):
        path = tmp_path / "t.csv"
        path.write_text(header + "\n2,8,3,18\n3,18,4,32\n")
        with pytest.raises(ConfigError, match="column n_atoms appears 2 times"):
            _read_table(str(path), ("n_atoms", "gamma_sr"))
        assert list(_read_table(str(path), ("x",))) == (["x"] if "x" in header else [])


# --- screening rows -----------------------------------------------------------

def reference_solve_x(beta, n_atoms):
    """The scalar closed-form root, in math-module arithmetic."""
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    if not (math.isfinite(n_atoms) and n_atoms >= 1):
        raise ValueError(f"n_atoms must be finite and >= 1, got {n_atoms}")
    inv_n = 1.0 / n_atoms
    b = inv_n * inv_n + 0.5 * (1.0 - beta) * (1.0 + beta)
    root = math.hypot(b, math.sqrt(2.0) * beta * inv_n)
    if b >= 0.0:
        x = math.sqrt(2.0 * beta * beta / (b + root)) * inv_n
    else:
        x = math.sqrt(root - b)
    if not 0.0 <= x <= beta + 1e-12:
        raise ValueError(f"x = {x} outside [0, beta = {beta}]")
    return x


def reference_screening_row(n, beta):
    """The row of one point, solved on its own."""
    n, beta = float(n), float(beta)
    try:
        x = reference_solve_x(beta, n)
        asym = math.sqrt(beta**2 - 1.0) if beta >= 1.0 else 0.0
        u = n * x
        half_u2 = 0.5 * u * u
        resid = abs((u / n) ** 2 + half_u2 / (1.0 + half_u2) - beta * beta)
        row = {"n_atoms": n, "beta": beta, "x": x, "x_asymptote": asym,
               "residual": resid, "status": "ok"}
        bad = [k for k, v in row.items() if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            raise ValueError(f"non-finite {', '.join(bad)}")
        return row
    except Exception as exc:
        return {"n_atoms": n, "beta": beta, "residual": math.nan,
                "status": f"error: {exc}"}


def comparable(row):
    return {k: ("nan" if isinstance(v, float) and math.isnan(v) else v)
            for k, v in row.items()}


INVALID = [math.nan, math.inf, -math.inf, 0.0, -1.0, 0.5, 1e-320, 1e120, 1e154,
           1.3407807929942596e154, 1e200, 1.7976931348623157e308]
N_VALUES = st.one_of(st.floats(1.0, 1e12), st.floats(1.0, 50.0), st.sampled_from(INVALID))
BETA_VALUES = st.one_of(st.floats(1e-12, 1e3), st.floats(0.5, 2.0),
                        st.sampled_from(INVALID + [1.0]))


class TestScreeningRows:
    @FAST
    @given(st.lists(N_VALUES, min_size=1, max_size=8),
           st.lists(BETA_VALUES, min_size=1, max_size=5))
    def test_rows_match_point_by_point(self, n_values, betas):
        spec = SweepSpec.from_dict({"mode": "screening_curve",
                                    "grids": {"n_atoms": n_values, "beta": betas}})
        try:
            rows = run(spec).rows
        except ddmsim.sweep.AllPointsFailedError:
            rows = None
        want = [reference_screening_row(n, b) for n in n_values for b in betas]
        if rows is None:
            assert all(r["status"].startswith("error") for r in want)
            return
        assert list(map(comparable, rows)) == list(map(comparable, want))

    def test_grid_of_the_benchmark_bands(self):
        n_values = list(np.geomspace(10.0, 1.0e4, 1500))
        betas = [round(0.2 + 0.07 * k, 4) for k in range(11)] + [
            round(1.1 + 0.19 * k, 4) for k in range(11)]
        rows = run(SweepSpec.from_dict({"mode": "screening_curve",
                                        "grids": {"n_atoms": n_values,
                                                  "beta": betas}})).rows
        want = [reference_screening_row(n, b) for n in n_values for b in betas]
        assert rows == want

    def test_bad_grid_value_raises_as_before(self):
        # Still a ValueError that names the value, now a ConfigError of
        # the spec: no point is solved.
        with pytest.raises(ValueError, match=r"grid 'n_atoms' must hold numbers, got \[2\.0, 'x'\]"):
            SweepSpec.from_dict({"mode": "screening_curve",
                                 "grids": {"n_atoms": [2.0, "x"], "beta": ["y"]}})

    def test_serial_matches_two_workers_with_invalid_points(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        spec = SweepSpec.from_dict({"mode": "screening_curve", "grids": {
            "n_atoms": [20.0, math.nan, 1e200, 3.5, 0.5, 1e6, 7.0],
            "beta": [1e120, 0.5, -1.0, 2.0, 1e200]}})
        serial = format_csv(run(spec))
        assert serial == format_csv(run(spec, threads=2))
        assert '"error: beta must be finite and > 0, got -1.0"' in serial
        assert "error: non-finite residual" in serial


class TestOneCallPerTable:
    """Structural guards: a table costs one layer call, not one per row."""

    def count(self, monkeypatch, name):
        calls = []
        fn = getattr(ddmsim.sweep, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        monkeypatch.setattr(ddmsim.sweep, name, counted)
        return calls

    def test_serial_screening_solves_once(self, monkeypatch):
        calls = self.count(monkeypatch, "solve_x")
        spec = SweepSpec.from_dict({"mode": "screening_curve", "grids": {
            "n_atoms": list(np.geomspace(10.0, 1.0e4, 1500)),
            "beta": [0.2 + 0.14 * k for k in range(20)]}})
        result = run(spec)
        assert len(result.rows) == 30_000
        assert all(r["status"] == "ok" for r in result.rows)
        assert len(calls) == 1

    def test_dynamics_trace_takes_observables_once(self, monkeypatch):
        calls = self.count(monkeypatch, "observables")
        spec = SweepSpec.from_dict({"mode": "dynamics",
                                    "grids": {"n_atoms": [6], "rabi": [4.0]},
                                    "settings": {"t_final": 2.0, "n_samples": 41}})
        assert len(run(spec).rows) == 41
        assert len(calls) == 1


# --- observables of a trajectory --------------------------------------------

def reference_observables(state):
    """The observables of one state, from Python sums over its rho."""
    n = state.n_atoms
    s = n / 2.0
    padded = np.concatenate(([0.0, 0.0], ddmsim.ladder._ladder(n).a[:-1]))
    am2, am1 = padded[:-1], padded[1:]
    am1_sq = am1**2
    pops = state.rho.diagonal().real
    m = np.arange(n + 1) - s
    s_z = float((m * pops).sum() / s)
    dipole = complex((am1[1:] * state.rho.diagonal(-1)).sum())
    spsm = float((am1_sq * pops).sum())
    g2_num = float((am1_sq * am2**2 * pops).sum())
    return s_z, 0.5 * (s_z + 1.0), dipole, spsm, g2_num


class TestTrajectoryObservables:
    @pytest.mark.parametrize("n, rabi", [(1, 0.7), (2, 4.5), (7, 1.0), (16, 12.0),
                                         (33, 20.0), (47, 30.0), (52, 13.0)])
    def test_one_pass_equals_sample_by_sample(self, n, rabi):
        times, traj = evolve(DickeLadderState.ground(n), ModelParams(n_atoms=n, rabi=rabi),
                             4.0, n_samples=41)
        assert isinstance(traj, LadderTrajectory) and len(traj) == 41
        obs = observables(traj)
        for k, state in enumerate(traj):
            s_z, n_e, dipole, spsm, g2_num = reference_observables(state)
            assert obs.s_z[k] == s_z and obs.n_e[k] == n_e
            assert obs.dipole[k] == dipole
            assert obs.gamma_sr[k] == spsm and obs.g2_numerator[k] == g2_num
            assert traj.traces[k] == state.trace()

    def test_single_state_gives_scalars(self):
        obs = observables(steady_state(ModelParams(n_atoms=6, rabi=2.0)))
        assert type(obs.s_z) is float and type(obs.n_e) is float
        assert type(obs.dipole) is complex and type(obs.gamma_sr) is float
        assert type(obs.g2_numerator) is float

    def test_samples_view_the_stack(self):
        _, traj = evolve(DickeLadderState.ground(3), ModelParams(n_atoms=3, rabi=2.0),
                         1.0, n_samples=5)
        assert np.shares_memory(traj[2].rho, traj.rho)
        assert [s.trace() for s in traj] == traj.traces.tolist()

    @pytest.mark.parametrize("n, rabi", [(1, 0.3), (4, 2.0), (10, 40.0), (60, 10.0),
                                         (140, 200.0)])
    def test_g2_zero_unchanged(self, n, rabi):
        state = steady_state(ModelParams(n_atoms=n, rabi=rabi))
        _, _, _, spsm, g2_num = reference_observables(state)
        assert g2_zero(state) == g2_num / spsm**2

    def test_g2_zero_of_dark_state_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            g2_zero(DickeLadderState.ground(4))


# --- steady rows ----------------------------------------------------------

def reference_steady_rows(point, *_):
    """The row of one (n_atoms, rabi) point from its full steady state,
    as `steady` built it point by point; residual is the full max |L rho|."""
    n, rabi = int(point["n_atoms"]), float(point["rabi"])
    params = ModelParams(n_atoms=n, rabi=rabi)
    state = steady_state(params)
    obs = observables(state)
    try:
        g2 = g2_zero(state)
    except UndefinedCorrelationError:
        g2 = float("nan")
    return [{
        "n_atoms": n, "rabi": rabi, "beta": params.beta,
        "s_z": obs.s_z, "n_e": obs.n_e,
        "re_dipole": obs.dipole.real, "im_dipole": obs.dipole.imag,
        "gamma_sr": obs.gamma_sr, "g2": g2,
        "residual": state.residual, "status": "ok",
    }]


def reference_phase_rows(point, *_):
    n, beta = int(point["n_atoms"]), float(point["beta"])
    (row,) = reference_steady_rows({"n_atoms": n, "rabi": 0.5 * beta * n})
    row["beta"] = beta
    return [row]


def reference_point_rows(mode, grids):
    """The rows of a steady or phase-diagram grid, point by point, with
    the error row each failing point made."""
    names = ("n_atoms", "rabi" if mode == "steady_state" else "beta")
    build = reference_steady_rows if mode == "steady_state" else reference_phase_rows
    rows = []
    for combo in itertools.product(*(grids[name] for name in names)):
        point = dict(zip(names, combo))
        try:
            rows += build(point)
        except Exception as exc:
            rows += ddmsim.sweep._rows(ddmsim.sweep._error_row(point, exc))
    return rows


def without_residual(row):
    """The row with its cells as bytes (nan equal to nan, -0.0 apart from
    0.0) and its residual dropped: the steady rows' residual is the band
    check, no longer the full one."""
    return {k: (np.float64(v).tobytes() if isinstance(v, float) else v)
            for k, v in row.items() if k != "residual"}


WIDE_BETAS = [*np.geomspace(0.01, 100.0, 13).tolist(), 1.0, 1.1, 2.75]


class TestSteadyRows:
    """The batched O(N) steady rows against the full state of each point."""

    @pytest.mark.parametrize("n_values", [list(range(1, 36)), list(range(36, 71)),
                                          list(range(71, 106)), list(range(106, 141)),
                                          [600], [2000]])
    def test_phase_rows_match_point_by_point(self, n_values):
        grids = {"n_atoms": n_values, "beta": WIDE_BETAS}
        rows = run(SweepSpec.from_dict({"mode": "phase_diagram", "grids": grids})).rows
        want = reference_point_rows("phase_diagram", grids)
        assert list(map(without_residual, rows)) == list(map(without_residual, want))
        assert all(r["status"] == "ok" and 0.0 <= r["residual"] <= 1e-10 for r in rows)

    def test_steady_rows_match_point_by_point(self):
        grids = {"n_atoms": [1, 2, 3, 10, 47, 140, 600],
                 "rabi": [0.0, 1e-3, 0.1, 0.5, 1.0, 7.0, 70.0, 1e3, 1e5]}
        rows = run(SweepSpec.from_dict({"mode": "steady_state", "grids": grids})).rows
        want = reference_point_rows("steady_state", grids)
        assert list(map(without_residual, rows)) == list(map(without_residual, want))

    @pytest.mark.parametrize("mode, grids", [
        ("phase_diagram", {"n_atoms": [0, 1, 4, 140, 2000],
                           "beta": [math.nan, math.inf, -1.0, 0.0, 1e-300, 1e300, 0.5]}),
        ("steady_state", {"n_atoms": [0, 4, 600, 2000],
                          "rabi": [0.0, math.nan, math.inf, -1.0, 1e-300, 1e300, 2.0]}),
    ])
    def test_invalid_points_carry_their_texts(self, monkeypatch, mode, grids):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        spec = SweepSpec.from_dict({"mode": mode, "grids": grids})
        want = list(map(without_residual, reference_point_rows(mode, grids)))
        assert sum(r["status"] != "ok" for r in want) >= 19
        for threads in (1, 2):
            result = run(spec, threads=threads)
            assert list(map(without_residual, result.rows)) == want
        assert format_csv(result) == format_csv(run(spec))

    @pytest.mark.parametrize("argv", [
        ["phase-diagram", "--n-atoms", "10,2000", "--beta", "1e-300,1e-310,2"],
        ["steady", "--n-atoms", "10", "--rabi", "1e-300,1e-310,3"],
    ])
    def test_an_overflowing_ratio_is_only_its_error_row(self, tmp_path, capsys, argv):
        # (A_l/r)^2 overflows at r = 1e-300, and 1/r at r = 1e-310 too:
        # numpy must not warn about it on stderr.
        out = tmp_path / "t.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--out", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        with open(out) as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        assert [r["status"] for r in rows] == (
            ["error: steady-state residual nan exceeds 1.0e-10"] * 2 + ["ok"]) * (len(rows) // 3)

    def test_dark_ground_state_row(self):
        (row,) = run(SweepSpec.from_dict({"mode": "steady_state",
                                          "grids": {"n_atoms": [7], "rabi": [0.0]}})).rows
        assert (row["s_z"], row["n_e"], row["gamma_sr"], row["residual"]) == (-1.0, 0.0, 0.0, 0.0)
        assert math.isnan(row["g2"])
        assert [np.float64(row[k]).tobytes() for k in ("re_dipole", "im_dipole")] == [
            np.float64(0.0).tobytes()] * 2

    def test_a_row_does_not_depend_on_its_batch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        n_values, betas = [31, 3, 140, 3, 10, 2000], [2.75, 0.5, 0.01, 1.0]

        def lines(n_values, betas, threads=1):
            spec = SweepSpec.from_dict({"mode": "phase_diagram",
                                        "grids": {"n_atoms": n_values, "beta": betas}})
            return format_csv(run(spec, threads=threads)).splitlines()[2:]

        whole = lines(n_values, betas)
        alone = [line for n in n_values for b in betas for line in lines([n], [b])]
        assert whole == alone
        assert whole == lines(n_values, betas, threads=2)
        ordered = dict(zip(itertools.product(n_values, betas), whole))
        by_n = lines(sorted(set(n_values)), betas)
        assert by_n == [ordered[n, b] for n in sorted(set(n_values)) for b in betas]

    @pytest.fixture
    def slices(self, monkeypatch):
        """The N of each point of every `steady_columns` call."""
        calls = []
        columns = ddmsim.sweep.steady_columns

        def counted(group):
            calls.append([p.n_atoms for p in group])
            return columns(group)

        monkeypatch.setattr(ddmsim.sweep, "steady_columns", counted)
        return calls

    def test_one_layer_call_per_slice(self, slices):
        grids = {"n_atoms": [3, 10, 3, 140, 0], "beta": [0.5, 2.0, -1.0]}
        rows = run(SweepSpec.from_dict({"mode": "phase_diagram", "grids": grids})).rows
        assert sum(r["status"] == "ok" for r in rows) == 8
        # One flat pass, each N's points one run, in order of appearance.
        assert slices == [[3] * 4 + [10] * 2 + [140] * 2]

    @pytest.mark.parametrize("n_values, betas", [
        (range(1, 401), [0.1, 0.5, 1.0, 2.0, 10.0]),
        ([3, 20_000, 10, 20_000], [0.5, 2.0, 7.0]),
    ])
    def test_slices_stay_within_the_budget(self, slices, n_values, betas):
        grids = {"n_atoms": list(n_values), "beta": betas}
        rows = run(SweepSpec.from_dict({"mode": "phase_diagram", "grids": grids})).rows
        assert all(r["status"] == "ok" for r in rows)
        # A run larger than the budget is cut too, so a call holds at most
        # max(budget, N + 1) slots, within max(budget, largest run).
        sizes = [sum(n + 1 for n in call) for call in slices]
        assert max(sizes) <= max(ddmsim.sweep._STEADY_SLOTS, max(n_values) + 1)
        assert len(slices) > 1
        assert sorted(n for call in slices for n in call) == sorted(
            n for n in grids["n_atoms"] for _ in betas)

    def test_a_mixed_chunk_is_its_points_alone(self, monkeypatch):
        # Unsorted and repeated N, rabi 0, a nan point (beta 1e-300), an
        # invalid N and one too large for its tables, in one chunk: each
        # line is the one the point writes alone, serial and at
        # --threads 2.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        n_values, betas = [31, 3, 0, 140, 3, 1e30, 1, 600], [0.0, 1e-300, 2.75, 0.5]
        spec = SweepSpec.from_dict({"mode": "phase_diagram",
                                    "grids": {"n_atoms": n_values, "beta": betas}})
        result = run(spec)
        whole = format_csv(result).splitlines()[2:]
        # A sweep of failing points alone raises, so each point is solved
        # alone by the mode's rows and written with the sweep's columns.
        alone = [ddmsim.sweep._eval_chunk(("phase_diagram", [point], 1e-8, {}))
                 for point in itertools.product(n_values, betas)]
        table = ddmsim.sweep._concat(alone, list(result.table))
        assert whole == format_csv(dataclasses.replace(result, table=table)).splitlines()[2:]
        assert whole == format_csv(run(spec, threads=2)).splitlines()[2:]
        status = [line.rsplit(",", 1)[-1] for line in whole]
        assert status.count("ok") == 18  # beta 0, 2.75 and 0.5 at the six valid N
        assert sum("nan exceeds" in s for s in status) == 6

    def test_n_too_large_for_its_tables_is_an_error_row(self):
        # The O(N) tables of N = 10^30 cannot be allocated; the point's
        # group becomes error rows and the rest of the sweep goes on.
        grids = {"n_atoms": [3, 1e30], "beta": [0.5, 2.0]}
        rows = run(SweepSpec.from_dict({"mode": "phase_diagram", "grids": grids})).rows
        assert [r["status"] for r in rows[:2]] == ["ok", "ok"]
        assert all(r["status"].startswith("error: ") and r["n_atoms"] == 1e30
                   for r in rows[2:])
