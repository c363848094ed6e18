"""What a fresh `ddmsim` process imports.

Each scipy subpackage is imported inside the function that calls it, so
importing the CLI and building its parser loads numpy and no scipy
module, and `phase-diagram`, `steady`, `screening`, `mu`, `fit-alpha`
and `dynamics` up to N = 47, which never call scipy, run without it. A
serial run loads no process pool (nor multiprocessing). Every
check starts a fresh interpreter, because this test process has loaded
scipy already.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs its arguments through ddmsim.cli.main (or, with none, only builds
# the parser) and writes to stderr how many times the BLAS pin did its
# work, then the scipy modules it loaded.
PROBE = """
import sys
import ddmsim.cli
from ddmsim.blas import pin_blas_threads
try:
    code = 0
    if sys.argv[1:]:
        code = ddmsim.cli.main(sys.argv[1:])
    else:
        ddmsim.cli.build_parser()
finally:
    print(f"pins:{pin_blas_threads.cache_info().misses}", file=sys.stderr)
    print("scipy:" + ",".join(sorted(m for m in sys.modules
                                     if m.partition(".")[0] == "scipy")),
          file=sys.stderr)
sys.exit(code)
"""


def run_python(cwd, code, *argv):
    """A fresh interpreter running `code` with src/ on its path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )


def run_probe(cwd, *argv):
    """(exit code, scipy modules loaded, BLAS pins done) of one fresh
    `ddmsim` process."""
    proc = run_python(cwd, PROBE, *argv)
    pins, last = proc.stderr.splitlines()[-2:]
    assert pins.startswith("pins:") and last.startswith("scipy:"), proc.stderr
    return (proc.returncode, set(filter(None, last[len("scipy:"):].split(","))),
            int(pins[len("pins:"):]))


def test_parser_loads_no_scipy(tmp_path):
    # Nor does importing the CLI or building its parser pin BLAS, so the
    # start-up time does not include it.
    assert run_probe(tmp_path) == (0, set(), 0)


@pytest.mark.parametrize("argv", [
    ["phase-diagram", "--n-atoms", "4,8,16", "--beta", "0.5,2", "--out", "t.csv"],
    ["steady", "--n-atoms", "4,8", "--rabi", "1,3", "--out", "t.csv"],
    ["screening", "--n-atoms", "10,1000", "--beta", "0.5,1.5", "--out", "t.csv"],
    ["mu", "--ell-ax", "1,5", "--ell-rad", "0.5", "--out", "t.csv"],
    ["fit-alpha", "--input", "rates.csv"],
    ["--help"],
    # Up to the largest dense sector the operator is a numpy array.
    ["dynamics", "--n-atoms", "1,47", "--rabi", "20", "--t-final", "2",
     "--n-samples", "5", "--out", "t.csv"],
])
def test_subcommand_loads_no_scipy(tmp_path, argv):
    # A command pins BLAS once, with no scipy module; --help runs none.
    (tmp_path / "rates.csv").write_text("n_atoms,gamma_sr\n2,8\n3,18\n4,32\n5,50\n")
    assert run_probe(tmp_path, *argv) == (0, set(), 0 if argv == ["--help"] else 1)


def test_serial_run_loads_no_process_pool(tmp_path):
    # The pool and multiprocessing are imported only by a run that starts
    # workers.
    code = (
        "import sys, ddmsim.cli\n"
        "ddmsim.cli.build_parser()\n"
        "assert ddmsim.cli.main(['phase-diagram', '--n-atoms', '4,8', '--beta', '0.5,2',"
        " '--out', 't.csv']) == 0\n"
        "loaded = {'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    proc = run_python(tmp_path, code)
    assert proc.returncode == 0, proc.stderr


def test_scipy_subcommands_still_run(tmp_path):
    # dynamics and fit-omega-eff share the trace; dynamics at N = 60
    # takes scipy's expm_multiply.
    for argv in (
        ["dynamics", "--n-atoms", "4", "--rabi", "3", "--t-final", "8",
         "--n-samples", "81", "--out", "trace.csv"],
        ["fit-omega-eff", "--input", "trace.csv"],
        ["dynamics", "--n-atoms", "60", "--rabi", "40", "--t-final", "1",
         "--n-samples", "3", "--out", "large.csv"],
    ):
        code, _, pins = run_probe(tmp_path, *argv)
        assert (code, pins) == (0, 1), argv


def test_bench_held_solve_ivp_resolves_on_first_access(tmp_path):
    # ddmsim.ladder.solve_ivp is scipy's, loaded only when it is read.
    code = (
        "import sys, ddmsim.ladder as m\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        "from scipy.integrate import solve_ivp\n"
        "assert m.solve_ivp is solve_ivp\n"
        "assert not hasattr(m, 'no_such_name')\n"
    )
    proc = run_python(tmp_path, code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, code, out", [
    (["--version"], 0, "0.1.0\n"),
    (["steady", "--n-atoms", "-4", "--rabi", "2"], 2, ""),  # all points fail
])
def test_module_entry_point_exits_with_main(tmp_path, argv, code, out):
    # `python -m ddmsim.cli` runs main() and exits with its code.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ddmsim.cli", *argv], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
