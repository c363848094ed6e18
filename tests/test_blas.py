"""One BLAS thread per process (`ddmsim.blas.pin_blas_threads`).

The checks that read a thread count start a fresh interpreter: this test
process has run sweeps, so its OpenBLAS is pinned already.
"""

import ctypes
import ctypes.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ddmsim.blas
from ddmsim.blas import openblas_libraries, pin_blas_threads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The thread counts are read from the OpenBLAS that numpy and scipy ship,
# found through /proc/self/maps.
needs_openblas = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and "openblas" in
         np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]),
    reason="numpy is not built on OpenBLAS, or no /proc/self/maps")

# Reports the thread count of every OpenBLAS mapped in the process: before
# and after ddmsim.cli.main, and in a forked and a spawned pool worker.
PROBE = """
import ctypes, json, multiprocessing, os, sys
from concurrent.futures import ProcessPoolExecutor

import scipy.linalg  # maps scipy's OpenBLAS beside numpy's

import ddmsim.cli
from ddmsim.blas import openblas_libraries

GETTERS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
           "scipy_openblas_get_num_threads")


def counts():
    out = {}
    for path in openblas_libraries():
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        getter = next(getattr(lib, n) for n in GETTERS if hasattr(lib, n))
        out[os.path.basename(path)] = getter()
    return out


if __name__ == "__main__":
    before = counts()
    code = ddmsim.cli.main(["screening", "--n-atoms", "10", "--beta", "2",
                            "--out", "t.csv"])
    report = {"code": code, "before": before, "after": counts()}
    for method in ("fork", "spawn"):
        context = multiprocessing.get_context(method)
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            report[method] = pool.submit(counts).result()
    print(json.dumps(report))
"""


def fresh_env(**settings):
    """os.environ with src/ on the path, OPENBLAS_NUM_THREADS as given
    (removed when None) and SOURCE_DATE_EPOCH=0."""
    env = dict(os.environ, SOURCE_DATE_EPOCH="0",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update((k, v) for k, v in settings.items() if v is not None)
    return env


@needs_openblas
def test_main_leaves_every_openblas_and_each_worker_one_thread(tmp_path):
    (tmp_path / "probe.py").write_text(PROBE)
    proc = subprocess.run([sys.executable, "probe.py"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env=fresh_env(OPENBLAS_NUM_THREADS="2"))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0
    libraries = set(report["before"])
    assert len(libraries) == 2  # numpy's and scipy's
    if len(os.sched_getaffinity(0)) >= 2:  # the caller's 2 threads took hold
        assert set(report["before"].values()) == {2}
    for when in ("after", "fork", "spawn"):
        assert report[when] == dict.fromkeys(libraries, 1), when


def test_output_does_not_depend_on_the_blas_setting(tmp_path):
    # Without the pin the serial bytes differ between 1 and 2 BLAS threads
    # (in the last digits of about 400 of the 402 rows on 2 cores).
    argv = ["dynamics", "--n-atoms", "24,32", "--rabi", "18", "--out", "t.csv"]
    tables = {}
    for setting, threads in ((None, 1), ("2", 1), ("1", 1), (None, 2)):
        cwd = tmp_path / f"{setting}-{threads}"
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "ddmsim.cli", *argv, "--threads", str(threads)],
            cwd=cwd, capture_output=True, text=True, timeout=120,
            env=fresh_env(OPENBLAS_NUM_THREADS=setting))
        assert proc.returncode == 0, proc.stderr
        tables[setting, threads] = (cwd / "t.csv").read_bytes()
    assert tables[None, 1].count(b"\n") == 2 + 2 * 201
    assert len(set(tables.values())) == 1


def test_runs_once_per_process_and_never_at_import(tmp_path):
    # A library sweep pins before its pool starts; cli.main then pins
    # again (and so does its sweep), with nothing left to do.
    code = (
        "import os\n"
        "import ddmsim.cli\n"
        "from ddmsim.blas import pin_blas_threads\n"
        "from ddmsim.sweep import SweepSpec, run\n"
        "ddmsim.cli.build_parser()\n"
        "assert pin_blas_threads.cache_info().misses == 0\n"
        "assert 'OPENBLAS_NUM_THREADS' not in os.environ\n"
        "run(SweepSpec.from_dict({'mode': 'screening_curve',\n"
        "                         'grids': {'n_atoms': [10], 'beta': [2.0, 3.0]}}),\n"
        "    threads=2)\n"
        "assert pin_blas_threads.cache_info().misses == 1\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n"
        "argv = ['screening', '--n-atoms', '10', '--beta', '2', '--out', 't.csv']\n"
        "assert ddmsim.cli.main(argv) == ddmsim.cli.main(argv) == 0\n"
        "info = pin_blas_threads.cache_info()\n"
        "assert (info.misses, info.hits) == (1, 4), info\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env=fresh_env())
    assert proc.returncode == 0, proc.stderr


class TestWithoutOpenblas:
    """The pin only sets the environment where no OpenBLAS is mapped."""

    @pytest.fixture(autouse=True)
    def no_library_loads(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no library should be opened")

        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setattr(ddmsim.blas.ctypes, "CDLL", refuse)

    def test_nothing_mapped(self, monkeypatch):
        monkeypatch.setattr(ddmsim.blas, "openblas_libraries", lambda: [])
        assert pin_blas_threads.__wrapped__() is None
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_no_memory_map_to_read(self, monkeypatch):
        def missing(*args, **kwargs):
            raise FileNotFoundError("/proc/self/maps")

        monkeypatch.setattr(ddmsim.blas, "open", missing, raising=False)
        assert openblas_libraries() == []
        pin_blas_threads.__wrapped__()
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_skips_a_library_it_cannot_open_or_set(monkeypatch):
    # A path that is not mapped fails RTLD_NOLOAD; libc has no setter.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    libc = ctypes.util.find_library("c")
    paths = ["/nonexistent/libopenblas.so"] + ([libc] if libc else [])
    monkeypatch.setattr(ddmsim.blas, "openblas_libraries", lambda: paths)
    pin_blas_threads.__wrapped__()
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

