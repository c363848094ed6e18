"""The names the benchmark in bench/ reaches into the package by.

bench/spans.py wraps functions under the module attributes listed in
its PATCHES table, and bench/gate.py imports from the package namespace
and wraps `ddmsim.sweep.steady_state`. A name removed from the package
would otherwise surface only as an AttributeError at benchmark time.
bench/ is read here, never edited.
"""

import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, BENCH_DIR)
    try:
        import gate
        import spans
    finally:
        sys.path.remove(BENCH_DIR)
    return gate, spans


def test_gate_imports(bench_modules):
    gate, _ = bench_modules
    assert callable(gate.ddmsim.sweep.steady_state)


def test_traced_names_exist(bench_modules):
    _, spans = bench_modules
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _name, _extract in spans.PATCHES
        if not hasattr(module, attr)
    ]
    assert not missing, missing
