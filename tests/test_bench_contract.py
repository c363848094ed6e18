"""The names and command lines the benchmark in bench/ relies on.

bench/spans.py wraps functions under the module attributes listed in
its PATCHES table, and bench/gate.py imports from the package namespace
and wraps `ddmsim.sweep.steady_state`. bench/workloads.py drives the CLI
with fixed command lines. A name or flag removed from the package would
otherwise surface only at benchmark time. bench/ is read here, never
edited.
"""

import json
import os
import sys

import pytest

from ddmsim.cli import build_parser

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, BENCH_DIR)
    try:
        import gate
        import spans
        import workloads
    finally:
        sys.path.remove(BENCH_DIR)
    return gate, spans, workloads


def test_gate_imports(bench_modules):
    gate, _, _ = bench_modules
    assert callable(gate.ddmsim.sweep.steady_state)


def test_traced_names_exist(bench_modules):
    _, spans, _ = bench_modules
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _name, _extract in spans.PATCHES
        if not hasattr(module, attr)
    ]
    assert not missing, missing


def contract_calls(workloads, workdir):
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    steps = []
    for name in names:
        workload = workloads.WORKLOADS[name]
        steps += workloads.warmup_plan(workload, workdir)
        steps += workloads.plan(workload, 0, workdir)
    return [step for step in steps if isinstance(step, workloads.Call)]


def test_command_lines_parse(bench_modules, tmp_path):
    _, _, workloads = bench_modules
    calls = contract_calls(workloads, str(tmp_path))
    parser = build_parser()
    for call in calls:
        parser.parse_args(call.argv)
    commands = {call.argv[0] for call in calls}
    assert commands == {"phase-diagram", "dynamics", "fit-omega-eff",
                        "screening", "mu", "fit-alpha"}
    # The N <= 4 dynamics slice that the gate holds to the 2^N oracle.
    oracle = [c.argv for c in calls if c.argv[0] == "dynamics" and "--tol" in c.argv]
    assert oracle and all(
        int(argv[argv.index("--n-atoms") + 1]) <= workloads.ORACLE_MAX_N
        for argv in oracle
    )
