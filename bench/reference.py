"""Write the reference tables the correctness gate compares against.

Runs every candidate grid value of every workload once through the same
CLI calls the benchmark makes, serially, and stores the outputs in
bench/reference/<workload>.json.gz. A combined workload has no file of
its own; the gate merges its parts' tables. Regenerate only at a commit
whose numbers are trusted; the tables are what later commits are held
to.

    python3 bench/reference.py [workload ...]
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import ddmsim  # noqa: E402

import gate  # noqa: E402
import workloads as wl  # noqa: E402

PHASE_COLUMNS = ("rabi", "s_z", "n_e", "re_dipole", "im_dipole", "gamma_sr",
                 "g2")
TABLE_COLUMNS = {
    "trace": ("t", "n_e", "s_z", "re_dipole", "im_dipole", "gamma_sr"),
    "screening": ("x", "x_asymptote"),
    "mu": ("mu", "small_angle_estimate"),
}


def _flat(bands) -> list:
    return sorted({v for band in bands for v in band})


def candidate_steps(workload: wl.Workload, workdir: str) -> list:
    """Steps that cover every grid value a seed can pick."""
    bands = workload.bands
    if workload in (wl.STEADY_GRID, wl.PARALLEL_STEADY):
        return [wl.phase_call(_flat(bands["n_atoms"]), _flat(bands["beta"]),
                              workdir, threads=1)]
    if workload is wl.DYNAMICS_FIT:
        return [c for n in _flat(bands["n_atoms"])
                for b in _flat(bands["beta"])
                for c in wl.trace_calls(n, b, workdir)]
    return ([s for b in bands["screening_beta"]
             for s in wl.screening_steps(b, bands["screening_n"], workdir)]
            + [s for r in bands["mu_ell_rad"]
               for s in wl.mu_steps(r, bands["mu_ell_ax"], workdir)])


def build(workload: wl.Workload, workdir: str) -> dict:
    steps = candidate_steps(workload, workdir)
    outcomes = wl.run_steps(steps)
    tables, fits = {}, {}
    for call in (s for s in steps if isinstance(s, wl.Call)):
        if not outcomes[call.out]:
            raise RuntimeError(f"candidate call failed: {call.argv[:1]} "
                               f"{call.key}")
        if call.kind in ("fit-omega", "fit-alpha"):
            with open(call.out) as fh:
                fits[call.key] = json.load(fh)
            continue
        columns, rows, _ = gate.read_table(call.out)
        col = {name: i for i, name in enumerate(columns)}
        if any(r[col["status"]] != "ok" for r in rows):
            raise RuntimeError(f"candidate point failed in {call.out}")
        if call.kind == "phase":
            for r in rows:
                key = gate.row_key(r[col["n_atoms"]], r[col["beta"]])
                tables[key] = {c: [float(r[col[c]])] for c in PHASE_COLUMNS}
        else:
            tables[call.key] = {c: [float(r[col[c]]) for r in rows]
                                for c in TABLE_COLUMNS[call.kind]}
    return {"workload": workload.name, "ddmsim_version": ddmsim.__version__,
            "tables": tables, "fits": fits}


def main(names) -> int:
    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    for name in names or [n for n, w in wl.WORKLOADS.items()
                          if not w.parts]:
        workdir = os.path.join(ROOT, ".bench_work", "reference", name)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        doc = build(wl.WORKLOADS[name], workdir)
        # mtime=0 keeps the file identical when the tables are.
        with open(gate.reference_path(name), "wb") as raw, \
                gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(doc, sort_keys=True).encode())
        shutil.rmtree(workdir)
        print(f"{name}: {len(doc['tables'])} tables, {len(doc['fits'])} fits")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
