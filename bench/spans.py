"""Spans around the calls into each ddmsim layer, and the layer metrics.

The tracer replaces the public functions of each layer under the names
that `ddmsim.cli` and `ddmsim.sweep` import them by (and scipy's
integrator under the name `ddmsim.ladder` imports it by, which is where
RHS evaluations are counted). Nothing under src/ changes. Spans are kept
in memory and turned into metrics at the end of a repetition.

Worker processes of the pool are forked with the wrappers in place.
They cannot hand spans back through the pool, and they exit without
running exit hooks, so each worker appends the spans of each finished
top-level call, as one line, to a file of its own in `worker_dir`,
which the parent reads after the sweep.
"""

from __future__ import annotations

import functools
import glob
import json
import math
import os
from time import perf_counter

import ddmsim.cli
import ddmsim.ladder
import ddmsim.sweep


def _n_and_beta(args, kwargs, result):
    params = args[1] if len(args) > 1 else args[0]
    return {"n": params.n_atoms, "beta": params.beta}


def _nfev(args, kwargs, result):
    return {"nfev": int(result.nfev)}


def _run_attrs(args, kwargs, result):
    errors = sum(str(r.get("status", "")).startswith("error")
                 for r in result.rows)
    return {"threads": int(kwargs.get("threads", 1)),
            "points": int(result.metadata["n_points"]), "errors": errors}


def _csv_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


# (module, attribute, span name, attribute extractor)
PATCHES = (
    (ddmsim.cli, "main", "cli.main", None),
    (ddmsim.cli, "run", "sweep.run", _run_attrs),
    (ddmsim.cli, "write_csv", "sweep.write_csv", None),
    (ddmsim.cli, "format_csv", "sweep.format_csv", _csv_bytes),
    (ddmsim.sweep, "format_csv", "sweep.format_csv", _csv_bytes),
    (ddmsim.cli, "fit_omega_eff", "analysis.fit_omega_eff", None),
    (ddmsim.cli, "fit_power_law", "analysis.fit_power_law", None),
    (ddmsim.sweep, "steady_state", "ladder.steady_state", _n_and_beta),
    (ddmsim.sweep, "evolve", "ladder.evolve", _n_and_beta),
    (ddmsim.sweep, "observables", "ladder.observables", None),
    (ddmsim.sweep, "g2_zero", "ladder.g2_zero", None),
    (ddmsim.sweep, "liouvillian_rhs", "ladder.liouvillian_rhs", None),
    (ddmsim.sweep, "solve_x", "meanfield.solve_x", None),
    (ddmsim.sweep, "cooperativity_mu", "geometry.cooperativity_mu", None),
    (ddmsim.ladder, "solve_ivp", "ladder.solve_ivp", _nfev),
)

# Layer totals reported as "<name>.s" and "<name>.calls".
REPORTED_LAYERS = (
    "ladder.steady_state", "ladder.liouvillian_rhs", "ladder.evolve",
    "ladder.observables", "ladder.g2_zero", "meanfield.solve_x",
    "geometry.cooperativity_mu", "analysis.fit_omega_eff",
    "analysis.fit_power_law", "sweep.run", "sweep.format_csv", "cli.main",
)

# Below this N the per-call time is mostly fixed overhead, so the
# scaling exponents are fitted on larger N only.
N_EXP_MIN_N = 16


class Tracer:
    """Records spans (name, start, end, parent, attributes) in memory."""

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.in_worker = False
        self.spans = []
        self._stack = []
        self._saved = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        # A forked worker starts with a copy of the parent's open spans.
        self.in_worker = True
        self.reset()

    def install(self):
        for module, attr, name, extract in PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, extract))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, extract):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else None, {}]
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    span[4] = extract(args, kwargs, result)
                return result
            except BaseException:
                span[4] = {"error": True}
                raise
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
                if tracer.in_worker and not tracer._stack:
                    tracer._flush_worker()

        return traced

    def _flush_worker(self):
        path = os.path.join(self.worker_dir, f"{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def take_worker_spans(self) -> list:
        """Read and delete the span files the pool workers wrote."""
        spans = []
        pattern = os.path.join(self.worker_dir, "*.jsonl")
        for path in sorted(glob.glob(pattern)):
            with open(path) as fh:
                batches = [json.loads(line) for line in fh]
            os.remove(path)
            # Parent indices refer to positions within one batch.
            for batch in batches:
                offset = len(spans)
                for span in batch:
                    if span[3] is not None:
                        span[3] += offset
                spans.extend(batch)
        return spans


def _self_times(spans) -> list:
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _scaling_exponent(calls) -> float | None:
    """Log-log slope of per-call time against N, with one intercept for
    drives below threshold and one above (the cost depends on both)."""
    groups = {}
    for n, beta, dur in calls:
        if n >= N_EXP_MIN_N and dur > 0:
            groups.setdefault(beta >= 1.0, []).append(
                (math.log(n), math.log(dur)))
    sxy = sxx = 0.0
    for pairs in groups.values():
        mx = sum(x for x, _ in pairs) / len(pairs)
        my = sum(y for _, y in pairs) / len(pairs)
        sxy += sum((x - mx) * (y - my) for x, y in pairs)
        sxx += sum((x - mx) ** 2 for x, _ in pairs)
    return sxy / sxx if sxx > 0 else None


def layer_metrics(spans, worker_spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition.

    Values are None where the workload never reaches the layer.
    """
    all_spans = spans + worker_spans
    self_all = _self_times(spans) + _self_times(worker_spans)
    metrics = {}
    for layer in REPORTED_LAYERS:
        picked = [i for i, s in enumerate(all_spans) if s[0] == layer]
        metrics[f"{layer}.calls"] = len(picked)
        metrics[f"{layer}.s"] = (
            sum(all_spans[i][2] - all_spans[i][1] for i in picked)
            if picked else None)
        if layer in ("sweep.run", "cli.main"):
            metrics[f"{layer}.self_s"] = (
                sum(self_all[i] for i in picked) if picked else None)

    def calls_of(name):
        return [(s[4]["n"], s[4]["beta"], s[2] - s[1])
                for s in all_spans if s[0] == name and "n" in s[4]]

    steady = calls_of("ladder.steady_state")
    metrics["ladder.steady_state.n_exp"] = _scaling_exponent(steady)
    if steady:
        n_max = max(n for n, _, _ in steady)
        at_max = [d for n, _, d in steady if n == n_max]
        metrics["ladder.steady_state.s_at_nmax"] = sum(at_max) / len(at_max)
    else:
        metrics["ladder.steady_state.s_at_nmax"] = None

    metrics["ladder.evolve.n_exp"] = _scaling_exponent(
        calls_of("ladder.evolve"))
    ivp = [s for s in all_spans if s[0] == "ladder.solve_ivp" and s[4]]
    nfev = sum(s[4]["nfev"] for s in ivp)
    metrics["ladder.evolve.nfev"] = nfev
    metrics["ladder.evolve.us_per_rhs"] = (
        1e6 * sum(s[2] - s[1] for s in ivp) / nfev if nfev else None)

    runs = [s for s in spans if s[0] == "sweep.run" and s[4]]
    metrics["sweep.points"] = sum(s[4]["points"] for s in runs)
    metrics["sweep.failed_points"] = sum(s[4]["errors"] for s in runs)
    metrics["sweep.csv_bytes"] = sum(
        s[4]["bytes"] for s in spans if s[0] == "sweep.format_csv" and s[4])
    metrics["sweep.pool_efficiency"] = _pool_efficiency(spans, worker_spans)

    # Everything inside a top-level cli.main span is some layer's self
    # time; what is left of the wall time is the benchmark's own glue.
    top = sum(s[2] - s[1] for s in spans if s[3] is None)
    metrics["bench.unaccounted_s"] = wall_s - top
    return metrics


def _pool_efficiency(spans, worker_spans) -> float | None:
    """Layer busy time over workers x sweep wall time.

    Busy time is the time spent in layer calls made directly by the sweep
    engine: children of sweep.run when serial, top-level worker spans
    when parallel. The monotonic clock is shared by all processes on
    Linux, so worker spans are matched to the sweep that ran them by time.
    """
    busy = capacity = 0.0
    for index, run in enumerate(spans):
        if run[0] != "sweep.run" or not run[4]:
            continue
        workers = run[4]["threads"]
        capacity += max(workers, 1) * (run[2] - run[1])
        if workers > 1:
            busy += sum(s[2] - s[1] for s in worker_spans
                        if s[3] is None and run[1] <= s[1] <= run[2])
        else:
            busy += sum(s[2] - s[1] for s in spans if s[3] == index)
    return busy / capacity if capacity else None
