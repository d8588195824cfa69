"""Benchmark-side tracing of the public calls into each fgmopt layer.

Nothing in the package is changed.  While a ``Tracer`` is installed, each
public name is replaced where its caller looks it up by a wrapper that
records one span (name, parent, round, start, end).  Spans stay in memory
and are written out when the run ends; ``layer_metrics`` turns them into
the per-layer metrics listed in BENCHMARK.json.

Metric names encode how they are derived from spans: ``<span>_ms`` and
``<span>_us`` are per-call medians, ``<span>.self_ms`` is the median of
each call's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import time
from collections import Counter, defaultdict
from unittest import mock

import numpy as np
import scipy.sparse.linalg as spla

from fgmopt import ga, neural, pipeline, profiles
from fgmopt.fem import ThermoelasticSolver

TIMING_METRICS = (
    "fem.solver_init_ms",
    "fem.run_ms",
    "fem.phi_at_gauss_ms",
    "fem.thermal_system_ms",
    "fem.solve_thermal.self_ms",
    "fem.solve_elastic.self_ms",
    "fem.factor_ms",
    "fem.trisolve_ms",
    "fem.gauss_stress_ms",
    "fem.profile_grid_ms",
    "fem.v_ca_ms",
    "profiles.generate_genes_us",
    "profiles.genes_to_profiles_us",
    "profiles.tensor_product_us",
    "profiles.interpolate_us",
    "profiles.average_ceramic_fraction_us",
    "neural.stress_predict_us",
    "neural.operator_predict_us",
    "neural.train_stress_epoch_ms",
    "neural.train_temp_epoch_ms",
    "ga.tournament_us",
    "ga.sbx_us",
    "ga.mutation_us",
    "ga.evolve.self_ms",
    "ga.evaluate_fem_ms",
    "ga.evaluate_surrogate_us",
    "pipeline.generate_dataset.self_ms",
    "pipeline.load_dataset_ms",
    "pipeline.write_result_files_ms",
)

# exact counts of the first traced round; they repeat bit for bit for a seed
COUNT_METRICS = {
    "fem.phi_at_gauss.per_run": "1",
    "fem.factor.calls": "count",
    "fem.lu_nnz": "count",
    "neural.stress_predict.calls": "count",
    "neural.stress_predict.rows_per_call": "rows",
    "neural.operator_predict.calls": "count",
    "ga.evaluate.calls": "count",
    "ga.fem_route_frac": "fraction",
    "ga.duplicate_eval_frac": "fraction",
    "pipeline.bytes_written": "bytes",
    "pipeline.redraws": "count",
}

_SCALE = {"ms": 1e3, "us": 1e6}


def parse_timing(metric: str):
    """(span name, unit, self time?) for a name in TIMING_METRICS."""
    base, unit = metric.rsplit("_", 1)
    if base.endswith(".self"):
        return base[: -len(".self")], unit, True
    return base, unit, False


def tail_percentile(n: int):
    """Highest of p90/p99/p99.9 with at least 10 samples beyond it, or None."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            best = p
    return best


class Tracer:
    """In-memory span recorder; ``round`` tags every span it records."""

    def __init__(self):
        self.spans = []  # [name, parent index, round, start, end]
        self.counts = Counter()  # (round, name) -> exact count
        self.round = "setup"
        self._stack = []
        self._seen_genes = set()
        self.per_epoch = defaultdict(list)  # training span seconds / epochs run

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        span = [name, self._stack[-1] if self._stack else None, self.round, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(idx)
        span[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[(self.round, name)] += n

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    # -- wrappers that also count ------------------------------------------

    def _splu(self, orig):
        def splu(A, *args, **kwargs):
            lu = self.call("fem.factor", orig, A, *args, **kwargs)
            nnz = lu.L.nnz + lu.U.nnz
            key = (self.round, "fem.lu_nnz")
            self.counts[key] = max(self.counts[key], nnz)
            return _TimedFactor(lu, self)
        return splu

    def _stress_predict(self, orig):
        def predict(model, profiles_x, *args, **kwargs):
            self.count("neural.stress_predict.rows", np.atleast_2d(profiles_x).shape[0])
            return self.call("neural.stress_predict", orig, model, profiles_x, *args, **kwargs)
        return predict

    def _evaluate(self, orig):
        def evaluate(evaluator, genes):
            key = genes.flatten().tobytes()
            if key in self._seen_genes:
                self.count("ga.duplicate_evals")
            self._seen_genes.add(key)
            idx = len(self.spans)
            ind = self.call("ga.evaluate", orig, evaluator, genes)
            self.spans[idx][0] = "ga.evaluate_" + ind.eval_source  # route known only now
            return ind
        return evaluate

    def _evolve(self, orig):
        def evolve(*args, **kwargs):
            self._seen_genes = set()
            return self.call("ga.evolve", orig, *args, **kwargs)
        return evolve

    def _fit(self, name, orig):
        def fit(model, *args, **kwargs):
            idx = len(self.spans)
            history = self.call(name, orig, model, *args, **kwargs)
            _, _, _, start, end = self.spans[idx]
            self.per_epoch[name + "_epoch"].append((end - start) / len(history))
            return history
        return fit

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        w = self._wrap
        patches = [
            (spla, "splu", self._splu(spla.splu)),
            (profiles, "interpolate", w("profiles.interpolate", profiles.interpolate)),
            (neural.StressSurrogate, "predict", self._stress_predict(neural.StressSurrogate.predict)),
            (neural.StressSurrogate, "fit", self._fit("neural.train_stress", neural.StressSurrogate.fit)),
            (neural.OperatorNet, "predict", w("neural.operator_predict", neural.OperatorNet.predict)),
            (neural.OperatorNet, "fit", self._fit("neural.train_temp", neural.OperatorNet.fit)),
            (ga.FitnessEvaluator, "evaluate", self._evaluate(ga.FitnessEvaluator.evaluate)),
            (ga, "tournament_select", w("ga.tournament", ga.tournament_select)),
            (ga, "sbx_crossover", w("ga.sbx", ga.sbx_crossover)),
            (ga, "polynomial_mutation", w("ga.mutation", ga.polynomial_mutation)),
            (ga, "average_ceramic_fraction",
             w("profiles.average_ceramic_fraction", ga.average_ceramic_fraction)),
            (pipeline, "evolve", self._evolve(pipeline.evolve)),
            (pipeline, "generate_dataset", w("pipeline.generate_dataset", pipeline.generate_dataset)),
            (pipeline, "load_dataset", w("pipeline.load_dataset", pipeline.load_dataset)),
            (pipeline, "write_result_files",
             w("pipeline.write_result_files", pipeline.write_result_files)),
        ]
        # the gene codec is imported by name into both of its callers
        for module in (ga, pipeline):
            for fn in ("generate_genes", "genes_to_profiles", "tensor_product"):
                patches.append((module, fn, w("profiles." + fn, getattr(module, fn))))
        for method, span in (("__init__", "solver_init"), ("run", "run"),
                             ("phi_at_gauss", "phi_at_gauss"),
                             ("thermal_system", "thermal_system"),
                             ("solve_thermal", "solve_thermal"),
                             ("solve_elastic", "solve_elastic"),
                             ("gauss_stress", "gauss_stress"),
                             ("temperature_on_profile_grid", "profile_grid"),
                             ("v_ca", "v_ca")):
            patches.append((ThermoelasticSolver, method,
                            w("fem." + span, getattr(ThermoelasticSolver, method))))
        with contextlib.ExitStack() as stack:
            for owner, attr, new in patches:
                stack.enter_context(mock.patch.object(owner, attr, new))
            yield self

    # -- derived metrics -------------------------------------------------------

    def durations(self):
        """name -> per-call seconds (self time under 'name.self')."""
        child = defaultdict(float)
        for name, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(list)
        for i, (name, _, _, start, end) in enumerate(self.spans):
            out[name].append(end - start)
            out[name + ".self"].append(end - start - child[i])
        out.update(self.per_epoch)
        return out

    def calls(self, name, rnd):
        return sum(1 for s in self.spans if s[0] == name and s[2] == rnd)

    def round_counts(self, rnd, bytes_written: int, redraws: int) -> dict:
        c = self.calls
        runs = c("fem.run", rnd)
        evals_fem = c("ga.evaluate_fem", rnd)
        evals = evals_fem + c("ga.evaluate_surrogate", rnd)
        predicts = c("neural.stress_predict", rnd)
        return {
            "fem.phi_at_gauss.per_run": c("fem.phi_at_gauss", rnd) / runs if runs else 0.0,
            "fem.factor.calls": c("fem.factor", rnd),
            "fem.lu_nnz": self.counts[(rnd, "fem.lu_nnz")],
            "neural.stress_predict.calls": predicts,
            "neural.stress_predict.rows_per_call":
                self.counts[(rnd, "neural.stress_predict.rows")] / predicts if predicts else 0.0,
            "neural.operator_predict.calls": c("neural.operator_predict", rnd),
            "ga.evaluate.calls": evals,
            "ga.fem_route_frac": evals_fem / evals if evals else 0.0,
            "ga.duplicate_eval_frac":
                self.counts[(rnd, "ga.duplicate_evals")] / evals if evals else 0.0,
            "pipeline.bytes_written": bytes_written,
            "pipeline.redraws": redraws,
        }

    def write_spans(self, path):
        """One gzipped JSON line per span: index, name, parent, round, start and duration in µs."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for i, (name, parent, rnd, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, rnd, round((start - t0) * 1e6, 3),
                                     round((end - start) * 1e6, 3)]) + "\n")


class _TimedFactor:
    """SuperLU proxy whose triangular solves are recorded as spans."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("fem.trisolve", self._lu.solve, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def timing_summary(durations, metric: str) -> dict:
    """Median, tail percentile and sample count of one timing metric."""
    span, unit, use_self = parse_timing(metric)
    values = durations.get(span + ".self" if use_self else span, [])
    scale = _SCALE[unit]
    if not values:
        return {"value": 0.0, "unit": unit, "n": 0}
    out = {"value": statistics.median(values) * scale, "unit": unit, "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = float(np.percentile(values, p)) * scale
    return out


def layer_metrics(tracer: Tracer, first_round, bytes_written: int, redraws: int,
                  overhead_frac: float):
    """(metrics for the result line, details with tails and sample counts)."""
    durations = tracer.durations()
    details = {m: timing_summary(durations, m) for m in TIMING_METRICS}
    metrics = {m: {"value": d["value"], "unit": d["unit"]} for m, d in details.items()}
    counts = tracer.round_counts(first_round, bytes_written, redraws)
    for m, unit in COUNT_METRICS.items():
        metrics[m] = {"value": counts[m], "unit": unit}
    metrics["trace.overhead_frac"] = {"value": overhead_frac, "unit": "fraction"}
    return metrics, details
