"""The benchmark still finds every fgmopt name it uses.

``perfbench/tracer.py`` replaces public fgmopt names by timing wrappers, and
``perfbench/workloads.py`` calls the public API; a renamed or deleted name,
or a changed signature, would only surface in a full benchmark run.
Installing the tracer once, running each workload's set-up and the
reference-stress gate catch it here in about a second.
"""

import importlib
import pathlib

import numpy as np

from fgmopt import neural
from fgmopt.fem import MATERIALS, EdgeConstraint, MechBCSet, ProblemConfig, ThermoelasticSolver

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    run = ThermoelasticSolver.run
    with tracer.Tracer().installed():
        assert ThermoelasticSolver.run is not run
    assert ThermoelasticSolver.run is run


def test_factor_is_traced(monkeypatch):
    # the tracer patches scipy's splu where fem looks it up; a factorization
    # that bypasses it would leave fem.factor and fem.lu_nnz empty
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    cfg = ProblemConfig(
        L=1.0, H=1.0, nx=2, ny=2, materials=MATERIALS["Al/ZrO2"],
        mech=MechBCSet(edges=(EdgeConstraint("left", "u1"), EdgeConstraint("bottom", "u2"))),
        thermal=None, uniform_delta_theta=10.0)
    t = tracer.Tracer()
    with t.installed():
        ThermoelasticSolver(cfg).run(np.full((3, 3), 0.5))
    counts = t.round_counts(t.round, bytes_written=0, redraws=0)
    assert counts["fem.factor.calls"] >= 1
    assert counts["fem.lu_nnz"] > 0


def test_workload_setup_builds_loadable_models(monkeypatch, tmp_path):
    # each workload's untimed set-up, and the models it loads, through the public API
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name, cls in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        wl = cls(work, 3, workloads.Sizes())
        wl.prepare()
        for path in wl.models():
            neural.load_model(path)


def test_reference_stress_gate_passes(monkeypatch):
    # the gate every benchmark round runs: published reference gradations
    # solved on problems.reference_config, within 10% of the quoted stresses
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    values, errors = workloads.check_reference_stresses()
    assert errors == []
    assert set(values) == {"problem1", "problem2"}


def test_surrogate_ga_items_are_the_evaluations_made(monkeypatch, tmp_path):
    # a round's item count comes from run_record.json's eval_source_totals; it
    # must equal the evaluate calls the tracer sees: 8 initial individuals,
    # then 6 children (the 2 elites are not evaluated again)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    wl = workloads.P1SurrogateGA(tmp_path, 3, workloads.Sizes(ga_population=8, ga_generations=2))
    wl.prepare()
    t = tracer.Tracer()
    t.round = 0
    with t.installed():
        items = wl.run_round(0, tmp_path / "round").items
    assert items == t.calls("ga.evaluate_surrogate", 0) + t.calls("ga.evaluate_fem", 0) == 14
