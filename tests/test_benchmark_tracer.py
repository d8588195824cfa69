"""The benchmark tracer still finds every name it patches.

``perfbench/tracer.py`` replaces public fgmopt names by timing wrappers; a
renamed or deleted name would only surface in a full benchmark run.
Installing the tracer once catches it here in milliseconds.
"""

import importlib
import pathlib

from fgmopt.fem import ThermoelasticSolver

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    run = ThermoelasticSolver.run
    with tracer.Tracer().installed():
        assert ThermoelasticSolver.run is not run
    assert ThermoelasticSolver.run is run
