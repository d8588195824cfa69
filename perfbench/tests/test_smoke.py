"""Tiny-size smoke test of the benchmark harness.

Not part of tier-1 (pytest collects only tests/ by default).  Run it with

    python3 -m pytest -q perfbench/tests
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.prepare_environment()

import tracer  # noqa: E402
import workloads  # noqa: E402
from fgmopt import fem  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Sizes(p1_samples=1, ga_population=8, ga_generations=2, p2_samples=6,
                       p2_population=6, p2_generations=2, stress_epochs=50, temp_epochs=1)
SEED = 3


def measure(name, trace):
    return run.measure(name, SEED, 0, trace, sizes=TINY, setup_repeats=1)


@pytest.fixture(scope="module")
def records():
    return {name: {trace: measure(name, trace) for trace in (False, True)}
            for name in run.WORKLOAD_NAMES}


def test_metrics_match_the_spec(records):
    for name, by_mode in records.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            rec = by_mode[trace]
            assert rec["correct"], (name, trace, rec["errors"])
            assert rec["attempted"] >= 1 and rec["failed"] == 0
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            assert {k: v["unit"] for k, v in rec["metrics"].items()} == want
        assert all(m["value"] > 0 for m in by_mode[False]["metrics"].values())


def test_exact_counts_repeat_between_runs(records):
    for name in run.WORKLOAD_NAMES:
        again = measure(name, True)
        for m in tracer.COUNT_METRICS:
            assert again["metrics"][m] == records[name][True]["metrics"][m], (name, m)


def test_bypassed_layers_stay_idle(records):
    label = records["p1-label"][True]["metrics"]
    for m in ("neural.stress_predict.calls", "neural.operator_predict.calls", "ga.evaluate.calls"):
        assert label[m]["value"] == 0
    assert label["fem.factor.calls"]["value"] == TINY.p1_samples
    ga_run = records["p1-surrogate-ga"][True]["metrics"]
    assert ga_run["fem.factor.calls"]["value"] == 1  # the verification solve
    assert ga_run["ga.fem_route_frac"]["value"] == 0.0
    assert ga_run["neural.stress_predict.rows_per_call"]["value"] == 1.0
    design = records["p2-design"][True]["metrics"]
    assert 0.0 < design["ga.fem_route_frac"]["value"] < 1.0
    assert design["fem.phi_at_gauss.per_run"]["value"] == 4


def test_gate_fails_a_run_with_wrong_stresses(monkeypatch):
    real = fem.effective_stress
    monkeypatch.setattr(fem, "effective_stress", lambda *a: 0.5 * real(*a))
    rec = measure("p1-label", False)
    assert not rec["correct"]
    assert any("reference" in e for e in rec["errors"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "p1-label",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
