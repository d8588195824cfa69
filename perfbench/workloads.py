"""The benchmark workloads, driven only through fgmopt's public API.

Each workload is a closed loop with one caller: a round is one complete job a
user would run, and the next round starts when the previous one has ended.
Round r draws its inputs from (seed, r), so the median over a run's rounds
covers several independent inputs, and a traced replay of round r sees
exactly the inputs of the untraced round r.  Why each workload exists and
which layers it loads is written down in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import time
from dataclasses import dataclass

import numpy as np

from fgmopt import fem, neural, pipeline, problems
from fgmopt.neural import TrainStage
from fgmopt.rng import derived_rng

BENCH_STREAM = 0xBE4C
# published reference stresses, (m=1, y) power law, checked within 10%
REFERENCE_STRESS = {"problem1": 309.0e6, "problem2": 80.0e6}
REFERENCE_REL_TOL = 0.10


@dataclass(frozen=True)
class Sizes:
    """Work in one round.  The defaults are the benchmark; tests shrink them."""

    p1_samples: int = 4
    ga_population: int = 200
    ga_generations: int = 10
    p2_samples: int = 24
    p2_population: int = 12
    p2_generations: int = 2
    stress_epochs: int = 100
    temp_epochs: int = 1


@dataclass
class Round:
    items: int  # work units completed: samples labelled plus individuals scored
    stages: dict  # public call -> seconds, in call order
    rates: dict  # stage rate name -> value
    files: dict  # output file (relative) -> sha256
    bytes_written: int
    errors: list  # correctness-gate failures found in this round's outputs


def round_seed(seed: int, r: int) -> int:
    return int(derived_rng(seed, BENCH_STREAM, r).integers(2**31))


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _outputs(out: pathlib.Path):
    files = {str(p.relative_to(out)): p for p in sorted(out.rglob("*")) if p.is_file()}
    return {k: _sha256(p) for k, p in files.items()}, sum(p.stat().st_size for p in files.values())


def check_dataset(d: pathlib.Path) -> list:
    """Re-hash a dataset against its manifest; every label finite and positive."""
    manifest = json.loads((d / "manifest.json").read_text())
    errors = []
    for name in manifest["files"].values():
        if _sha256(d / name) != manifest["checksums"][name]:
            errors.append(f"{d.name}/{name}: sha256 differs from the manifest")
        for line in (d / name).read_text().splitlines():
            sigma = json.loads(line)["sigma_e_max"]
            if not (math.isfinite(sigma) and sigma > 0.0):
                errors.append(f"{d.name}/{name}: sigma_e_max {sigma!r}")
    return errors


def check_experiment(bundle: dict) -> list:
    sigma = bundle["fem_verified"]["sigma_e_max"]
    return [] if math.isfinite(sigma) else [f"fem_verified.sigma_e_max {sigma!r}"]


def check_training(name: str, history: list) -> list:
    mse = history[-1]["train_mse"]
    return [] if math.isfinite(mse) else [f"{name}: final train_mse {mse!r}"]


def check_reference_stresses():
    """({problem: sigma_e_max}, errors) for the published reference gradations."""
    values, errors = {}, []
    for pid, ref in REFERENCE_STRESS.items():
        solver = fem.ThermoelasticSolver(problems.reference_config(pid))
        sigma = solver.run(problems.reference_profile(pid, 1.0, "y")).sigma_e_max
        values[pid] = sigma
        if not abs(sigma / ref - 1.0) <= REFERENCE_REL_TOL:
            errors.append(f"{pid} reference sigma_e_max {sigma:.4g} Pa, published {ref:.4g} Pa")
    return values, errors


class Workload:
    name = ""
    problems: tuple = ()  # problem ids whose solvers set-up constructs

    def __init__(self, work: pathlib.Path, seed: int, sizes: Sizes):
        self.work = work
        self.seed = seed
        self.sizes = sizes
        # called, untimed, between two stages of a round
        self.between_stages = lambda: None

    def prepare(self):
        """Untimed inputs made from the seed before the first round."""

    def models(self) -> list:
        """Model files that set-up loads."""
        return []

    def planned_items(self) -> int:
        raise NotImplementedError

    def run_round(self, r: int, out: pathlib.Path) -> Round:
        raise NotImplementedError

    def _round(self, out, items, stages, rates, errors) -> Round:
        files, nbytes = _outputs(out)
        return Round(items, stages, rates, files, nbytes, errors)


class P1Label(Workload):
    """Problem 1 dataset labelling: elastic FEM at 13,122 dof, no thermal solve."""

    name = "p1-label"
    problems = ("problem1",)

    def planned_items(self):
        return self.sizes.p1_samples

    def run_round(self, r, out):
        n = self.sizes.p1_samples
        t0 = time.perf_counter()
        pipeline.generate_dataset("problem1", n, round_seed(self.seed, r), out / "dataset")
        dt = time.perf_counter() - t0
        return self._round(out, n, {"generate_dataset": dt}, {"label_per_s": n / dt},
                           check_dataset(out / "dataset"))


class P1SurrogateGA(Workload):
    """Problem 1 GA, surrogate only (sigma_star = 0), untrained seeded model."""

    name = "p1-surrogate-ga"
    problems = ("problem1",)

    def prepare(self):
        cfg = problems.problem1()
        model = neural.StressSurrogate.build(derived_rng(self.seed, BENCH_STREAM), cfg.nx + 1,
                                             cfg.ny + 1, problems.stress_scale(cfg))
        neural.save_model(model, self.models()[0])

    def models(self):
        return [self.work / "stress_problem1.json"]

    def planned_items(self):
        return self.sizes.ga_population * self.sizes.ga_generations

    def run_round(self, r, out):
        s = self.sizes
        exp = {
            "problem": "problem1",
            "case": "unconstrained",
            "sigma_star": 0.0,
            "models": {"stress": str(self.models()[0])},
            "ga": {"population_size": s.ga_population, "min_generations": s.ga_generations,
                   "max_generations": s.ga_generations},
        }
        t0 = time.perf_counter()
        bundle = pipeline.run_experiment(exp, out / "experiment", seed=round_seed(self.seed, r))
        dt = time.perf_counter() - t0
        evals = sum(bundle["eval_source_totals"].values())
        return self._round(out, evals, {"run_experiment": dt}, {"ga_evals_per_s": evals / dt},
                           check_experiment(bundle))


class P2Design(Workload):
    """The full problem 2 flow: label, load, train both models, GA case 3."""

    name = "p2-design"
    problems = ("problem2",)

    def planned_items(self):
        return self.sizes.p2_samples + self.sizes.p2_population * self.sizes.p2_generations

    def run_round(self, r, out):
        s = self.sizes
        seed = round_seed(self.seed, r)
        stages = {}

        def timed(stage, fn, *args, **kwargs):
            if stages:
                self.between_stages()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            stages[stage] = time.perf_counter() - t0
            return result

        timed("generate_dataset", pipeline.generate_dataset, "problem2", s.p2_samples, seed,
              out / "dataset")
        dataset = timed("load_dataset", pipeline.load_dataset, out / "dataset")
        stress, stress_hist = timed("train_stress", pipeline.train_stress_model, dataset, seed,
                                    stages=(TrainStage(3e-3, s.stress_epochs, 8),))
        temp, temp_hist = timed("train_temp", pipeline.train_temperature_model, dataset, seed,
                                stages=(TrainStage(1e-3, s.temp_epochs, 1024),))
        models = {"stress": str(out / "stress.json"), "temperature": str(out / "temperature.json")}
        timed("save_stress", neural.save_model, stress, models["stress"])
        timed("save_temp", neural.save_model, temp, models["temperature"])
        n_train = len(dataset["train_rows"])
        exp = {
            "problem": "problem2",
            "case": "case3",
            # the training-label median sends part of the population to each route
            "sigma_star": float(np.median(dataset["sigma_e_max"][dataset["train_rows"]])),
            "models": models,
            "ga": {"population_size": s.p2_population, "min_generations": s.p2_generations,
                   "max_generations": s.p2_generations},
        }
        bundle = timed("run_experiment", pipeline.run_experiment, exp, out / "experiment",
                       seed=seed)
        evals = sum(bundle["eval_source_totals"].values())
        rates = {
            "label_per_s": s.p2_samples / stages["generate_dataset"],
            "train_stress_samples_per_s": n_train * s.stress_epochs / stages["train_stress"],
            "train_temp_pairs_per_s": (n_train * dataset["temperature_grid"].shape[1]
                                       * s.temp_epochs / stages["train_temp"]),
            "ga_evals_per_s": evals / stages["run_experiment"],
        }
        errors = (check_dataset(out / "dataset") + check_training("stress", stress_hist)
                  + check_training("temperature", temp_hist) + check_experiment(bundle))
        return self._round(out, s.p2_samples + evals, stages, rates, errors)


WORKLOADS = {w.name: w for w in (P1Label, P1SurrogateGA, P2Design)}
