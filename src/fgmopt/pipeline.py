"""Dataset generation, surrogate training wiring, and experiment runs.

Datasets are NDJSON (one sample per line, sorted keys, shortest round-trip
float formatting) split 80/20 into train.ndjson / test.ndjson by a
seed-derived permutation, with SHA-256 checksums in manifest.json.
Re-running with the same seed reproduces the files byte for byte; each
sample draws its genes from an independent child stream of (seed, index),
so generation parallelizes without changing results.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import hashlib
import json
import logging
import pathlib
from dataclasses import asdict, fields

import numpy as np

from . import neural, problems, version_fingerprint
from .errors import DimensionMismatch, MissingModel, SingularSystem, SolveFailure
from .fem import ThermoelasticSolver, write_result_files
from .ga import ConstraintSpec, FitnessEvaluator, GAConfig, evolve, prediction_error
from .profiles import generate_genes, genes_to_profiles, grid_points, tensor_product
from .rng import derived_rng

log = logging.getLogger(__name__)

SPLIT_STREAM = 0x5B17
REPLACEMENT_STREAM = 0x9E9
TRAIN_FRACTION = 0.8
EXPERIMENT_KEYS = frozenset({"problem", "case", "ga", "sigma_star", "models", "v_star",
                             "theta_max", "sigma_allow", "penalty_weight", "seed"})


@functools.cache
def _solver_for(problem_id: str) -> ThermoelasticSolver:
    return ThermoelasticSolver(problems.get_problem(problem_id))


def _sample_record(problem_id: str, seed: int, index: int, attempt: int = 0) -> dict:
    solver = _solver_for(problem_id)
    cfg = solver.config
    stream = derived_rng(seed, index) if attempt == 0 else derived_rng(seed, REPLACEMENT_STREAM, index, attempt)
    genes = generate_genes(stream, cfg.nx, cfg.ny)
    px, py = genes_to_profiles(genes)
    profile = tensor_product(px, py)
    result = solver.run(profile)
    record = {
        "index": index,
        "problem": problem_id,
        "genes": genes.to_dict(),
        "profile_x": px.values.tolist(),
        "profile_y": py.values.tolist(),
        "sigma_e_max": result.sigma_e_max,
        "v_ca": result.v_ca,
        "max_metal_temperature": result.max_metal_temperature,
    }
    if cfg.uniform_delta_theta is None:
        record["temperature_grid"] = result.temperature_grid.ravel(order="C").tolist()
    return record


def _sample_with_replacement(problem_id: str, seed: int, index: int) -> dict:
    for attempt in range(100):
        try:
            return _sample_record(problem_id, seed, index, attempt)
        except SingularSystem as exc:
            log.warning("sample %d attempt %d failed (%s); redrawing", index, attempt, exc)
    raise SolveFailure(f"sample {index}: 100 consecutive solve failures")


def split_indices(count: int, seed: int):
    """Deterministic 80/20 split of range(count), both sides sorted."""
    perm = derived_rng(seed, SPLIT_STREAM).permutation(count)
    n_train = round(TRAIN_FRACTION * count)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def generate_dataset(problem_id: str, count: int, seed: int, out_dir, threads: int = 1) -> dict:
    """Sample profiles, solve each, write train/test NDJSON plus manifest."""
    if problem_id not in problems.PROBLEM_IDS:
        raise ValueError(f"unknown problem id {problem_id!r}")
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if threads > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_sample_with_replacement,
                                    [problem_id] * count, [seed] * count, range(count),
                                    chunksize=max(1, count // (8 * threads))))
    else:
        records = [_sample_with_replacement(problem_id, seed, i) for i in range(count)]

    train_idx, test_idx = split_indices(count, seed)
    for name, idx in (("train.ndjson", train_idx), ("test.ndjson", test_idx)):
        with open(out / name, "w") as fh:
            for i in idx:
                fh.write(json.dumps(records[i], sort_keys=True) + "\n")
    cfg = problems.get_problem(problem_id)
    manifest = {
        "problem": problem_id,
        "count": count,
        "seed": seed,
        "split_ratio": TRAIN_FRACTION,
        "n_train": int(train_idx.size),
        "n_test": int(test_idx.size),
        "profile_nodes": {"x": cfg.nx + 1, "y": cfg.ny + 1},
        "files": {"train": "train.ndjson", "test": "test.ndjson"},
        "checksums": {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                      for name in ("train.ndjson", "test.ndjson")},
        "fingerprint": version_fingerprint(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def load_dataset(dataset_dir):
    """Manifest plus stacked arrays; order is [train rows..., test rows...].

    Raises ValueError when a file does not match the SHA-256 in the manifest.
    """
    d = pathlib.Path(dataset_dir)
    manifest = json.loads((d / "manifest.json").read_text())
    rows = []
    counts = []
    for part in ("train", "test"):
        name = manifest["files"][part]
        raw = (d / name).read_bytes()
        if hashlib.sha256(raw).hexdigest() != manifest["checksums"][name]:
            raise ValueError(f"{d / name}: SHA-256 does not match the manifest")
        lines = raw.decode().splitlines()
        counts.append(len(lines))
        rows.extend(json.loads(line) for line in lines)
    data = {
        "manifest": manifest,
        "profiles_x": np.array([r["profile_x"] for r in rows]),
        "profiles_y": np.array([r["profile_y"] for r in rows]),
        "sigma_e_max": np.array([r["sigma_e_max"] for r in rows]),
        "indices": np.array([r["index"] for r in rows]),
        "train_rows": np.arange(counts[0]),
        "test_rows": np.arange(counts[0], counts[0] + counts[1]),
    }
    if rows and "temperature_grid" in rows[0]:
        data["temperature_grid"] = np.array([r["temperature_grid"] for r in rows])
    return data


def _capped_split(dataset: dict, max_samples: int | None):
    """Stored train/test rows, or the first 80/20 of ``max_samples`` (at least 1) of them."""
    tr, te = dataset["train_rows"], dataset["test_rows"]
    if max_samples is not None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be at least 1, got {max_samples}")
        n_tr = round(TRAIN_FRACTION * max_samples)
        tr, te = tr[:n_tr], te[: max_samples - n_tr]
    return tr, te


def train_stress_model(dataset: dict, seed: int, stages=None, max_samples: int | None = None):
    """Fit the stress surrogate on a loaded dataset; returns (model, history)."""
    problem_id = dataset["manifest"]["problem"]
    cfg = problems.get_problem(problem_id)
    stages = stages or neural.STRESS_STAGES[problem_id]
    model = neural.StressSurrogate.build(
        derived_rng(seed, 1), cfg.nx + 1, cfg.ny + 1, problems.stress_scale(cfg))
    history = model.fit(dataset["profiles_x"], dataset["profiles_y"], dataset["sigma_e_max"],
                        _capped_split(dataset, max_samples), stages, derived_rng(seed, 2))
    return model, history


def train_temperature_model(dataset: dict, seed: int, stages=None,
                            max_samples: int | None = None):
    """Fit the branch/trunk operator on the stored temperature grids."""
    problem_id = dataset["manifest"]["problem"]
    if "temperature_grid" not in dataset:
        raise ValueError("dataset has no temperature grids (uniform-change problem)")
    cfg = problems.get_problem(problem_id)
    stages = stages or neural.OPERATOR_STAGES
    model = neural.OperatorNet.build(
        derived_rng(seed, 3), cfg.nx + 1, cfg.ny + 1, L=cfg.L, H=cfg.H)
    history = model.fit(dataset["profiles_x"], dataset["profiles_y"],
                        dataset["temperature_grid"], grid_points(cfg.L, cfg.H, cfg.nx, cfg.ny),
                        _capped_split(dataset, max_samples), stages, derived_rng(seed, 4))
    return model, history


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _constraints_from(case_spec: dict, overrides: dict) -> ConstraintSpec:
    """The objective's penalty weight, then the case's limits, then the non-null overrides."""
    merged = {"penalty_weight": 1.0e8 if case_spec["objective"] == "sigma_e_max" else 100.0,
              **case_spec, **{k: v for k, v in overrides.items() if v is not None}}
    return ConstraintSpec(**{f.name: merged[f.name] for f in fields(ConstraintSpec)
                             if f.name in merged})


def _load_model_for(path, kind, config):
    """Load a model of class ``kind`` and check that it was built for ``config``'s plate.

    A stress model must take the plate's (nx + 1, ny + 1) profile nodes and
    scale its output by the problem's ``stress_scale``; an operator's branch
    must take their sum and its L and H must be the plate's.  Raises
    DimensionMismatch (ValueError for a wrong stress scale) naming the file, so
    a model of another problem is rejected before the GA evaluates anything.
    """
    model = neural.load_model(path)
    if not isinstance(model, kind):
        raise ValueError(f"{path}: expected a {kind.__name__}, found {type(model).__name__}")
    nodes = (config.nx + 1, config.ny + 1)
    if kind is neural.StressSurrogate:
        if (model.nx_nodes, model.ny_nodes) != nodes:
            raise DimensionMismatch(
                f"{path}: stress model takes {model.nx_nodes} x {model.ny_nodes} profile nodes, "
                f"problem {config.name} has {nodes[0]} x {nodes[1]}")
        if model.output_scale != problems.stress_scale(config):
            raise ValueError(
                f"{path}: stress model scales its output by {model.output_scale!r}, "
                f"problem {config.name} by {problems.stress_scale(config)!r}")
    elif model.branch.input_dim != sum(nodes) or (model.L, model.H) != (config.L, config.H):
        raise DimensionMismatch(
            f"{path}: temperature model takes {model.branch.input_dim} profile nodes on a "
            f"{model.L} x {model.H} plate, problem {config.name} has {nodes[0]} + {nodes[1]} "
            f"nodes on a {config.L} x {config.H} plate")
    return model


def run_experiment(exp: dict, out_dir, seed: int | None = None) -> dict:
    """Wire evaluator + GA for one experiment config, verify and export.

    ``exp`` keys: problem (problem1|problem2), case (unconstrained|case1..4),
    sigma_star (null = FEM only), models {stress, temperature}, the constraint
    overrides v_star, theta_max, sigma_allow and penalty_weight, seed, and ga,
    whose keys are GAConfig's fields: population_size, tournament_size,
    mutation_probability, elite_count, min_generations, stall_generations,
    stall_tolerance, max_generations.  Any other key, at either level, is
    rejected by name.  The run's seed is ``seed`` if given, else the file's
    seed, else 0; it must be an int (not a bool), and run_record.json records it.
    """
    unknown = sorted(set(exp) - EXPERIMENT_KEYS)
    if unknown:
        raise ValueError(f"unknown experiment keys {unknown}")
    run_seed = seed if seed is not None else exp.get("seed", 0)
    if not isinstance(run_seed, int) or isinstance(run_seed, bool):
        raise ValueError(f"seed must be an integer, got {run_seed!r}")
    problem_id = exp["problem"]
    case = exp.get("case", "unconstrained")
    if case not in problems.CASE_DEFAULTS:
        raise ValueError(f"unknown case {case!r}")
    if problem_id == "problem1" and case != "unconstrained" and case != "case1":
        raise ValueError("problem1 ships as unconstrained optimization only")
    solver = _solver_for(problem_id)
    config = solver.config
    case_spec = problems.CASE_DEFAULTS[case]
    constraints = _constraints_from(case_spec, exp)
    objective = case_spec["objective"]

    sigma_star = exp.get("sigma_star")
    stress_model = temp_model = None
    if sigma_star is not None:
        paths = exp.get("models", {})
        if "stress" not in paths or not pathlib.Path(paths["stress"]).exists():
            raise MissingModel("surrogate run needs models.stress")
        stress_model = _load_model_for(paths["stress"], neural.StressSurrogate, config)
        if constraints.theta_max is not None and config.uniform_delta_theta is None:
            if "temperature" not in paths or not pathlib.Path(paths["temperature"]).exists():
                raise MissingModel("thermal constraint needs models.temperature")
            temp_model = _load_model_for(paths["temperature"], neural.OperatorNet, config)

    ga_overrides = exp.get("ga", {})
    unknown = sorted(set(ga_overrides) - {f.name for f in fields(GAConfig)})
    if unknown:
        raise ValueError(f"unknown ga keys {unknown}")
    ga_config = GAConfig(**{"mutation_probability": problems.mutation_probability(config),
                            "stall_tolerance": 1.0e3 if objective == "sigma_e_max" else 0.01,
                            **ga_overrides})
    evaluator = FitnessEvaluator(solver, objective, constraints,
                                 sigma_star=sigma_star, stress_model=stress_model,
                                 temp_model=temp_model)
    record = evolve(ga_config, evaluator, run_seed)

    # the reported optimum is always re-verified with one FEM solve
    best = record.best
    px, py = genes_to_profiles(best.genes)
    profile = tensor_product(px, py)
    verified = solver.run(profile)

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = {
        "fingerprint": version_fingerprint(),
        "experiment": {k: v for k, v in exp.items() if k != "models"},
        "seed": run_seed,
        "generations": [asdict(g) for g in record.generations],
        "eval_source_totals": record.eval_source_totals,
        **record.bad_prediction_totals,
        "best": {"genes": best.genes.to_dict(), **best.summary()},
        "fem_verified": verified.summary(),
        # the optimum's prediction against its FEM verification; None without a prediction
        "surrogate_sigma_rel_error": (None if best.dnn_sigma is None
                                      else prediction_error(best.dnn_sigma, verified.sigma_e_max)),
        # the optimum's predicted metal maximum against FEM; None unless the operator made it
        "surrogate_theta_rel_error": (
            prediction_error(best.max_metal_temperature, verified.max_metal_temperature)
            if best.eval_source == "surrogate" and temp_model is not None else None),
        "profile_x": px.values.tolist(),
        "profile_y": py.values.tolist(),
    }
    (out / "run_record.json").write_text(json.dumps(bundle, indent=2, sort_keys=True))
    with open(out / "convergence.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["generation", "best_objective", "best_fitness", "best_penalty",
                    "feasible_fraction", "n_surrogate", "n_fem"])
        for g in record.generations:
            w.writerow([g.generation, repr(g.best_objective), repr(g.best_fitness),
                        repr(g.best_penalty), repr(g.feasible_fraction),
                        g.eval_sources.get("surrogate", 0), g.eval_sources.get("fem", 0)])
    write_result_files(verified, out)
    return bundle
