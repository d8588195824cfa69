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
import os
import pathlib
from dataclasses import asdict

import numpy as np

from . import neural, problems, version_fingerprint
from .errors import DimensionMismatch, MissingModel, SingularSystem, SolveFailure, is_number, naming
from .fem import ThermoelasticSolver, write_result_files
from .ga import (ConstraintSpec, FitnessEvaluator, GAConfig, check_sigma_star, evolve,
                 prediction_error)
from .profiles import generate_genes, genes_to_dict, genes_to_profiles, tensor_product
from .rng import check_seed, derived_rng

log = logging.getLogger(__name__)

SPLIT_STREAM = 0x5B17
REPLACEMENT_STREAM = 0x9E9
TRAIN_FRACTION = 0.8
EXPERIMENT_KEYS = frozenset({"problem", "case", "ga", "sigma_star", "models", "v_star",
                             "theta_max", "sigma_allow", "seed"})
GA_KEYS = frozenset({"population_size", "min_generations", "max_generations"})


@functools.cache
def _solver_for(problem_id: str) -> ThermoelasticSolver:
    return ThermoelasticSolver(problems.get_problem(problem_id))


def _sample_record(problem_id: str, seed: int, index: int, attempt: int = 0) -> dict:
    solver = _solver_for(problem_id)
    cfg = solver.config
    stream = derived_rng(seed, index) if attempt == 0 else derived_rng(seed, REPLACEMENT_STREAM, index, attempt)
    genes = generate_genes(stream, cfg.nx, cfg.ny)
    px, py = genes_to_profiles(genes, cfg.nx, cfg.ny)
    profile = tensor_product(px, py)
    result = solver.run(profile)
    record = {
        "index": index,
        "problem": problem_id,
        "genes": genes_to_dict(genes, cfg.nx),
        "profile_x": px.tolist(),
        "profile_y": py.tolist(),
        **result.summary(),
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
    """Sample profiles, solve each, write train/test NDJSON plus manifest.  Up to
    ``threads`` worker processes run, no more than the samples or the usable CPUs."""
    problems.problem_spec(problem_id)  # ValueError names an unknown id
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    check_seed(seed)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, count, cpus or 1)  # the first submit forks every worker of the pool
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sample_with_replacement,
                                    [problem_id] * count, [seed] * count, range(count),
                                    chunksize=max(1, count // (8 * workers))))
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


def _read_row(line: str, cfg) -> dict:
    """One dataset row of problem ``cfg``; raises ValueError unless it is an object whose
    profile_x and profile_y are lists of nx + 1 and ny + 1 numbers, sigma_e_max a number
    and index an integer, and whose temperature_grid, a list of (nx + 1)(ny + 1) numbers,
    is there if and only if ``cfg`` solves for temperature.  A missing key raises KeyError."""
    row = json.loads(line)
    if not isinstance(row, dict):
        raise ValueError(f"a row must be a JSON object, got {type(row).__name__}")
    lists = (("profile_x", cfg.nx + 1), ("profile_y", cfg.ny + 1))
    if cfg.thermal is not None:
        lists += (("temperature_grid", (cfg.nx + 1) * (cfg.ny + 1)),)
    elif "temperature_grid" in row:
        raise ValueError(f"a row has a temperature_grid, and {cfg.name} solves for no temperature")
    for key, n in lists:
        values = row[key]
        if not (isinstance(values, list) and len(values) == n and all(map(is_number, values))):
            raise ValueError(f"{key} must be a list of {n} numbers")
    if not is_number(row["sigma_e_max"]):
        raise ValueError(f"sigma_e_max must be a number, got {row['sigma_e_max']!r}")
    if not (is_number(row["index"]) and isinstance(row["index"], int)):
        raise ValueError(f"index must be an integer, got {row['index']!r}")
    return row


def load_dataset(dataset_dir):
    """Manifest plus stacked arrays; order is [train rows..., test rows...].

    Raises ValueError naming the file and line, through ``errors.naming``, when the
    manifest is malformed, names no problem of ``problems.PROBLEMS`` or node counts
    other than that plate's, or lacks a file's checksum, a file does not match its
    SHA-256, a row is not one ``_read_row`` reads for that problem (which decides
    whether rows carry a temperature grid), or a row holds a value that is not finite.
    """
    d = pathlib.Path(dataset_dir)
    with naming(d / "manifest.json"):
        manifest = json.loads((d / "manifest.json").read_text())
        if not isinstance(manifest, dict):
            raise ValueError(f"a manifest must hold a JSON object, got {type(manifest).__name__}")
        files, checksums = manifest.get("files"), manifest.get("checksums")
        if not (isinstance(files, dict) and isinstance(checksums, dict)
                and all(isinstance(files.get(part), str) for part in ("train", "test"))):
            raise ValueError("a manifest needs a files object naming the train and test files "
                             "and a checksums object")
        names = [files["train"], files["test"]]
        sums = [checksums[name] for name in names]
        nodes = manifest.get("profile_nodes")
        if not (isinstance(nodes, dict) and all(isinstance(nodes.get(a), int) for a in "xy")):
            raise ValueError("a manifest needs a profile_nodes object of the x and y node counts")
        cfg = problems.get_problem(manifest.get("problem"))
        if nodes != {"x": cfg.nx + 1, "y": cfg.ny + 1}:
            raise ValueError(f"profile_nodes {nodes} are not {cfg.name}'s "
                             f"{cfg.nx + 1} x {cfg.ny + 1}")
    rows, sources, counts = [], [], []
    for name, checksum in zip(names, sums):
        with naming(d / name):
            raw = (d / name).read_bytes()
            if hashlib.sha256(raw).hexdigest() != checksum:
                raise ValueError("SHA-256 does not match the manifest")
            lines = raw.decode().splitlines()
        counts.append(len(lines))
        for number, line in enumerate(lines, 1):
            sources.append(f"{d / name}:{number}")
            with naming(sources[-1]):
                rows.append(_read_row(line, cfg))
    keys = ("profile_x", "profile_y", "sigma_e_max")
    if cfg.thermal is not None:
        keys += ("temperature_grid",)
    columns = {key: np.array([r[key] for r in rows]) for key in keys}
    for key, column in columns.items():  # one isfinite a column, then the first bad row
        if (bad := np.flatnonzero(~np.isfinite(column))).size:
            with naming(sources[bad[0] // (column.size // len(rows))]):
                raise ValueError(f"{key} must be finite, got {column.flat[bad[0]]}")
    return {
        "manifest": manifest,
        "profiles_x": columns.pop("profile_x"), "profiles_y": columns.pop("profile_y"),
        **columns,
        "indices": np.array([r["index"] for r in rows]),
        "train_rows": np.arange(counts[0]),
        "test_rows": np.arange(counts[0], counts[0] + counts[1]),
    }


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
    spec = problems.problem_spec(dataset["manifest"]["problem"])
    cfg = spec.build()
    model = neural.StressSurrogate.build(derived_rng(seed, 1), cfg.nx + 1, cfg.ny + 1,
                                         spec.stress_scale)
    history = model.fit(dataset["profiles_x"], dataset["profiles_y"], dataset["sigma_e_max"],
                        _capped_split(dataset, max_samples), stages or spec.stress_stages,
                        derived_rng(seed, 2))
    return model, history


def train_temperature_model(dataset: dict, seed: int, stages=None,
                            max_samples: int | None = None):
    """Fit the POD operator's basis and branch on the training grids; returns (model, history)."""
    if "temperature_grid" not in dataset:
        raise ValueError("dataset has no temperature grids (uniform-change problem)")
    cfg = problems.get_problem(dataset["manifest"]["problem"])
    model = neural.OperatorNet.build(
        derived_rng(seed, 3), cfg.nx + 1, cfg.ny + 1, L=cfg.L, H=cfg.H)
    history = model.fit(dataset["profiles_x"], dataset["profiles_y"],
                        dataset["temperature_grid"], _capped_split(dataset, max_samples),
                        stages or neural.OPERATOR_STAGES, derived_rng(seed, 4))
    return model, history


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _load_model_for(path, kind, config):
    """Load a model of class ``kind`` and check that it was built for ``config``'s plate.

    A stress model must take the plate's (nx + 1, ny + 1) profile nodes and
    scale its output by the problem's ``stress_scale``; an operator's branch must
    take their sum, its basis give their product, and its L and H be the plate's.  Raises
    DimensionMismatch (ValueError for a wrong stress scale) naming the file, so
    a model of another problem is rejected before the GA evaluates anything.
    """
    model = neural.load_model(path)
    nodes = (config.nx + 1, config.ny + 1)
    with naming(path):
        if not isinstance(model, kind):
            raise ValueError(f"expected a {kind.__name__}, found {type(model).__name__}")
        if kind is neural.StressSurrogate:
            if (model.nx_nodes, model.ny_nodes) != nodes:
                raise DimensionMismatch(
                    f"stress model takes {model.nx_nodes} x {model.ny_nodes} profile nodes, "
                    f"problem {config.name} has {nodes[0]} x {nodes[1]}")
            if model.output_scale != problems.stress_scale(config):
                raise ValueError(
                    f"stress model scales its output by {model.output_scale!r}, "
                    f"problem {config.name} by {problems.stress_scale(config)!r}")
        elif (model.branch.input_dim, model.basis.output_dim, model.L, model.H) != (
                sum(nodes), nodes[0] * nodes[1], config.L, config.H):
            raise DimensionMismatch(
                f"temperature model takes {model.branch.input_dim} profile nodes to "
                f"{model.basis.output_dim} on a {model.L} x {model.H} plate, problem "
                f"{config.name} has {nodes[0]} + {nodes[1]} to {nodes[0] * nodes[1]} on a "
                f"{config.L} x {config.H} plate")
    return model


def run_experiment(exp: dict, out_dir, seed: int | None = None) -> dict:
    """Wire evaluator + GA for one experiment config, verify and export.

    ``exp`` keys: problem (a ``problems.PROBLEMS`` id), case (one that its row
    ships), sigma_star (null = FEM only, else a number >= 0, checked by
    ``ga.check_sigma_star`` before any model is loaded), models (an object of
    string paths, stress and temperature), the limits v_star, theta_max and sigma_allow,
    seed, and ga, whose keys are population_size, min_generations and
    max_generations.  Any other key, at either level, is rejected by name, and
    so is an experiment or ga that is not a JSON object, and an experiment
    without a problem, before any build.  Defaults: case is unconstrained, the
    limits are the case's, the ga keys GAConfig's.  The mutation probability is
    the problem's row; the penalty weight and stall tolerance are read by the
    evaluator and ``evolve`` from the ``ga.OBJECTIVES`` row of the case's
    objective, the rest are ``ga``'s TOURNAMENT_SIZE, ELITE_COUNT and
    STALL_GENERATIONS.  The seed is ``seed``, else the file's, else 0: an int of
    at least 0 (not a bool).
    """
    if not isinstance(exp, dict):
        raise ValueError(f"experiment must be a JSON object, got {type(exp).__name__}")
    ga_overrides = exp.get("ga", {})
    if not isinstance(ga_overrides, dict):
        raise ValueError(f"ga must be a JSON object, got {type(ga_overrides).__name__}")
    for level, obj, known in (("experiment", exp, EXPERIMENT_KEYS), ("ga", ga_overrides, GA_KEYS)):
        if unknown := sorted(set(obj) - known):
            raise ValueError(f"unknown {level} keys {unknown}")
    if "problem" not in exp:
        raise ValueError("experiment needs the key 'problem', one of "
                         + ", ".join(problems.PROBLEM_IDS))
    run_seed = seed if seed is not None else exp.get("seed", 0)
    if not isinstance(run_seed, int) or isinstance(run_seed, bool):
        raise ValueError(f"seed must be an integer, got {run_seed!r}")
    check_seed(run_seed)
    problem_id = exp["problem"]
    case_spec = problems.case_defaults(problem_id, exp.get("case", "unconstrained"))
    paths = exp.get("models", {})
    if not (isinstance(paths, dict) and all(isinstance(v, str) for v in paths.values())):
        raise ValueError(f"models must be an object of string paths, got {paths!r}")
    sigma_star = exp.get("sigma_star")
    check_sigma_star(sigma_star)
    limits = {k: case_spec.get(k) if exp.get(k) is None else exp[k]  # null keeps the case's
              for k in ("v_star", "theta_max", "sigma_allow")}
    constraints = ConstraintSpec(**limits)
    mutation_probability = problems.problem_spec(problem_id).mutation_probability
    ga_config = GAConfig(**ga_overrides, mutation_probability=mutation_probability)
    solver = _solver_for(problem_id)
    config = solver.config

    stress_model = temp_model = None
    if sigma_star is not None:
        if "stress" not in paths or not pathlib.Path(paths["stress"]).exists():
            raise MissingModel("surrogate run needs models.stress")
        stress_model = _load_model_for(paths["stress"], neural.StressSurrogate, config)
        if constraints.theta_max is not None and config.uniform_delta_theta is None:
            if "temperature" not in paths or not pathlib.Path(paths["temperature"]).exists():
                raise MissingModel("thermal constraint needs models.temperature")
            temp_model = _load_model_for(paths["temperature"], neural.OperatorNet, config)

    evaluator = FitnessEvaluator(solver, case_spec["objective"], constraints,
                                 sigma_star=sigma_star, stress_model=stress_model,
                                 temp_model=temp_model)
    record = evolve(ga_config, evaluator, run_seed)

    # the reported optimum is always re-verified with one FEM solve
    best = record.best
    px, py = genes_to_profiles(best.genes, config.nx, config.ny)
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
        "best": {"genes": genes_to_dict(best.genes, config.nx), **best.summary()},
        "fem_verified": verified.summary(),
        # the optimum's prediction against its FEM verification; None without a prediction
        "surrogate_sigma_rel_error": (None if best.dnn_sigma is None
                                      else prediction_error(best.dnn_sigma, verified.sigma_e_max)),
        # the optimum's predicted metal maximum against FEM; None unless the operator made it
        "surrogate_theta_rel_error": (
            prediction_error(best.max_metal_temperature, verified.max_metal_temperature)
            if best.eval_source == "surrogate" and temp_model is not None else None),
        "profile_x": px.tolist(),
        "profile_y": py.tolist(),
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
