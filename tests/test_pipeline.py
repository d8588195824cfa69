import json
import logging
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from fgmopt import ga, neural, pipeline, problems
from fgmopt.errors import DimensionMismatch, MissingModel, SingularSystem, SolveFailure
from fgmopt.fem import ThermoelasticSolver
from fgmopt.ga import prediction_error
from fgmopt.neural import TrainStage
from fgmopt.profiles import (genes_from_dict, genes_to_dict, genes_to_profiles, generate_genes,
                             tensor_product)
from fgmopt.rng import derived_rng, make_rng

from tiny_experiment import tiny_experiment


def tiny_operator(nx_nodes, ny_nodes, L, H, grid=None):
    """An operator of rank 4 whose zero basis gives ``grid`` nodes, nx_nodes * ny_nodes
    unless set: the plate binding checks read only its shapes and L, H."""
    grid = grid or nx_nodes * ny_nodes
    basis = neural.DenseNet([neural.DenseLayer(np.zeros((4, grid)), np.zeros(grid), "identity")])
    return neural.OperatorNet(neural.make_dense(0, [nx_nodes + ny_nodes, 4], "relu"), basis,
                              500.0, L, H)


def gen(tmp_path, name, count=10, seed=7, threads=1):
    out = tmp_path / name
    manifest = pipeline.generate_dataset("problem2", count, seed, out, threads=threads)
    return out, manifest


class TestDatasetGeneration:
    def test_same_seed_identical_bytes(self, tmp_path):
        d1, m1 = gen(tmp_path, "a", count=10, seed=7)
        d2, m2 = gen(tmp_path, "b", count=10, seed=7)
        assert m1["checksums"] == m2["checksums"]
        assert (d1 / "train.ndjson").read_bytes() == (d2 / "train.ndjson").read_bytes()
        assert (d1 / "test.ndjson").read_bytes() == (d2 / "test.ndjson").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        _, m1 = gen(tmp_path, "a", count=6, seed=1)
        _, m2 = gen(tmp_path, "b", count=6, seed=2)
        assert m1["checksums"] != m2["checksums"]

    def test_threads_do_not_change_output(self, tmp_path):
        d1, m1 = gen(tmp_path, "serial", count=8, seed=3, threads=1)
        d2, m2 = gen(tmp_path, "parallel", count=8, seed=3, threads=2)
        assert m1["checksums"] == m2["checksums"]

    @pytest.mark.parametrize("threads, count, cpus, pools",
                             [(8, 2, 4, [2]), (3, 5, 4, [3]), (4, 1, 4, []), (8, 5, 2, [2])],
                             ids=["8-2-pools0", "3-5-pools1", "4-1-pools2", "8-5-2cpus"])
    def test_pool_has_no_more_workers_than_samples(self, tmp_path, monkeypatch, threads, count,
                                                   cpus, pools):
        # the first submit forks every worker of a process pool, so 8 threads for 2 samples
        # forked 8 processes, and 8 threads for 5 samples on 2 CPUs forked 5; this pool
        # records its size and maps in this process
        made = []

        class SerialPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(pipeline.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        _, capped = gen(tmp_path, "capped", count=count, seed=3, threads=threads)
        _, serial = gen(tmp_path, "serial", count=count, seed=3)
        assert made == pools
        assert capped["checksums"] == serial["checksums"]

    def test_split_sizes_and_partition(self):
        tr, te = pipeline.split_indices(8000, seed=0)
        assert tr.size == 6400 and te.size == 1600
        union = np.concatenate([tr, te])
        assert np.array_equal(np.sort(union), np.arange(8000))

    def test_stored_sigma_matches_resolve(self, tmp_path):
        d, m = gen(tmp_path, "audit", count=6, seed=11)
        rows = [json.loads(l) for l in (d / "train.ndjson").read_text().splitlines()]
        solver = ThermoelasticSolver(problems.problem2())
        for r in rows[:3]:
            genes = genes_from_dict(r["genes"], solver.config.nx, solver.config.ny)
            px, py = genes_to_profiles(genes, solver.config.nx, solver.config.ny)
            res = solver.run(tensor_product(px, py))
            # the re-solve is deterministic, so every label holds bit for bit
            assert res.summary() == {k: r[k] for k in res.summary()}
            np.testing.assert_array_equal(px, np.array(r["profile_x"]))

    def test_ndjson_round_trip_lossless(self, tmp_path):
        d, _ = gen(tmp_path, "rt", count=5, seed=5)
        raw = (d / "train.ndjson").read_text().splitlines()
        for line in raw:
            assert json.dumps(json.loads(line), sort_keys=True) == line

    def test_temperature_grid_shape(self, tmp_path):
        d, m = gen(tmp_path, "tg", count=4, seed=9)
        data = pipeline.load_dataset(d)
        nx = m["profile_nodes"]["x"]
        ny = m["profile_nodes"]["y"]
        assert data["temperature_grid"].shape == (4, nx * ny)
        assert data["profiles_x"].shape == (4, nx)
        # boundary-layer sanity: stored temperatures within [0, 500]
        assert data["temperature_grid"].min() > -1e-9
        assert data["temperature_grid"].max() < 500.0 + 1e-9

    def test_load_dataset_checks_checksums(self, tmp_path):
        d, _ = gen(tmp_path, "sha", count=4, seed=17)
        assert pipeline.load_dataset(d)["train_rows"].size == 3
        path = d / "train.ndjson"
        raw = bytearray(path.read_bytes())
        i = raw.index(b'"sigma_e_max": ') + len(b'"sigma_e_max": ')  # still valid JSON
        raw[i] = ord("1") if raw[i] != ord("1") else ord("2")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="train.ndjson"):
            pipeline.load_dataset(d)

    def test_a_singular_draw_is_redrawn_from_its_replacement_stream(self, tmp_path,
                                                                   monkeypatch, caplog):
        sample = pipeline._sample_record

        def singular_first_draw_of_2(problem_id, seed, index, attempt=0):
            if index == 2 and attempt == 0:
                raise SingularSystem("forced")
            return sample(problem_id, seed, index, attempt)

        clean, _ = gen(tmp_path, "clean", count=5, seed=4)
        monkeypatch.setattr(pipeline, "_sample_record", singular_first_draw_of_2)
        with caplog.at_level(logging.WARNING, logger="fgmopt.pipeline"):
            redrawn, _ = gen(tmp_path, "redrawn", count=5, seed=4)

        def lines(d):
            rows = [line for part in ("train", "test")
                    for line in (d / f"{part}.ndjson").read_text().splitlines()]
            return {json.loads(line)["index"]: line for line in rows}

        before, after = lines(clean), lines(redrawn)
        assert after.keys() == before.keys() == set(range(5))
        assert all(after[i] == before[i] for i in (0, 1, 3, 4))
        cfg = problems.problem2()
        genes = generate_genes(derived_rng(4, pipeline.REPLACEMENT_STREAM, 2, 1), cfg.nx, cfg.ny)
        assert json.loads(after[2])["genes"] == genes_to_dict(genes, cfg.nx) != \
            json.loads(before[2])["genes"]
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("fgmopt.pipeline", logging.WARNING)]
        assert "sample 2 attempt 0 failed (forced)" in caplog.records[0].getMessage()

    def test_100_consecutive_singular_draws_fail_the_sample(self, monkeypatch, caplog):
        attempts = []

        def singular(problem_id, seed, index, attempt=0):
            attempts.append(attempt)
            raise SingularSystem("forced")

        monkeypatch.setattr(pipeline, "_sample_record", singular)
        with caplog.at_level(logging.WARNING, logger="fgmopt.pipeline"):
            with pytest.raises(SolveFailure, match="sample 3: 100 consecutive solve failures"):
                pipeline._sample_with_replacement("problem2", 0, 3)
        assert attempts == list(range(100)) and len(caplog.records) == 100

    def test_load_dataset_row_order(self, tmp_path):
        d, m = gen(tmp_path, "order", count=10, seed=13)
        data = pipeline.load_dataset(d)
        tr, te = pipeline.split_indices(10, 13)
        np.testing.assert_array_equal(data["indices"], np.concatenate([tr, te]))
        assert data["train_rows"].size == m["n_train"]


class TestTrainingWiring:
    def test_stress_training_smoke(self, tmp_path):
        d, _ = gen(tmp_path, "train", count=12, seed=21)
        data = pipeline.load_dataset(d)
        model, hist = pipeline.train_stress_model(
            data, seed=0, stages=[TrainStage(1e-3, 2, 4)])
        assert len(hist) == 2
        pred = model.predict(data["profiles_x"], data["profiles_y"])
        assert np.all(np.isfinite(pred))
        assert model.output_scale == problems.stress_scale(problems.problem2())

    def test_temperature_training_smoke(self, tmp_path):
        d, _ = gen(tmp_path, "traint", count=10, seed=22)
        data = pipeline.load_dataset(d)
        model, hist = pipeline.train_temperature_model(
            data, seed=0, stages=[TrainStage(1e-3, 2, 512)])
        assert len(hist) == 2
        temps = model.predict(data["profiles_x"], data["profiles_y"])
        assert temps.shape == data["temperature_grid"].shape and np.all(np.isfinite(temps))

    def test_max_samples_caps_split(self, tmp_path):
        d, _ = gen(tmp_path, "cap", count=10, seed=23)
        data = pipeline.load_dataset(d)
        model, hist = pipeline.train_stress_model(
            data, seed=0, stages=[TrainStage(1e-3, 1, 4)], max_samples=5)
        assert model.fingerprint["n_train"] == 4
        assert model.fingerprint["n_test"] == 1


class TestExperiments:
    def test_fem_only_run_bundle(self, tmp_path):
        out = tmp_path / "run"
        bundle = pipeline.run_experiment(tiny_experiment(), out)
        assert (out / "run_record.json").exists()
        assert (out / "convergence.csv").exists()
        for f in ("temperature.csv", "effective_stress.csv", "volume_fraction.csv"):
            assert (out / f).exists()
        assert bundle["eval_source_totals"]["surrogate"] == 0
        assert bundle["fem_verified"]["sigma_e_max"] > 0
        # FEM-path best: verification must agree with the recorded objective
        assert bundle["fem_verified"]["sigma_e_max"] == bundle["best"]["sigma_e_max"]
        # no prediction was made, so there is no prediction error to report
        assert bundle["surrogate_sigma_rel_error"] is None
        assert bundle["surrogate_theta_rel_error"] is None
        # population 6: 6 evaluations, then the children of each later generation
        fem = 6 + (6 - ga.ELITE_COUNT) * (len(bundle["generations"]) - 1)
        assert bundle["eval_source_totals"] == {"surrogate": 0, "fem": fem}
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0].startswith("generation,")
        assert len(lines) == 1 + len(bundle["generations"])

    def test_run_determinism(self, tmp_path):
        b1 = pipeline.run_experiment(tiny_experiment(), tmp_path / "r1")
        b2 = pipeline.run_experiment(tiny_experiment(), tmp_path / "r2")
        assert b1["best"] == b2["best"]
        assert (tmp_path / "r1" / "run_record.json").read_bytes() == \
               (tmp_path / "r2" / "run_record.json").read_bytes()

    def test_case4_objective_is_vca(self, tmp_path):
        exp = tiny_experiment(case="case4")
        bundle = pipeline.run_experiment(exp, tmp_path / "c4")
        assert bundle["best"]["objective"] == pytest.approx(bundle["best"]["v_ca"]) or \
               bundle["best"]["penalty"] > 0

    def test_missing_model_raises(self, tmp_path):
        exp = tiny_experiment(sigma_star=50e6, models={"stress": str(tmp_path / "nope.json")})
        with pytest.raises(MissingModel):
            pipeline.run_experiment(exp, tmp_path / "x")

    def test_unknown_case_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown case 'case9' for problem2"):
            pipeline.run_experiment(tiny_experiment(case="case9"), tmp_path / "x")
        with pytest.raises(ValueError, match="unknown case 'case2' for problem1"):
            pipeline.run_experiment(tiny_experiment(problem="problem1", case="case2"),
                                    tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_unknown_ga_keys_rejected_by_name(self, tmp_path):
        exp = tiny_experiment()
        # a schedule constant that is no longer a setting, and a misspelt field
        exp["ga"] = {**exp["ga"], "eta_c_base": 3.0, "populaton_size": 9}
        with pytest.raises(ValueError, match=r"unknown ga keys \['eta_c_base', 'populaton_size'\]"):
            pipeline.run_experiment(exp, tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_seed_argument_beats_the_files_seed_and_the_record_names_the_seed_that_ran(
            self, tmp_path):
        overridden = pipeline.run_experiment(tiny_experiment(seed=5), tmp_path / "a", seed=1)
        from_file = pipeline.run_experiment(tiny_experiment(seed=1), tmp_path / "b")
        file_seed = pipeline.run_experiment(tiny_experiment(seed=5), tmp_path / "c")
        assert overridden["best"] == from_file["best"] != file_seed["best"]
        assert overridden["generations"] == from_file["generations"]
        recorded = [json.loads((tmp_path / d / "run_record.json").read_text())["seed"]
                    for d in "abc"]
        assert recorded == [1, 1, 5]

    def test_fem_routed_optimum_reports_its_prediction_error(self, tmp_path):
        # a threshold no prediction reaches sends every individual to FEM with its
        # prediction; the optimum's error compares that prediction with the verification
        cfg = problems.problem2()
        model = neural.StressSurrogate.build(make_rng(0), cfg.nx + 1, cfg.ny + 1,
                                             output_scale=problems.stress_scale(cfg))
        neural.save_model(model, tmp_path / "stress.json")
        exp = tiny_experiment(sigma_star=1e12, models={"stress": str(tmp_path / "stress.json")})
        bundle = pipeline.run_experiment(exp, tmp_path / "fem_routed")
        best, fem = bundle["best"], bundle["fem_verified"]["sigma_e_max"]
        assert best["eval_source"] == "fem" and best["dnn_sigma"] is not None
        assert bundle["surrogate_sigma_rel_error"] == prediction_error(best["dnn_sigma"], fem)
        assert bundle["surrogate_sigma_rel_error"] > 0.0
        assert bundle["surrogate_theta_rel_error"] is None  # no temperature was predicted

    @pytest.mark.parametrize("role, model, error, match", [
        ("stress", lambda p1: neural.StressSurrogate.build(0, p1.nx + 1, p1.ny + 1, 1e7),
         DimensionMismatch,
         "stress model takes 41 x 41 profile nodes, problem problem2 has 21 x 21"),
        ("temperature", lambda p1: tiny_operator(p1.nx + 1, p1.ny + 1, p1.L, p1.H),
         DimensionMismatch, "temperature model takes 82 profile nodes to 1681 on a 0.1 x 0.1 "
         "plate, problem problem2 has 21 \\+ 21 to 441 on a 0.15 x 0.06 plate"),
        # right node counts, wrong plate: would run silently without the check
        ("temperature", lambda p1: tiny_operator(21, 21, p1.L, p1.H),
         DimensionMismatch, "takes 42 profile nodes to 441 on a 0.1 x 0.1 plate"),
        # right node counts and plate, a grid of another size
        ("temperature", lambda p1: tiny_operator(21, 21, 0.15, 0.06, grid=231),
         DimensionMismatch, "takes 42 profile nodes to 231 on a 0.15 x 0.06 plate"),
        ("stress", lambda p1: tiny_operator(21, 21, 0.15, 0.06),
         ValueError, "expected a StressSurrogate, found OperatorNet"),
        # right node counts, problem 1's output scale: predictions would be 10x off
        ("stress", lambda p1: neural.StressSurrogate.build(0, 21, 21, problems.stress_scale(p1)),
         ValueError, "stress model scales its output by 10000000.0, "
         "problem problem2 by 1000000.0"),
    ], ids=["problem1-stress", "problem1-temperature", "other-plate-temperature",
            "other-grid-temperature", "operator-as-stress", "problem1-scale-stress"])
    def test_model_of_another_problem_rejected_before_evolve(self, tmp_path, monkeypatch,
                                                             role, model, error, match):
        cfg = problems.problem2()
        models = {"stress": tmp_path / "stress.json", "temperature": tmp_path / "temp.json"}
        neural.save_model(neural.StressSurrogate.build(0, cfg.nx + 1, cfg.ny + 1,
                                                       problems.stress_scale(cfg)),
                          models["stress"])
        neural.save_model(tiny_operator(cfg.nx + 1, cfg.ny + 1, cfg.L, cfg.H),
                          models["temperature"])
        neural.save_model(model(problems.problem1()), models[role])
        calls = []
        monkeypatch.setattr(ga.FitnessEvaluator, "evaluate",
                            lambda self, genes: calls.append(genes))
        exp = tiny_experiment(case="case3", sigma_star=0.0,
                              models={k: str(v) for k, v in models.items()})
        with pytest.raises(error, match=match) as info:
            pipeline.run_experiment(exp, tmp_path / "x")
        assert str(info.value).startswith(str(models[role]))
        assert calls == [] and not (tmp_path / "x").exists()

    def test_surrogate_run_with_saved_models(self, tmp_path):
        # quick-trained models only need to exist, not be accurate
        d, _ = gen(tmp_path, "models", count=10, seed=31)
        data = pipeline.load_dataset(d)
        stress, _ = pipeline.train_stress_model(data, 0, stages=[TrainStage(1e-3, 1, 4)])
        temp, _ = pipeline.train_temperature_model(data, 0, stages=[TrainStage(1e-3, 1, 512)])
        neural.save_model(stress, tmp_path / "stress.json")
        neural.save_model(temp, tmp_path / "temp.json")
        exp = tiny_experiment(case="case3", sigma_star=0.0,
                              models={"stress": str(tmp_path / "stress.json"),
                                      "temperature": str(tmp_path / "temp.json")})
        bundle = pipeline.run_experiment(exp, tmp_path / "sur")
        assert bundle["eval_source_totals"]["fem"] == 0
        assert bundle["fem_verified"]["sigma_e_max"] > 0
        assert np.isfinite(bundle["surrogate_sigma_rel_error"])
        best, fem = bundle["best"], bundle["fem_verified"]
        assert best["eval_source"] == "surrogate"
        assert bundle["surrogate_theta_rel_error"] == prediction_error(
            best["max_metal_temperature"], fem["max_metal_temperature"])
        assert bundle["surrogate_theta_rel_error"] > 0.0
        for key in ("nan_predictions", "negative_predictions"):
            assert bundle[key] == sum(g[key] for g in bundle["generations"])
        # the same models with a threshold no prediction reaches: a FEM-routed optimum
        # has no predicted temperature, so no temperature error
        bundle = pipeline.run_experiment({**exp, "sigma_star": 1e12}, tmp_path / "fem_routed")
        assert bundle["best"]["eval_source"] == "fem"
        assert bundle["surrogate_theta_rel_error"] is None


class TestTables:
    """A problem id, config name, case or objective outside its table raises
    ValueError naming it."""

    def test_unknown_problem_id(self, tmp_path):
        for lookup in (problems.get_problem, problems.reference_config,
                       lambda pid: problems.reference_profile(pid, 1.0),
                       lambda pid: pipeline.generate_dataset(pid, 1, 0, tmp_path / "d")):
            with pytest.raises(ValueError, match="unknown problem id 'problem3'"):
                lookup("problem3")
        assert not (tmp_path / "d").exists()

    def test_config_name_outside_the_table(self):
        derived = replace(problems.problem2(), nx=10)  # keeps its name, so its row
        assert problems.stress_scale(derived) == problems.PROBLEMS["problem2"].stress_scale
        for name in ("tiny", "problem2-reference"):
            with pytest.raises(ValueError, match=f"unknown problem id '{name}'"):
                problems.stress_scale(replace(derived, name=name))

    def test_case_outside_the_problems_row(self):
        assert problems.case_defaults("problem1", "unconstrained") == {"objective": "sigma_e_max"}
        with pytest.raises(ValueError, match="unknown case 'case9' for problem2"):
            problems.case_defaults("problem2", "case9")
        with pytest.raises(ValueError, match="unknown case 'case3' for problem1"):
            problems.case_defaults("problem1", "case3")
        with pytest.raises(ValueError, match="unknown problem id 'problem3'"):
            problems.case_defaults("problem3", "case1")

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objective 'sigma_pn'"):
            ga.FitnessEvaluator(ThermoelasticSolver(problems.problem2()), "sigma_pn",
                                ga.ConstraintSpec())

    def test_every_shipped_case_objective_has_a_row_of_values_the_ga_can_run(self):
        assert {c["objective"] for c in problems.CASE_DEFAULTS.values()} == set(ga.OBJECTIVES)
        for row in ga.OBJECTIVES.values():
            # a weight of 0 leaves a violation free and one below 0 rewards it; elitism keeps
            # the improvement >= 0, so below 0 (or NaN) the stall test never holds
            assert 0.0 < row["penalty_weight"] < math.inf
            assert 0.0 <= row["stall_tolerance"] < math.inf
        for spec in problems.PROBLEMS.values():
            assert 0.0 <= spec.mutation_probability <= 1.0  # NaN would never mutate
