import json
import pathlib

import numpy as np
import pytest

from fgmopt import ga, neural, pipeline, problems
from fgmopt.errors import DimensionMismatch, MissingModel
from fgmopt.fem import ThermoelasticSolver
from fgmopt.ga import prediction_error
from fgmopt.neural import TrainStage
from fgmopt.profiles import genes_from_dict, genes_to_profiles, grid_points, tensor_product
from fgmopt.rng import make_rng


def tiny_operator(nx_nodes, ny_nodes, L, H):
    """An operator of latent 4: the plate binding checks read only its shapes and L, H."""
    return neural.OperatorNet(neural.make_dense(0, [nx_nodes + ny_nodes, 4], "relu"),
                              neural.make_dense(1, [2, 4], "tanh"), 500.0, L, H)


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
            px, py = genes_to_profiles(genes)
            res = solver.run(tensor_product(px, py))
            assert abs(res.sigma_e_max - r["sigma_e_max"]) <= 1e-10 * r["sigma_e_max"]
            np.testing.assert_array_equal(px.values, np.array(r["profile_x"]))

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
        cfg = problems.problem2()
        pts = grid_points(cfg.L, cfg.H, cfg.nx, cfg.ny)
        temps = model.predict(data["profiles_x"][0], data["profiles_y"][0], pts)
        assert temps.shape == (pts.shape[0],)

    def test_max_samples_caps_split(self, tmp_path):
        d, _ = gen(tmp_path, "cap", count=10, seed=23)
        data = pipeline.load_dataset(d)
        model, hist = pipeline.train_stress_model(
            data, seed=0, stages=[TrainStage(1e-3, 1, 4)], max_samples=5)
        assert model.fingerprint["n_train"] == 4
        assert model.fingerprint["n_test"] == 1


class TestExperiments:
    def tiny_exp(self, **kw):
        exp = {
            "problem": "problem2",
            "case": "case1",
            "seed": 5,
            "ga": {"population_size": 6, "elite_count": 1, "tournament_size": 2,
                   "min_generations": 2, "stall_generations": 1,
                   "max_generations": 3},
        }
        exp.update(kw)
        return exp

    def test_fem_only_run_bundle(self, tmp_path):
        out = tmp_path / "run"
        bundle = pipeline.run_experiment(self.tiny_exp(), out)
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
        # population 6 with 1 elite: 6 evaluations, then 5 a generation
        fem = 6 + 5 * (len(bundle["generations"]) - 1)
        assert bundle["eval_source_totals"] == {"surrogate": 0, "fem": fem}
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0].startswith("generation,")
        assert len(lines) == 1 + len(bundle["generations"])

    def test_run_determinism(self, tmp_path):
        b1 = pipeline.run_experiment(self.tiny_exp(), tmp_path / "r1")
        b2 = pipeline.run_experiment(self.tiny_exp(), tmp_path / "r2")
        assert b1["best"] == b2["best"]
        assert (tmp_path / "r1" / "run_record.json").read_bytes() == \
               (tmp_path / "r2" / "run_record.json").read_bytes()

    def test_case4_objective_is_vca(self, tmp_path):
        exp = self.tiny_exp(case="case4")
        bundle = pipeline.run_experiment(exp, tmp_path / "c4")
        assert bundle["best"]["objective"] == pytest.approx(bundle["best"]["v_ca"]) or \
               bundle["best"]["penalty"] > 0

    def test_missing_model_raises(self, tmp_path):
        exp = self.tiny_exp(sigma_star=50e6, models={"stress": str(tmp_path / "nope.json")})
        with pytest.raises(MissingModel):
            pipeline.run_experiment(exp, tmp_path / "x")

    def test_unknown_case_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            pipeline.run_experiment(self.tiny_exp(case="case9"), tmp_path / "x")
        with pytest.raises(ValueError):
            pipeline.run_experiment(self.tiny_exp(problem="problem1", case="case2"),
                                    tmp_path / "x")

    def test_unknown_ga_keys_rejected_by_name(self, tmp_path):
        exp = self.tiny_exp()
        # a schedule constant that is no longer a setting, and a misspelt field
        exp["ga"] = {**exp["ga"], "eta_c_base": 3.0, "populaton_size": 9}
        with pytest.raises(ValueError, match=r"unknown ga keys \['eta_c_base', 'populaton_size'\]"):
            pipeline.run_experiment(exp, tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_seed_argument_beats_the_files_seed_and_the_record_names_the_seed_that_ran(
            self, tmp_path):
        overridden = pipeline.run_experiment(self.tiny_exp(seed=5), tmp_path / "a", seed=1)
        from_file = pipeline.run_experiment(self.tiny_exp(seed=1), tmp_path / "b")
        file_seed = pipeline.run_experiment(self.tiny_exp(seed=5), tmp_path / "c")
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
        exp = self.tiny_exp(sigma_star=1e12, models={"stress": str(tmp_path / "stress.json")})
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
         DimensionMismatch, "temperature model takes 82 profile nodes on a 0.1 x 0.1 plate, "
         "problem problem2 has 21 \\+ 21 nodes"),
        # right node counts, wrong plate: would run silently without the check
        ("temperature", lambda p1: tiny_operator(21, 21, p1.L, p1.H),
         DimensionMismatch, "takes 42 profile nodes on a 0.1 x 0.1 plate"),
        ("stress", lambda p1: tiny_operator(21, 21, 0.15, 0.06),
         ValueError, "expected a StressSurrogate, found OperatorNet"),
        # right node counts, problem 1's output scale: predictions would be 10x off
        ("stress", lambda p1: neural.StressSurrogate.build(0, 21, 21, problems.stress_scale(p1)),
         ValueError, "stress model scales its output by 10000000.0, "
         "problem problem2 by 1000000.0"),
    ], ids=["problem1-stress", "problem1-temperature", "other-plate-temperature",
            "operator-as-stress", "problem1-scale-stress"])
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
        exp = self.tiny_exp(case="case3", sigma_star=0.0,
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
        exp = self.tiny_exp(case="case3", sigma_star=0.0,
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
