import json
import logging
import pathlib

import numpy as np
import pytest

from fgmopt import neural, problems
from fgmopt.cli import main
from fgmopt.profiles import generate_genes
from fgmopt.rng import make_rng


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasics:
    def test_version_fingerprint(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        info = json.loads(out)
        assert info["package"] == "fgmopt"

    def test_bad_flags_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "eval-profile", "--problem", "problem9",
                             "--power-law", "1")
        assert code == 1

    def test_missing_genes_file_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "eval-profile", "--problem", "problem2",
                               "--genes", "/nonexistent/genes.json")
        assert code == 1
        assert "error" in err


class TestEvalProfile:
    def test_reference_linear_y_matches_published_value(self, capsys):
        code, out, err = run_cli(capsys, "eval-profile", "--problem", "problem2",
                                 "--power-law", "1", "--axis", "y")
        assert code == 0
        result = json.loads(out)
        assert result["sigma_e_max"] == pytest.approx(80.0e6, rel=0.10)
        # stage log line on stderr
        assert json.loads(err.splitlines()[0])["stage"] == "eval-profile"

    def test_genes_input(self, capsys, tmp_path):
        genes = generate_genes(make_rng(3), problems.problem2().nx, problems.problem2().ny)
        path = tmp_path / "genes.json"
        path.write_text(json.dumps(genes.to_dict()))
        out_file = tmp_path / "summary.json"
        code, out, _ = run_cli(capsys, "eval-profile", "--problem", "problem2",
                               "--genes", str(path), "--out", str(out_file))
        assert code == 0
        result = json.loads(out_file.read_text())
        assert result == json.loads(out)
        assert result["sigma_e_max"] > 0
        assert 0 <= result["v_ca"] <= 1

    def test_nan_gene_is_invalid_input(self, capsys, tmp_path):
        genes = generate_genes(make_rng(3), problems.problem2().nx, problems.problem2().ny)
        path = tmp_path / "genes.json"
        path.write_text(json.dumps({**genes.to_dict(), "phi_x1": float("nan")}))
        code, _, err = run_cli(capsys, "eval-profile", "--problem", "problem2",
                               "--genes", str(path))
        assert code == 1
        assert "outside declared bounds" in err

    def test_genes_of_another_plate_are_invalid_input(self, capsys, tmp_path):
        # the 20 x 20 element plate takes 19 ratios per axis; 20 and 18 add up to the
        # same gene count but would solve a 22 x 20 node profile
        genes = generate_genes(make_rng(3), 21, 19)
        path = tmp_path / "genes.json"
        path.write_text(json.dumps(genes.to_dict()))
        code, out, err = run_cli(capsys, "eval-profile", "--problem", "problem2",
                                 "--genes", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ")
        assert "20 x-ratios and 18 y-ratios" in err and "takes 19 and 19" in err

    @pytest.mark.parametrize("problem", ["problem1", "problem2"])
    def test_nan_power_law_is_invalid_input(self, capsys, problem):
        code, _, err = run_cli(capsys, "eval-profile", "--problem", problem,
                               "--power-law", "nan")
        assert code == 1
        assert "must lie in [0, 1]" in err

    def test_problem1_reference_power_law(self, capsys):
        code, out, _ = run_cli(capsys, "eval-profile", "--problem", "problem1",
                               "--power-law", "1", "--axis", "y")
        assert code == 0
        result = json.loads(out)
        assert result["sigma_e_max"] == pytest.approx(309e6, rel=0.10)

    def test_problem1_uniform_temperature_reported_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "eval-profile", "--problem", "problem1",
                               "--power-law", "1")
        assert code == 0
        assert json.loads(out)["max_metal_temperature"] == -700.0


class TestDataAndFields:
    def test_gen_data_smoke(self, capsys, tmp_path):
        out = tmp_path / "ds"
        code, stdout, _ = run_cli(capsys, "gen-data", "--problem", "problem2",
                                  "--count", "4", "--seed", "7", "--out", str(out))
        assert code == 0
        manifest = json.loads(stdout)
        assert manifest["count"] == 4
        assert (out / "manifest.json").exists()
        assert (out / "train.ndjson").exists()

    def test_gen_data_warns_on_empty_split(self, capsys, tmp_path):
        # round(0.8 * 2) = 2 train samples leaves the test split empty
        code, stdout, err = run_cli(capsys, "gen-data", "--problem", "problem2",
                                    "--count", "2", "--seed", "7", "--out", str(tmp_path / "ds"))
        assert code == 0
        assert json.loads(stdout)["n_test"] == 0
        lines = [json.loads(line) for line in err.splitlines()]
        assert [line["stage"] for line in lines if "stage" in line] == ["gen-data"]
        assert [line for line in lines if "warning" in line] == [
            {"warning": "empty split", "splits": ["test"], "count": 2}]
        code, _, err = run_cli(capsys, "gen-data", "--problem", "problem2",
                               "--count", "4", "--seed", "7", "--out", str(tmp_path / "ds4"))
        assert code == 0 and "warning" not in err

    def test_export_field(self, capsys, tmp_path):
        out = tmp_path / "fields"
        code, _, _ = run_cli(capsys, "export-field", "--problem", "problem2",
                             "--power-law", "1", "--axis", "xy", "--out", str(out))
        assert code == 0
        for f in ("summary.json", "temperature.csv", "effective_stress.csv",
                  "volume_fraction.csv"):
            assert (out / f).exists()


class TestTrain:
    def test_train_stress_and_temp(self, capsys, tmp_path):
        ds = tmp_path / "ds"
        code, _, _ = run_cli(capsys, "gen-data", "--problem", "problem2",
                             "--count", "6", "--seed", "2", "--out", str(ds))
        assert code == 0
        for command, kind in (("train-stress", neural.StressSurrogate),
                              ("train-temp", neural.OperatorNet)):
            model = tmp_path / f"{command}.json"
            history = tmp_path / f"{command}.csv"
            code, out, err = run_cli(capsys, command, "--dataset", str(ds), "--out", str(model),
                                     "--seed", "1", "--max-samples", "5",
                                     "--history", str(history))
            assert code == 0
            stages = [json.loads(line)["stage"] for line in err.splitlines()]
            assert stages == ["load-dataset", command]
            result = json.loads(out)
            assert np.isfinite(result["train_r2"])
            assert result["model"] == str(model)
            assert isinstance(neural.load_model(model), kind)
            assert history.read_text().startswith("stage,epoch,learning_rate")

    def test_train_stress_on_empty_test_split(self, capsys, tmp_path):
        # round(0.8 * 2) = 2 train samples leaves the test split empty
        ds, model = tmp_path / "ds", tmp_path / "stress.json"
        code, _, _ = run_cli(capsys, "gen-data", "--problem", "problem1",
                             "--count", "2", "--seed", "1", "--out", str(ds))
        assert code == 0
        code, out, err = run_cli(capsys, "train-stress", "--dataset", str(ds), "--out", str(model))
        assert code == 0, err
        assert '"test_r2": null' in out
        assert np.isfinite(json.loads(out)["train_r2"])
        assert isinstance(neural.load_model(model), neural.StressSurrogate)

    def test_max_samples_below_one_exits_1_writing_nothing(self, capsys, tmp_path):
        # -5 used to keep all but the last 4 train rows and the last test row
        ds = tmp_path / "ds"
        code, _, _ = run_cli(capsys, "gen-data", "--problem", "problem1",
                             "--count", "2", "--seed", "1", "--out", str(ds))
        assert code == 0
        for cap in ("0", "-5"):
            model, history = tmp_path / "stress.json", tmp_path / "history.csv"
            code, out, err = run_cli(capsys, "train-stress", "--dataset", str(ds),
                                     "--out", str(model), "--max-samples", cap,
                                     "--history", str(history))
            assert code == 1 and out == ""
            assert f"error: max_samples must be at least 1, got {cap}" in err
            assert not model.exists() and not history.exists()


class TestOptimize:
    def write_exp(self, tmp_path):
        exp = {
            "problem": "problem2",
            "case": "case1",
            "seed": 3,
            "ga": {"population_size": 6, "elite_count": 1, "tournament_size": 2,
                   "min_generations": 2, "stall_generations": 1, "max_generations": 2},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(exp))
        return path

    def test_optimize_deterministic_bundles(self, capsys, tmp_path):
        exp = self.write_exp(tmp_path)
        code1, _, _ = run_cli(capsys, "optimize", "--experiment", str(exp),
                              "--out", str(tmp_path / "r1"), "--seed", "3")
        code2, _, _ = run_cli(capsys, "optimize", "--experiment", str(exp),
                              "--out", str(tmp_path / "r2"), "--seed", "3")
        assert code1 == 0 and code2 == 0
        b1 = (tmp_path / "r1" / "run_record.json").read_bytes()
        b2 = (tmp_path / "r2" / "run_record.json").read_bytes()
        assert b1 == b2

    def test_optimize_prints_one_progress_line_per_generation(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "optimize", "--experiment", str(self.write_exp(tmp_path)),
                               "--out", str(tmp_path / "r"))
        assert code == 0
        lines = [json.loads(l) for l in err.splitlines() if '"generation"' in l]
        assert [l["generation"] for l in lines] == [0, 1]
        record = json.loads((tmp_path / "r" / "run_record.json").read_text())
        # 6 initial individuals, then 5 children (the one elite is not re-evaluated)
        for line, gen, n in zip(lines, record["generations"], (6, 5)):
            assert {k: v for k, v in line.items() if k != "wall_s"} == gen
            assert line["best_fitness"] == gen["best_fitness"]
            assert line["eval_sources"] == {"fem": n, "surrogate": 0}
            assert line["surrogate_rel_error"] is gen["surrogate_rel_error"] is None
            assert "wall_s" in line and "wall_s" not in gen
        assert not logging.getLogger("fgmopt.ga").handlers

    def test_problem1_model_in_problem2_exits_1_before_any_generation(self, capsys, tmp_path):
        cfg = problems.problem1()
        model = tmp_path / "stress_p1.json"
        neural.save_model(neural.StressSurrogate.build(0, cfg.nx + 1, cfg.ny + 1, 1e7), model)
        path = self.write_exp(tmp_path)
        exp = {**json.loads(path.read_text()), "sigma_star": 0.0,
               "models": {"stress": str(model)}}
        path.write_text(json.dumps(exp))
        code, out, err = run_cli(capsys, "optimize", "--experiment", str(path),
                                 "--out", str(tmp_path / "r"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and str(model) in err and "41 x 41" in err
        assert '"generation"' not in err

    @pytest.mark.parametrize("override, key", [
        ({"ga": {"tournament_size": 0}}, "tournament_size"),
        ({"sigma_star": float("nan")}, "sigma_star"),
        ({"sigma_star": -1.0}, "sigma_star"),
        ({"ga": {"stall_tolerance": float("nan")}}, "stall_tolerance"),
        ({"ga": {"stall_generations": -5}}, "stall_generations"),
        # the seed and the threshold are set at the top level only
        ({"ga": {"seed": 5}}, "unknown ga keys ['seed']"),
        ({"ga": {"sigma_star": 0.0}}, "unknown ga keys ['sigma_star']"),
        # a seed that is not an int: 1.5 used to run seed 1 and record 1.5
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": "3"}, "seed must be an integer, got '3'"),
        ({"seed": None}, "seed must be an integer, got None"),
    ], ids=["empty-tournament", "nan-threshold", "negative-threshold", "nan-stall-tolerance",
            "negative-stall-generations", "ga-seed", "ga-threshold", "float-seed", "bool-seed",
            "string-seed", "null-seed"])
    def test_config_the_ga_cannot_run_exits_1_before_any_generation(self, capsys, tmp_path,
                                                                    override, key):
        cfg = problems.problem2()
        model = tmp_path / "stress.json"
        neural.save_model(neural.StressSurrogate.build(0, cfg.nx + 1, cfg.ny + 1,
                                                       problems.stress_scale(cfg)), model)
        path = self.write_exp(tmp_path)
        exp = json.loads(path.read_text())
        exp["ga"].update(override.get("ga", {}))
        if "sigma_star" in override:
            exp.update(sigma_star=override["sigma_star"], models={"stress": str(model)})
        if "seed" in override:
            exp["seed"] = override["seed"]
        path.write_text(json.dumps(exp))
        code, out, err = run_cli(capsys, "optimize", "--experiment", str(path),
                                 "--out", str(tmp_path / "r"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and key in err and '"generation"' not in err
        assert not (tmp_path / "r").exists()

    def test_unknown_experiment_keys_exit_1_naming_them(self, capsys, tmp_path):
        # misspelt constraint and threshold keys would otherwise run unconstrained and FEM-only
        path = self.write_exp(tmp_path)
        exp = {**json.loads(path.read_text()), "v_starr": 0.01, "sigma_starr": 0.0}
        path.write_text(json.dumps(exp))
        code, out, err = run_cli(capsys, "optimize", "--experiment", str(path),
                                 "--out", str(tmp_path / "r"))
        assert code == 1 and out == ""
        assert "unknown experiment keys ['sigma_starr', 'v_starr']" in err
        assert '"generation"' not in err and not (tmp_path / "r").exists()

    def test_missing_experiment_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "optimize", "--experiment",
                               str(tmp_path / "none.json"), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error" in err


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 8
        assert all(l.startswith("PASS") for l in lines)
