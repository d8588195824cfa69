import csv
import hashlib
import json
import logging
import pathlib

import numpy as np
import pytest

from fgmopt import neural, pipeline, problems, verification
from fgmopt.cli import main
from fgmopt.fem import ThermoelasticSolver
from fgmopt.profiles import generate_genes, genes_to_dict
from fgmopt.rng import make_rng

from tiny_experiment import tiny_experiment


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


class TestInputOfTheWrongKind:
    """A path of the wrong kind, and a model file or manifest that holds JSON but no
    object, or an object of the wrong shape or with a value of the wrong type, are
    invalid input: each exits 1 (most used to exit 2 as a runtime failure; a stress net
    one activation short loaded as a 64-output net and optimized on its first output,
    a scale, length or node count written as a string or a float loaded, and so did a
    bias of the wrong length and a dataset row whose label is a string)."""

    @pytest.fixture
    def inputs(self, tmp_path):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        (tmp_path / "list.json").write_text("[1]")
        (tmp_path / "ds").mkdir()
        (tmp_path / "ds" / "manifest.json").write_text("[]")
        (tmp_path / "ds_files").mkdir()
        (tmp_path / "ds_files" / "manifest.json").write_text('{"files": 5}')
        (tmp_path / "ds_sums").mkdir()
        (tmp_path / "ds_sums" / "manifest.json").write_text(
            '{"files": {"train": "a", "test": "b"}, "checksums": {}}')
        # a file of each reader that holds no JSON: model, manifest, experiment and genes
        for name in ("not_json.json", "exp_not_json.json", "genes_not_json.json"):
            (tmp_path / name).write_text("not json")
        (tmp_path / "ds_not_json").mkdir()
        (tmp_path / "ds_not_json" / "manifest.json").write_text("{")
        scale = problems.stress_scale(problems.problem2())  # passes the plate checks
        stress = neural.StressSurrogate(neural.make_dense(0, [42, 8, 1], "relu"), scale, 21, 21)
        d = stress.to_dict()
        for name, net in (("short.json", {**d["net"], "activations": ["relu"]}),
                          ("net5.json", 5),
                          ("wide.json", neural.make_dense(0, [42, 8, 2], "relu").to_dict())):
            (tmp_path / name).write_text(json.dumps({**d, "net": net}))
        (tmp_path / "no_net.json").write_text('{"kind": "stress_surrogate"}')
        (w0, w1), (b0, _) = d["net"]["weights"], d["net"]["biases"]  # (42, 8), (8, 1); (8,)
        for name, weights, biases in (
                ("shape_str.json", [{**w0, "shape": "abc"}, w1], [b0, b0]),
                ("f8_int.json", [w0, w1], [{**b0, "f8": 5}, b0]),
                ("weights_1d.json", [{**w0, "shape": [42 * 8]}, w1], [b0, b0]),
                ("bias_long.json", [w0, w1], [b0, b0])):
            net = {**d["net"], "weights": weights, "biases": biases}
            (tmp_path / name).write_text(json.dumps({**d, "net": net}))
        # a dataset whose train file's second row is malformed, or whose manifest is, its
        # checksums right; a manifest entry of None is left out
        good = {"index": 0, "problem": "problem2", "profile_x": [0.5] * 21,
                "profile_y": [0.5] * 21, "sigma_e_max": 1.0e6,
                "temperature_grid": [20.0] * 21 * 21}
        no_grid = {k: v for k, v in good.items() if k != "temperature_grid"}
        p1 = {**no_grid, "problem": "problem1", "profile_x": [0.5] * 41, "profile_y": [0.5] * 41}
        p1_manifest = {"problem": "problem1", "profile_nodes": {"x": 41, "y": 41}}
        for name, first, row, entries in (
                ("ds_no_px", good, {k: v for k, v in good.items() if k != "profile_x"}, {}),
                ("ds_row_list", good, [good], {}),
                ("ds_short_px", good, {**good, "profile_x": [0.5] * 20}, {}),
                ("ds_sigma_str", good, {**good, "sigma_e_max": "2e6"}, {}),
                ("ds_nodes", good, good, {"profile_nodes": {"x": 21}}),
                ("ds_no_problem", good, good, {"problem": None}),
                ("ds_problem5", good, good, {"problem": 5}),
                ("ds_p1_nodes", good, good, {"problem": "problem1"}),
                ("ds_no_grid", good, no_grid, {}),
                ("ds_no_grids", no_grid, no_grid, {}),
                ("ds_extra_grid", p1, {**p1, "temperature_grid": [20.0] * 41 * 41}, p1_manifest),
                ("ds_short_grid", good, {**good, "temperature_grid": [20.0] * 21}, {}),
                ("ds_sigma_nan", good, {**good, "sigma_e_max": float("nan")}, {}),
                ("ds_grid_inf", good, {**good, "temperature_grid": [20.0] * 440 + [float("inf")]},
                 {})):
            (tmp_path / name).mkdir()
            parts = {"train": f"{json.dumps(first)}\n{json.dumps(row)}\n", "test": ""}
            for part, text in parts.items():
                (tmp_path / name / f"{part}.ndjson").write_text(text)
            manifest = {"problem": "problem2", "profile_nodes": {"x": 21, "y": 21}, **entries,
                        "files": {part: f"{part}.ndjson" for part in parts},
                        "checksums": {f"{part}.ndjson": hashlib.sha256(text.encode()).hexdigest()
                                      for part, text in parts.items()}}
            (tmp_path / name / "manifest.json").write_text(json.dumps(
                {k: v for k, v in manifest.items() if v is not None}))
        (tmp_path / "stress.json").write_text(json.dumps(d))
        for name, key, value in (("nx_str.json", "nx_nodes", "21"),
                                 ("nx_float.json", "nx_nodes", 21.0),
                                 ("scale_list.json", "output_scale", [scale]),
                                 ("scale_null.json", "output_scale", None),
                                 ("scale_str.json", "output_scale", str(scale))):
            (tmp_path / name).write_text(json.dumps({**d, key: value}))
        op = neural.OperatorNet(neural.make_dense(0, [42, 4], "relu"),
                                neural.make_dense(1, [2, 4], "tanh"), 500.0, 0.15, 0.06)
        (tmp_path / "op_L_str.json").write_text(json.dumps({**op.to_dict(), "L": "0.15"}))
        (tmp_path / "exp_op_L_str.json").write_text(json.dumps({
            "problem": "problem2", "case": "case3", "sigma_star": 0.0,
            "models": {"stress": str(tmp_path / "stress.json"),
                       "temperature": str(tmp_path / "op_L_str.json")}}))
        (tmp_path / "exp_no_problem.json").write_text('{"case": "case1"}')
        (tmp_path / "exp_min_gen_neg.json").write_text(json.dumps({
            "problem": "problem2", "case": "case1",
            "ga": {"population_size": 4, "min_generations": -3, "max_generations": None}}))
        (tmp_path / "no_kind.json").write_text('{"net": {}}')
        for name, kind in (("kind_list.json", []), ("kind_object.json", {"a": 1})):
            (tmp_path / name).write_text(json.dumps({**d, "kind": kind}))
        for name, sigma_star in (("exp_star_str.json", "0.5"), ("exp_star_neg.json", -1)):
            (tmp_path / name).write_text(json.dumps(
                {"problem": "problem2", "case": "case1", "sigma_star": sigma_star}))
        cfg = problems.problem2()
        genes = genes_to_dict(generate_genes(make_rng(3), cfg.nx, cfg.ny), cfg.nx)
        for name, key, value in (("genes_str.json", "phi_x1", "0.5"),
                                 ("genes_bool.json", "phi_y1", True),
                                 ("genes_ratios.json", "alphas_x",
                                  [str(a) for a in genes["alphas_x"]])):
            (tmp_path / name).write_text(json.dumps({**genes, key: value}))
        (tmp_path / "genes_no_ratios.json").write_text(json.dumps(
            {k: v for k, v in genes.items() if k != "alphas_y"}))
        for name, model in (("exp_dir.json", "dir"), ("exp_list.json", "list.json"),
                            ("exp_model_not_json.json", "not_json.json"),
                            ("exp_short.json", "short.json"), ("exp_net5.json", "net5.json"),
                            ("exp_wide.json", "wide.json"), ("exp_no_net.json", "no_net.json"),
                            ("exp_no_kind.json", "no_kind.json"),
                            ("exp_kind_list.json", "kind_list.json"),
                            ("exp_kind_object.json", "kind_object.json"),
                            ("exp_nx_str.json", "nx_str.json"),
                            ("exp_nx_float.json", "nx_float.json"),
                            ("exp_scale_list.json", "scale_list.json"),
                            ("exp_scale_null.json", "scale_null.json"),
                            ("exp_scale_str.json", "scale_str.json"),
                            ("exp_shape_str.json", "shape_str.json"),
                            ("exp_f8_int.json", "f8_int.json"),
                            ("exp_weights_1d.json", "weights_1d.json"),
                            ("exp_bias_long.json", "bias_long.json")):
            (tmp_path / name).write_text(json.dumps({
                "problem": "problem2", "case": "case1", "sigma_star": 0.0,
                "models": {"stress": str(tmp_path / model)}}))
        return tmp_path

    @pytest.mark.parametrize("argv, reason", [
        ("eval-profile --problem problem2 --genes {t}/dir", "Is a directory"),
        ("optimize --experiment {t}/dir --out {t}/r", "Is a directory"),
        ("optimize --experiment {t}/exp_dir.json --out {t}/r", "Is a directory"),
        ("train-stress --dataset {t}/file --out {t}/m.json", "Not a directory"),
        ("gen-data --problem problem1 --count 1 --seed 1 --out {t}/file", "File exists"),
        ("export-field --problem problem1 --power-law 1 --out {t}/file", "File exists"),
        ("optimize --experiment {t}/exp_list.json --out {t}/r",
         "list.json: a model file must hold a JSON object, got list"),
        ("train-stress --dataset {t}/ds --out {t}/m.json",
         "manifest.json: a manifest must hold a JSON object, got list"),
        ("optimize --experiment {t}/exp_short.json --out {t}/r",
         "short.json: a network needs lists of weights, biases and activations of one length, "
         "got lengths [2, 2, 1]"),
        ("optimize --experiment {t}/exp_net5.json --out {t}/r",
         "net5.json: a network must be a JSON object, got int"),
        ("optimize --experiment {t}/exp_wide.json --out {t}/r",
         "wide.json: a stress network outputs one value, this one 2"),
        ("train-stress --dataset {t}/ds_files --out {t}/m.json",
         "ds_files/manifest.json: a manifest needs a files object"),
        # a missing checksum was a bare KeyError: "error: 'a'"
        ("train-stress --dataset {t}/ds_sums --out {t}/m.json",
         "ds_sums/manifest.json: needs the key 'a'"),
        # a missing problem was a bare KeyError: "error: 'problem'"
        ("optimize --experiment {t}/exp_no_problem.json --out {t}/r",
         "experiment needs the key 'problem', one of problem1, problem2"),
        # a negative minimum ran, as 0 would, and exited 0
        ("optimize --experiment {t}/exp_min_gen_neg.json --out {t}/r",
         "min_generations must be >= 0, got -3"),
        # a node count or scale that is no number exited 2, and a number in a string loaded
        ("optimize --experiment {t}/exp_nx_str.json --out {t}/r",
         "nx_str.json: nx_nodes must be an integer, got '21'"),
        ("optimize --experiment {t}/exp_nx_float.json --out {t}/r",
         "nx_float.json: nx_nodes must be an integer, got 21.0"),
        ("optimize --experiment {t}/exp_scale_list.json --out {t}/r",
         "scale_list.json: output_scale must be a number, got [1000000.0]"),
        ("optimize --experiment {t}/exp_scale_null.json --out {t}/r",
         "scale_null.json: output_scale must be a number, got None"),
        ("optimize --experiment {t}/exp_scale_str.json --out {t}/r",
         "scale_str.json: output_scale must be a number, got '1000000.0'"),
        ("optimize --experiment {t}/exp_op_L_str.json --out {t}/r",
         "op_L_str.json: L must be a number, got '0.15'"),
        # these exited 2, and a bias of the wrong length failed at the first predict
        ("optimize --experiment {t}/exp_shape_str.json --out {t}/r",
         "shape_str.json: an array needs a shape list of sizes and an f8 string, got shape 'abc'"),
        ("optimize --experiment {t}/exp_f8_int.json --out {t}/r",
         "f8_int.json: an array needs a shape list of sizes and an f8 string, got shape [8] "
         "and f8 of type int"),
        ("optimize --experiment {t}/exp_weights_1d.json --out {t}/r",
         "weights_1d.json: a layer needs 2-D weights and a bias of their output width, got "
         "shapes (336,) and (8,)"),
        ("optimize --experiment {t}/exp_bias_long.json --out {t}/r",
         "bias_long.json: a layer needs 2-D weights and a bias of their output width, got "
         "shapes (8, 1) and (8,)"),
        # a JSON syntax error named no file: "error: Expecting value: line 1 column 1 (char 0)"
        ("optimize --experiment {t}/exp_not_json.json --out {t}/r",
         "exp_not_json.json: Expecting value: line 1 column 1"),
        ("eval-profile --problem problem2 --genes {t}/genes_not_json.json",
         "genes_not_json.json: Expecting value: line 1 column 1"),
        ("train-stress --dataset {t}/ds_not_json --out {t}/m.json",
         "ds_not_json/manifest.json: Expecting property name enclosed in double quotes"),
        # a missing key was a bare KeyError, a list row exited 2, a short profile exited 1 on
        # numpy's inhomogeneous-shape error, and a string label trained
        ("train-stress --dataset {t}/ds_no_px --out {t}/m.json",
         "ds_no_px/train.ndjson:2: needs the key 'profile_x'"),
        ("train-stress --dataset {t}/ds_row_list --out {t}/m.json",
         "ds_row_list/train.ndjson:2: a row must be a JSON object, got list"),
        ("train-stress --dataset {t}/ds_short_px --out {t}/m.json",
         "ds_short_px/train.ndjson:2: profile_x must be a list of 21 numbers"),
        ("train-stress --dataset {t}/ds_sigma_str --out {t}/m.json",
         "ds_sigma_str/train.ndjson:2: sigma_e_max must be a number, got '2e6'"),
        ("train-stress --dataset {t}/ds_nodes --out {t}/m.json",
         "ds_nodes/manifest.json: a manifest needs a profile_nodes object of the x and y node "
         "counts"),
        # a missing or unknown problem named no file, problem1 over problem-2 rows failed in
        # the network's input check, and a row without a grid was a bare KeyError; the first
        # row decided whether rows carry a grid, so problem-2 rows without any loaded
        ("train-stress --dataset {t}/ds_no_problem --out {t}/m.json",
         "ds_no_problem/manifest.json: unknown problem id None"),
        ("train-stress --dataset {t}/ds_problem5 --out {t}/m.json",
         "ds_problem5/manifest.json: unknown problem id 5"),
        ("train-stress --dataset {t}/ds_p1_nodes --out {t}/m.json",
         "ds_p1_nodes/manifest.json: profile_nodes {'x': 21, 'y': 21} are not problem1's 41 x 41"),
        ("train-temp --dataset {t}/ds_no_grid --out {t}/m.json",
         "ds_no_grid/train.ndjson:2: needs the key 'temperature_grid'"),
        ("train-temp --dataset {t}/ds_no_grids --out {t}/m.json",
         "ds_no_grids/train.ndjson:1: needs the key 'temperature_grid'"),
        ("train-stress --dataset {t}/ds_extra_grid --out {t}/m.json",
         "ds_extra_grid/train.ndjson:2: a row has a temperature_grid, and problem1 solves for "
         "no temperature"),
        ("train-temp --dataset {t}/ds_short_grid --out {t}/m.json",
         "ds_short_grid/train.ndjson:2: temperature_grid must be a list of 441 numbers"),
        # a NaN label loaded; train-stress diverged after an epoch and train-temp exited 0
        ("train-stress --dataset {t}/ds_sigma_nan --out {t}/m.json",
         "ds_sigma_nan/train.ndjson:2: sigma_e_max must be finite, got nan"),
        ("train-temp --dataset {t}/ds_sigma_nan --out {t}/m.json",
         "ds_sigma_nan/train.ndjson:2: sigma_e_max must be finite, got nan"),
        ("train-temp --dataset {t}/ds_grid_inf --out {t}/m.json",
         "ds_grid_inf/train.ndjson:2: temperature_grid must be finite, got inf"),
        # a missing key was a bare KeyError naming no file: "error: 'net'"
        ("optimize --experiment {t}/exp_no_net.json --out {t}/r",
         "no_net.json: needs the key 'net'"),
        ("optimize --experiment {t}/exp_no_kind.json --out {t}/r",
         "no_kind.json: needs the key 'kind'"),
        ("optimize --experiment {t}/exp_model_not_json.json --out {t}/r",
         "/not_json.json: Expecting value: line 1 column 1"),
        # a kind that JSON reads as a list or an object is no kind, not a TypeError
        ("optimize --experiment {t}/exp_kind_list.json --out {t}/r",
         "kind_list.json: unknown model kind []"),
        ("optimize --experiment {t}/exp_kind_object.json --out {t}/r",
         "kind_object.json: unknown model kind {'a': 1}"),
        # a threshold that is no number >= 0 was reported as a missing models.stress
        ("optimize --experiment {t}/exp_star_str.json --out {t}/r",
         "sigma_star must be None or a number >= 0, got '0.5'"),
        ("optimize --experiment {t}/exp_star_neg.json --out {t}/r",
         "sigma_star must be None or a number >= 0, got -1"),
        # float() and numpy read the string "0.5" and true as genes
        ("eval-profile --problem problem2 --genes {t}/genes_str.json",
         "genes must be numbers, got phi_x1: '0.5'"),
        ("eval-profile --problem problem2 --genes {t}/genes_bool.json",
         "genes must be numbers, got phi_y1: True"),
        ("eval-profile --problem problem2 --genes {t}/genes_ratios.json",
         "genes must be numbers, got alphas_x: ['"),
        # a missing key was a bare KeyError: "error: 'alphas_y'"
        ("eval-profile --problem problem2 --genes {t}/genes_no_ratios.json",
         "genes_no_ratios.json: needs the key 'alphas_y'"),
    ])
    def test_exits_1(self, capsys, inputs, argv, reason):
        code, out, err = run_cli(capsys, *argv.format(t=inputs).split())
        assert code == 1 and out == ""
        assert err.startswith("error: ") and reason in err
        assert not (inputs / "r").exists() and not (inputs / "m.json").exists()


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
        path.write_text(json.dumps(genes_to_dict(genes, problems.problem2().nx)))
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
        path.write_text(json.dumps({**genes_to_dict(genes, problems.problem2().nx),
                                    "phi_x1": float("nan")}))
        code, _, err = run_cli(capsys, "eval-profile", "--problem", "problem2",
                               "--genes", str(path))
        assert code == 1
        assert "outside declared bounds" in err

    @pytest.mark.parametrize("content, match", [
        ("null-first-node", "genes must be numbers"),
        ("list-first-node", "genes must be numbers"),
        ("top-level-list", "genes must be a JSON object, got list"),
    ])
    def test_malformed_gene_file_is_invalid_input(self, capsys, tmp_path, content, match):
        # a TypeError from these used to escape as a runtime failure, exit 2
        cfg = problems.problem2()
        d = genes_to_dict(generate_genes(make_rng(3), cfg.nx, cfg.ny), cfg.nx)
        data = {"null-first-node": {**d, "phi_x1": None},
                "list-first-node": {**d, "phi_y1": [0.05]},
                "top-level-list": [d]}[content]
        path = tmp_path / "genes.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "eval-profile", "--problem", "problem2",
                                 "--genes", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: {match}")

    def test_genes_of_another_plate_are_invalid_input(self, capsys, tmp_path):
        # the 20 x 20 element plate takes 19 ratios per axis; 20 and 18 add up to the
        # same gene count but would solve a 22 x 20 node profile
        genes = generate_genes(make_rng(3), 21, 19)
        path = tmp_path / "genes.json"
        path.write_text(json.dumps(genes_to_dict(genes, 21)))
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

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_gen_data_count_below_one_exits_1_writing_nothing(self, capsys, tmp_path, count):
        # -2 used to exit 0 with empty splits and a manifest of "count": -2
        out = tmp_path / "ds"
        code, stdout, err = run_cli(capsys, "gen-data", "--problem", "problem1",
                                    "--count", count, "--seed", "1", "--out", str(out))
        assert code == 1 and stdout == ""
        assert f"error: count must be at least 1, got {count}" in err
        assert not out.exists()

    def test_gen_data_negative_seed_exits_1_writing_nothing(self, capsys, tmp_path):
        # numpy used to reject it after the directory was made: "expected non-negative integer"
        out = tmp_path / "ds"
        code, stdout, err = run_cli(capsys, "gen-data", "--problem", "problem2", "--count", "2",
                                    "--seed", "-1", "--out", str(out))
        assert code == 1 and stdout == ""
        assert "error: seed must be a non-negative integer, got -1" in err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_gen_data_threads_below_one_exits_1_writing_nothing(self, capsys, tmp_path, threads):
        # -3 used to exit 0, writing a dataset serially
        out = tmp_path / "ds"
        code, stdout, err = run_cli(capsys, "gen-data", "--problem", "problem2", "--count", "2",
                                    "--seed", "1", "--threads", threads, "--out", str(out))
        assert code == 1 and stdout == ""
        assert f"error: threads must be at least 1, got {threads}" in err
        assert not out.exists()

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

    def test_one_sample_trains_with_no_r2(self, capsys, tmp_path):
        # one train sample has no R^2: train-stress exited 1 with "need at least 2 samples"
        # after its first epoch, while train-temp, whose targets are a whole grid, exited 0
        ds, model, history = tmp_path / "ds", tmp_path / "stress.json", tmp_path / "h.csv"
        code, _, _ = run_cli(capsys, "gen-data", "--problem", "problem1",
                             "--count", "2", "--seed", "1", "--out", str(ds))
        assert code == 0
        code, out, err = run_cli(capsys, "train-stress", "--dataset", str(ds), "--out", str(model),
                                 "--max-samples", "1", "--history", str(history))
        assert code == 0, err
        assert json.loads(out) == {"model": str(model), "train_r2": None, "test_r2": None}
        assert isinstance(neural.load_model(model), neural.StressSurrogate)
        rows = list(csv.DictReader(history.read_text().splitlines()))
        assert rows and all(np.isfinite(float(r["train_mse"])) and r["train_r2"] == ""
                            for r in rows)

    def test_missing_out_and_history_directories_are_made(self, capsys, tmp_path):
        # a new --out directory exited 1 after training, and a new --history directory
        # exited 1 after the model was written, leaving it without its history
        ds = tmp_path / "ds"
        code, _, _ = run_cli(capsys, "gen-data", "--problem", "problem1",
                             "--count", "2", "--seed", "1", "--out", str(ds))
        assert code == 0
        for model, history in ((tmp_path / "new" / "deeper" / "s.json", None),
                               (tmp_path / "s.json", tmp_path / "new2" / "h.csv")):
            code, out, err = run_cli(capsys, "train-stress", "--dataset", str(ds),
                                     "--out", str(model),
                                     *(("--history", str(history)) if history else ()))
            assert code == 0, err
            assert isinstance(neural.load_model(model), neural.StressSurrogate)
            assert history is None or history.read_text().startswith("stage,epoch")

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


    @pytest.mark.parametrize("command", ["train-stress", "train-temp"])
    def test_negative_seed_exits_1_writing_nothing(self, capsys, tmp_path, command):
        # numpy used to reject it with "expected non-negative integer", naming no seed
        ds, model = tmp_path / "ds", tmp_path / "model.json"
        code, _, _ = run_cli(capsys, "gen-data", "--problem", "problem2",
                             "--count", "2", "--seed", "1", "--out", str(ds))
        assert code == 0
        code, out, err = run_cli(capsys, command, "--dataset", str(ds), "--out", str(model),
                                 "--seed", "-2")
        assert code == 1 and out == ""
        assert "error: seed must be a non-negative integer, got -2" in err
        assert not model.exists()


class TestOptimize:
    def write_exp(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(tiny_experiment()))
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
        # 6 initial individuals, then 4 children (the 2 elites are not re-evaluated)
        for line, gen, n in zip(lines, record["generations"], (6, 4)):
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
        ({"sigma_star": float("nan")}, "sigma_star"),
        ({"sigma_star": -1.0}, "sigma_star"),
        # GA and penalty settings that are constants or table rows, not experiment keys
        ({"ga": {"tournament_size": 4}}, "unknown ga keys ['tournament_size']"),
        ({"ga": {"elite_count": 2}}, "unknown ga keys ['elite_count']"),
        ({"ga": {"stall_generations": 10}}, "unknown ga keys ['stall_generations']"),
        ({"ga": {"mutation_probability": 0.4}}, "unknown ga keys ['mutation_probability']"),
        ({"ga": {"stall_tolerance": 1e3}}, "unknown ga keys ['stall_tolerance']"),
        ({"penalty_weight": 1e8}, "unknown experiment keys ['penalty_weight']"),
        # a tournament draws 4 distinct entrants
        ({"ga": {"population_size": 3}}, "population_size must be at least 4, got 3"),
        # the seed and the threshold are set at the top level only
        ({"ga": {"seed": 5}}, "unknown ga keys ['seed']"),
        ({"ga": {"sigma_star": 0.0}}, "unknown ga keys ['sigma_star']"),
        # a seed that is not an int: 1.5 used to run seed 1 and record 1.5
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": "3"}, "seed must be an integer, got '3'"),
        ({"seed": None}, "seed must be an integer, got None"),
        # a negative seed failed in numpy after the solver was built, naming no seed
        ({"seed": -3}, "seed must be a non-negative integer, got -3"),
        # a GA count that is not an int failed after generation 0's solves, or ran silently
        ({"ga": {"population_size": 10.0}}, "population_size must be an integer, got 10.0"),
        ({"ga": {"min_generations": 2.5}}, "min_generations must be an integer, got 2.5"),
        ({"ga": {"min_generations": -3}}, "min_generations must be >= 0, got -3"),
        ({"ga": {"max_generations": 2.5}}, "max_generations must be an integer, got 2.5"),
        ({"ga": {"max_generations": -3}}, "max_generations must be None or >= 1, got -3"),
        # a limit of 0 divided by zero in the hinge, and a weight below 0 rewarded a violation
        ({"sigma_allow": 0}, "sigma_allow must be a finite number > 0, got 0"),
        ({"v_star": 0}, "v_star must be a finite number > 0, got 0"),
        ({"v_star": "0.15"}, "v_star must be a finite number > 0, got '0.15'"),
        ({"sigma_star": "1e8"}, "sigma_star must be None or a number >= 0, got '1e8'"),
    ], ids=["nan-threshold", "negative-threshold", "ga-tournament-size", "ga-elite-count",
            "ga-stall-generations", "ga-mutation-probability", "ga-stall-tolerance",
            "penalty-weight", "population-below-tournament", "ga-seed", "ga-threshold",
            "float-seed", "bool-seed", "string-seed", "null-seed", "negative-seed",
            "float-population", "fractional-min-generations", "negative-min-generations",
            "fractional-max-generations", "negative-max-generations", "zero-stress-limit",
            "zero-fraction-limit", "string-fraction-limit", "string-threshold"])
    def test_config_the_ga_cannot_run_exits_1_before_any_generation(self, capsys, tmp_path,
                                                                    monkeypatch, override, key):
        # every solve samples its profile there: a config error must come before the first
        monkeypatch.setattr(ThermoelasticSolver, "phi_at_gauss",
                            lambda *a: pytest.fail("a solve ran before the config was checked"))
        cfg = problems.problem2()
        model = tmp_path / "stress.json"
        neural.save_model(neural.StressSurrogate.build(0, cfg.nx + 1, cfg.ny + 1,
                                                       problems.stress_scale(cfg)), model)
        path = self.write_exp(tmp_path)
        exp = json.loads(path.read_text())
        exp["ga"].update(override.get("ga", {}))
        exp.update({k: v for k, v in override.items() if k != "ga"})
        if "sigma_star" in override:
            exp["models"] = {"stress": str(model)}
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

    @pytest.mark.parametrize("override, key", [
        # a string failed a substring test and a number failed in pathlib, both exiting 2
        ({"models": "stress.json"}, "models must be an object of string paths"),
        ({"models": {"stress": 5}}, "models must be an object of string paths"),
        ({"problem": "problem3"}, "unknown problem id 'problem3'"),
        ({"case": "case9"}, "unknown case 'case9'"),
        ({"problem": "problem1", "case": "case3"}, "unknown case 'case3' for problem1"),
        # a ga entry that is not an object exited 2; an unknown ga key was named after the build
        ({"ga": 5}, "ga must be a JSON object, got int"),
        ({"ga": None}, "ga must be a JSON object, got NoneType"),
        ({"ga": []}, "ga must be a JSON object, got list"),
        ({"ga": {"seed": 5}}, "unknown ga keys ['seed']"),
    ], ids=["string-models", "number-model-path", "unknown-problem", "unknown-case",
            "case-problem1-does-not-ship", "number-ga", "null-ga", "list-ga", "unknown-ga-key"])
    def test_experiment_outside_the_tables_exits_1_before_any_build(self, capsys, tmp_path,
                                                                   monkeypatch, override, key):
        monkeypatch.setattr(pipeline, "_solver_for", lambda *a: pytest.fail("a solver was built"))
        monkeypatch.setattr(neural, "load_model", lambda *a: pytest.fail("a model was loaded"))
        path = self.write_exp(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "sigma_star": 0.0,
                                    **override}))
        code, out, err = run_cli(capsys, "optimize", "--experiment", str(path),
                                 "--out", str(tmp_path / "r"))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {key}") and not (tmp_path / "r").exists()

    @pytest.mark.parametrize("content, kind", [("5", "int"), ("null", "NoneType"),
                                               ('"problem2"', "str")])
    def test_experiment_that_is_not_an_object_exits_1_before_any_build(
            self, capsys, tmp_path, monkeypatch, content, kind):
        # a number or null exited 2, and a string had its letters named as unknown keys
        monkeypatch.setattr(pipeline, "_solver_for", lambda *a: pytest.fail("a solver was built"))
        path = tmp_path / "exp.json"
        path.write_text(content)
        code, out, err = run_cli(capsys, "optimize", "--experiment", str(path),
                                 "--out", str(tmp_path / "r"))
        assert code == 1 and out == ""
        assert err == f"error: experiment must be a JSON object, got {kind}\n"
        assert not (tmp_path / "r").exists()

    def test_missing_experiment_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "optimize", "--experiment",
                               str(tmp_path / "none.json"), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error" in err


def assert_resolves_to(capsys, tmp_path, problem, genes, want):
    """eval-profile of a gene object gives the three summaries of ``want`` bit for bit."""
    path = tmp_path / "genes.json"
    path.write_text(json.dumps(genes))
    code, out, err = run_cli(capsys, "eval-profile", "--problem", problem, "--genes", str(path))
    assert code == 0, err
    got = json.loads(out)
    for key in ("sigma_e_max", "v_ca", "max_metal_temperature"):
        assert got[key] == want[key], key


class TestRoundTrips:
    """What one command hands the next: genes solved again by eval-profile give the
    labels of the dataset row or the verified summaries of the optimize run exactly."""

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("problem2") / "data"
        assert main(["gen-data", "--problem", "problem2", "--count", "40", "--seed", "1",
                     "--threads", "2", "--out", str(out)]) == 0
        return out

    @staticmethod
    def optimize(capsys, tmp_path, **exp):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"problem": "problem2", "seed": 1, **exp}))
        code, _, err = run_cli(capsys, "optimize", "--experiment", str(path),
                               "--out", str(tmp_path / "run"))
        assert code == 0, err
        record = json.loads((tmp_path / "run" / "run_record.json").read_text())
        assert_resolves_to(capsys, tmp_path, "problem2", record["best"]["genes"],
                           record["fem_verified"])
        return record

    @staticmethod
    def train(capsys, tmp_path, dataset, command, *flags):
        model = tmp_path / f"{command}.json"
        code, _, err = run_cli(capsys, command, "--dataset", str(dataset), "--out", str(model),
                               *flags)
        assert code == 0, err
        return str(model)

    @pytest.mark.parametrize("problem, count", [("problem2", 6), ("problem1", 3)])
    def test_dataset_row(self, capsys, tmp_path, problem, count):
        code, _, err = run_cli(capsys, "gen-data", "--problem", problem, "--count", str(count),
                               "--seed", "1", "--threads", "2", "--out", str(tmp_path / "data"))
        assert code == 0, err
        row = json.loads((tmp_path / "data" / "train.ndjson").read_text().splitlines()[0])
        assert_resolves_to(capsys, tmp_path, problem, row["genes"], row)

    def test_fem_only_optimum(self, capsys, tmp_path):
        self.optimize(capsys, tmp_path, **tiny_experiment(case="case2", sigma_star=None))

    def test_surrogate_optimum(self, capsys, tmp_path, dataset):
        stress = self.train(capsys, tmp_path, dataset, "train-stress")
        record = self.optimize(capsys, tmp_path, case="case1", sigma_star=0,
                               models={"stress": stress},
                               ga={"population_size": 8, "max_generations": 2})
        assert record["eval_source_totals"]["fem"] == 0

    def test_operator_optimum(self, capsys, tmp_path, dataset):
        models = {"stress": self.train(capsys, tmp_path, dataset, "train-stress",
                                       "--max-samples", "20"),
                  "temperature": self.train(capsys, tmp_path, dataset, "train-temp",
                                            "--max-samples", "10")}
        record = self.optimize(capsys, tmp_path, case="case3", sigma_star=0, models=models,
                               ga={"population_size": 8, "max_generations": 2})
        # no FEM solve in the GA: the operator scored the temperature limit of every child
        assert record["eval_source_totals"]["fem"] == 0
        assert isinstance(record["surrogate_theta_rel_error"], float)


class TestVerify:
    # verify's reporting on stand-in checks; tests/test_fem.py::TestVerificationSuite runs
    # the real ones
    def run_verify(self, capsys, monkeypatch, *checks):
        monkeypatch.setattr(verification, "run_all", lambda: list(checks))
        return run_cli(capsys, "verify")

    def test_verify_passes(self, capsys, monkeypatch):
        code, out, err = self.run_verify(capsys, monkeypatch,
                                         verification.Check("first", 2.5e-16, 1e-13),
                                         verification.Check("second", 1e-8, 1e-8))
        assert code == 0
        assert out.splitlines() == ["PASS  first: measured 2.500e-16 (tolerance 1e-13)",
                                    "PASS  second: measured 1.000e-08 (tolerance 1e-08)"]
        assert "failed" not in err

    def test_a_failing_check_exits_2(self, capsys, monkeypatch):
        code, out, err = self.run_verify(capsys, monkeypatch,
                                         verification.Check("holds", 3e-15, 1e-12),
                                         verification.Check("breaks", 4.2e-6, 1e-8))
        assert code == 2
        assert out.splitlines() == ["PASS  holds: measured 3.000e-15 (tolerance 1e-12)",
                                    "FAIL  breaks: measured 4.200e-06 (tolerance 1e-08)"]
        assert "1 verification check(s) failed" in err.splitlines()
