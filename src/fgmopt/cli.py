"""Batch command-line interface.

Subcommands: gen-data, train-stress, train-temp, optimize, eval-profile,
export-field, verify.  Results go to stdout (JSON) or to files; one JSON log
line per major stage (with wall time), one JSON progress line per GA
generation of optimize, one JSON warning line when gen-data leaves a split
empty, and all error messages go to stderr.
Exit codes: 0 success, 1 invalid input, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import pathlib
import sys
import time

from . import neural, pipeline, problems, version_fingerprint
from .errors import FgmoptError, naming
from .fem import ThermoelasticSolver, write_result_files
from .profiles import genes_from_dict, genes_to_profiles, tensor_product


def _stage(name: str, t0: float):
    print(json.dumps({"stage": name, "wall_s": round(time.perf_counter() - t0, 3)}),
          file=sys.stderr)


def _profile_for(args):
    """Resolve the (config, profile) pair for eval/export.

    --power-law evaluates on the problem's published reference configuration
    (reference materials or mode; the three-layer field for problem1 along
    y); --genes decodes on the shipped optimization configuration.
    """
    if args.genes is not None:
        config = problems.get_problem(args.problem)
        with naming(args.genes):
            genes = genes_from_dict(json.loads(pathlib.Path(args.genes).read_text()),
                                    config.nx, config.ny)
            px, py = genes_to_profiles(genes, config.nx, config.ny)
        return config, tensor_product(px, py)
    config = problems.reference_config(args.problem)
    profile = problems.reference_profile(args.problem, args.power_law, args.axis)
    return config, profile


def _add_profile_flags(p):
    p.add_argument("--problem", required=True, choices=problems.PROBLEM_IDS)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--power-law", type=float, metavar="M",
                     help="reference power-law gradation with index M")
    src.add_argument("--genes", metavar="FILE",
                     help="JSON gene file decoded on the optimization config")
    p.add_argument("--axis", choices=("x", "y", "xy"), default="y",
                   help="gradation axis for --power-law (default y)")


def cmd_gen_data(args) -> int:
    t0 = time.perf_counter()
    manifest = pipeline.generate_dataset(args.problem, args.count, args.seed,
                                         args.out, threads=args.threads)
    _stage("gen-data", t0)
    empty = [split for split in ("train", "test") if manifest[f"n_{split}"] == 0]
    if empty:  # the split rounds 80/20, so a small count leaves one side without samples
        print(json.dumps({"warning": "empty split", "splits": empty, "count": args.count}),
              file=sys.stderr)
    print(json.dumps(manifest, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    dataset = pipeline.load_dataset(args.dataset)
    _stage("load-dataset", t0)
    t0 = time.perf_counter()
    model, history = args.train(dataset, args.seed, max_samples=args.max_samples)
    _stage(args.command, t0)
    for path in filter(None, (args.out, args.history)):  # both before either is written
        pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
    neural.save_model(model, args.out)
    if args.history:
        neural.history_to_csv(history, args.history)
    print(json.dumps({"model": str(args.out),
                      "train_r2": history[-1].get("train_r2"),
                      "test_r2": history[-1].get("test_r2")}, sort_keys=True))
    return 0


@contextlib.contextmanager
def _ga_progress_to_stderr():
    """Show the GA's per-generation JSON lines (``fgmopt.ga`` at INFO) on stderr."""
    ga_log = logging.getLogger("fgmopt.ga")
    handler, level = logging.StreamHandler(sys.stderr), ga_log.level
    ga_log.addHandler(handler)
    ga_log.setLevel(logging.INFO)
    try:
        yield
    finally:
        ga_log.removeHandler(handler)
        ga_log.setLevel(level)


def cmd_optimize(args) -> int:
    t0 = time.perf_counter()
    with naming(args.experiment):
        exp = json.loads(pathlib.Path(args.experiment).read_text())
    with _ga_progress_to_stderr():
        bundle = pipeline.run_experiment(exp, args.out, seed=args.seed)
    _stage("optimize", t0)
    print(json.dumps({"out": str(args.out),
                      "best_objective": bundle["best"]["objective"],
                      "fem_verified": bundle["fem_verified"]}, sort_keys=True))
    return 0


def cmd_eval_profile(args) -> int:
    t0 = time.perf_counter()
    config, profile = _profile_for(args)
    result = ThermoelasticSolver(config).run(profile)
    _stage("eval-profile", t0)
    out = {"problem": args.problem, "config": config.name, **result.summary()}
    text = json.dumps(out, sort_keys=True)
    if args.out:
        pathlib.Path(args.out).write_text(text)
    print(text)
    return 0


def cmd_export_field(args) -> int:
    t0 = time.perf_counter()
    config, profile = _profile_for(args)
    result = ThermoelasticSolver(config).run(profile)
    write_result_files(result, args.out)
    _stage("export-field", t0)
    print(json.dumps({"out": str(args.out), **result.summary()}, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    from .verification import run_all

    t0 = time.perf_counter()
    checks = run_all()
    _stage("verify", t0)
    failed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name}: measured {c.measured:.3e} (tolerance {c.tolerance:.0e})")
        failed += not c.passed
    if failed:
        print(f"{failed} verification check(s) failed", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fgmopt",
        description="Gradation design for two-phase graded plates: FEM, surrogates, GA.")
    p.add_argument("--version", action="version",
                   version=json.dumps(version_fingerprint(), sort_keys=True))
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate an FEM-labelled profile dataset")
    g.add_argument("--problem", required=True, choices=problems.PROBLEM_IDS)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--threads", type=int, default=1,
                   help="worker processes; results are identical for any value")
    g.set_defaults(fn=cmd_gen_data)

    for name, train, text in (
            ("train-stress", pipeline.train_stress_model, "train the peak-stress regressor"),
            ("train-temp", pipeline.train_temperature_model,
             "train the temperature-field operator")):
        t = sub.add_parser(name, help=text)
        t.add_argument("--dataset", required=True)
        t.add_argument("--out", required=True)
        t.add_argument("--seed", type=int, default=0)
        t.add_argument("--max-samples", type=int, default=None,
                       help="cap on samples used (80/20 of the cap)")
        t.add_argument("--history", default=None, help="write per-epoch metrics CSV here")
        t.set_defaults(fn=cmd_train, train=train)

    o = sub.add_parser("optimize", help="run a configured GA experiment")
    o.add_argument("--experiment", required=True, help="experiment JSON file")
    o.add_argument("--out", required=True)
    o.add_argument("--seed", type=int, default=None, help="override the experiment's seed")
    o.set_defaults(fn=cmd_optimize)

    e = sub.add_parser("eval-profile", help="solve one gradation and print summaries")
    _add_profile_flags(e)
    e.add_argument("--out", default=None, help="also write the JSON summary here")
    e.set_defaults(fn=cmd_eval_profile)

    x = sub.add_parser("export-field", help="solve one gradation and export field CSVs")
    _add_profile_flags(x)
    x.add_argument("--out", required=True)
    x.set_defaults(fn=cmd_export_field)

    v = sub.add_parser("verify", help="run the FEM verification suite")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags; remap to 1
        if exc.code not in (0, None):
            return 1
        return 0
    try:
        return args.fn(args)
    except (FgmoptError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (OSError, KeyError, ValueError)) else 2
    except Exception as exc:  # noqa: BLE001 - report and map to runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
