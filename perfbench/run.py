"""fgmopt benchmark: one workload per call, or every workload with ``--workload all``.

    python3 perfbench/run.py --workload p1-label --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: fgmopt is imported from ``src/`` there.
With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced replays of the same
rounds and reports the per-layer metrics and the tracing overhead.  Both
modes run the correctness gate.  Human-readable lines come first, a record
with the machine stamp goes to ``.perfbench_out/``, and the last line of
stdout is the JSON result.  Exit code 0: correct result; 1: the correctness
gate failed; 2: the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import logging
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("p1-label", "p1-surrogate-ga", "p2-design")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7  # cold set-ups per untraced run, spread evenly over it
SOLVER_INITS_TRACED = 3  # solver constructions timed in every traced run


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


class _RedrawCounter(logging.Handler):
    """Counts the SingularSystem redraws that fgmopt.pipeline logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    """Threads numpy's OpenBLAS will use, asked of the library when it answers."""
    import numpy

    for lib in sorted((pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fgmopt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_stamp(seed: int, threads: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


def prepare_environment() -> int:
    """Pin BLAS threads, make src/ importable; returns the BLAS thread count."""
    if not (ROOT / "src" / "fgmopt" / "__init__.py").is_file():
        raise BenchmarkError(f"no fgmopt sources under {ROOT / 'src'}")
    for var in BLAS_ENV:
        os.environ.setdefault(var, "1")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    threads = blas_threads()
    if threads > nproc():
        raise BenchmarkError(f"BLAS would use {threads} threads on {nproc()} cores; "
                             f"set OPENBLAS_NUM_THREADS to at most {nproc()}")
    return threads


def _setup_seconds(wl) -> tuple:
    """One cold set-up: (seconds at the nominal reference speed, raw seconds)."""
    import reference

    before = reference.reference_seconds()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), ",".join(wl.problems),
                           *map(str, wl.models())],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
    raw = float(proc.stdout.split()[-1])
    after = reference.reference_seconds()
    return raw * reference.NOMINAL_S / ((before + after) / 2), raw


def _trace_metrics(tracing, tracer, ok, errors) -> dict:
    """Per-layer metrics from the traced rounds; checks that round 0 replays exactly."""
    first = next((e for e in ok if e["label"] == "0-traced"), None)
    repeat = next((e for e in ok if e["label"] == "0-repeat"), None)
    overhead = []
    for r in sorted({e["round"] for e in ok}):
        walls = {e["traced"]: e["wall_s"] for e in ok if e["round"] == r and e["label"] != "0-repeat"}
        if len(walls) == 2:
            overhead.append(walls[True] / walls[False] - 1.0)
    if first is None or repeat is None or not overhead:
        errors.append("traced round 0 did not complete twice next to an untraced round")
        return {"metrics": {}}
    metrics, details = tracing.layer_metrics(tracer, first["label"], first["bytes_written"],
                                             first["redraws"], statistics.median(overhead))
    again, _ = tracing.layer_metrics(tracer, repeat["label"], repeat["bytes_written"],
                                     repeat["redraws"], 0.0)
    for m in tracing.COUNT_METRICS:
        if metrics[m]["value"] != again[m]["value"]:
            errors.append(f"{m} changed on replay: {metrics[m]['value']} then {again[m]['value']}")
    if first["files"] != repeat["files"]:
        errors.append("traced replay of round 0 wrote different outputs")
    return {"metrics": metrics, "layer_details": details, "trace_overhead_samples": overhead}


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=None,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload for about ``seconds``; returns the full record."""
    import reference
    import tracer as tracing
    import workloads
    from fgmopt import fem, problems

    work = ROOT / ".perfbench_work" / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    redraws = _RedrawCounter()
    logging.getLogger("fgmopt.pipeline").addHandler(redraws)
    wl = workloads.WORKLOADS[name](work, seed, sizes or workloads.Sizes())
    tracer = tracing.Tracer() if trace else None
    rounds = []  # one dict per attempted round
    errors = []
    try:
        wl.prepare()
        setup = []
        ref_stresses, ref_errors = workloads.check_reference_stresses()
        errors += ref_errors
        if tracer:
            with tracer.installed():
                for _ in range(SOLVER_INITS_TRACED):
                    for pid in wl.problems:
                        fem.ThermoelasticSolver(problems.get_problem(pid))

        def attempt(r, label, traced):
            out = work / f"round{r}-{label}"
            before = redraws.count
            entry = {"round": r, "label": label, "traced": traced}
            try:
                if traced:
                    tracer.round = label
                    with tracer.installed():
                        t0 = time.perf_counter()
                        res = wl.run_round(r, out)
                        entry["wall_s"] = time.perf_counter() - t0
                else:
                    t0 = time.perf_counter()
                    res = wl.run_round(r, out)
                    entry["wall_s"] = time.perf_counter() - t0
            except Exception:  # noqa: BLE001 - an aborted round is counted, the run goes on
                traceback.print_exc()
                entry.update(ok=False, items=wl.planned_items())
            else:
                entry.update(ok=True, items=res.items, stages=res.stages, rates=res.rates,
                             files=res.files, bytes_written=res.bytes_written)
                errors.extend(f"round {label}: {e}" for e in res.errors)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            entry["redraws"] = redraws.count - before
            rounds.append(entry)
            return entry

        if not trace:
            reference.reference_seconds()  # warm-up
            ref_after = reference.reference_seconds()
        start = time.perf_counter()
        r = 0
        while True:
            if trace:
                # alternate which side goes first; round 0 is traced twice so
                # that the exact counts are seen to repeat within every run
                order = [("plain", False), ("traced", True)]
                if r % 2:
                    order.reverse()
                pair = {t: attempt(r, f"{r}-{lbl}", t) for lbl, t in order}
                if r == 0:
                    attempt(0, "0-repeat", True)
                if pair[False].get("ok") and pair[True].get("ok") and \
                        pair[False]["files"] != pair[True]["files"]:
                    errors.append(f"round {r}: traced and untraced outputs differ")
            else:
                # the reference kernel runs before the round, between its
                # stages and after it; each stage is scaled by its neighbours
                marks = [ref_after]
                wl.between_stages = lambda: marks.append(reference.reference_seconds())
                entry = attempt(r, f"{r}-plain", False)
                ref_after = reference.reference_seconds()
                marks.append(ref_after)
                if entry["ok"]:
                    entry["reference_s"] = marks
                    entry["round_ref"] = sum(
                        t / ((a + b) / 2) for t, a, b in zip(entry["stages"].values(), marks,
                                                             marks[1:]))
                # set-up samples are spread over the run so that they see the
                # same machine as the rounds do
                if len(setup) < setup_repeats and \
                        time.perf_counter() - start >= len(setup) * seconds / setup_repeats:
                    setup.append(_setup_seconds(wl))
            r += 1
            walls = [e["wall_s"] for e in rounds if "wall_s" in e]
            per_iteration = (2 if trace else 1) * (statistics.median(walls) if walls else 0.0)
            if time.perf_counter() - start + per_iteration > seconds:
                break
        while not trace and len(setup) < setup_repeats:
            setup.append(_setup_seconds(wl))
    finally:
        logging.getLogger("fgmopt.pipeline").removeHandler(redraws)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            work.parent.rmdir()

    ok = [e for e in rounds if e["ok"]]
    attempted = sum(e["items"] + e["redraws"] for e in rounds)
    failed = sum(e["redraws"] + (0 if e["ok"] else e["items"]) for e in rounds)
    if not ok:
        errors.append("no round completed")
    record = {
        "workload": name,
        "trace": int(trace),
        "sizes": vars(wl.sizes),
        "setup_s_samples": [scaled for scaled, _ in setup],
        "setup_raw_s_samples": [raw for _, raw in setup],
        "reference_sigma_e_max": ref_stresses,
        "rounds": [{k: v for k, v in e.items() if k != "files"} for e in rounds],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "errors": errors,
    }
    plain = [e for e in ok if not e["traced"]]
    record["stage_rates"] = {k: statistics.median(e["rates"][k] for e in plain)
                             for k in (plain[0]["rates"] if plain else {})}
    if trace:
        record.update(_trace_metrics(tracing, tracer, ok, errors))
    elif plain:
        record["round_s"] = statistics.median(sum(e["stages"].values()) for e in plain)
        record["reference_s"] = statistics.median(t for e in plain for t in e["reference_s"])
        record["metrics"] = {
            "setup_s": {"value": statistics.median(scaled for scaled, _ in setup), "unit": "s"},
            "round_ref": {"value": statistics.median(e["round_ref"] for e in plain),
                          "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        record["metrics"] = {}
    record["correct"] = not errors and bool(record["metrics"])
    if tracer:
        record["spans_file"] = str(_write_spans(tracer, name, seed))
    return record


def _out_dir() -> pathlib.Path:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    return out


def _write_spans(tracer, name, seed) -> pathlib.Path:
    path = _out_dir() / f"SPANS_{name}_seed{seed}.ndjson.gz"
    tracer.write_spans(path)
    return path.relative_to(ROOT)


def report(record: dict, stamp: dict) -> dict:
    """Print the human-readable lines, write the record; returns the result line."""
    record["stamp"] = stamp
    print(f"workload {record['workload']}  trace {record['trace']}  " +
          "  ".join(f"{k} {v}" for k, v in stamp.items()))
    for name, m in record["metrics"].items():
        detail = record.get("layer_details", {}).get(name, {})
        extra = "".join(f"  {k} {v:.6g}" for k, v in detail.items()
                        if k.startswith("p")) + (f"  n {detail['n']}" if detail else "")
        value = f"{m['value']:.6g}" if isinstance(m["value"], float) else m["value"]
        print(f"{name} {value} {m['unit']}{extra}")
    if "round_s" in record:
        print(f"round {record['round_s']:.6g} s  reference kernel {record['reference_s']:.6g} s  "
              f"set-up {statistics.median(record['setup_raw_s_samples']):.6g} s, unscaled")
    for name, value in record["stage_rates"].items():
        print(f"stage {name} {value:.6g} 1/s")
    for pid, sigma in record["reference_sigma_e_max"].items():
        print(f"gate reference {pid} sigma_e_max {sigma:.6g} Pa")
    print(f"fail_frac {record['fail_frac']:.6g} ({record['failed']} of {record['attempted']})")
    for e in record["errors"]:
        print(f"GATE FAILED: {e}")
    path = _out_dir() / f"BENCH_{record['workload']}_seed{stamp['seed']}_trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(f"record {path.relative_to(ROOT)}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": record["metrics"]}


def run_all(args) -> int:
    """Every workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode == 2 or not lines:
            print(f"error: workload {name} did not run", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        threads = prepare_environment()
        if args.workload == "all":
            return run_all(args)
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        result = report(record, machine_stamp(args.seed, threads))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
