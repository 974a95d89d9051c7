#!/usr/bin/env python3
"""Benchmark of the ionmodes package, end to end and per module.

    python3 perfbench/run.py --workload tables|negativity-scan|fock-rotated \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each round runs the workload in a fresh
Python process (perfbench/worker.py) against the sources in src/, so every
cache starts empty as in a CLI call.  Rounds repeat until S seconds have
passed; with --trace 0 the run first times three bare imports.  The
first round's outputs get the full correctness checks of
perfbench/checks.py, and every later round must reproduce them; each check
runs after the round's process has ended.  The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, medians over the run's rounds
(setup_s also over the bare imports).  --trace 1 alternates traced and
untraced rounds and reports the per-module metrics of the traced ones,
with the tracing overhead as traced minus untraced median wall time.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
from inputs import WORKLOADS
from spans import SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "ionmodes", "data")
WORKER = os.path.join(HERE, "worker.py")

IMPORT_SAMPLES = 3
ROUND_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
LAYER_UNITS = dict(
    [(name + ".self_s", "s") for name in SPAN_NAMES]
    + [(name + ".calls", "count") for name in SPAN_NAMES]
    + [("scalar_field.entry_hit_ratio", "ratio"),
       ("gaussian.fidelity_evals_per_search", "count"),
       ("golden.worst_margin", "ratio"),
       ("trace.overhead_s", "s")])


class RoundFailed(RuntimeError):
    pass


def describe_machine():
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def spawn(out_dir, *worker_args):
    """One worker process; its result.json, or RoundFailed."""
    os.makedirs(out_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    log_path = os.path.join(out_dir, "worker.log")
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run([sys.executable, WORKER, "--out", out_dir, *worker_args],
                                  cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RoundFailed("worker exceeded %d s" % ROUND_TIMEOUT_S) from None
    if proc.returncode != 0:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise RoundFailed("worker exited with code %d:\n%s" % (proc.returncode, tail))
    with open(os.path.join(out_dir, "result.json")) as fh:
        return json.load(fh)


def check(workload, seed, out_dir, result, first=None):
    """Full checks of a round run with --evidence; a later round (first
    given) must reproduce the first round's values."""
    if workload == "tables":
        return checks.check_tables(result["outputs"], DATA)
    if workload == "negativity-scan":
        if first is not None:
            return checks.check_repeat(first["outputs"]["values"], result["outputs"]["values"],
                                       checks.negativity_close)
        with np.load(os.path.join(out_dir, "evidence.npz")) as states:
            return checks.check_negativity(seed, result["outputs"], result["evidence"], states)
    if first is not None:
        return checks.check_repeat(sum(first["outputs"]["deficits"], []),
                                   sum(result["outputs"]["deficits"], []), checks.deficit_close)
    return checks.check_fock(seed, result["outputs"], result["evidence"])


def measure(args, work):
    setups = []
    if not args.trace:
        for k in range(IMPORT_SAMPLES):
            setups.append(spawn(os.path.join(work, "import%d" % k), "--import-only")["setup_s"])
    rounds = []  # (traced, result, verdict)
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 0
        out_dir = os.path.join(work, "round%d" % len(rounds))
        worker_args = ["--workload", args.workload, "--seed", str(args.seed)]
        if not rounds:
            worker_args.append("--evidence")
        if traced:
            worker_args.append("--trace")
        result = spawn(out_dir, *worker_args)
        first = rounds[0][1] if rounds else None
        verdict = check(args.workload, args.seed, out_dir, result, first)
        shutil.rmtree(out_dir)
        rounds.append((traced, result, verdict))
        print("round %d%s: wall_s %.4f cpu_s %.3f peak_rss_mib %.1f setup_s %.4f, "
              "%d attempted, %d failed, %d problems"
              % (len(rounds), " (traced)" if traced else "", result["wall_s"], result["cpu_s"],
                 result["peak_rss_mib"], result["setup_s"], verdict.attempted,
                 verdict.failed, len(verdict.problems)))
        for problem in verdict.problems[:10]:
            print("  problem: " + problem)
        kinds = {t for t, _, _ in rounds}
        if time.monotonic() - start >= args.seconds and len(kinds) == (2 if args.trace else 1):
            break
    return setups, rounds


def metrics(args, setups, rounds):
    def median(key, traced=False):
        return statistics.median(r[key] for t, r, _ in rounds if t == traced)

    if not args.trace:
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for _, r, _ in rounds]),
            "wall_s": median("wall_s"),
            "cpu_s": median("cpu_s"),
            "peak_rss_mib": median("peak_rss_mib"),
        }
        units = END_TO_END_UNITS
    else:
        layers = [r["layers"] for t, r, _ in rounds if t]
        values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        values["golden.worst_margin"] = max(v.worst_margin for _, _, v in rounds)
        values["trace.overhead_s"] = median("wall_s", True) - median("wall_s")
        units = LAYER_UNITS
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    print("machine: " + json.dumps(describe_machine(), sort_keys=True))
    work = os.path.join(ROOT, ".bench_build", "perfbench-%d" % os.getpid())
    try:
        setups, rounds = measure(args, work)
    except RoundFailed as exc:
        sys.stderr.write("benchmark round failed: %s\n" % exc)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": all(not v.problems for _, _, v in rounds),
        "attempted": sum(v.attempted for _, _, v in rounds),
        "failed": sum(v.failed for _, _, v in rounds),
        "metrics": metrics(args, setups, rounds),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
