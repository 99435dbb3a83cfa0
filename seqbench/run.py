"""seqguard benchmark: one workload per call, run from the repository root.

    python3 seqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's corpus and config from --seed under
``seqbench_out/``, times the set-up in several fresh probe processes, runs
the workload in one fresh measured process (worker.py), checks the
program's outputs against the corpus ground truth (checks.py) and prints
the metrics. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 2 without a result when the checkout has no seqguard sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from checks import workload_checks
from corpus import write_corpus
from layers import PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
# A run must end within 180 s; leave room for the checks after the worker.
WORKER_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "parse_lines_per_s": "lines/s",
    "train_windows_per_s": "windows/s",
    "score_windows_per_s": "windows/s",
    "peak_rss_mb": "MiB",
}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: at these shapes a second one gives no speed-up, and its
    # spin-waits make times depend on whether the host steals the other vCPU.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # The judge runs from fixtures only; a key would allow live calls.
    env.pop("SEQGUARD_API_KEY", None)
    return env


def run_worker(args: list[str], env: dict, root: str, log_path: str, timeout: float) -> None:
    with open(log_path, "a", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")] + args,
            cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT, timeout=timeout,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}; see {log_path}")


def load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def count_lines(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())


def end_to_end(result: dict, setups: list[float], truth: dict, workload) -> dict:
    parse_s = train_s = eval_s = 0.0
    lines = train_windows = scored = 0
    for rnd in result["rounds"]:
        for call in rnd["stages"]:
            if call["stage"] == "parse":
                parse_s += call["cpu_seconds"]
                lines += truth["lines"]
            elif call["stage"] == "train":
                train_s += call["cpu_seconds"]
                n_train = count_lines(os.path.join(call["out_dir"], "train.jsonl"))
                train_windows += n_train * workload.epochs
            elif call["stage"] == "eval":
                eval_s += call["cpu_seconds"]
                scored += count_lines(os.path.join(call["out_dir"], "val.jsonl"))
    return {
        "wall_s": statistics.median(r["wall_s"] for r in result["rounds"]),
        "setup_s": statistics.median(setups),
        "parse_lines_per_s": lines / parse_s if parse_s else 0.0,
        "train_windows_per_s": train_windows / train_s if train_s else 0.0,
        "score_windows_per_s": scored / eval_s if eval_s else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "seqguard", "cli.py")):
        print("no seqguard sources under src/; run from the repository root", file=sys.stderr)
        return 2
    begun = time.monotonic()
    workload = WORKLOADS[args.workload]
    work = os.path.join(root, "seqbench_out", f"{workload.name}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    # Inputs: written before any measured process starts.
    truth = write_corpus(os.path.join(work, "hdfs.log"), os.path.join(work, "labels.csv"),
                         os.path.join(work, "truth.json"), workload.shape, args.seed)
    config = dict(workload.config, logs=os.path.join(work, "hdfs.log"),
                  labels=os.path.join(work, "labels.csv"), seed=args.seed)
    with open(os.path.join(work, "config.json"), "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=2)

    env = child_env(root)
    log_path = os.path.join(work, "worker.log")
    common = ["--workload", workload.name, "--work", work]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                run_worker(common + ["--probe"], env, root, log_path, 60.0)
            setups = [load_json(os.path.join(work, name))["setup_s"]
                      for name in sorted(os.listdir(work))
                      if name.startswith("probe") and name.endswith(".json")]
        timeout = WORKER_TIMEOUT_S - (time.monotonic() - begun)
        run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                   env, root, log_path, timeout)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    result = load_json(os.path.join(work, "result.json"))
    setups.append(result["setup_s"])

    attempted = failed = 0
    for rnd in result["rounds"]:
        stage_failures = sum(1 for call in rnd["stages"] if not call["ok"])
        checks = workload_checks(workload, rnd["out_dir"], truth, config,
                                 rnd["fixture_conflicts"])
        attempted += len(rnd["stages"]) + len(checks)
        failed += stage_failures + sum(1 for _, ok, _ in checks if not ok)
        for name, ok, detail in checks:
            print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    correct = failed == 0

    if args.trace:
        values = result["per_layer"]
        units = PER_LAYER
        traced_wall = statistics.median(r["wall_s"] for r in result["rounds"])
        print(f"traced wall_s: {traced_wall:.3f} s")
    else:
        values = end_to_end(result, setups, truth, workload)
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name}: {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    if correct:
        shutil.rmtree(work, ignore_errors=True)
    else:
        print(f"outputs kept in {work}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
