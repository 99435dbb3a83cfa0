"""The measured process: drives ``seqguard.cli.main`` in-process for one workload.

run.py starts it as a fresh process, with the checkout's ``src`` on
PYTHONPATH, after the corpus and config are written:

    python3 seqbench/worker.py --workload NAME --work DIR --seconds S --trace 0|1

It puts one timer around each stage call, runs whole rounds until
``--seconds`` have passed (at least one), and writes ``DIR/result.json``.
``--trace 1`` also wraps the layers' public functions (layers.py).
``--probe`` stops at the first stage call and reports only the set-up time,
so run.py can take the median set-up time over several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import time

from corpus import CORRUPT
from layers import Tracer
from workloads import WORKLOADS, Workload


class _Stop(BaseException):
    """Raised by a set-up probe at the first stage call; passes through cli.main."""


class StageClock:
    """Replacement for ``pipeline.run_stage`` that times every stage call."""

    def __init__(self, run_stage):
        self._run_stage = run_stage
        self.calls: list[dict] = []

    def __call__(self, name, config, **kwargs):
        start = time.perf_counter()
        cpu = time.process_time()
        ok = False
        try:
            result = self._run_stage(name, config, **kwargs)
            ok = True
            return result
        finally:
            self.calls.append({
                "stage": name,
                "out_dir": config.out_dir,
                "start": start,
                "seconds": time.perf_counter() - start,
                "cpu_seconds": time.process_time() - cpu,
                "ok": ok,
            })


def write_fixtures(out_dir: str, fixtures_dir: str, truth: dict, workload: Workload) -> int:
    """Judge fixtures answering ANOMALY exactly when the window's lines hold a
    corrupt-replica line, by the corpus ground truth. Returns the number of
    prompts that two windows with different answers share (0 when sound)."""
    from seqguard.drain import load_templates
    from seqguard.judge import build_prompt, prompt_hash, vocab_template_table
    from seqguard.sessions import read_windows_jsonl

    length = workload.window_length
    stride = workload.config["window"]["stride"]
    table = vocab_template_table(load_templates(os.path.join(out_dir, "templates.csv")))
    answers: dict[str, str] = {}
    conflicts = 0
    for window in read_windows_jsonl(os.path.join(out_dir, "val.jsonl"), length):
        block, _, index = window.window_id.rpartition("#")
        start = int(index) * stride
        kinds = truth["blocks"][block]["kinds"][start : start + length]
        answer = "ANOMALY" if CORRUPT in kinds else "NORMAL"
        key = prompt_hash(build_prompt(window, table))
        if answers.setdefault(key, answer) != answer:
            conflicts += 1
    os.makedirs(fixtures_dir, exist_ok=True)
    for key, answer in answers.items():
        body = {"choices": [{"message": {"content": answer}}]}
        with open(os.path.join(fixtures_dir, f"{key}.json"), "w", encoding="utf-8") as handle:
            json.dump(body, handle)
    return conflicts


def run_round(cli, workload: Workload, work: str, out_dir: str, clock: StageClock) -> dict:
    base = ["--config", os.path.join(work, "config.json"), "--out", out_dir]
    first_call = len(clock.calls)
    excluded = 0.0
    conflicts = 0
    codes = []
    if workload.flow == "ablate":
        codes.append(cli.main(["ablate"] + base))
    elif workload.flow == "run":
        codes.append(cli.main(["run"] + base))
    else:
        for stage in workload.stages:
            argv = [stage] + base
            if stage == "judge":
                started = time.perf_counter()
                with open(os.path.join(work, "truth.json"), encoding="utf-8") as handle:
                    truth = json.load(handle)
                fixtures = out_dir + "_fixtures"
                conflicts = write_fixtures(out_dir, fixtures, truth, workload)
                del truth
                argv += ["--fixtures", fixtures]
                excluded += time.perf_counter() - started
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
    ended = time.perf_counter()
    calls = clock.calls[first_call:]
    wall = ended - calls[0]["start"] - excluded if calls else 0.0
    return {
        "out_dir": out_dir,
        "exit_codes": codes,
        "wall_s": wall,
        "excluded_s": excluded,
        "fixture_conflicts": conflicts,
        "stages": calls,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    # Set-up: importing seqguard and resolving the config, up to the first stage call.
    started = time.perf_counter()
    from seqguard import cli, pipeline

    clock = StageClock(pipeline.run_stage)
    if args.probe:
        def stop(name, config, **kwargs):
            raise _Stop(time.perf_counter() - started)

        pipeline.run_stage = cli.run_stage = stop
        try:
            run_round(cli, workload, args.work, os.path.join(args.work, f"probe{os.getpid()}"),
                      clock)
        except _Stop as stop_signal:
            setup = stop_signal.args[0]
        else:
            raise RuntimeError("the workload made no stage call")
        _write_result(args.work, f"probe{os.getpid()}.json", {"setup_s": setup})
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    pipeline.run_stage = cli.run_stage = clock

    rounds = []
    measure_start = time.perf_counter()
    while True:
        out_dir = os.path.join(args.work, f"round{len(rounds)}")
        shutil.rmtree(out_dir, ignore_errors=True)
        rounds.append(run_round(cli, workload, args.work, out_dir, clock))
        failed = any(code != 0 for code in rounds[-1]["exit_codes"])
        if failed or time.perf_counter() - measure_start >= args.seconds:
            break

    result = {
        "setup_s": clock.calls[0]["start"] - started if clock.calls else None,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "per_layer": tracer.metrics(clock.calls, len(rounds)) if tracer else None,
    }
    _write_result(args.work, "result.json", result)
    return 0


def _write_result(work: str, name: str, payload: dict) -> None:
    with open(os.path.join(work, name), "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    raise SystemExit(main())
