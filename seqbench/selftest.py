"""Fast self-test of the benchmark's output checks; needs no seqguard run.

    python3 seqbench/selftest.py

Builds a small, correct output directory by hand, confirms every check
passes on it, then corrupts one file at a time and confirms the check
meant to catch it fails. Writes only under ``seqbench_out/selftest``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from checks import (
    arm_checks,
    brute_force_auc,
    check_judge,
    confusion,
    prf,
)

CONFIG = {
    "sample_size": 0,
    "window": {"window_length": 8, "stride": 8},
    "train": {"epochs": 2, "batch_size": 2, "grad_accum_steps": 1},
    "judge": {"model": "judge"},
}
LABELS = {"blk_1": 0, "blk_2": 1, "blk_3": 0, "blk_4": 0, "blk_5": 1, "blk_6": 0, "blk_7": 0}
TRAIN = ["blk_1", "blk_2", "blk_3"]
VAL = ["blk_4", "blk_5", "blk_6", "blk_7"]
# One normal window outscores the anomaly: fp=1, AUC = 2/3 by hand.
SCORES = {"blk_4": 0.2, "blk_5": 0.7, "blk_6": 0.9, "blk_7": 0.1}


def _truth() -> dict:
    blocks = {}
    for blk, label in LABELS.items():
        kinds = ["receiving", "responder", "deleting"]
        if label:
            kinds.insert(2, "corrupt")
        blocks[blk] = {"label": label, "kinds": kinds}
    lines = sum(len(b["kinds"]) for b in blocks.values())
    kinds = sorted({k for b in blocks.values() for k in b["kinds"]})
    return {"lines": lines, "kinds": kinds, "blocks": blocks}


def _dump(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _write_windows(path: str, blocks: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for blk in blocks:
            handle.write(json.dumps({"window_id": f"{blk}#0", "event_ids": [3, 4, 5],
                                     "label": LABELS[blk]}) + "\n")


def _write_scores(arm_dir: str, scores: dict) -> None:
    with open(os.path.join(arm_dir, "scores.csv"), "w", encoding="utf-8") as handle:
        handle.write("window_id,score,label\n")
        for blk in VAL:
            handle.write(f"{blk}#0,{scores[blk]!r},{LABELS[blk]}\n")


def build(arm_dir: str, truth: dict) -> None:
    shutil.rmtree(arm_dir, ignore_errors=True)
    os.makedirs(arm_dir)
    _dump(os.path.join(arm_dir, "parse_stats.json"),
          {"lines_parsed": truth["lines"], "lines_rejected": 0, "templates": len(truth["kinds"])})
    _write_windows(os.path.join(arm_dir, "train.jsonl"), TRAIN)
    _write_windows(os.path.join(arm_dir, "val.jsonl"), VAL)
    _dump(os.path.join(arm_dir, "train_summary.json"),
          {"executed_steps": 4, "planned_steps": 4, "skipped_step_events": []})
    _write_scores(arm_dir, SCORES)
    _dump(os.path.join(arm_dir, "eval_metrics.json"), {
        "counts": {"tp": 1, "fp": 1, "tn": 2, "fn": 0},
        "precision": 0.5, "recall": 1.0, "f1": 2 / 3, "auc": 2 / 3,
    })
    with open(os.path.join(arm_dir, "judge_verdicts.jsonl"), "w", encoding="utf-8") as handle:
        for blk in VAL:
            handle.write(json.dumps({"window_id": f"{blk}#0", "label": LABELS[blk]}) + "\n")
    with open(os.path.join(arm_dir, "comparison.csv"), "w", encoding="utf-8") as handle:
        handle.write("model,accuracy,precision,recall,f1,unparseable\njudge,1.0,1.0,1.0,1.0,0\n")


def _failed(results) -> set[str]:
    return {name for name, ok, _ in results if not ok}


def main() -> int:
    problems = []

    def expect(label: str, got, want) -> None:
        if got != want:
            problems.append(f"{label}: got {got}, expected {want}")

    expect("auc all ties", brute_force_auc([0.5] * 4, [0, 1, 0, 1]), 0.5)
    expect("auc by hand", brute_force_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]), 0.75)
    expect("prf", prf(confusion([0.9, 0.6, 0.2], [1, 0, 1])), (0.5, 0.5, 0.5))

    truth = _truth()
    arm = os.path.join("seqbench_out", "selftest")
    build(arm, truth)
    expect("clean outputs", _failed(arm_checks(arm, truth, CONFIG)), set())
    expect("clean judge", check_judge(arm, truth, CONFIG, "judge", 0)[1], True)

    corruptions = {
        # One score moved across the threshold: counts and pairwise AUC change.
        "flipped score": (lambda: _write_scores(arm, dict(SCORES, blk_5=0.15)),
                          {"confusion", "auc"}),
        # Same ranking and counts, so only the [0, 1] range check can see it.
        "score above one": (lambda: _write_scores(arm, dict(SCORES, blk_6=1.5)), {"scores"}),
        "val window in train": (lambda: _write_windows(os.path.join(arm, "train.jsonl"),
                                                       TRAIN + ["blk_4"]), {"split"}),
        "skipped step": (lambda: _dump(os.path.join(arm, "train_summary.json"), {
            "executed_steps": 3, "planned_steps": 4, "skipped_step_events": ["step 2"]}),
            {"steps"}),
        "rejected line": (lambda: _dump(os.path.join(arm, "parse_stats.json"), {
            "lines_parsed": truth["lines"] - 1, "lines_rejected": 1,
            "templates": len(truth["kinds"])}), {"parse"}),
        "missing file": (lambda: os.remove(os.path.join(arm, "eval_metrics.json")),
                         {"confusion", "auc"}),
    }
    for label, (corrupt, want) in corruptions.items():
        build(arm, truth)
        corrupt()
        expect(label, _failed(arm_checks(arm, truth, CONFIG)), want)

    build(arm, truth)
    expect("judge conflicts", check_judge(arm, truth, CONFIG, "judge", 1)[1], False)
    with open(os.path.join(arm, "judge_verdicts.jsonl"), "w", encoding="utf-8") as handle:
        for blk in VAL:
            handle.write(json.dumps({"window_id": f"{blk}#0", "label": 1}) + "\n")
    expect("judge false positives", check_judge(arm, truth, CONFIG, "judge", 0)[1], False)

    shutil.rmtree(arm, ignore_errors=True)
    for problem in problems:
        print(f"selftest FAILED {problem}")
    if problems:
        return 1
    print(f"selftest ok: {3 + 2 + len(corruptions) + 2} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
