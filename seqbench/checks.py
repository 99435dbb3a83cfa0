"""Output checks, computed from the corpus ground truth and the program's files.

Nothing here imports seqguard: confusion counts, precision, recall, F1 and
AUC are recomputed from each ``scores.csv`` and the generator's labels, and
split and step counts from the ground truth and the experiment config.
Each check returns ``(name, ok, detail)``; a check that raises (say, on a
missing file) counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

THRESHOLD = 0.5
FLOAT_TOL = 1e-12
AUC_TOL = 1e-9


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def read_windows(path: str) -> dict[str, int]:
    """window_id -> label of a window JSONL file."""
    out = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                obj = json.loads(line)
                out[obj["window_id"]] = int(obj["label"])
    return out


def read_scores(path: str) -> tuple[list[str], list[float], list[int]]:
    ids, scores, labels = [], [], []
    with open(path, encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            ids.append(row["window_id"])
            scores.append(float(row["score"]))
            labels.append(int(row["label"]))
    return ids, scores, labels


def truth_windows(truth: dict, window_length: int) -> dict[str, int]:
    """Every window of the corpus with its label: one per block, as no
    session is longer than the window."""
    longest = max(len(b["kinds"]) for b in truth["blocks"].values())
    if longest > window_length:
        raise ValueError(f"a session of {longest} lines exceeds the window {window_length}")
    return {f"{blk}#0": b["label"] for blk, b in truth["blocks"].items()}


def confusion(scores, labels, threshold: float = THRESHOLD) -> dict[str, int]:
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for s, y in zip(scores, labels):
        if s >= threshold:
            counts["tp" if y == 1 else "fp"] += 1
        else:
            counts["fn" if y == 1 else "tn"] += 1
    return counts


def prf(c: dict[str, int]) -> tuple[float, float, float]:
    precision = c["tp"] / (c["tp"] + c["fp"]) if c["tp"] + c["fp"] else 0.0
    recall = c["tp"] / (c["tp"] + c["fn"]) if c["tp"] + c["fn"] else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def brute_force_auc(scores, labels) -> float:
    """Share of (anomalous, normal) pairs ranked correctly; ties count half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1], s[y == 0]
    wins = 0.0
    for lo in range(0, pos.size, 256):
        chunk = pos[lo : lo + 256, None]
        wins += float((chunk > neg[None, :]).sum()) + 0.5 * float((chunk == neg[None, :]).sum())
    return wins / (pos.size * neg.size)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def check_parse(arm_dir: str, truth: dict):
    stats = _load_json(os.path.join(arm_dir, "parse_stats.json"))
    want = {"lines_parsed": truth["lines"], "lines_rejected": 0, "templates": len(truth["kinds"])}
    got = {key: stats[key] for key in want}
    return "parse", got == want, f"{got} expected {want}"


def check_split(arm_dir: str, truth: dict, config: dict):
    pool = truth_windows(truth, config["window"]["window_length"])
    train = read_windows(os.path.join(arm_dir, "train.jsonl"))
    val = read_windows(os.path.join(arm_dir, "val.jsonl"))
    union = {**train, **val}
    problems = []
    if set(train) & set(val):
        problems.append(f"{len(set(train) & set(val))} windows in both splits")
    if not set(union) <= set(pool):
        problems.append("windows that the corpus does not have")
    elif any(union[w] != pool[w] for w in union):
        problems.append("window labels differ from the ground truth")
    pool_anomalous = sum(pool.values())
    sample = config.get("sample_size", 0)
    if sample and sample < len(pool):
        want_total, want_anomalous = sample, _round_half_up(sample * pool_anomalous / len(pool))
    else:
        want_total, want_anomalous = len(pool), pool_anomalous
    got = (len(union), sum(union.values()))
    if got != (want_total, want_anomalous):
        problems.append(f"(windows, anomalous) {got} expected {(want_total, want_anomalous)}")
    return "split", not problems, "; ".join(problems) or f"{len(train)} train / {len(val)} val"


def check_steps(arm_dir: str, config: dict):
    summary = _load_json(os.path.join(arm_dir, "train_summary.json"))
    n_train = len(read_windows(os.path.join(arm_dir, "train.jsonl")))
    t = config["train"]
    micro = math.ceil(n_train / t["batch_size"])
    planned = t["epochs"] * math.ceil(micro / t["grad_accum_steps"])
    got = (summary["executed_steps"], summary["planned_steps"], len(summary["skipped_step_events"]))
    return "steps", got == (planned, planned, 0), f"(executed, planned, skipped) {got}, {planned} planned"


def check_scores(arm_dir: str, truth: dict, config: dict):
    val = read_windows(os.path.join(arm_dir, "val.jsonl"))
    ids, scores, labels = read_scores(os.path.join(arm_dir, "scores.csv"))
    pool = truth_windows(truth, config["window"]["window_length"])
    problems = []
    if sorted(ids) != sorted(val):
        problems.append("scored windows differ from the val split")
    if any(labels[i] != pool.get(w) for i, w in enumerate(ids)):
        problems.append("score labels differ from the ground truth")
    outside = sum(1 for s in scores if not 0.0 <= s <= 1.0)
    if outside:
        problems.append(f"{outside} scores outside [0, 1]")
    return "scores", not problems, "; ".join(problems) or f"{len(ids)} scores in [0, 1]"


def _truth_scores(arm_dir: str, truth: dict, config: dict) -> tuple[list[float], list[int]]:
    pool = truth_windows(truth, config["window"]["window_length"])
    ids, scores, _ = read_scores(os.path.join(arm_dir, "scores.csv"))
    return scores, [pool[w] for w in ids]


def check_confusion(arm_dir: str, truth: dict, config: dict):
    scores, labels = _truth_scores(arm_dir, truth, config)
    reported = _load_json(os.path.join(arm_dir, "eval_metrics.json"))
    counts = confusion(scores, labels)
    precision, recall, f1 = prf(counts)
    ok = (
        counts == reported["counts"]
        and abs(precision - reported["precision"]) <= FLOAT_TOL
        and abs(recall - reported["recall"]) <= FLOAT_TOL
        and abs(f1 - reported["f1"]) <= FLOAT_TOL
    )
    return "confusion", ok, f"recomputed {counts} f1={f1:.6f}, reported f1={reported['f1']:.6f}"


def check_auc(arm_dir: str, truth: dict, config: dict):
    scores, labels = _truth_scores(arm_dir, truth, config)
    reported = _load_json(os.path.join(arm_dir, "eval_metrics.json"))["auc"]
    auc = brute_force_auc(scores, labels)
    return "auc", abs(auc - reported) <= AUC_TOL, f"pairwise {auc:.12f}, reported {reported:.12f}"


def arm_checks(arm_dir: str, truth: dict, config: dict) -> list:
    return [
        _guarded(check_parse, arm_dir, truth),
        _guarded(check_split, arm_dir, truth, config),
        _guarded(check_steps, arm_dir, config),
        _guarded(check_scores, arm_dir, truth, config),
        _guarded(check_confusion, arm_dir, truth, config),
        _guarded(check_auc, arm_dir, truth, config),
    ]


def check_ablation(out_dir: str, truth: dict, config: dict):
    """Criterion 09's property on recomputed F1: C >= 0.95 and C >= B >= A."""
    f1 = {}
    for arm in ("A", "B", "C"):
        scores, labels = _truth_scores(os.path.join(out_dir, f"arm_{arm}"), truth, config)
        f1[arm] = prf(confusion(scores, labels))[2]
    summary = _load_json(os.path.join(out_dir, "ablation_summary.json"))
    reported = {row["arm"]: row["f1"] for row in summary["rows"]}
    agree = all(abs(reported[arm] - f1[arm]) <= FLOAT_TOL for arm in f1)
    ok = agree and f1["C"] >= 0.95 and f1["C"] >= f1["B"] >= f1["A"]
    detail = " ".join(f"{arm}={value:.4f}" for arm, value in f1.items())
    return "ablation", ok, f"F1 {detail}" + ("" if agree else f"; summary says {reported}")


def check_judge(out_dir: str, truth: dict, config: dict, judge_model: str, conflicts: int):
    """The fixtures answer by the ground truth, so the judge must be exact:
    tp = val anomalies, fp = fn = 0."""
    pool = truth_windows(truth, config["window"]["window_length"])
    val = read_windows(os.path.join(out_dir, "val.jsonl"))
    verdicts = {}
    with open(os.path.join(out_dir, "judge_verdicts.jsonl"), encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                obj = json.loads(line)
                verdicts[obj["window_id"]] = obj["label"]
    problems = []
    if conflicts:
        problems.append(f"{conflicts} prompts shared by windows with different answers")
    if set(verdicts) != set(val):
        problems.append("verdicts do not cover exactly the val windows")
    else:
        scores = [float(verdicts[w] or 0) for w in val]
        counts = confusion(scores, [pool[w] for w in val])
        want_tp = sum(pool[w] for w in val)
        if (counts["tp"], counts["fp"], counts["fn"]) != (want_tp, 0, 0):
            problems.append(f"verdict counts {counts}, expected tp={want_tp} fp=fn=0")
    with open(os.path.join(out_dir, "comparison.csv"), encoding="utf-8", newline="") as handle:
        rows = {row["model"]: row for row in csv.DictReader(handle)}
    row = rows.get(judge_model)
    if row is None or float(row["precision"]) != 1.0 or float(row["recall"]) != 1.0:
        problems.append(f"comparison judge row {row}")
    return "judge", not problems, "; ".join(problems) or f"{len(val)} verdicts exact"


def _guarded(check, *args):
    try:
        return check(*args)
    except (OSError, KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return check.__name__.removeprefix("check_"), False, f"{type(exc).__name__}: {exc}"


def workload_checks(workload, out_dir: str, truth: dict, config: dict, conflicts: int) -> list:
    """Every check of one round; the number of checks is fixed per workload."""
    if workload.flow == "ablate":
        results = []
        for arm in ("A", "B", "C"):
            results += arm_checks(os.path.join(out_dir, f"arm_{arm}"), truth, config)
        return results + [_guarded(check_ablation, out_dir, truth, config)]
    results = arm_checks(out_dir, truth, config)
    if "judge" in workload.stages:
        results.append(_guarded(check_judge, out_dir, truth, config,
                                config["judge"]["model"], conflicts))
    return results
