"""Confusion statistics, threshold classification, and rank-based ROC-AUC."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_THRESHOLD = 0.5


class LengthMismatch(ValueError):
    pass


class OneClassOnly(ValueError):
    """AUC is undefined without at least one positive and one negative."""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float
    counts: ConfusionCounts
    threshold: float

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "auc": self.auc,
            "counts": {
                "tp": self.counts.tp,
                "fp": self.counts.fp,
                "tn": self.counts.tn,
                "fn": self.counts.fn,
            },
            "threshold": self.threshold,
        }


def _check_pairs(scores: Sequence[float], labels: Sequence[int]) -> None:
    if len(scores) != len(labels):
        raise LengthMismatch(f"{len(scores)} scores vs {len(labels)} labels")
    if not scores:
        raise LengthMismatch("empty score list")
    for y in labels:
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y!r}")


def confusion(
    scores: Sequence[float], labels: Sequence[int], threshold: float = DEFAULT_THRESHOLD
) -> ConfusionCounts:
    """Tally counts predicting anomalous exactly when score >= threshold."""
    _check_pairs(scores, labels)
    tp = fp = tn = fn = 0
    for s, y in zip(scores, labels):
        pred = 1 if s >= threshold else 0
        if pred == 1 and y == 1:
            tp += 1
        elif pred == 1 and y == 0:
            fp += 1
        elif pred == 0 and y == 0:
            tn += 1
        else:
            fn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def scalar_metrics(c: ConfusionCounts) -> dict[str, float]:
    """Accuracy/precision/recall/F1 with explicit zero-division conventions.

    Degenerate denominators yield 0.0 so an all-negative predictor is
    representable rather than an error.
    """
    if c.total <= 0:
        raise ValueError("confusion counts are empty")
    accuracy = (c.tp + c.tn) / c.total
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else 0.0
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Mann-Whitney AUC via average ranks; ties between classes credit 0.5."""
    _check_pairs(scores, labels)
    y = np.asarray(labels, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly(f"need both classes, got {n_pos} positives / {n_neg} negatives")

    order = np.argsort(s, kind="stable")
    ranks = np.empty(s.size, dtype=np.float64)
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and s[order[j + 1]] == s[order[i]]:
            j += 1
        # Midrank over the tie group; ranks are 1-based.
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def full_report(
    scores: Sequence[float], labels: Sequence[int], threshold: float = DEFAULT_THRESHOLD
) -> MetricsReport:
    counts = confusion(scores, labels, threshold)
    scalars = scalar_metrics(counts)
    try:
        auc = roc_auc(scores, labels)
    except OneClassOnly:
        auc = float("nan")
    return MetricsReport(
        accuracy=scalars["accuracy"],
        precision=scalars["precision"],
        recall=scalars["recall"],
        f1=scalars["f1"],
        auc=auc,
        counts=counts,
        threshold=threshold,
    )


def roc_curve(
    scores: Sequence[float], labels: Sequence[int]
) -> list[tuple[float, float, float]]:
    """(threshold, fpr, tpr) rows sweeping every distinct score, high to low.

    The leading +inf threshold pins the (0, 0) corner; the lowest score
    yields the all-positive corner (1, 1) when every score is classified in.
    """
    _check_pairs(scores, labels)
    y = np.asarray(labels, dtype=np.int64)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    # One stable descending sort; the counts at the last index of each run
    # of equal scores are the confusion counts at that score as threshold.
    s = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order]
    last = np.append(s[1:] != s[:-1], True)
    tp = np.cumsum(y)[last].tolist()
    fp = np.cumsum(1 - y)[last].tolist()
    rows = [(float("inf"), 0.0, 0.0)]
    for t, f, p in zip(s[last].tolist(), fp, tp):
        rows.append((t, f / n_neg if n_neg > 0 else 0.0, p / n_pos if n_pos > 0 else 0.0))
    return rows


def write_roc_csv(path: str, rows: Sequence[tuple[float, float, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["threshold", "fpr", "tpr"])
        for t, fpr, tpr in rows:
            writer.writerow([str(t), str(fpr), str(tpr)])


def format_confusion(c: ConfusionCounts) -> str:
    """Two-line grid used in the plain-text report."""
    return f"TP={c.tp} FP={c.fp}\nFN={c.fn} TN={c.tn}\n"
