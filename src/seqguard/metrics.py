"""Confusion statistics, threshold classification, and rank-based ROC-AUC."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .artifacts import write_table

DEFAULT_THRESHOLD = 0.5


class LengthMismatch(ValueError):
    pass


class OneClassOnly(ValueError):
    """AUC is undefined without at least one positive and one negative."""


class NonFiniteScore(ValueError):
    """A score is NaN or infinite, so the model that gave it has diverged."""


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


def _check_pairs(scores: Sequence[float], labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Scores as float64 and labels as int64. A non-finite score raises
    NonFiniteScore, so a diverged model cannot report a number."""
    if len(scores) != len(labels):
        raise LengthMismatch(f"{len(scores)} scores vs {len(labels)} labels")
    if not len(scores):
        raise LengthMismatch("empty score list")
    y = np.asarray(labels)
    bad = ~np.isin(y, (0, 1))
    if bad.any():
        raise ValueError(f"label must be 0 or 1, got {y[bad].tolist()[0]!r}")
    s = np.asarray(scores, dtype=np.float64)
    finite = np.isfinite(s)
    if not finite.all():
        raise NonFiniteScore(f"{int((~finite).sum())} of {s.size} scores are not finite")
    return s, y.astype(np.int64)


def confusion(
    scores: Sequence[float], labels: Sequence[int], threshold: float = DEFAULT_THRESHOLD
) -> ConfusionCounts:
    """Tally counts predicting anomalous exactly when score >= threshold."""
    s, y = _check_pairs(scores, labels)
    pred = s >= threshold
    positives = int(y.sum())
    tp = int(np.count_nonzero(pred & (y == 1)))
    fp = int(np.count_nonzero(pred)) - tp
    return ConfusionCounts(tp=tp, fp=fp, tn=y.size - positives - fp, fn=positives - tp)


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


def _ranked(
    scores: Sequence[float], labels: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct score, high to low, with the cumulative TP and FP counts
    when it is the threshold; one stable descending sort."""
    s, y = _check_pairs(scores, labels)
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order]
    # The counts at the last index of each run of equal scores.
    last = np.append(s[1:] != s[:-1], True)
    return s[last], np.cumsum(y)[last], np.cumsum(1 - y)[last]


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Mann-Whitney AUC; ties between classes credit 0.5.

    The ROC trapezoids sum to 2U in integers, so the result is the exact
    U / (P * N) rounded once, as the midrank formula gives it.
    """
    _, tp, fp = _ranked(scores, labels)
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly(f"need both classes, got {n_pos} positives / {n_neg} negatives")
    tp, fp = np.append(0, tp), np.append(0, fp)
    twice_u = int(np.sum(np.diff(fp) * (tp[1:] + tp[:-1])))
    return twice_u / (2 * n_pos * n_neg)


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
    thresholds, tp, fp = _ranked(scores, labels)
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    rows = [(float("inf"), 0.0, 0.0)]
    for t, f, p in zip(thresholds.tolist(), fp.tolist(), tp.tolist()):
        rows.append((t, f / n_neg if n_neg > 0 else 0.0, p / n_pos if n_pos > 0 else 0.0))
    return rows


def write_roc_csv(path: str, rows: Sequence[tuple[float, float, float]]) -> None:
    rows_out = ([str(t), str(f), str(p)] for t, f, p in rows)
    write_table(path, ["threshold", "fpr", "tpr"], rows_out)


def format_confusion(c: ConfusionCounts) -> str:
    """Two-line grid used in the plain-text report."""
    return f"TP={c.tp} FP={c.fp}\nFN={c.fn} TN={c.tn}\n"
