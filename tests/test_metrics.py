"""Confusion counts, scalar metrics, and rank-based AUC against brute force."""

from __future__ import annotations

import numpy as np
import pytest

from seqguard.metrics import (
    ConfusionCounts,
    LengthMismatch,
    OneClassOnly,
    confusion,
    format_confusion,
    full_report,
    roc_auc,
    roc_curve,
    scalar_metrics,
    write_roc_csv,
)


class TestConfusion:
    def test_threshold_is_inclusive(self):
        c = confusion([0.5, 0.49], [1, 1], threshold=0.5)
        assert (c.tp, c.fn) == (1, 1)

    def test_counts(self):
        scores = [0.9, 0.2, 0.8, 0.1]
        labels = [1, 1, 0, 0]
        c = confusion(scores, labels, threshold=0.5)
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)
        assert c.total == 4

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([0.5], [1, 0])

    def test_label_validation(self):
        with pytest.raises(ValueError):
            confusion([0.5], [2])

    def test_format_grid(self):
        text = format_confusion(ConfusionCounts(tp=6, fp=0, tn=291, fn=3))
        assert text == "TP=6 FP=0\nFN=3 TN=291\n"


class TestScalarMetrics:
    def test_review_table_counts(self):
        # 6/0/3/291 gives 0.990 / 1.000 / 0.667 / 0.800.
        m = scalar_metrics(ConfusionCounts(tp=6, fp=0, tn=291, fn=3))
        assert m["accuracy"] == pytest.approx(0.990, abs=5e-4)
        assert m["precision"] == pytest.approx(1.000, abs=5e-4)
        assert m["recall"] == pytest.approx(0.667, abs=5e-4)
        assert m["f1"] == pytest.approx(0.800, abs=5e-4)

    def test_all_negative_prediction(self):
        m = scalar_metrics(ConfusionCounts(tp=0, fp=0, tn=291, fn=9))
        assert m["accuracy"] == pytest.approx(0.970, abs=5e-4)
        assert m["precision"] == 0.0
        assert m["recall"] == 0.0
        assert m["f1"] == 0.0

    def test_perfect(self):
        m = scalar_metrics(ConfusionCounts(tp=10, fp=0, tn=90, fn=0))
        assert m == {"accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_zero_division_conventions(self):
        # No predicted positives: precision 0; no actual positives: recall 0.
        assert scalar_metrics(ConfusionCounts(0, 0, 5, 5))["precision"] == 0.0
        assert scalar_metrics(ConfusionCounts(0, 3, 7, 0))["recall"] == 0.0
        assert scalar_metrics(ConfusionCounts(0, 0, 1, 0))["f1"] == 0.0


def _brute_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def _midrank_auc(scores, labels):
    """Mann-Whitney U from average ranks, one tie group at a time."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    order = np.argsort(s, kind="stable")
    ranks = np.empty(s.size)
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and s[order[j + 1]] == s[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return (float(ranks[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class TestAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_inverted(self):
        assert roc_auc([0.1, 0.9], [1, 0]) == 0.0

    def test_all_tied_is_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(OneClassOnly):
            roc_auc([0.5, 0.6], [1, 1])

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            n = int(rng.integers(2, 501))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            if trial % 3 == 0:
                scores = rng.integers(0, 4, size=n) / 4.0  # heavy ties
            else:
                scores = rng.random(n)
            got = roc_auc(scores.tolist(), labels.tolist())
            expect = _brute_auc(scores, labels)
            assert abs(got - expect) <= 1e-12, f"trial {trial}"

    def test_bitwise_equal_to_midrank_formula(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            n = int(rng.integers(2, 400))
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1
            levels = int(rng.integers(1, 6)) if trial % 2 else 0
            scores = rng.integers(0, levels, size=n) / levels if levels else rng.random(n)
            got = roc_auc(scores.tolist(), labels.tolist())
            assert got == _midrank_auc(scores, labels), f"trial {trial}"

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.random(80)
        labels = rng.integers(0, 2, size=80)
        labels[0], labels[1] = 0, 1
        base = roc_auc(scores.tolist(), labels.tolist())
        squashed = roc_auc((1 / (1 + np.exp(-5 * scores))).tolist(), labels.tolist())
        assert squashed == pytest.approx(base, abs=1e-12)

    def test_complement_symmetry(self):
        # Flipping labels and negating scores preserves the statistic.
        rng = np.random.default_rng(1)
        scores = rng.random(60)
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 0, 1
        a = roc_auc(scores.tolist(), labels.tolist())
        b = roc_auc((-scores).tolist(), (1 - labels).tolist())
        assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("metric", [confusion, roc_auc, roc_curve])
def test_non_finite_score_rejected(metric, bad):
    with pytest.raises(ValueError, match="not finite"):
        metric([0.9, bad, 0.1], [1, 0, 0])


class TestRocCurve:
    def test_starts_at_origin_ends_at_corner(self):
        points = roc_curve([0.9, 0.6, 0.4, 0.2], [1, 0, 1, 0])
        assert points[0][0] == float("inf")
        assert (points[0][1], points[0][2]) == (0.0, 0.0)
        assert (points[-1][1], points[-1][2]) == (1.0, 1.0)

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(3)
        scores = rng.random(50).tolist()
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        points = roc_curve(scores, labels.tolist())
        fprs = [p[1] for p in points]
        tprs = [p[2] for p in points]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)

    def test_thresholds_unique_descending(self):
        points = roc_curve([0.5, 0.5, 0.3, 0.9], [1, 0, 0, 1])
        thresholds = [p[0] for p in points]
        assert thresholds == sorted(thresholds, reverse=True)
        assert len(set(thresholds)) == len(thresholds)

    @pytest.mark.parametrize("case", ["ties", "one_class"])
    def test_rows_match_confusion_at_every_threshold(self, case):
        rng = np.random.default_rng(17)
        scores = (rng.integers(0, 12, size=400) / 11.0).tolist()  # heavy ties
        if case == "ties":
            labels = rng.integers(0, 2, size=400).tolist()
        else:
            labels = [1] * 400
        n_pos, n_neg = sum(labels), len(labels) - sum(labels)
        expected = []
        for t in [float("inf")] + sorted(set(scores), reverse=True):
            c = confusion(scores, labels, t)
            expected.append(
                (t, c.fp / n_neg if n_neg else 0.0, c.tp / n_pos if n_pos else 0.0)
            )
        assert roc_curve(scores, labels) == expected

    def test_csv_export(self, tmp_path):
        path = tmp_path / "roc.csv"
        write_roc_csv(str(path), roc_curve([0.9, 0.1], [1, 0]))
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert len(lines) == 4


class TestFullReport:
    def test_report_fields(self):
        report = full_report([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], threshold=0.5)
        assert report.accuracy == 1.0
        assert report.auc == 1.0
        assert report.counts.tp == 2
        assert report.threshold == 0.5
        d = report.to_dict()
        assert set(d) >= {"accuracy", "precision", "recall", "f1", "auc", "counts"}

    def test_single_class_auc_nan(self):
        report = full_report([0.9, 0.8], [1, 1], threshold=0.5)
        assert np.isnan(report.auc)
        assert report.recall == 1.0
