"""Training loop: step arithmetic, determinism, learnability, divergence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqguard.losses import LOSS_CROSS_ENTROPY, LOSS_FOCAL, FocalParams, classification_loss
from seqguard.metrics import full_report
from seqguard.model import ModelConfig, ModelParams, classifier_logits, last_real_index
from seqguard.optim import Diverged, lr_schedule
from seqguard.sessions import PAD_ID, DatasetSplit, LabeledWindow
from seqguard.tensor import Tape
from seqguard.training import (
    EmptySplit,
    TrainConfig,
    evaluate,
    planned_steps,
    train,
    write_curve_csv,
    write_epochs_csv,
)

from conftest import sentinel_pool, tiny_model


def _split(seed=0, n=120, rate=0.1):
    from seqguard.sessions import split as split_fn

    return split_fn(sentinel_pool(seed, n, anomaly_rate=rate), 0.8, seed=seed)


TRAIN_SEED = 5


def _toy_config(**overrides):
    base = dict(
        learning_rate=1e-2,
        epochs=1,
        batch_size=16,
        grad_accum_steps=1,
        loss=LOSS_FOCAL,
    )
    base.update(overrides)
    return TrainConfig(**base)


def _toy_model(seed=1):
    return ModelParams(
        ModelConfig(vocab_size=10, d_model=16, n_heads=2, n_layers=1, d_ff=32, max_seq_len=8),
        seed=seed,
    )


class TestConfig:
    def test_defaults(self):
        c = TrainConfig()
        assert c.learning_rate == 2e-5
        assert c.grad_accum_steps == 4
        assert c.loss == LOSS_FOCAL

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(warmup_fraction=1.0)
        with pytest.raises(ValueError):
            TrainConfig(loss="hinge")
        with pytest.raises(ValueError, match="alpha"):
            TrainConfig(alpha=0.0)
        with pytest.raises(ValueError, match="gamma"):
            TrainConfig(gamma=-1.0)


class TestStepArithmetic:
    def test_planned_steps_with_accumulation(self):
        # 2700 windows at batch 8 is 338 micro-batches; groups of 4 make
        # 85 optimizer steps per epoch, the last group running short.
        c = TrainConfig(batch_size=8, grad_accum_steps=4, epochs=1)
        assert planned_steps(2700, c) == 85
        assert planned_steps(2700, TrainConfig(batch_size=8, grad_accum_steps=4, epochs=3)) == 255

    def test_planned_steps_exact_division(self):
        c = TrainConfig(batch_size=10, grad_accum_steps=2, epochs=1)
        assert planned_steps(100, c) == 5

    def test_curve_length_matches_plan(self):
        split = _split()
        c = _toy_config(batch_size=8, grad_accum_steps=2, epochs=2)
        result = train(_toy_model(), split, c, TRAIN_SEED)
        assert result.total_steps == planned_steps(len(split.train), c)
        assert len(result.curve) == result.total_steps
        assert [p.step for p in result.curve] == list(range(1, result.total_steps + 1))

    def test_curve_lr_follows_schedule(self):
        split = _split()
        c = _toy_config(epochs=2, warmup_fraction=0.25)
        result = train(_toy_model(), split, c, TRAIN_SEED)
        total = result.total_steps
        for point in result.curve:
            assert point.lr == lr_schedule(point.step, total, c.learning_rate, 0.25)
        assert result.curve[-1].lr == 0.0


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        outs = []
        for _ in range(2):
            result = train(_toy_model(seed=2), _split(), _toy_config(), TRAIN_SEED)
            outs.append(result)
        a, b = outs
        assert [(p.step, p.loss, p.lr) for p in a.curve] == [
            (p.step, p.loss, p.lr) for p in b.curve
        ]
        for name in a.best_state:
            assert np.array_equal(a.best_state[name], b.best_state[name])

    def test_shuffle_seed_changes_curve(self):
        a = train(_toy_model(seed=2), _split(), _toy_config(), seed=5)
        b = train(_toy_model(seed=2), _split(), _toy_config(), seed=6)
        assert [p.loss for p in a.curve] != [p.loss for p in b.curve]

    def test_accumulation_matches_single_batch(self):
        # One group of two half-batches must realize the same mean
        # gradient as the full batch, so the first step agrees closely.
        windows = sentinel_pool(3, 16, anomaly_rate=0.25)
        split = DatasetSplit(
            train=windows[:8], val=windows[8:], test=[], seed=0, train_fraction=0.5
        )
        whole = train(
            _toy_model(seed=4), split, _toy_config(batch_size=8, grad_accum_steps=1), TRAIN_SEED
        )
        halves = train(
            _toy_model(seed=4), split, _toy_config(batch_size=4, grad_accum_steps=2), TRAIN_SEED
        )
        assert whole.total_steps == halves.total_steps == 1
        for name in whole.best_state:
            assert np.allclose(whole.best_state[name], halves.best_state[name], atol=1e-12)


class TestLearnability:
    def test_separable_pool_reaches_perfect_f1_in_one_epoch(self):
        split = _split(seed=1, n=3000, rate=0.08)
        model = ModelParams(
            ModelConfig(vocab_size=10, d_model=32, n_heads=2, n_layers=1, d_ff=64, max_seq_len=8),
            seed=1,
        )
        result = train(model, split, _toy_config(learning_rate=2e-2), TRAIN_SEED)
        assert result.best_f1 == 1.0
        assert result.epoch_rows[0].f1 == 1.0

    def test_cross_entropy_also_learns(self):
        split = _split(seed=2, n=600, rate=0.08)
        config = _toy_config(loss=LOSS_CROSS_ENTROPY, epochs=3)
        result = train(_toy_model(seed=1), split, config, TRAIN_SEED)
        assert result.best_f1 >= 0.9

    def test_best_checkpoint_tracks_max_f1(self):
        split = _split(seed=3, n=300, rate=0.1)
        result = train(_toy_model(seed=1), split, _toy_config(epochs=3), TRAIN_SEED)
        best_row = max(result.epoch_rows, key=lambda r: (r.f1, -r.val_loss))
        assert result.best_f1 == best_row.f1
        assert result.best_epoch == best_row.epoch

    def test_best_state_reproduces_reported_f1(self):
        split = _split(seed=4, n=300, rate=0.1)
        result = train(_toy_model(seed=1), split, _toy_config(epochs=2), TRAIN_SEED)
        probe = _toy_model(seed=9)
        probe.load_state(result.best_state)
        report, val_loss, scores = evaluate(probe, split.val, LOSS_FOCAL, FocalParams())
        assert report.f1 == result.best_f1
        # The returned scores and loss are the best state's, bit for bit.
        assert np.array_equal(scores, result.best_scores)
        assert val_loss == result.best_val_loss


class TestGuards:
    def test_empty_train_split(self):
        windows = sentinel_pool(0, 10, anomaly_rate=0.5)
        split = DatasetSplit(train=[], val=windows, test=[], seed=0, train_fraction=0.9)
        with pytest.raises(EmptySplit):
            train(_toy_model(), split, _toy_config(), TRAIN_SEED)

    def test_single_class_val_split(self):
        windows = sentinel_pool(0, 20, anomaly_rate=0.5)
        val = [w for w in windows if w.label == 0][:4]
        split = DatasetSplit(train=windows, val=val, test=[], seed=0, train_fraction=0.9)
        with pytest.raises(EmptySplit):
            train(_toy_model(), split, _toy_config(), TRAIN_SEED)

    def test_repeated_non_finite_losses_diverge(self):
        split = _split(seed=5, n=80, rate=0.2)
        config = _toy_config(learning_rate=1e12, max_grad_norm=1e18, epochs=10)
        with np.errstate(all="ignore"):
            with pytest.raises(Diverged):
                train(_toy_model(), split, config, TRAIN_SEED)


    def test_epoch_with_non_finite_scores_is_never_best(self):
        # The weights go non-finite in epoch 3 after one skipped step, too
        # few to stop training.
        split = _split(seed=5, n=80, rate=0.2)
        config = _toy_config(learning_rate=1e20, max_grad_norm=1e18, epochs=3, batch_size=32)
        with np.errstate(all="ignore"):
            result = train(_toy_model(), split, config, TRAIN_SEED)
        assert [row.epoch for row in result.epoch_rows] == [1, 2]
        assert result.best_epoch in (1, 2)
        assert np.all(np.isfinite(result.best_scores))
        assert result.events[-1] == "epoch 3: 16 of 16 scores are not finite, not selectable"

class TestEvaluate:
    def test_scores_align_with_forward(self):
        params = _toy_model(seed=7)
        windows = sentinel_pool(1, 30, anomaly_rate=0.3)
        report, loss, scores = evaluate(params, windows, LOSS_FOCAL, FocalParams())
        tape = Tape(record=False)
        logits = classifier_logits(
            tape,
            params,
            [w.event_ids for w in windows],
            [last_real_index(w.event_ids) for w in windows],
        )
        direct = tape.softmax_rows(logits).data[:, 1]
        assert np.allclose(scores, direct, atol=1e-12)
        assert loss > 0.0
        assert 0.0 <= report.accuracy <= 1.0

    def test_batching_invariant(self):
        params = _toy_model(seed=8)
        windows = sentinel_pool(2, 50, anomaly_rate=0.3)
        _, loss_a, scores_a = evaluate(params, windows, LOSS_FOCAL, FocalParams(), batch_size=7)
        _, loss_b, scores_b = evaluate(params, windows, LOSS_FOCAL, FocalParams(), batch_size=50)
        assert np.allclose(scores_a, scores_b, atol=1e-12)
        assert loss_a == pytest.approx(loss_b, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptySplit):
            evaluate(_toy_model(), [], LOSS_FOCAL, FocalParams())


def _evaluate_per_window(params, windows, loss_kind, focal, batch_size=32):
    """The model run once per window, ``batch_size`` windows at a time: the
    loop ``evaluate`` replaced, kept as its reference."""
    scores = np.zeros(len(windows))
    loss_total = 0.0
    for lo in range(0, len(windows), batch_size):
        chunk = windows[lo : lo + batch_size]
        tape = Tape(record=False)
        logits = classifier_logits(
            tape,
            params,
            np.array([w.event_ids for w in chunk], dtype=np.int64),
            np.array([last_real_index(w.event_ids) for w in chunk], dtype=np.int64),
        )
        labels = np.array([w.label for w in chunk], dtype=np.int64)
        loss = classification_loss(tape, logits, labels, loss_kind, focal)
        loss_total += loss.item() * len(chunk)
        scores[lo : lo + len(chunk)] = tape.softmax_rows(logits).data[:, 1]
    report = full_report(list(scores), [w.label for w in windows])
    return report, loss_total / len(windows), scores


# One event-id row: 1 to 8 real ids (3..9), then padding to length 8.
_rows = st.lists(st.integers(3, 9), min_size=1, max_size=8).map(
    lambda ids: tuple(ids + [PAD_ID] * (8 - len(ids)))
)


@st.composite
def _windows_with_repeats(draw):
    """Windows drawn with replacement from a small pool of rows, each with
    its own label, so a row can repeat under one label or both."""
    pool = draw(st.lists(_rows, min_size=1, max_size=12, unique=True))
    picks = draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.integers(0, 1)), min_size=1, max_size=40
    ))
    return [
        LabeledWindow(f"w{i}#0", list(pool[row]), label, pool[row].count(PAD_ID))
        for i, (row, label) in enumerate(picks)
    ]


class TestEvaluateDistinctRows:
    PARAMS = _toy_model(seed=11)

    @settings(max_examples=60, deadline=None)
    @given(
        windows=_windows_with_repeats(),
        batch_size=st.sampled_from([1, 2, 3, 5, 8, 32]),
        loss_kind=st.sampled_from([LOSS_FOCAL, LOSS_CROSS_ENTROPY]),
    )
    def test_matches_per_window_scoring(self, windows, batch_size, loss_kind):
        _, loss, scores = evaluate(
            self.PARAMS, windows, loss_kind, FocalParams(), batch_size=batch_size
        )
        _, ref_loss, ref_scores = _evaluate_per_window(
            self.PARAMS, windows, loss_kind, FocalParams(), batch_size
        )
        assert np.max(np.abs(scores - ref_scores)) <= 1e-15
        assert loss == pytest.approx(ref_loss, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(_rows, min_size=1, max_size=40, unique=True),
        labels=st.lists(st.integers(0, 1), min_size=40, max_size=40),
        batch_size=st.sampled_from([1, 3, 8, 32]),
        loss_kind=st.sampled_from([LOSS_FOCAL, LOSS_CROSS_ENTROPY]),
    )
    def test_distinct_rows_are_bitwise_equal(self, rows, labels, batch_size, loss_kind):
        windows = [
            LabeledWindow(f"w{i}#0", list(row), label, row.count(PAD_ID))
            for i, (row, label) in enumerate(zip(rows, labels))
        ]
        _, loss, scores = evaluate(
            self.PARAMS, windows, loss_kind, FocalParams(), batch_size=batch_size
        )
        _, ref_loss, ref_scores = _evaluate_per_window(
            self.PARAMS, windows, loss_kind, FocalParams(), batch_size
        )
        assert np.array_equal(scores, ref_scores)
        assert loss == ref_loss

    def test_one_row_under_both_labels(self):
        row = [4, 5, 6, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID]
        windows = [LabeledWindow(f"w{i}#0", row, i % 2, 5) for i in range(4)]
        report, loss, scores = evaluate(self.PARAMS, windows, LOSS_FOCAL, FocalParams())
        assert np.all(scores == scores[0])
        _, ref_loss, ref_scores = _evaluate_per_window(
            self.PARAMS, windows, LOSS_FOCAL, FocalParams()
        )
        assert np.max(np.abs(scores - ref_scores)) <= 1e-15
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert report.counts.tp + report.counts.fn == 2


class TestCsvExports:
    def test_curve_csv(self, tmp_path):
        result = train(_toy_model(), _split(), _toy_config(), TRAIN_SEED)
        path = tmp_path / "curve.csv"
        write_curve_csv(str(path), result.curve)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,lr"
        assert len(lines) == len(result.curve) + 1

    def test_epochs_csv(self, tmp_path):
        result = train(_toy_model(), _split(), _toy_config(epochs=2), TRAIN_SEED)
        path = tmp_path / "epochs.csv"
        write_epochs_csv(str(path), result.epoch_rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,accuracy,precision,recall,f1,auc"
        assert len(lines) == 3

    def test_csv_byte_stable(self, tmp_path):
        result = train(_toy_model(), _split(), _toy_config(), TRAIN_SEED)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curve_csv(str(p1), result.curve)
        write_curve_csv(str(p2), result.curve)
        assert p1.read_bytes() == p2.read_bytes()
