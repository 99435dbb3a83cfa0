"""Fine-tuning loop: AdamW, linear warmup, clipping, accumulation, curves.

One optimizer step consumes grad_accum_steps micro-batches; the logged
loss for the step is the size-weighted mean over the group so the curve
is comparable across uneven final groups. Non-finite losses skip the
step and abort after three consecutive skips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .artifacts import write_table
from .losses import LOSS_CROSS_ENTROPY, LOSS_FOCAL, FocalParams, classification_loss
from .metrics import DEFAULT_THRESHOLD, MetricsReport, NonFiniteScore, full_report
from .model import ModelParams, classifier_logits, last_real_index
from .optim import AdamW, Diverged, NonFiniteGradient, clip_gradients, lr_schedule
from .sessions import DatasetSplit, LabeledWindow
from .tensor import Tape, Tensor

MAX_CONSECUTIVE_SKIPS = 3


class EmptySplit(ValueError):
    """Training requires non-empty train and validation splits."""


@dataclass
class TrainConfig:
    """Fine-tuning settings; the ``train`` config section."""

    learning_rate: float = 2e-5
    epochs: int = 1
    batch_size: int = 8
    grad_accum_steps: int = 4
    max_grad_norm: float = 1.0
    warmup_fraction: float = 0.1
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    loss: str = LOSS_FOCAL
    alpha: float = 0.25
    gamma: float = 2.0
    threshold: float = DEFAULT_THRESHOLD
    pretrain_steps: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1 or self.grad_accum_steps < 1:
            raise ValueError("epochs, batch_size, grad_accum_steps must be >= 1")
        if self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if self.weight_decay < 0 or self.eps <= 0:
            raise ValueError("weight_decay must be >= 0 and eps > 0")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if self.pretrain_steps < 0:
            raise ValueError("pretrain_steps must be >= 0")
        if self.loss not in (LOSS_FOCAL, LOSS_CROSS_ENTROPY):
            raise ValueError(f"unknown loss kind {self.loss!r}")
        self.focal  # raises on a bad alpha or gamma

    @property
    def focal(self) -> FocalParams:
        return FocalParams(alpha=self.alpha, gamma=self.gamma)


@dataclass
class CurvePoint:
    step: int
    loss: float
    lr: float


@dataclass
class EpochRow:
    epoch: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float
    val_loss: float


@dataclass
class TrainResult:
    best_state: dict[str, np.ndarray]
    best_scores: np.ndarray  # val p_anomaly of best_state, in split.val order
    best_epoch: int
    best_f1: float
    best_val_loss: float
    curve: list[CurvePoint]
    epoch_rows: list[EpochRow]
    events: list[str]
    total_steps: int


def _stack(windows: Sequence[LabeledWindow]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ids = np.array([w.event_ids for w in windows], dtype=np.int64)
    labels = np.array([w.label for w in windows], dtype=np.int64)
    last = np.array([last_real_index(w.event_ids) for w in windows], dtype=np.int64)
    return ids, labels, last


def evaluate(
    params: ModelParams,
    windows: Sequence[LabeledWindow],
    loss_kind: str,
    focal: FocalParams,
    threshold: float = DEFAULT_THRESHOLD,
    batch_size: int = 32,
) -> tuple[MetricsReport, float, np.ndarray]:
    """Score every window; returns (report, mean loss, p_anomaly scores).

    The model runs once per distinct event-id row, in batches of
    ``batch_size`` rows in order of first appearance, and each window takes
    its row's logits. The loss and the scores are then taken over
    ``batch_size`` windows at a time in window order, so with no repeated
    row every batch, and so every output, is the one-pass-per-window result.
    """
    if not windows:
        raise EmptySplit("cannot evaluate an empty window list")
    ids, labels, last = _stack(windows)
    _, first, inverse = np.unique(ids, axis=0, return_index=True, return_inverse=True)
    # np.unique orders rows by value; renumber them by first appearance.
    order = np.argsort(first)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    rows = first[order]
    logits = np.empty((rows.size, 2))
    for lo in range(0, rows.size, batch_size):
        batch = rows[lo : lo + batch_size]
        tape = Tape(record=False)
        out = classifier_logits(tape, params, ids[batch], last[batch])
        logits[lo : lo + batch.size] = out.data
    window_logits = logits[position[inverse.reshape(-1)]]

    scores = np.zeros(len(windows))
    loss_total = 0.0
    for lo in range(0, len(windows), batch_size):
        chunk = Tensor(window_logits[lo : lo + batch_size])
        tape = Tape(record=False)
        loss = classification_loss(tape, chunk, labels[lo : lo + batch_size], loss_kind, focal)
        loss_total += loss.item() * chunk.rows
        scores[lo : lo + chunk.rows] = tape.softmax_rows(chunk).data[:, 1]
    report = full_report(list(scores), [w.label for w in windows], threshold)
    return report, loss_total / len(windows), scores


def planned_steps(n_train: int, tconfig: TrainConfig) -> int:
    micro = math.ceil(n_train / tconfig.batch_size)
    return tconfig.epochs * math.ceil(micro / tconfig.grad_accum_steps)


def train(
    params: ModelParams, split: DatasetSplit, tconfig: TrainConfig, seed: int
) -> TrainResult:
    """Run the fine-tuning loop; params end at the final state, the best
    (max validation F1, ties to lower validation loss) state is returned
    with its validation scores. An epoch whose validation scores are not
    finite is never the best; NonFiniteScore when no epoch's are."""
    if not split.train or not split.val:
        raise EmptySplit("train and val splits must both be non-empty")
    val_labels = {w.label for w in split.val}
    if val_labels != {0, 1}:
        raise EmptySplit("validation split must contain both classes")

    rng = np.random.default_rng(seed)
    dropout_rng = (
        np.random.default_rng([seed, 1])
        if params.config.dropout > 0
        else None
    )
    train_ids, train_labels, train_last = _stack(split.train)
    n_train = len(split.train)
    total_steps = planned_steps(n_train, tconfig)
    micro_per_epoch = math.ceil(n_train / tconfig.batch_size)
    focal = tconfig.focal

    optimizer = AdamW(
        params.parameters(),
        betas=(tconfig.beta1, tconfig.beta2),
        eps=tconfig.eps,
        weight_decay=tconfig.weight_decay,
    )

    curve: list[CurvePoint] = []
    epoch_rows: list[EpochRow] = []
    events: list[str] = []
    best: Optional[tuple[float, float, int, dict[str, np.ndarray], np.ndarray]] = None
    step = 0
    consecutive_skips = 0

    for epoch in range(1, tconfig.epochs + 1):
        order = rng.permutation(n_train)
        for group_start in range(0, micro_per_epoch, tconfig.grad_accum_steps):
            step += 1
            lr = lr_schedule(
                step, total_steps, tconfig.learning_rate, tconfig.warmup_fraction
            )
            group_end = min(group_start + tconfig.grad_accum_steps, micro_per_epoch)
            group_rows = order[
                group_start * tconfig.batch_size : group_end * tconfig.batch_size
            ]
            group_size = len(group_rows)

            optimizer.zero_grads()
            group_loss = 0.0
            failed = False
            for mb_start in range(0, group_size, tconfig.batch_size):
                rows = group_rows[mb_start : mb_start + tconfig.batch_size]
                tape = Tape()
                logits = classifier_logits(
                    tape, params, train_ids[rows], train_last[rows], dropout_rng
                )
                loss = classification_loss(
                    tape, logits, train_labels[rows], tconfig.loss, focal
                )
                value = loss.item()
                if not math.isfinite(value):
                    failed = True
                    events.append(f"step {step}: non-finite loss, skipped")
                    break
                group_loss += value * len(rows) / group_size
                # Scale so accumulated gradients realize the group-mean loss.
                tape.backward(tape.scale(loss, len(rows) / group_size))

            if not failed:
                try:
                    clip_gradients(params.parameters(), tconfig.max_grad_norm)
                except NonFiniteGradient:
                    failed = True
                    events.append(f"step {step}: non-finite gradient, skipped")

            if failed:
                consecutive_skips += 1
                if consecutive_skips >= MAX_CONSECUTIVE_SKIPS:
                    raise Diverged(
                        f"{consecutive_skips} consecutive skipped steps at step {step}"
                    )
                continue

            consecutive_skips = 0
            optimizer.step(lr)
            curve.append(CurvePoint(step=step, loss=group_loss, lr=lr))

        try:
            report, val_loss, scores = evaluate(
                params, split.val, tconfig.loss, focal, tconfig.threshold
            )
        except NonFiniteScore as exc:
            # The weights went non-finite; an earlier epoch may still be best.
            events.append(f"epoch {epoch}: {exc}, not selectable")
            continue
        epoch_rows.append(
            EpochRow(
                epoch=epoch,
                accuracy=report.accuracy,
                precision=report.precision,
                recall=report.recall,
                f1=report.f1,
                auc=report.auc,
                val_loss=val_loss,
            )
        )
        if (
            best is None
            or report.f1 > best[0]
            or (report.f1 == best[0] and val_loss < best[1])
        ):
            best = (report.f1, val_loss, epoch, params.copy_state(), scores)

    if best is None:
        raise NonFiniteScore("val scores are not finite after any epoch")
    return TrainResult(
        best_state=best[3],
        best_scores=best[4],
        best_epoch=best[2],
        best_f1=best[0],
        best_val_loss=best[1],
        curve=curve,
        epoch_rows=epoch_rows,
        events=events,
        total_steps=total_steps,
    )


def write_curve_csv(path: str, curve: Sequence[CurvePoint]) -> None:
    rows = ([p.step, str(p.loss), str(p.lr)] for p in curve)
    write_table(path, ["step", "loss", "lr"], rows)


def write_epochs_csv(path: str, rows: Sequence[EpochRow]) -> None:
    write_table(path, ["epoch", "accuracy", "precision", "recall", "f1", "auc"], (
        [r.epoch, str(r.accuracy), str(r.precision), str(r.recall), str(r.f1), str(r.auc)]
        for r in rows
    ))
