"""Loss functions: focal loss and the cross-entropy it reduces to.

Scalar forms operate on the model probability of the true class; the
tape form builds the same formula out of kernel primitives so gradients
flow to the logits. With gamma 0 and alpha 1 the focal formula is
cross-entropy, exactly, because both share one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import Tape, Tensor

# Probabilities are clamped here before the log; keeps losses finite.
PROB_FLOOR = 1e-12

LOSS_FOCAL = "focal"
LOSS_CROSS_ENTROPY = "cross_entropy"


@dataclass(frozen=True)
class FocalParams:
    """Down-weighting knobs: class weight alpha, focusing exponent gamma."""

    alpha: float = 0.25
    gamma: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


def _clamp(p: float) -> float:
    return min(max(p, PROB_FLOOR), 1.0)


def cross_entropy(p_true: float) -> float:
    """-log of the true-class probability."""
    return -math.log(_clamp(p_true))


def focal_loss(p_true: float, params: FocalParams) -> float:
    """-alpha * (1 - p)^gamma * log(p)."""
    p = _clamp(p_true)
    return -params.alpha * (1.0 - p) ** params.gamma * math.log(p)


def alpha_for_label(label: int, params: FocalParams) -> float:
    """Class-indexed weight: alpha for the anomaly class, 1 - alpha for normal."""
    return params.alpha if label == 1 else 1.0 - params.alpha


def classification_loss(
    tape: Tape,
    logits: Tensor,
    labels: Sequence[int],
    kind: str = LOSS_FOCAL,
    params: FocalParams = FocalParams(),
) -> Tensor:
    """Mean focal/cross-entropy over a batch of 2-class logit rows, on tape.

    Cross-entropy rides the focal formula with alpha_t 1 and gamma 0, so
    the reduction relationship holds bit for bit.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if logits.cols != 2:
        raise ValueError(f"expected 2-class logits, got {logits.shape}")
    if labels.size != logits.rows:
        raise ValueError("one label per logit row required")
    if kind == LOSS_CROSS_ENTROPY:
        alpha_t = np.ones((labels.size, 1))
        gamma = 0.0
    elif kind == LOSS_FOCAL:
        alpha_t = np.where(labels == 1, params.alpha, 1.0 - params.alpha).reshape(-1, 1)
        gamma = params.gamma
    else:
        raise ValueError(f"unknown loss kind {kind!r}")

    probs = tape.softmax_rows(logits)
    p_true = tape.clamp_min(tape.select_cols(probs, labels), PROB_FLOOR)
    log_p = tape.log(p_true)
    focus = tape.pow_const(tape.const_minus(1.0, p_true), gamma)
    weighted = tape.hadamard(tape.hadamard(focus, log_p), Tensor(alpha_t))
    return tape.scale(tape.mean_all(weighted), -1.0)
