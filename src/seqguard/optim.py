"""AdamW with decoupled weight decay, warmup-decay schedule, gradient clipping."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensor import Tensor


class NonFiniteGradient(ArithmeticError):
    """Raised when a gradient contains NaN or Inf; the step is skipped."""


class Diverged(RuntimeError):
    """Optimization produced non-finite losses repeatedly and cannot continue."""


def lr_schedule(step: int, total_steps: int, peak_lr: float, warmup_fraction: float) -> float:
    """Linear ramp 0 -> peak over the warmup steps, then linear decay to 0.

    Warmup length is ceil(warmup_fraction * total_steps); the ramp hits
    peak_lr exactly at its last step and the decay reaches 0 at
    total_steps.
    """
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup = math.ceil(warmup_fraction * total_steps)
    if warmup > 0 and step <= warmup:
        return peak_lr * step / warmup
    if total_steps == warmup:
        return peak_lr
    return peak_lr * (total_steps - step) / (total_steps - warmup)


def global_grad_norm(params: Sequence[Tensor]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    return math.sqrt(total)


def clip_gradients(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale gradients in place to the max global L2 norm; returns the pre-clip norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    for p in params:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NonFiniteGradient(f"non-finite gradient in {p.name or 'parameter'}")
    norm = global_grad_norm(params)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


class AdamW:
    """Adam with bias correction plus decoupled weight decay.

    The decay term uses the pre-step parameter value:
    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p).
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.params = list(params)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grads(self) -> None:
        # Backward keeps each first gradient as the grad; step reads None as 0.
        for p in self.params:
            p.grad = None

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data)
