"""Optimizer algebra, schedule shape, and gradient clipping."""

from __future__ import annotations

import math

import numpy as np
import pytest

from seqguard.optim import (
    AdamW,
    NonFiniteGradient,
    clip_gradients,
    global_grad_norm,
    lr_schedule,
)
from seqguard.tensor import Tensor


class TestSchedule:
    def test_zero_at_step_zero(self):
        assert lr_schedule(0, 1000, 1e-3, 0.1) == 0.0

    def test_peak_at_end_of_warmup(self):
        assert lr_schedule(100, 1000, 1e-3, 0.1) == pytest.approx(1e-3, abs=1e-18)

    def test_linear_ramp_midpoint(self):
        assert lr_schedule(50, 1000, 1e-3, 0.1) == pytest.approx(5e-4, abs=1e-18)

    def test_zero_at_final_step(self):
        assert lr_schedule(1000, 1000, 1e-3, 0.1) == 0.0

    def test_decay_midpoint(self):
        # Halfway through the decay span 100 -> 1000.
        assert lr_schedule(550, 1000, 1e-3, 0.1) == pytest.approx(5e-4, abs=1e-18)

    def test_warmup_length_is_ceiling(self):
        # 0.1 * 4 steps: warmup 1, then a 3-step decay to zero.
        values = [lr_schedule(s, 4, 5e-3, 0.1) for s in (1, 2, 3, 4)]
        assert values[0] == pytest.approx(5e-3)
        assert values[1] == pytest.approx(5e-3 * 2 / 3)
        assert values[2] == pytest.approx(5e-3 * 1 / 3)
        assert values[3] == 0.0

    def test_no_warmup(self):
        assert lr_schedule(0, 10, 1e-2, 0.0) == 1e-2
        assert lr_schedule(5, 10, 1e-2, 0.0) == pytest.approx(5e-3)

    def test_all_warmup(self):
        assert lr_schedule(10, 10, 1e-2, 1.0) == pytest.approx(1e-2)

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            lr_schedule(11, 10, 1e-2, 0.1)
        with pytest.raises(ValueError):
            lr_schedule(-1, 10, 1e-2, 0.1)

    def test_never_negative_never_above_peak(self):
        for total in (1, 7, 85, 507):
            for step in range(total + 1):
                lr = lr_schedule(step, total, 2e-5, 0.1)
                assert 0.0 <= lr <= 2e-5 + 1e-18


class TestClipping:
    def _params(self, grads):
        out = []
        for g in grads:
            p = Tensor(np.zeros_like(np.asarray(g, dtype=float)), requires_grad=True)
            p.grad = np.asarray(g, dtype=float)
            out.append(p)
        return out

    def test_global_norm(self):
        params = self._params([[[3.0, 0.0]], [[0.0, 4.0]]])
        assert global_grad_norm(params) == pytest.approx(5.0, abs=1e-15)

    def test_below_max_untouched(self):
        params = self._params([[[0.3, 0.4]]])
        norm = clip_gradients(params, max_norm=1.0)
        assert norm == pytest.approx(0.5)
        assert np.array_equal(params[0].grad, [[0.3, 0.4]])

    def test_above_max_scaled_to_max(self):
        params = self._params([[[3.0, 0.0]], [[0.0, 4.0]]])
        norm = clip_gradients(params, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert global_grad_norm(params) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(params[0].grad, [[0.6, 0.0]])

    def test_nan_gradient_raises(self):
        params = self._params([[[float("nan"), 0.0]]])
        with pytest.raises(NonFiniteGradient):
            clip_gradients(params, max_norm=1.0)

    def test_inf_gradient_raises(self):
        params = self._params([[[float("inf"), 0.0]]])
        with pytest.raises(NonFiniteGradient):
            clip_gradients(params, max_norm=1.0)

    def test_bad_max_norm(self):
        with pytest.raises(ValueError):
            clip_gradients([], max_norm=0.0)

    def test_missing_grads_skipped(self):
        p = Tensor(np.zeros((1, 2)), requires_grad=True)
        assert clip_gradients([p], max_norm=1.0) == 0.0


class TestAdamW:
    def test_first_step_moves_by_lr_without_decay(self):
        # With bias correction, step one moves each coordinate by exactly
        # lr * sign(g) when weight decay is off.
        p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        p.grad = np.array([[0.5, -0.25]])
        opt = AdamW([p], weight_decay=0.0)
        opt.step(0.1)
        expect = np.array([[1.0, -2.0]]) - 0.1 * np.array([[1.0, -1.0]]) * (
            1.0 / (1.0 + 1e-8 / np.array([[0.5, 0.25]]))
        )
        assert np.allclose(p.data, expect, atol=1e-12)

    def test_decoupled_decay_uses_pre_step_value(self):
        p = Tensor(np.array([[2.0]]), requires_grad=True)
        p.grad = np.array([[0.0]])
        opt = AdamW([p], weight_decay=0.1)
        opt.step(0.01)
        # Zero gradient: the only movement is lr * wd * p.
        assert p.data[0, 0] == pytest.approx(2.0 - 0.01 * 0.1 * 2.0, abs=1e-15)

    def test_zero_grads(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        p.grad = np.full((2, 2), 7.0)
        opt = AdamW([p])
        opt.zero_grads()
        assert p.grad is None

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(3, 2))
        p = Tensor(data.copy(), requires_grad=True)
        beta1, beta2, eps, wd = 0.9, 0.999, 1e-8, 0.01
        opt = AdamW([p], betas=(beta1, beta2), eps=eps, weight_decay=wd)

        ref = data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t in range(1, 8):
            g = rng.normal(size=(3, 2))
            lr = 0.05 / t
            p.grad = g.copy()
            opt.step(lr)
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            ref -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * ref)
            assert np.allclose(p.data, ref, atol=1e-14), f"diverged at step {t}"

    def test_step_counter_advances(self):
        p = Tensor(np.zeros((1, 1)), requires_grad=True)
        opt = AdamW([p])
        p.grad = np.array([[1.0]])
        opt.step(0.1)
        opt.step(0.1)
        assert opt.t == 2

    def test_state_per_parameter(self):
        a = Tensor(np.zeros((1, 1)), requires_grad=True)
        b = Tensor(np.zeros((2, 2)), requires_grad=True)
        opt = AdamW([a, b])
        assert opt._m[0].shape == (1, 1)
        assert opt._v[1].shape == (2, 2)

    def test_bias_correction_shrinks_late_steps(self):
        # Identical gradients: the update magnitude stabilizes near lr.
        p = Tensor(np.array([[0.0]]), requires_grad=True)
        opt = AdamW([p], weight_decay=0.0)
        moved = []
        for _ in range(4):
            before = p.data.copy()
            p.grad = np.array([[1.0]])
            opt.step(0.1)
            moved.append(abs(float(p.data[0, 0] - before[0, 0])))
        assert all(abs(m - 0.1) < 0.01 for m in moved)
