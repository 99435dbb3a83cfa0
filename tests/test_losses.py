"""Focal loss, its cross-entropy reduction, and the on-tape batch form."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqguard.losses import (
    LOSS_CROSS_ENTROPY,
    LOSS_FOCAL,
    PROB_FLOOR,
    FocalParams,
    alpha_for_label,
    classification_loss,
    cross_entropy,
    focal_loss,
)
from seqguard.tensor import Tape, Tensor, finite_difference_check


class TestScalarForms:
    def test_cross_entropy_known_values(self):
        assert cross_entropy(1.0) == 0.0
        assert cross_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
        assert cross_entropy(0.9) == pytest.approx(0.105360515657826, abs=1e-12)

    def test_cross_entropy_clamps_zero(self):
        assert cross_entropy(0.0) == pytest.approx(-math.log(PROB_FLOOR), abs=1e-9)
        assert math.isfinite(cross_entropy(0.0))

    def test_focal_point_value(self):
        # 0.25 * 0.1^2 * -ln(0.9), roughly 2.634e-4.
        got = focal_loss(0.9, FocalParams(alpha=0.25, gamma=2.0))
        direct = 0.25 * (1.0 - 0.9) ** 2 * -math.log(0.9)
        assert got == pytest.approx(direct, abs=1e-15)
        assert got == pytest.approx(2.634e-4, abs=5e-8)

    def test_focal_reduces_to_cross_entropy(self):
        params = FocalParams(alpha=1.0, gamma=0.0)
        for p in (0.0, 1e-9, 0.1, 0.5, 0.9, 1.0):
            assert abs(focal_loss(p, params) - cross_entropy(p)) < 1e-12

    def test_gamma_zero_drops_modulation(self):
        p = 0.7
        assert focal_loss(p, FocalParams(alpha=0.5, gamma=0.0)) == pytest.approx(
            0.5 * cross_entropy(p), abs=1e-15
        )

    def test_alpha_for_label(self):
        params = FocalParams(alpha=0.25, gamma=2.0)
        assert alpha_for_label(1, params) == 0.25
        assert alpha_for_label(0, params) == 0.75

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FocalParams(alpha=0.0)
        with pytest.raises(ValueError):
            FocalParams(alpha=1.2)
        with pytest.raises(ValueError):
            FocalParams(gamma=-0.1)

    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        gamma=st.floats(min_value=0.0, max_value=5.0),
        alpha=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(deadline=None, max_examples=200)
    def test_focal_nonnegative_and_bounded_by_ce(self, p, gamma, alpha):
        value = focal_loss(p, FocalParams(alpha=alpha, gamma=gamma))
        assert value >= 0.0
        assert value <= cross_entropy(p) + 1e-12

    @given(p=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(deadline=None, max_examples=200)
    def test_higher_gamma_never_increases_loss(self, p):
        lo = focal_loss(p, FocalParams(alpha=0.25, gamma=1.0))
        hi = focal_loss(p, FocalParams(alpha=0.25, gamma=3.0))
        assert hi <= lo + 1e-15


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class TestTapeForm:
    def _batch(self, seed, n=6):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, 2))
        labels = rng.integers(0, 2, size=n).tolist()
        return logits, labels

    @pytest.mark.parametrize("kind", [LOSS_FOCAL, LOSS_CROSS_ENTROPY])
    def test_matches_scalar_mean(self, kind):
        logits, labels = self._batch(0)
        params = FocalParams(alpha=0.25, gamma=2.0)
        tape = Tape(record=False)
        got = classification_loss(tape, Tensor(logits), labels, kind, params).item()
        probs = _softmax(logits)
        if kind == LOSS_FOCAL:
            # Class-indexed alpha: the scalar form gets each row's alpha_t.
            per = [
                focal_loss(probs[i, y], FocalParams(alpha_for_label(y, params), params.gamma))
                for i, y in enumerate(labels)
            ]
        else:
            per = [cross_entropy(probs[i, y]) for i, y in enumerate(labels)]
        assert got == pytest.approx(sum(per) / len(per), abs=1e-12)

    def test_ce_equals_focal_with_unit_weight_zero_gamma(self):
        # The cross-entropy path literally sets weight 1 and exponent 0 in
        # the focal formula, so agreement is exact, not approximate.
        logits, labels = self._batch(1)
        tape = Tape(record=False)
        ce = classification_loss(tape, Tensor(logits), labels, LOSS_CROSS_ENTROPY).item()
        probs = _softmax(logits)
        expect = float(np.mean([-math.log(probs[i, y]) for i, y in enumerate(labels)]))
        assert abs(ce - expect) < 1e-12

    @pytest.mark.parametrize("kind", [LOSS_FOCAL, LOSS_CROSS_ENTROPY])
    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_wrt_logits(self, kind, seed):
        logits, labels = self._batch(seed, n=8)
        x = Tensor(logits, requires_grad=True)
        params = FocalParams(alpha=0.25, gamma=2.0)

        def f(tape):
            return classification_loss(tape, x, labels, kind, params)

        # Wider step keeps the check truncation-dominated; at 1e-5 the
        # difference of near-equal losses is roundoff-limited.
        assert finite_difference_check(f, x, eps=1e-4) < 1e-6

    def test_gradient_with_fractional_gamma(self):
        logits, labels = self._batch(3, n=5)
        x = Tensor(logits, requires_grad=True)
        params = FocalParams(alpha=0.4, gamma=1.5)

        def f(tape):
            return classification_loss(tape, x, labels, LOSS_FOCAL, params)

        assert finite_difference_check(f, x, eps=1e-4) < 1e-6

    def test_shape_validation(self):
        tape = Tape(record=False)
        with pytest.raises(ValueError):
            classification_loss(tape, Tensor(np.ones((2, 3))), [0, 1])
        with pytest.raises(ValueError):
            classification_loss(tape, Tensor(np.ones((2, 2))), [0])

    def test_backward_direction_reduces_loss(self):
        # One explicit gradient step on the logits must lower the loss.
        logits, labels = self._batch(4, n=10)
        x = Tensor(logits, requires_grad=True)
        tape = Tape()
        loss0 = classification_loss(tape, x, labels, LOSS_FOCAL, FocalParams())
        tape.backward(loss0)
        stepped = Tensor(x.data - 0.5 * x.grad)
        loss1 = classification_loss(Tape(record=False), stepped, labels, LOSS_FOCAL, FocalParams())
        assert loss1.item() < loss0.item()
