"""Autodiff kernel: per-op gradient checks against central differences."""

from __future__ import annotations

import numpy as np
import pytest

from seqguard.tensor import ShapeMismatch, Tape, Tensor, finite_difference_check

from test_acceptance import _fd_op_cases

TOL = 1e-4


def _t(rng, rows, cols, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=(rows, cols)), requires_grad=True)


class TestForwardValues:
    def test_matmul(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        out = Tape(record=False).matmul(a, b)
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Tape().matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 7)))
        out = Tape(record=False).softmax_rows(x)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_causal_attention_row_ignores_later_positions(self):
        # Rewriting the keys and values after position t leaves output row t
        # of the same window bitwise unchanged.
        rng = np.random.default_rng(1)
        seq_len, n_heads = 6, 2
        q, k, v = (rng.normal(size=(2 * seq_len, 4)) for _ in range(3))
        tape = Tape(record=False)
        base = tape.causal_attention(Tensor(q), Tensor(k), Tensor(v), seq_len, n_heads)
        for t in range(seq_len - 1):
            k2, v2 = k.copy(), v.copy()
            later = slice(seq_len + t + 1, 2 * seq_len)
            k2[later] = rng.normal(size=k2[later].shape)
            v2[later] = rng.normal(size=v2[later].shape)
            out = tape.causal_attention(Tensor(q), Tensor(k2), Tensor(v2), seq_len, n_heads)
            assert np.array_equal(out.data[: seq_len + t + 1], base.data[: seq_len + t + 1])
            assert not np.array_equal(out.data, base.data)

    def test_causal_attention_shape_mismatch(self):
        x = Tensor(np.ones((6, 4)))
        tape = Tape()
        with pytest.raises(ShapeMismatch):
            tape.causal_attention(x, x, x, 4, 2)  # 6 rows are not windows of 4
        with pytest.raises(ShapeMismatch):
            tape.causal_attention(x, x, x, 3, 3)  # 4 columns are not 3 heads
        with pytest.raises(ShapeMismatch):
            tape.causal_attention(x, x, Tensor(np.ones((6, 2))), 3, 2)

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = Tape(record=False).softmax_rows(Tensor(x))
        b = Tape(record=False).softmax_rows(Tensor(x + 500.0))
        assert np.allclose(a.data, b.data, atol=1e-12)

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(3.0, 2.0, size=(4, 16)))
        gain = Tensor(np.ones((1, 16)))
        bias = Tensor(np.zeros((1, 16)))
        out = Tape(record=False).layer_norm(x, gain, bias)
        assert np.allclose(out.data.mean(axis=1), 0.0, atol=1e-9)
        assert np.allclose(out.data.std(axis=1), 1.0, atol=1e-3)

    def test_gelu_known_points(self):
        x = Tensor(np.array([[0.0, 1.0, -1.0]]))
        out = Tape(record=False).gelu(x)
        assert out.data[0, 0] == 0.0
        assert out.data[0, 1] == pytest.approx(0.8411919906, abs=1e-6)
        assert out.data[0, 2] == pytest.approx(-0.1588080094, abs=1e-6)

    def test_gather_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = Tape(record=False).gather_rows(table, [2, 0, 2])
        assert np.array_equal(out.data, [[6, 7, 8], [0, 1, 2], [6, 7, 8]])

    def test_select_cols(self):
        a = Tensor(np.arange(6.0).reshape(3, 2))
        out = Tape(record=False).select_cols(a, [1, 0, 1])
        assert np.array_equal(out.data, [[1.0], [2.0], [5.0]])

    def test_dropout_inverted_scaling(self):
        rng = np.random.default_rng(4)
        x = Tensor(np.ones((10, 10)))
        out = Tape(record=False).dropout(x, 0.4, rng)
        kept = out.data[out.data != 0.0]
        assert np.allclose(kept, 1.0 / 0.6, atol=1e-12)

    def test_dropout_zero_rate_is_identity(self):
        rng = np.random.default_rng(5)
        x = Tensor(np.ones((3, 3)))
        out = Tape(record=False).dropout(x, 0.0, rng)
        assert np.array_equal(out.data, x.data)

    def test_dropout_same_seed_same_mask(self):
        x = Tensor(np.ones((8, 8)))
        a = Tape(record=False).dropout(x, 0.5, np.random.default_rng(11))
        b = Tape(record=False).dropout(x, 0.5, np.random.default_rng(11))
        assert np.array_equal(a.data, b.data)

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 2))).item()


class TestBackwardBasics:
    def test_backward_accumulates_over_reuse(self):
        # y = sum(x) + sum(x) must give gradient 2 everywhere.
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        tape = Tape()
        loss = tape.add(tape.sum_all(x), tape.sum_all(x))
        tape.backward(loss)
        assert np.array_equal(x.grad, 2.0 * np.ones((2, 2)))

    def test_no_grad_tensor_stays_untouched(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        c = Tensor(np.ones((2, 2)))
        tape = Tape()
        tape.backward(tape.sum_all(tape.hadamard(x, c)))
        assert c.grad is None
        assert x.grad is not None

    def test_unrecorded_tape_skips_graph(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        tape = Tape(record=False)
        out = tape.sum_all(x)
        assert out.data.shape == (1, 1)

    def test_backward_needs_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        tape = Tape()
        out = tape.scale(x, 2.0)
        with pytest.raises(ValueError):
            tape.backward(out)


def _fd(op_builder, x, seed=0):
    """Gradient check: op output reduced with mean_all against central differences."""

    def f(tape):
        return tape.mean_all(op_builder(tape))

    return finite_difference_check(f, x)


class TestGradientChecks:
    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_wrt_left(self, seed):
        rng = np.random.default_rng(seed)
        x = _t(rng, 3, 4)
        b = Tensor(rng.normal(size=(4, 2)))
        assert _fd(lambda tape: tape.matmul(x, b), x) < TOL

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_wrt_right(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 4)))
        x = _t(rng, 4, 2)
        assert _fd(lambda tape: tape.matmul(a, x), x) < TOL

    def test_transpose(self):
        rng = np.random.default_rng(0)
        x = _t(rng, 3, 5)
        w = Tensor(rng.normal(size=(3, 2)))
        assert _fd(lambda tape: tape.matmul(tape.transpose(x), w), x) < TOL

    def test_add(self):
        rng = np.random.default_rng(1)
        x = _t(rng, 4, 4)
        b = Tensor(rng.normal(size=(4, 4)))
        assert _fd(lambda tape: tape.add(x, b), x) < TOL

    def test_add_bias_wrt_bias(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(6, 3)))
        x = _t(rng, 1, 3)
        assert _fd(lambda tape: tape.add_bias(a, x), x) < TOL

    def test_scale(self):
        rng = np.random.default_rng(3)
        x = _t(rng, 2, 5)
        assert _fd(lambda tape: tape.scale(x, -2.5), x) < TOL

    def test_hadamard(self):
        rng = np.random.default_rng(4)
        x = _t(rng, 4, 3)
        b = Tensor(rng.normal(size=(4, 3)))
        assert _fd(lambda tape: tape.hadamard(x, b), x) < TOL

    def test_log(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(0.2, 2.0, size=(3, 3)), requires_grad=True)
        assert _fd(lambda tape: tape.log(x), x) < TOL

    def test_pow_const(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.uniform(0.2, 1.5, size=(3, 4)), requires_grad=True)
        assert _fd(lambda tape: tape.pow_const(x, 2.0), x) < TOL
        assert _fd(lambda tape: tape.pow_const(x, 0.5), x) < TOL

    def test_pow_const_zero_exponent_flat(self):
        x = Tensor(np.full((2, 2), 0.7), requires_grad=True)
        tape = Tape()
        tape.backward(tape.mean_all(tape.pow_const(x, 0.0)))
        assert np.array_equal(x.grad, np.zeros((2, 2)))

    def test_const_minus(self):
        rng = np.random.default_rng(7)
        x = _t(rng, 3, 3)
        assert _fd(lambda tape: tape.const_minus(1.0, x), x) < TOL

    def test_clamp_min_away_from_kink(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(0.5, 1.0, size=(3, 3)), requires_grad=True)
        assert _fd(lambda tape: tape.clamp_min(x, 1e-12), x) < TOL

    def test_clamp_min_blocks_gradient_below_floor(self):
        x = Tensor(np.array([[0.5, 1e-15]]), requires_grad=True)
        tape = Tape()
        tape.backward(tape.sum_all(tape.clamp_min(x, 1e-12)))
        assert np.array_equal(x.grad, np.array([[1.0, 0.0]]))

    def test_softmax_rows(self):
        # Weighted reduction: the plain sum of a softmax row is constant,
        # which would make the true gradient zero and the check vacuous.
        rng = np.random.default_rng(9)
        x = _t(rng, 5, 5)
        w = Tensor(rng.normal(size=(5, 5)))
        assert _fd(lambda tape: tape.hadamard(tape.softmax_rows(x), w), x) < TOL

    def test_layer_norm_wrt_input(self):
        rng = np.random.default_rng(10)
        x = _t(rng, 4, 8)
        g = Tensor(rng.uniform(0.5, 1.5, size=(1, 8)))
        b = Tensor(rng.normal(size=(1, 8)))
        assert _fd(lambda tape: tape.layer_norm(x, g, b), x) < TOL

    def test_layer_norm_wrt_gain_and_bias(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(4, 8)))
        g = Tensor(rng.uniform(0.5, 1.5, size=(1, 8)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        assert _fd(lambda tape: tape.layer_norm(a, g, b), g) < TOL
        assert _fd(lambda tape: tape.layer_norm(a, g, b), b) < TOL

    def test_gelu(self):
        rng = np.random.default_rng(12)
        x = _t(rng, 4, 4, lo=-2.0, hi=2.0)
        assert _fd(lambda tape: tape.gelu(x), x) < TOL

    def test_gather_rows_wrt_table(self):
        rng = np.random.default_rng(13)
        x = _t(rng, 6, 4)
        ids = [0, 2, 2, 5]
        assert _fd(lambda tape: tape.gather_rows(x, ids), x) < TOL

    def test_select_cols(self):
        rng = np.random.default_rng(14)
        x = _t(rng, 5, 3)
        cols = [0, 2, 1, 1, 0]
        assert _fd(lambda tape: tape.select_cols(x, cols), x) < TOL

    def test_sum_all(self):
        rng = np.random.default_rng(19)
        x = _t(rng, 3, 3)
        assert finite_difference_check(lambda tape: tape.sum_all(x), x) < TOL

    def test_mean_all(self):
        rng = np.random.default_rng(20)
        x = _t(rng, 4, 2)
        assert finite_difference_check(lambda tape: tape.mean_all(x), x) < TOL

    def test_dropout_with_frozen_mask(self):
        rng = np.random.default_rng(21)
        x = _t(rng, 4, 4)

        def f(tape):
            return tape.mean_all(tape.dropout(x, 0.3, np.random.default_rng(77)))

        assert finite_difference_check(f, x) < TOL

    def test_composed_expression(self):
        # softmax(xW) fed through layer norm and gelu, reduced to a scalar.
        rng = np.random.default_rng(22)
        x = _t(rng, 3, 4)
        w = Tensor(rng.normal(size=(4, 4)))
        g = Tensor(np.ones((1, 4)))
        b = Tensor(np.zeros((1, 4)))

        def f(tape):
            h = tape.softmax_rows(tape.matmul(x, w))
            return tape.mean_all(tape.gelu(tape.layer_norm(h, g, b)))

        assert finite_difference_check(f, x) < TOL


class TestReadoutAttention:
    """causal_attention with query_pos: one query row per window, at that
    window's position; keys and values keep every row."""

    SEQ_LEN, BATCH, D = 4, 3, 4
    POSITIONS = {"at_end": [3, 3, 3], "before_end": [0, 1, 2], "mixed": [2, 3, 0]}

    def _operands(self, seed):
        rng = np.random.default_rng(seed)
        rows = {"q": self.BATCH, "k": self.BATCH * self.SEQ_LEN, "v": self.BATCH * self.SEQ_LEN}
        return {name: rng.normal(size=(n, self.D)) for name, n in rows.items()}

    @pytest.mark.parametrize("wrt", ["q", "k", "v"])
    @pytest.mark.parametrize("positions", sorted(POSITIONS))
    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_gradient(self, wrt, positions, n_heads):
        data = self._operands(seed=n_heads)
        x = Tensor(data[wrt], requires_grad=True)
        ops = {name: x if name == wrt else Tensor(arr) for name, arr in data.items()}
        # A weighted sum: each head's softmax rows sum to one.
        w = Tensor(np.random.default_rng(7).normal(size=(self.BATCH, self.D)))
        query_pos = self.POSITIONS[positions]

        def f(tape):
            out = tape.causal_attention(
                ops["q"], ops["k"], ops["v"], self.SEQ_LEN, n_heads, query_pos
            )
            return tape.mean_all(tape.hadamard(out, w))

        assert finite_difference_check(f, x) < TOL

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_rows_match_full_attention(self, n_heads):
        data = self._operands(seed=3)
        query_pos = np.array(self.POSITIONS["mixed"])
        rows = np.arange(self.BATCH) * self.SEQ_LEN + query_pos
        q_full = np.random.default_rng(4).normal(size=(self.BATCH * self.SEQ_LEN, self.D))
        q_full[rows] = data["q"]
        tape = Tape(record=False)
        k, v = Tensor(data["k"]), Tensor(data["v"])
        full = tape.causal_attention(Tensor(q_full), k, v, self.SEQ_LEN, n_heads)
        out = tape.causal_attention(Tensor(data["q"]), k, v, self.SEQ_LEN, n_heads, query_pos)
        assert out.shape == (self.BATCH, self.D)
        assert np.allclose(out.data, full.data[rows], rtol=0.0, atol=1e-15)

    def test_query_pos_shape_mismatch(self):
        data = self._operands(seed=0)
        q, k, v = (Tensor(data[name]) for name in ("q", "k", "v"))
        tape = Tape()
        for bad in ([3, 3], [3, 3, 4], [0, -1, 2]):
            with pytest.raises(ShapeMismatch):
                tape.causal_attention(q, k, v, self.SEQ_LEN, 2, bad)
        with pytest.raises(ShapeMismatch):  # one query row per window, not per position
            tape.causal_attention(k, k, v, self.SEQ_LEN, 2, [3, 3, 3])


def test_every_primitive_has_a_criterion_03_case():
    # A case counts for an op when it is named after it: "gelu", "matmul_left".
    cases = _fd_op_cases()
    primitives = [
        name for name, value in vars(Tape).items()
        if callable(value) and not name.startswith("_") and name != "backward"
    ]
    missing = [
        op for op in primitives
        if not any(case == op or case.startswith(op + "_") for case in cases)
    ]
    assert primitives and not missing, f"no criterion-03 case for {missing}"


class TestGradientOwnership:
    """Backward keeps a first gradient instead of copying it; no tensor may
    end up sharing its gradient's memory with another."""

    @pytest.mark.parametrize("name", sorted(_fd_op_cases()))
    def test_op_applied_twice_doubles_the_gradient(self, name):
        f, x = _fd_op_cases()[name](np.random.default_rng(5))
        tape = Tape()
        tape.backward(f(tape))
        once = x.grad.copy()
        assert x.grad.flags.c_contiguous
        x.grad = None
        tape = Tape()
        tape.backward(tape.add(f(tape), f(tape)))
        assert np.array_equal(x.grad, 2.0 * once)

    def test_add_of_a_tensor_with_itself(self):
        rng = np.random.default_rng(30)
        x, w = _t(rng, 3, 4), rng.normal(size=(3, 4))
        tape = Tape()
        tape.backward(tape.mean_all(tape.hadamard(tape.add(x, x), Tensor(w))))
        assert np.array_equal(x.grad, w * (1 / 12) + w * (1 / 12))

    def test_hadamard_of_a_tensor_with_itself(self):
        rng = np.random.default_rng(31)
        x = _t(rng, 3, 4)
        tape = Tape()
        tape.backward(tape.sum_all(tape.hadamard(x, x)))
        assert np.array_equal(x.grad, x.data + x.data)

    def test_add_operands_keep_separate_gradients(self):
        # add hands the same array to both operands. y's later gradient
        # (from its earlier use) must not leak into x's.
        rng = np.random.default_rng(32)
        x, y = _t(rng, 3, 4), _t(rng, 3, 4)
        w, v = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        tape = Tape()
        used_first = tape.sum_all(tape.hadamard(y, Tensor(v)))
        summed = tape.mean_all(tape.hadamard(tape.add(x, y), Tensor(w)))
        tape.backward(tape.add(used_first, summed))
        assert np.array_equal(x.grad, w * (1 / 12))
        assert np.array_equal(y.grad, w * (1 / 12) + v)

    def test_backward_consumes_the_tape(self):
        rng = np.random.default_rng(33)
        x = _t(rng, 3, 4)
        w = Tensor(rng.normal(size=(4, 4)))
        tape = Tape()
        hidden = tape.gelu(tape.matmul(x, w))
        loss = tape.mean_all(hidden)
        tape.backward(loss)
        assert tape._nodes == []
        assert hidden.grad is None and loss.grad is None
        assert x.grad is not None and x.grad.shape == x.shape
        assert w.grad is None
        with pytest.raises(RuntimeError):
            tape.backward(loss)
