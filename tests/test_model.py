"""Decoder model: causality, language-model head, checkpointing."""

from __future__ import annotations

import math

import numpy as np
import pytest

from seqguard.model import (
    ModelConfig,
    ModelParams,
    PretrainResult,
    SequenceTooLong,
    SequenceTooShort,
    VocabHashMismatch,
    causal_attention,
    classifier_logits,
    decoder_hidden,
    forward_lm,
    last_real_index,
    lm_loss,
    load_checkpoint,
    position_logits,
    pretrain_lm,
    save_checkpoint,
    sequence_log_prob,
    vocab_manifest_hash,
)
from seqguard.optim import Diverged
from seqguard.sessions import PAD_ID, LabeledWindow
from seqguard.losses import FocalParams, classification_loss
from seqguard.tensor import ShapeMismatch, Tape, Tensor, finite_difference_check

from conftest import tiny_config, tiny_model


def _windows(ids_rows):
    return [
        LabeledWindow(f"w{i}#0", list(row), 0, sum(1 for e in row if e == PAD_ID))
        for i, row in enumerate(ids_rows)
    ]


def _classify(params, windows):
    """(logits, p_anomaly) per window, read out at the last real position."""
    tape = Tape(record=False)
    ids = np.array([w.event_ids for w in windows], dtype=np.int64)
    last = [last_real_index(w.event_ids) for w in windows]
    logits = classifier_logits(tape, params, ids, last)
    return logits.data, tape.softmax_rows(logits).data[:, 1]


class TestConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_context_cap(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, max_seq_len=129)
        ModelConfig(vocab_size=10, max_seq_len=128)

    def test_d_head(self):
        assert tiny_config(d_model=8, n_heads=2).d_head == 4

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, dropout=1.0)


class TestInit:
    def test_weight_statistics(self):
        params = ModelParams(ModelConfig(vocab_size=500, d_model=64), seed=0)
        emb = params["tok_emb"].data
        assert abs(emb.mean()) < 2e-3
        assert abs(emb.std() - 0.02) < 2e-3

    def test_biases_zero_gains_one(self):
        params = tiny_model()
        assert np.array_equal(params["head_b"].data, np.zeros((1, 2)))
        assert np.array_equal(params["layer0.bq"].data, np.zeros((1, 8)))
        assert np.array_equal(params["layer0.ln1_g"].data, np.ones((1, 8)))
        assert np.array_equal(params["lnf_b"].data, np.zeros((1, 8)))

    def test_same_seed_same_weights(self):
        a, b = tiny_model(seed=3), tiny_model(seed=3)
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)

    def test_different_seed_differs(self):
        a, b = tiny_model(seed=3), tiny_model(seed=4)
        assert not np.array_equal(a["tok_emb"].data, b["tok_emb"].data)

    def test_state_round_trip(self):
        a, b = tiny_model(seed=3), tiny_model(seed=4)
        b.load_state(a.copy_state())
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)

    def test_load_state_missing_key(self):
        params = tiny_model()
        state = params.copy_state()
        state.pop("head_w")
        with pytest.raises(KeyError):
            params.load_state(state)


class TestAttention:
    def test_single_position_passes_value_through(self):
        rng = np.random.default_rng(0)
        tape = Tape(record=False)
        q = Tensor(rng.normal(size=(1, 4)))
        k = Tensor(rng.normal(size=(1, 4)))
        v = Tensor(rng.normal(size=(1, 4)))
        out = causal_attention(tape, q, k, v, 1, 1)
        assert np.allclose(out.data, v.data, atol=1e-12)

    def test_zero_queries_average_visible_prefix(self):
        tape = Tape(record=False)
        t, d = 4, 2
        q = Tensor(np.zeros((t, d)))
        k = Tensor(np.zeros((t, d)))
        v = Tensor(np.arange(float(t * d)).reshape(t, d))
        out = causal_attention(tape, q, k, v, t, 1)
        for i in range(t):
            assert np.allclose(out.data[i], v.data[: i + 1].mean(axis=0), atol=1e-12)

    def test_position_t_ignores_future(self):
        params = tiny_model(seed=5)
        rng = np.random.default_rng(1)
        base = rng.integers(0, 12, size=(1, 6))
        for _ in range(20):
            other = base.copy()
            cut = int(rng.integers(1, 6))
            other[0, cut:] = rng.integers(0, 12, size=6 - cut)
            a = position_logits(params, base)
            b = position_logits(params, other)
            assert np.array_equal(a[0, :cut], b[0, :cut])

    def test_order_matters(self):
        # Swapping two distinct prefix tokens must change the readout:
        # the sequence model sees order, not a bag of events.
        params = tiny_model(seed=6)
        a = position_logits(params, [[3, 4, 5, 6]])
        b = position_logits(params, [[4, 3, 5, 6]])
        assert not np.array_equal(a[0, 3], b[0, 3])


class TestForward:
    def test_classifier_shapes_and_range(self):
        params = tiny_model()
        windows = _windows([[3, 4, 5, 0], [6, 7, 0, 0]])
        logits, p = _classify(params, windows)
        assert logits.shape == (2, 2)
        assert p.shape == (2,)
        assert np.all((p >= 0) & (p <= 1))

    def test_empty_batch(self):
        tape = Tape(record=False)
        logits = classifier_logits(tape, tiny_model(), np.zeros((0, 4), dtype=np.int64), [])
        p = tape.softmax_rows(logits).data[:, 1]
        assert logits.shape == (0, 2) and p.shape == (0,)
        # An empty id list is an empty batch too.
        assert classifier_logits(tape, tiny_model(), [], []).shape == (0, 2)
        # So is one on a recording tape, through the readout path with dropout.
        params = tiny_model(n_layers=2, dropout=0.3)
        empty = np.zeros((0, 4), dtype=np.int64)
        assert classifier_logits(Tape(), params, empty, [], np.random.default_rng(0)).shape == (0, 2)
        for fn in (position_logits, forward_lm):
            with pytest.raises(ValueError, match="empty batch"):
                fn(tiny_model(), [])

    def test_readout_at_last_real_position(self):
        # A padded window must read out where the real tokens end, so
        # changing the padding length alone cannot change the logits.
        params = tiny_model()
        a = _windows([[3, 4, 5, PAD_ID]])
        b = _windows([[3, 4, 5, PAD_ID, PAD_ID, PAD_ID]])
        la, _ = _classify(params, a)
        lb, _ = _classify(params, b)
        assert np.array_equal(la, lb)

    def test_last_real_index(self):
        assert last_real_index([3, 4, 0, 0]) == 1
        assert last_real_index([3, 4, 5]) == 2
        with pytest.raises(SequenceTooShort):
            last_real_index([0, 0])

    def test_all_pad_window_rejected(self):
        with pytest.raises(SequenceTooShort):
            _classify(tiny_model(), _windows([[PAD_ID, PAD_ID]]))

    def test_sequence_too_long(self):
        params = tiny_model(max_seq_len=4)
        with pytest.raises(SequenceTooLong):
            _classify(params, _windows([[3, 4, 5, 6, 7]]))

    def test_out_of_vocab_id_rejected(self):
        with pytest.raises(ValueError):
            _classify(tiny_model(), _windows([[3, 99]]))

    def test_probabilities_from_both_logit_columns(self):
        params = tiny_model()
        windows = _windows([[3, 4, 5, 6]])
        logits, p = _classify(params, windows)
        z = logits[0] - logits[0].max()
        e = np.exp(z)
        assert p[0] == pytest.approx(e[1] / e.sum(), abs=1e-12)

    def test_dropout_only_when_rng_supplied(self):
        params = tiny_model(dropout=0.5)
        ids = np.array([[3, 4, 5, 6]])
        plain = decoder_hidden(Tape(record=False), params, ids)
        dropped = decoder_hidden(
            Tape(record=False), params, ids, dropout_rng=np.random.default_rng(0)
        )
        again = decoder_hidden(Tape(record=False), params, ids)
        assert np.array_equal(plain.data, again.data)
        assert not np.array_equal(plain.data, dropped.data)

    def test_batched_equals_single(self):
        # Stacking windows in one batch must not couple them.
        params = tiny_model(n_layers=2)
        rows = [[3, 4, 5, 6], [7, 8, 9, 10]]
        batched, _ = _classify(params, _windows(rows))
        for i, row in enumerate(rows):
            single, _ = _classify(params, _windows([row]))
            assert np.allclose(batched[i], single[0], atol=1e-12)


class TestLanguageModel:
    def test_rows_are_distributions(self):
        params = tiny_model()
        probs = forward_lm(params, [[3, 4, 5, 6, 7]])
        assert probs.shape == (1, 5, 12)
        assert np.allclose(probs.sum(axis=2), 1.0, atol=1e-9)

    def test_uniform_when_embeddings_zeroed(self):
        # Tied head: zero token embeddings give exactly uniform next-token
        # distributions, so the sequence probability factorizes to V^-(T-1).
        params = tiny_model()
        params["tok_emb"].data[:] = 0.0
        lp = sequence_log_prob(params, [3, 4, 5, 6])
        assert lp == pytest.approx(-3 * math.log(12), abs=1e-9)

    def test_sequence_log_prob_matches_factorization(self):
        params = tiny_model(seed=9)
        ids = [3, 4, 5, 6, 7]
        probs = forward_lm(params, ids)[0]
        manual = sum(math.log(probs[t, ids[t + 1]]) for t in range(len(ids) - 1))
        assert sequence_log_prob(params, ids) == pytest.approx(manual, abs=1e-12)

    def test_short_sequence_log_prob_zero(self):
        assert sequence_log_prob(tiny_model(), [3]) == 0.0

    def test_lm_loss_skips_pad_targets(self):
        params = tiny_model(seed=2)
        tape = Tape(record=False)
        loss = lm_loss(tape, params, [[3, 4, PAD_ID, PAD_ID]])
        probs = forward_lm(params, [[3, 4, PAD_ID, PAD_ID]])[0]
        assert loss.item() == pytest.approx(-math.log(probs[0, 4]), abs=1e-12)

    def test_lm_loss_none_without_targets(self):
        params = tiny_model()
        assert lm_loss(Tape(record=False), params, [[3, PAD_ID, PAD_ID]]) is None

    def test_lm_loss_gradient(self):
        params = tiny_model(seed=4)
        x = params["tok_emb"]

        def f(tape):
            return lm_loss(tape, params, [[3, 4, 5, 6]])

        assert finite_difference_check(f, x, eps=1e-4) < 1e-4


class TestClassifierGradient:
    def test_full_loss_gradient_all_parameters(self):
        from seqguard.losses import FocalParams, classification_loss

        params = tiny_model(seed=11)
        ids = np.array([[3, 4, 5, 0], [6, 7, 8, 9]])
        last = [2, 3]
        labels = [0, 1]

        def f(tape):
            logits = classifier_logits(tape, params, ids, last)
            return classification_loss(tape, logits, labels, "focal", FocalParams())

        worst = 0.0
        for tensor in params.parameters():
            worst = max(worst, finite_difference_check(f, tensor))
        assert worst < 1e-4


class TestReadoutPath:
    """classifier_logits runs the last layer only at the readout rows; it must
    agree with running every row and gathering the readout rows afterwards."""

    IDS = np.array([[3, 4, 5, 6, 7], [8, 9, 10, 11, 3], [4, 4, 6, 2, 0]])
    LABELS = [0, 1, 1]

    def _logits_and_grads(self, params, last, full_path):
        for tensor in params.parameters():
            tensor.grad = None
        tape = Tape()
        if full_path:
            hidden = decoder_hidden(tape, params, self.IDS)
            rows = np.arange(len(self.IDS)) * self.IDS.shape[1] + np.asarray(last)
            readout = tape.gather_rows(hidden, rows)
            logits = tape.add_bias(tape.matmul(readout, params["head_w"]), params["head_b"])
        else:
            logits = classifier_logits(tape, params, self.IDS, last)
        tape.backward(classification_loss(tape, logits, self.LABELS, "focal", FocalParams()))
        grads = {
            name: np.zeros_like(t.data) if t.grad is None else t.grad
            for name, t in zip(params.names(), params.parameters())
        }
        return logits.data, grads

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("last", [[4, 4, 4], [0, 3, 2]], ids=["at_end", "before_end"])
    def test_matches_full_path(self, n_layers, last):
        params = tiny_model(seed=11, n_layers=n_layers)
        full_logits, full_grads = self._logits_and_grads(params, last, full_path=True)
        logits, grads = self._logits_and_grads(params, last, full_path=False)
        assert np.allclose(logits, full_logits, rtol=0.0, atol=1e-14)
        for name, full in full_grads.items():
            if name.endswith(".bk"):
                continue  # softmax ignores a shift shared by all keys: true gradient 0
            scale = np.abs(full).max()
            assert scale > 0.0, name
            assert np.abs(grads[name] - full).max() <= 1e-14 * scale, name

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_dropout_keeps_loss_and_gradients_finite(self, n_layers):
        params = tiny_model(seed=3, n_layers=n_layers, dropout=0.3)
        tape = Tape()
        logits = classifier_logits(
            tape, params, self.IDS, [4, 3, 3], dropout_rng=np.random.default_rng(0)
        )
        loss = classification_loss(tape, logits, self.LABELS, "focal", FocalParams())
        assert logits.shape == (3, 2) and math.isfinite(loss.item())
        tape.backward(loss)
        for name, tensor in zip(params.names(), params.parameters()):
            assert tensor.grad is not None and np.all(np.isfinite(tensor.grad)), name

    def test_readout_out_of_window_rejected(self):
        for last in ([4, 4, 5], [4, -1, 4], [4, 4]):
            with pytest.raises(ShapeMismatch):
                classifier_logits(Tape(), tiny_model(), self.IDS, last)


class TestPretrain:
    def _corpus(self, seed=0, n=40):
        rng = np.random.default_rng(seed)
        # Deterministic bigram structure: even ids are followed by id+1.
        out = []
        for _ in range(n):
            start = int(rng.integers(3, 8))
            out.append([start, start + 1, start, start + 1, start, start + 1])
        return out

    def test_holdout_loss_drops(self):
        params = tiny_model(seed=1)
        result = pretrain_lm(params, self._corpus(), steps=30, lr=1e-2, seed=0)
        assert isinstance(result, PretrainResult)
        assert result.steps == 30
        assert result.final_holdout_loss < result.initial_holdout_loss

    def test_zero_steps_leaves_params_alone(self):
        params = tiny_model(seed=1)
        before = params.copy_state()
        result = pretrain_lm(params, self._corpus(), steps=0, seed=0)
        assert result.steps == 0
        for name, arr in before.items():
            assert np.array_equal(arr, params[name].data)

    def test_non_finite_loss_raises_diverged(self):
        params = tiny_model(seed=1)
        params["tok_emb"].data[3, 0] = float("nan")
        with np.errstate(all="ignore"):
            with pytest.raises(Diverged):
                pretrain_lm(params, self._corpus(), steps=5, lr=1e-3, seed=0)

    def test_non_finite_parameters_raise_diverged(self):
        params = tiny_model(seed=1)
        with np.errstate(all="ignore"):
            with pytest.raises(Diverged, match="not finite after pretraining step 1$"):
                pretrain_lm(params, self._corpus(), steps=5, lr=1e300, weight_decay=1e10, seed=0)

    def test_deterministic(self):
        results = []
        for _ in range(2):
            params = tiny_model(seed=1)
            pretrain_lm(params, self._corpus(), steps=10, lr=1e-2, seed=3)
            results.append(params.copy_state())
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        params = tiny_model(seed=7)
        vh = vocab_manifest_hash(["<pad>", "<unk>", "<cls>", "a", "b"])
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), params, vh, seed=7)
        loaded, blob = load_checkpoint(str(path), expected_vocab_hash=vh)
        assert blob["format_version"] == 1
        assert blob["vocab_hash"] == vh
        for name in params.names():
            assert np.array_equal(loaded[name].data, params[name].data)
        assert loaded.config == params.config

    def test_vocab_hash_mismatch(self, tmp_path):
        params = tiny_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), params, vocab_manifest_hash(["a"]), seed=0)
        with pytest.raises(VocabHashMismatch):
            load_checkpoint(str(path), expected_vocab_hash=vocab_manifest_hash(["b"]))

    def test_save_is_byte_stable(self, tmp_path):
        params = tiny_model(seed=7)
        vh = vocab_manifest_hash(["x"])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(str(p1), params, vh, seed=7)
        save_checkpoint(str(p2), params, vh, seed=7)
        assert p1.read_bytes() == p2.read_bytes()

    def test_vocab_hash_sensitive_to_order_and_content(self):
        assert vocab_manifest_hash(["a", "b"]) != vocab_manifest_hash(["b", "a"])
        assert vocab_manifest_hash(["a", "b"]) != vocab_manifest_hash(["a", "c"])
        # Separator keeps ["ab"] and ["a", "b"] distinct.
        assert vocab_manifest_hash(["ab"]) != vocab_manifest_hash(["a", "b"])
