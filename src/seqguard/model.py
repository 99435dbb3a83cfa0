"""Small causal decoder over event-id vocabularies with a 2-class head.

Pre-norm transformer blocks: masked self-attention, GELU feedforward,
learned position embeddings. Classification reads the hidden state at
the last non-padding position; the language-model head is weight-tied to
the token embedding for the optional pretraining stage.
"""

from __future__ import annotations

import base64
import hashlib
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .artifacts import dump_json_file, load_json_file
from .optim import AdamW, Diverged, clip_gradients
from .sessions import PAD_ID
from .tensor import ShapeMismatch, Tape, Tensor

CHECKPOINT_FORMAT_VERSION = 1


class SequenceTooLong(ValueError):
    """Input longer than the model's position table."""


class SequenceTooShort(ValueError):
    """Window holds no real (non-PAD) token to read a prediction from."""


class VocabHashMismatch(ValueError):
    """Checkpoint was trained against a different vocabulary manifest."""


@dataclass
class ModelSettings:
    """The decoder's shape; the ``model`` config section."""

    d_model: int = 64
    n_heads: int = 2
    n_layers: int = 2
    d_ff: int = 256
    max_seq_len: int = 128
    dropout: float = 0.0

    def __post_init__(self):
        if self.n_heads < 1:
            raise ValueError("n_heads must be >= 1")
        if self.n_layers < 1 or self.d_ff < 1:
            raise ValueError("n_layers and d_ff must be >= 1")
        if self.d_model < 2:
            raise ValueError("d_model must be >= 2 (layer norm needs two features)")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.max_seq_len > 128:
            raise ValueError("max_seq_len is capped at 128 tokens")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


@dataclass
class ModelConfig(ModelSettings):
    """A shape over a vocabulary, which is known once the dataset is built."""

    vocab_size: int = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if self.vocab_size < 2:
            raise ValueError("vocab_size must cover at least PAD and one event")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


class ModelParams:
    """All weights, as named tensors in a stable order."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.seed = seed
        self._named: dict[str, Tensor] = {}

        def weight(name, rows, cols):
            self._named[name] = Tensor(
                rng.normal(0.0, 0.02, size=(rows, cols)), requires_grad=True, name=name
            )

        def zeros(name, rows, cols):
            self._named[name] = Tensor(np.zeros((rows, cols)), requires_grad=True, name=name)

        def ones(name, rows, cols):
            self._named[name] = Tensor(np.ones((rows, cols)), requires_grad=True, name=name)

        c = config
        weight("tok_emb", c.vocab_size, c.d_model)
        weight("pos_emb", c.max_seq_len, c.d_model)
        for i in range(c.n_layers):
            ones(f"layer{i}.ln1_g", 1, c.d_model)
            zeros(f"layer{i}.ln1_b", 1, c.d_model)
            for proj in ("q", "k", "v", "o"):
                weight(f"layer{i}.w{proj}", c.d_model, c.d_model)
                zeros(f"layer{i}.b{proj}", 1, c.d_model)
            ones(f"layer{i}.ln2_g", 1, c.d_model)
            zeros(f"layer{i}.ln2_b", 1, c.d_model)
            weight(f"layer{i}.w1", c.d_model, c.d_ff)
            zeros(f"layer{i}.b1", 1, c.d_ff)
            weight(f"layer{i}.w2", c.d_ff, c.d_model)
            zeros(f"layer{i}.b2", 1, c.d_model)
        ones("lnf_g", 1, c.d_model)
        zeros("lnf_b", 1, c.d_model)
        weight("head_w", c.d_model, 2)
        zeros("head_b", 1, 2)

    def __getitem__(self, name: str) -> Tensor:
        return self._named[name]

    def parameters(self) -> list[Tensor]:
        return list(self._named.values())

    def names(self) -> list[str]:
        return list(self._named.keys())

    def copy_state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._named.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, t in self._named.items():
            if name not in state:
                raise KeyError(f"checkpoint missing parameter {name}")
            if state[name].shape != t.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {state[name].shape} vs {t.data.shape}"
                )
            t.data = state[name].astype(np.float64).copy()


def causal_attention(
    tape: Tape, q: Tensor, k: Tensor, v: Tensor, seq_len: int, n_heads: int, query_pos=None
) -> Tensor:
    """Multi-head softmax(QK^T / sqrt(d_head), masked above the diagonal) V per window;
    with ``query_pos``, one query row per window at that position."""
    return tape.causal_attention(q, k, v, seq_len, n_heads, query_pos)


def _as_id_matrix(ids) -> np.ndarray:
    arr = np.asarray(ids, dtype=np.int64)
    if arr.ndim == 1:
        # One window, or an empty batch for an empty list.
        arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, 0)
    if arr.ndim != 2:
        raise ValueError(f"ids must be 1-D or 2-D, got shape {arr.shape}")
    return arr


def decoder_hidden(
    tape: Tape,
    params: ModelParams,
    ids,
    dropout_rng: Optional[np.random.Generator] = None,
    readout: Optional[Sequence[int]] = None,
) -> Tensor:
    """Final-layer-norm hidden states, stacked as (batch * seq_len) x d_model.

    Given ``readout`` (one position per window), only those rows come out,
    batch x d_model: past its keys and values, the last layer runs at the
    readout rows alone.
    """
    c = params.config
    ids = _as_id_matrix(ids)
    batch, seq_len = ids.shape
    if ids.size == 0:
        raise ValueError(f"empty batch: ids of shape {ids.shape} hold no tokens")
    if seq_len > c.max_seq_len:
        raise SequenceTooLong(f"sequence length {seq_len} exceeds cap {c.max_seq_len}")
    if ids.min() < 0 or ids.max() >= c.vocab_size:
        raise ValueError("token id outside vocabulary")
    rows = None
    if readout is not None:
        query_pos = np.asarray(readout, dtype=np.int64).reshape(-1)
        if query_pos.shape != (batch,) or query_pos.min() < 0 or query_pos.max() >= seq_len:
            raise ShapeMismatch(f"readout needs one position in [0, {seq_len}) per window")
        rows = np.arange(batch) * seq_len + query_pos

    p_drop = c.dropout if dropout_rng is not None else 0.0

    def drop(t: Tensor) -> Tensor:
        return tape.dropout(t, p_drop, dropout_rng) if p_drop > 0.0 else t

    tok = tape.gather_rows(params["tok_emb"], ids.reshape(-1))
    pos = tape.gather_rows(params["pos_emb"], np.tile(np.arange(seq_len), batch))
    h = drop(tape.add(tok, pos))

    for i in range(c.n_layers):
        x = tape.layer_norm(h, params[f"layer{i}.ln1_g"], params[f"layer{i}.ln1_b"])
        xq, layer_pos = x, None
        if rows is not None and i == c.n_layers - 1:
            # Keys and values need every position; the rest, only the readout rows.
            h, xq, layer_pos = tape.gather_rows(h, rows), tape.gather_rows(x, rows), query_pos
        q = tape.add_bias(tape.matmul(xq, params[f"layer{i}.wq"]), params[f"layer{i}.bq"])
        k = tape.add_bias(tape.matmul(x, params[f"layer{i}.wk"]), params[f"layer{i}.bk"])
        v = tape.add_bias(tape.matmul(x, params[f"layer{i}.wv"]), params[f"layer{i}.bv"])
        ctx = causal_attention(tape, q, k, v, seq_len, c.n_heads, layer_pos)
        attn = tape.add_bias(tape.matmul(ctx, params[f"layer{i}.wo"]), params[f"layer{i}.bo"])
        h = tape.add(h, drop(attn))

        x2 = tape.layer_norm(h, params[f"layer{i}.ln2_g"], params[f"layer{i}.ln2_b"])
        inner = tape.gelu(
            tape.add_bias(tape.matmul(x2, params[f"layer{i}.w1"]), params[f"layer{i}.b1"])
        )
        ffn = tape.add_bias(tape.matmul(inner, params[f"layer{i}.w2"]), params[f"layer{i}.b2"])
        h = tape.add(h, drop(ffn))

    return tape.layer_norm(h, params["lnf_g"], params["lnf_b"])


def last_real_index(event_ids: Sequence[int]) -> int:
    """Index of the last non-PAD token; SequenceTooShort when all PAD."""
    for i in range(len(event_ids) - 1, -1, -1):
        if event_ids[i] != PAD_ID:
            return i
    raise SequenceTooShort("window contains only padding")


def classifier_logits(
    tape: Tape,
    params: ModelParams,
    ids,
    last_index: Sequence[int],
    dropout_rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Head logits at each window's last real position; rows align with windows."""
    ids = _as_id_matrix(ids)
    if ids.shape[0] == 0:
        return Tensor(np.zeros((0, 2)))
    readout = decoder_hidden(tape, params, ids, dropout_rng, readout=last_index)
    return tape.add_bias(tape.matmul(readout, params["head_w"]), params["head_b"])


def position_logits(params: ModelParams, ids) -> np.ndarray:
    """Classifier logits at every position, shaped (batch, seq_len, 2)."""
    ids = _as_id_matrix(ids)
    batch, seq_len = ids.shape
    tape = Tape(record=False)
    hidden = decoder_hidden(tape, params, ids)
    logits = tape.add_bias(tape.matmul(hidden, params["head_w"]), params["head_b"])
    return logits.data.reshape(batch, seq_len, 2).copy()


def forward_lm(params: ModelParams, ids) -> np.ndarray:
    """Next-token distributions: out[b, t] = P(x_{t+1} | x_1..x_t), rows sum to 1."""
    ids = _as_id_matrix(ids)
    batch, seq_len = ids.shape
    tape = Tape(record=False)
    hidden = decoder_hidden(tape, params, ids)
    logits = tape.matmul(hidden, tape.transpose(params["tok_emb"]))
    probs = tape.softmax_rows(logits)
    return probs.data.reshape(batch, seq_len, params.config.vocab_size).copy()


def sequence_log_prob(params: ModelParams, event_ids: Sequence[int]) -> float:
    """Log probability of the realized tokens under the autoregressive factorization."""
    ids = np.asarray(event_ids, dtype=np.int64)
    if ids.size < 2:
        return 0.0
    probs = forward_lm(params, ids)[0]
    total = 0.0
    for t in range(ids.size - 1):
        total += math.log(max(probs[t, ids[t + 1]], 1e-300))
    return total


def lm_loss(tape: Tape, params: ModelParams, ids) -> Optional[Tensor]:
    """Mean next-token cross-entropy over non-PAD transitions; None if no targets."""
    ids = _as_id_matrix(ids)
    batch, seq_len = ids.shape
    rows = []
    targets = []
    for b in range(batch):
        for t in range(seq_len - 1):
            if ids[b, t + 1] != PAD_ID:
                rows.append(b * seq_len + t)
                targets.append(ids[b, t + 1])
    if not rows:
        return None
    hidden = decoder_hidden(tape, params, ids)
    logits = tape.matmul(hidden, tape.transpose(params["tok_emb"]))
    probs = tape.softmax_rows(logits)
    picked = tape.gather_rows(probs, rows)
    p_next = tape.clamp_min(tape.select_cols(picked, targets), 1e-12)
    return tape.scale(tape.mean_all(tape.log(p_next)), -1.0)


def held_out_lm_loss(params: ModelParams, windows: Sequence[np.ndarray]) -> float:
    tape = Tape(record=False)
    losses = []
    for ids in windows:
        loss = lm_loss(tape, params, ids)
        if loss is not None:
            losses.append(loss.item())
    return float(np.mean(losses)) if losses else float("nan")


@dataclass
class PretrainResult:
    steps: int
    initial_holdout_loss: float
    final_holdout_loss: float
    losses: list[float]


def pretrain_lm(
    params: ModelParams,
    corpus: Sequence[Sequence[int]],
    steps: int,
    batch_size: int = 8,
    lr: float = 1e-3,
    weight_decay: float = 0.0,
    seed: int = 0,
    holdout_fraction: float = 0.1,
    max_grad_norm: float = 1.0,
) -> PretrainResult:
    """Autoregressive warm-up on unlabeled windows; updates params in place.

    A held-out slice is carved off up front so the caller can confirm the
    next-token loss actually moved. Non-finite losses abort.
    """
    sequences = [np.asarray(w, dtype=np.int64).reshape(1, -1) for w in corpus]
    if not sequences:
        raise ValueError("pretraining corpus is empty")
    rng = np.random.default_rng(seed)
    n_holdout = max(1, int(round(holdout_fraction * len(sequences)))) if steps > 0 else 0
    if n_holdout >= len(sequences):
        n_holdout = len(sequences) - 1
    order = rng.permutation(len(sequences))
    holdout = [sequences[i] for i in order[:n_holdout]]
    train = [sequences[i] for i in order[n_holdout:]]

    initial = held_out_lm_loss(params, holdout) if holdout else float("nan")
    if steps == 0:
        return PretrainResult(0, initial, initial, [])

    optimizer = AdamW(params.parameters(), weight_decay=weight_decay)
    losses = []
    for _ in range(steps):
        picked = rng.choice(len(train), size=min(batch_size, len(train)), replace=False)
        ids = np.concatenate([train[i] for i in picked], axis=0)
        tape = Tape()
        loss = lm_loss(tape, params, ids)
        if loss is None:
            continue
        value = loss.item()
        if not math.isfinite(value):
            raise Diverged(f"pretraining loss became non-finite after {len(losses)} steps")
        optimizer.zero_grads()
        tape.backward(loss)
        clip_gradients(params.parameters(), max_grad_norm)
        optimizer.step(lr)
        losses.append(value)

    final = held_out_lm_loss(params, holdout) if holdout else float("nan")
    return PretrainResult(steps, initial, final, losses)


def vocab_manifest_hash(entries: Sequence[str]) -> str:
    """Stable hash of the vocabulary manifest the model was trained against."""
    digest = hashlib.sha256()
    for entry in entries:
        digest.update(entry.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def save_checkpoint(
    path: str, params: ModelParams, vocab_hash: str, seed: int
) -> None:
    blob = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(params.config),
        "seed": seed,
        "vocab_hash": vocab_hash,
        "params": {
            name: {
                "shape": list(t.data.shape),
                "data": base64.b64encode(
                    np.ascontiguousarray(t.data, dtype="<f8").tobytes()
                ).decode("ascii"),
            }
            for name, t in zip(params.names(), params.parameters())
        },
    }
    dump_json_file(path, blob, compact=True)


def load_checkpoint(path: str, expected_vocab_hash: Optional[str] = None) -> tuple[ModelParams, dict]:
    blob = load_json_file(path)
    if blob.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format in {path}")
    if expected_vocab_hash is not None and blob["vocab_hash"] != expected_vocab_hash:
        raise VocabHashMismatch(
            f"checkpoint {path} was trained against a different vocabulary"
        )
    config = ModelConfig(**blob["config"])
    params = ModelParams(config, seed=blob.get("seed", 0))
    state = {}
    for name, entry in blob["params"].items():
        arr = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
        state[name] = arr.reshape(entry["shape"]).astype(np.float64)
    params.load_state(state)
    return params, blob
