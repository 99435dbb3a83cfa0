"""Dense 2-D float64 tensors with tape-based reverse-mode differentiation.

Every primitive records itself on a Tape during the forward pass; the
backward pass replays the records in reverse, accumulating gradients
additively into any tensor marked as requiring them. The op set is the
minimum a small causal decoder needs: elementwise and matrix ops, row
softmax, layer norm, GELU, row gathers, and one batched multi-head causal
attention over stacked windows. A central finite-difference checker
serves as the gradient oracle everywhere.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

# Constants of the tanh GELU approximation; fixed so tests can be exact.
GELU_C = math.sqrt(2.0 / math.pi)
GELU_K = 0.044715

LAYER_NORM_EPS = 1e-5


class ShapeMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """A rows x cols float64 array, optionally accumulating a gradient."""

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeMismatch(f"tensor must be 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}({self.rows}x{self.cols})"


class _Node:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Records primitive ops in order; backward() replays them reversed.

    With ``record=False`` the ops still compute forward values but leave
    no trace, which keeps repeated forward-only evaluations (finite
    differences, validation) cheap.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self._nodes: list[_Node] = []

    def _emit(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
        if self.record:
            out.requires_grad = any(t.requires_grad for t in inputs)
            if out.requires_grad:
                self._nodes.append(_Node(out, inputs, backward_fn))
        return out

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)=1 and accumulate gradients into requiring tensors."""
        if not self.record:
            raise RuntimeError("cannot run backward on a non-recording tape")
        if loss.data.size != 1:
            raise ShapeMismatch("backward() expects a scalar (1x1) loss")
        loss.accumulate_grad(np.ones_like(loss.data))
        for node in reversed(self._nodes):
            out_grad = node.out.grad
            if out_grad is None:
                continue
            grads = node.backward_fn(out_grad)
            for tensor, g in zip(node.inputs, grads):
                if g is not None and tensor.requires_grad:
                    tensor.accumulate_grad(g)

    # ---- primitives ----------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.cols != b.rows:
            raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
        out = Tensor(a.data @ b.data)

        def backward(g):
            ga = g @ b.data.T if a.requires_grad else None
            gb = a.data.T @ g if b.requires_grad else None
            return ga, gb

        return self._emit(out, (a, b), backward)

    def transpose(self, a: Tensor) -> Tensor:
        out = Tensor(a.data.T.copy())
        return self._emit(out, (a,), lambda g: (g.T,))

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeMismatch(f"add {a.shape} + {b.shape}")
        out = Tensor(a.data + b.data)
        return self._emit(out, (a, b), lambda g: (g, g))

    def add_bias(self, a: Tensor, bias: Tensor) -> Tensor:
        if bias.rows != 1 or bias.cols != a.cols:
            raise ShapeMismatch(f"bias {bias.shape} does not broadcast over {a.shape}")
        out = Tensor(a.data + bias.data)
        return self._emit(out, (a, bias), lambda g: (g, g.sum(axis=0, keepdims=True)))

    def scale(self, a: Tensor, c: float) -> Tensor:
        out = Tensor(a.data * c)
        return self._emit(out, (a,), lambda g: (g * c,))

    def hadamard(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeMismatch(f"hadamard {a.shape} * {b.shape}")
        out = Tensor(a.data * b.data)

        def backward(g):
            ga = g * b.data if a.requires_grad else None
            gb = g * a.data if b.requires_grad else None
            return ga, gb

        return self._emit(out, (a, b), backward)

    def log(self, a: Tensor) -> Tensor:
        out = Tensor(np.log(a.data))
        return self._emit(out, (a,), lambda g: (g / a.data,))

    def pow_const(self, a: Tensor, p: float) -> Tensor:
        out = Tensor(np.power(a.data, p))

        def backward(g):
            if p == 0.0:
                return (np.zeros_like(a.data),)
            d = p * np.power(a.data, p - 1.0)
            if p < 1.0:
                # Unbounded one-sided derivative at 0; clamp to keep steps finite.
                d = np.where(a.data == 0.0, 0.0, d)
            return (g * d,)

        return self._emit(out, (a,), backward)

    def const_minus(self, c: float, a: Tensor) -> Tensor:
        out = Tensor(c - a.data)
        return self._emit(out, (a,), lambda g: (-g,))

    def clamp_min(self, a: Tensor, c: float) -> Tensor:
        out = Tensor(np.maximum(a.data, c))
        return self._emit(out, (a,), lambda g: (g * (a.data > c),))

    def softmax_rows(self, a: Tensor) -> Tensor:
        """Row-wise softmax after max subtraction."""
        m = np.max(a.data, axis=1, keepdims=True)
        e = np.exp(a.data - m)
        y = e / e.sum(axis=1, keepdims=True)
        out = Tensor(y)

        def backward(g):
            inner = (g * y).sum(axis=1, keepdims=True)
            return (y * (g - inner),)

        return self._emit(out, (a,), backward)

    def causal_attention(
        self, q: Tensor, k: Tensor, v: Tensor, seq_len: int, n_heads: int
    ) -> Tensor:
        """Multi-head softmax(q k^T / sqrt(d_head), causal) v over stacked windows.

        q, k and v are (batch * seq_len) x d_model, window-major; each window
        attends only within itself, each head to its own d_model / n_heads
        columns, and position t sees positions <= t (masked scores come out
        exactly zero). Heads merge back into columns in head order.
        """
        if not q.shape == k.shape == v.shape:
            raise ShapeMismatch(f"attention q/k/v shapes {q.shape}, {k.shape}, {v.shape}")
        if seq_len < 1 or n_heads < 1 or q.rows % seq_len or q.cols % n_heads:
            raise ShapeMismatch(
                f"{q.shape} does not split into windows of {seq_len} and {n_heads} heads"
            )
        batch, d_model = q.rows // seq_len, q.cols
        d_head = d_model // n_heads

        def split(x):  # (B*T, H*dh) -> (B, H, T, dh)
            return x.reshape(batch, seq_len, n_heads, d_head).transpose(0, 2, 1, 3)

        def merge(x):  # (B, H, T, dh) -> (B*T, H*dh)
            return x.transpose(0, 2, 1, 3).reshape(batch * seq_len, d_model)

        # Contiguous per-head operands (and k pre-transposed) give every
        # matmul the same layout as one window and head at a time, so the
        # results are bitwise those of unbatched attention.
        qh = np.ascontiguousarray(split(q.data))
        kt = np.ascontiguousarray(split(k.data).swapaxes(-1, -2))
        vh = np.ascontiguousarray(split(v.data))
        c = 1.0 / math.sqrt(d_head)
        future = np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)
        z = np.where(future, -np.inf, (qh @ kt) * c)
        e = np.exp(z - np.max(z, axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        out = Tensor(merge(w @ vh))

        def backward(g):
            gh = np.ascontiguousarray(split(g))
            gw = gh @ vh.swapaxes(-1, -2)
            gz = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) * c
            gq = merge(gz @ kt.swapaxes(-1, -2))
            gk = merge((qh.swapaxes(-1, -2) @ gz).swapaxes(-1, -2))
            gv = merge(w.swapaxes(-1, -2) @ gh)
            return gq, gk, gv

        return self._emit(out, (q, k, v), backward)

    def layer_norm(self, x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
        if x.cols < 2:
            raise ShapeMismatch("layer_norm needs rows of length >= 2")
        if gain.shape != (1, x.cols) or bias.shape != (1, x.cols):
            raise ShapeMismatch("gain/bias must be 1 x cols")
        d = x.cols
        mu = x.data.mean(axis=1, keepdims=True)
        xc = x.data - mu
        var = (xc * xc).mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
        xhat = xc * inv
        out = Tensor(xhat * gain.data + bias.data)

        def backward(g):
            dxhat = g * gain.data
            dvar = (dxhat * xc).sum(axis=1, keepdims=True) * (-0.5) * inv**3
            dmu = (-dxhat * inv).sum(axis=1, keepdims=True)
            gx = dxhat * inv + dvar * 2.0 * xc / d + dmu / d
            ggain = (g * xhat).sum(axis=0, keepdims=True) if gain.requires_grad else None
            gbias = g.sum(axis=0, keepdims=True) if bias.requires_grad else None
            return (gx if x.requires_grad else None), ggain, gbias

        return self._emit(out, (x, gain, bias), backward)

    def gelu(self, a: Tensor) -> Tensor:
        x = a.data
        u = GELU_C * (x + GELU_K * (x * x * x))
        t = np.tanh(u)
        out = Tensor(0.5 * x * (1.0 + t))

        def backward(g):
            du = GELU_C * (1.0 + 3.0 * GELU_K * x**2)
            d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du
            return (g * d,)

        return self._emit(out, (a,), backward)

    def gather_rows(self, table: Tensor, ids) -> Tensor:
        idx = np.asarray(ids, dtype=np.int64).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= table.rows):
            raise ShapeMismatch(
                f"row index out of range [0, {table.rows}) in gather"
            )
        out = Tensor(table.data[idx])

        def backward(g):
            gt = np.zeros_like(table.data)
            np.add.at(gt, idx, g)
            return (gt,)

        return self._emit(out, (table,), backward)

    def select_cols(self, a: Tensor, cols) -> Tensor:
        idx = np.asarray(cols, dtype=np.int64).reshape(-1)
        if idx.size != a.rows:
            raise ShapeMismatch("select_cols needs one column index per row")
        if idx.size and (idx.min() < 0 or idx.max() >= a.cols):
            raise ShapeMismatch(f"column index out of range [0, {a.cols})")
        rows = np.arange(a.rows)
        out = Tensor(a.data[rows, idx].reshape(-1, 1))

        def backward(g):
            ga = np.zeros_like(a.data)
            ga[rows, idx] = g[:, 0]
            return (ga,)

        return self._emit(out, (a,), backward)

    def sum_all(self, a: Tensor) -> Tensor:
        out = Tensor([[a.data.sum()]])
        return self._emit(out, (a,), lambda g: (np.full_like(a.data, g[0, 0]),))

    def mean_all(self, a: Tensor) -> Tensor:
        out = Tensor([[a.data.mean()]])
        size = a.data.size
        return self._emit(out, (a,), lambda g: (np.full_like(a.data, g[0, 0] / size),))

    def dropout(self, a: Tensor, p_drop: float, rng: np.random.Generator) -> Tensor:
        if not 0.0 <= p_drop < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        if p_drop == 0.0:
            return a
        keep = (rng.random(a.shape) >= p_drop) / (1.0 - p_drop)
        out = Tensor(a.data * keep)
        return self._emit(out, (a,), lambda g: (g * keep,))


def finite_difference_check(
    f: Callable[[Tape], Tensor],
    x: Tensor,
    eps: float = 1e-5,
) -> float:
    """Max relative error between tape gradient and central differences.

    ``f`` maps a tape to a scalar tensor and must read ``x`` (a live,
    grad-requiring tensor) by closure. The analytic gradient comes from
    one recorded backward pass; the numeric one perturbs each coordinate
    of ``x.data`` in place by +-eps on non-recording tapes, restoring it
    afterwards. Per-coordinate relative error is |a - n| / max(1e-8,
    |a| + |n|).
    """
    if not x.requires_grad:
        raise ValueError("finite_difference_check needs a grad-requiring tensor")
    x.grad = None
    tape = Tape()
    loss = f(tape)
    tape.backward(loss)
    analytic = (np.zeros_like(x.data) if x.grad is None else x.grad.copy()).reshape(-1)

    worst = 0.0
    flat = x.data.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        hi = f(Tape(record=False)).item()
        flat[i] = original - eps
        lo = f(Tape(record=False)).item()
        flat[i] = original
        numeric = (hi - lo) / (2.0 * eps)
        err = abs(analytic[i] - numeric) / max(1e-8, abs(analytic[i]) + abs(numeric))
        worst = max(worst, err)
    return worst
