"""Dense tensors with reverse-mode automatic differentiation.

The primitive set is deliberately small: elementwise arithmetic, matmul,
softmax, layer norm, relu/gelu/sigmoid/log, dropout, shape ops and
reductions, plus one private fused attention core. That is exactly what
the bi-axial transformer and its two losses need, and nothing more.
Gradients are accumulated by replaying a topologically ordered tape of
the recorded operations.

Memory is bounded by what one training step needs:

- `backward` releases the tape as it goes. Once a recorded node has
  passed its gradient on to its parents, its gradient buffer, backward
  closure and parent links are dropped, so every intermediate array is
  freed as soon as no later step reads it. Only leaves (parameters and
  constants) keep `.grad`. A recorded graph is therefore single-use: a
  second `backward` that reaches a released node raises RuntimeError.
- Inside `with no_grad():` the ops record nothing, so an inference
  forward keeps no intermediate alive and its outputs are constants.

Precision is a per-process setting. New tensors take the compute dtype,
float64 unless a `with compute_dtype(np.float32):` block is open, and
every op computes in the dtype of its inputs; an op whose result has
another dtype raises TypeError instead of silently promoting the rest of
the graph. `grad_check` is the float64 oracle and refuses anything else.
"""

from __future__ import annotations

import contextlib
import json
import math
import struct
import warnings
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "GradientTape",
    "tensor",
    "backward",
    "add",
    "sub",
    "mul",
    "matmul",
    "affine",
    "reshape",
    "transpose",
    "concat",
    "sum_reduce",
    "mean_reduce",
    "max_reduce",
    "log",
    "sigmoid",
    "relu",
    "gelu",
    "softmax",
    "layer_norm",
    "dropout",
    "grad_check",
    "GradCheckReport",
    "save_params",
    "load_params",
]

# Python floats, not NumPy float64 scalars, which would promote float32
# arrays to float64 (NEP 50).
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Switched by `no_grad` and `compute_dtype`; per process, like the rest of
# the tape state.
_grad_enabled = True
_compute_dtype = np.dtype(np.float64)
_COMPUTE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A dense array in the compute dtype plus an optional gradient buffer.

    Tensors produced by the ops below remember their parents and a
    closure that routes output gradients back to them, until `backward`
    has used them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn",
                 "_backward_done", "_grad_owned")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _grad_fn: Callable | None = None):
        self.data = np.asarray(data, dtype=_compute_dtype, order="C")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._grad_fn = _grad_fn
        self._backward_done = False
        self._grad_owned = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self) -> None:
        self.grad = None
        self._grad_owned = False

    def backward(self) -> None:
        backward(self)

    def _accumulate(self, g: np.ndarray) -> None:
        # The first contribution is kept by reference and never mutated
        # (it may alias another tensor's gradient or a read-only view);
        # a second contribution forces an owned buffer.
        if self.grad is None:
            self.grad = g
            self._grad_owned = False
        elif self._grad_owned:
            self.grad += g
        else:
            self.grad = self.grad + g
            self._grad_owned = True

    # Operator sugar; scalars are lifted to constant tensors.
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __neg__(self):
        return mul(self, _lift(-1.0))

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not a primitive; divide by a scalar")
        return mul(self, _lift(1.0 / float(other)))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        return transpose(self, axes)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return sum_reduce(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return mean_reduce(self, axis=axis, keepdims=keepdims)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Create a leaf tensor."""
    return Tensor(data, requires_grad=requires_grad)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: every op returns a constant tensor.

    Outputs are bitwise the same as with recording on; use it for
    inference and evaluation forwards, whose graphs are never
    backpropagated.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


@contextlib.contextmanager
def compute_dtype(dtype):
    """Create new tensors as `dtype` (float32 or float64) inside the block.

    Tensors made before the block keep their dtype; mixing them with
    tensors of the other dtype in one op raises TypeError.
    """
    global _compute_dtype
    dtype = np.dtype(dtype)
    if dtype not in _COMPUTE_DTYPES:
        raise ValueError(f"compute dtype must be float32 or float64, got {dtype}")
    previous = _compute_dtype
    _compute_dtype = dtype
    try:
        yield
    finally:
        _compute_dtype = previous


def _node(data, parents: Iterable[Tensor], grad_fn: Callable) -> Tensor:
    parents = tuple(parents)
    if data.dtype != _compute_dtype:
        op = grad_fn.__qualname__.split(".")[0]
        raise TypeError(f"{op} computed in {data.dtype}, not the compute dtype "
                        f"{_compute_dtype}: an input or constant of another dtype")
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _grad_fn=grad_fn)
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _node(out_data, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _node(out_data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _node(out_data, (a, b), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, including stacked (leading-batch) operands.

    Supports 2D @ 2D, stacked @ stacked with equal leading dims, and
    stacked @ 2D (the 2D operand is broadcast over the stack).
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"matmul requires rank >= 2 operands, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions disagree: {a.shape} @ {b.shape}"
        )
    stacked_by_2d = b.ndim == 2 and a.ndim > 2
    if stacked_by_2d:
        # one large 2-D product instead of a stack of tiny ones
        k, n = b.shape
        out_data = (a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (n,))
    else:
        out_data = a.data @ b.data

    def grad_fn(g):
        if stacked_by_2d:
            g2 = np.ascontiguousarray(g).reshape(-1, n)
            if a.requires_grad:
                a._accumulate((g2 @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                b._accumulate(a.data.reshape(-1, k).T @ g2)
            return
        if a.requires_grad:
            da = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(da, a.shape))
        if b.requires_grad:
            db = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(_unbroadcast(db, b.shape))

    return _node(out_data, (a, b), grad_fn)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b for a 2-D weight and per-output bias."""
    if w.ndim != 2 or b.shape != (w.shape[1],):
        raise ValueError(
            f"affine expects w (k, n) and b (n,), got {w.shape} and {b.shape}"
        )
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"affine inner dimensions disagree: {x.shape} @ {w.shape}")
    k, n = w.shape
    out_data = x.data.reshape(-1, k) @ w.data
    out_data += b.data
    out_data = out_data.reshape(x.shape[:-1] + (n,))

    def grad_fn(g):
        g2 = np.ascontiguousarray(g).reshape(-1, n)
        if x.requires_grad:
            x._accumulate((g2 @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            w._accumulate(x.data.reshape(-1, k).T @ g2)
        if b.requires_grad:
            b._accumulate(g2.sum(axis=0))

    return _node(out_data, (x, w, b), grad_fn)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out_data = x.data.reshape(shape)

    def grad_fn(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.shape))

    return _node(out_data, (x,), grad_fn)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = x.data.transpose(axes)

    def grad_fn(g):
        if x.requires_grad:
            x._accumulate(g.transpose(inv))

    return _node(out_data, (x,), grad_fn)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                p._accumulate(g[tuple(idx)])

    return _node(out_data, parts, grad_fn)


def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def sum_reduce(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis_t = _norm_axis(axis, x.ndim)
    out_data = x.data.sum(axis=axis_t, keepdims=keepdims)

    def grad_fn(g):
        if not x.requires_grad:
            return
        if axis_t is not None and not keepdims:
            g = np.expand_dims(g, axis_t)
        x._accumulate(np.broadcast_to(g, x.shape))

    return _node(out_data, (x,), grad_fn)


def mean_reduce(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis_t = _norm_axis(axis, x.ndim)
    out_data = x.data.mean(axis=axis_t, keepdims=keepdims)
    if axis_t is None:
        count = x.size
    else:
        count = int(np.prod([x.shape[a] for a in axis_t]))

    def grad_fn(g):
        if not x.requires_grad:
            return
        if axis_t is not None and not keepdims:
            g = np.expand_dims(g, axis_t)
        x._accumulate(np.broadcast_to(g, x.shape) / count)

    return _node(out_data, (x,), grad_fn)


def max_reduce(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    axis = axis % x.ndim
    out_data = x.data.max(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if not x.requires_grad:
            return
        expanded = out_data if keepdims else np.expand_dims(out_data, axis)
        mask = (x.data == expanded)
        gg = g if keepdims else np.expand_dims(g, axis)
        x._accumulate(mask * gg)

    return _node(out_data, (x,), grad_fn)


def log(x: Tensor) -> Tensor:
    out_data = np.log(x.data)

    def grad_fn(g):
        if x.requires_grad:
            x._accumulate(g / x.data)

    return _node(out_data, (x,), grad_fn)


def sigmoid(x: Tensor) -> Tensor:
    out_data = np.where(
        x.data >= 0,
        1.0 / (1.0 + np.exp(-np.abs(x.data))),
        np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))),
    )

    def grad_fn(g):
        if x.requires_grad:
            x._accumulate(g * out_data * (1.0 - out_data))

    return _node(out_data, (x,), grad_fn)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def grad_fn(g):
        if x.requires_grad:
            x._accumulate(g * (x.data > 0))

    return _node(out_data, (x,), grad_fn)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out_data = x.data * cdf

    def grad_fn(g):
        if x.requires_grad:
            pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
            x._accumulate(g * (cdf + x.data * pdf))

    return _node(out_data, (x,), grad_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    axis = axis % x.ndim
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        if x.requires_grad:
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (g - inner))

    return _node(out_data, (x,), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean / unit variance along `axis`, then scale and shift."""
    axis = axis % x.ndim
    n = x.shape[axis]
    if gain.size != n or bias.size != n:
        raise ValueError(
            f"layer_norm gain/bias must have length {n}, got {gain.size} and {bias.size}"
        )
    mu = x.data.mean(axis=axis, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    bshape = [1] * x.ndim
    bshape[axis] = n
    gain_b = gain.data.reshape(bshape)
    bias_b = bias.data.reshape(bshape)
    out_data = gain_b * xhat + bias_b

    def grad_fn(g):
        if gain.requires_grad:
            other = tuple(i for i in range(x.ndim) if i != axis)
            gain._accumulate((g * xhat).sum(axis=other).reshape(gain.shape))
        if bias.requires_grad:
            other = tuple(i for i in range(x.ndim) if i != axis)
            bias._accumulate(g.sum(axis=other).reshape(bias.shape))
        if x.requires_grad:
            dxhat = g * gain_b
            m1 = dxhat.mean(axis=axis, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=axis, keepdims=True)
            x._accumulate(inv * (dxhat - m1 - xhat * m2))

    return _node(out_data, (x, gain, bias), grad_fn)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None,
            train: bool) -> Tensor:
    """Inverted dropout; identity in eval mode or at p == 0."""
    if not train or p <= 0.0:
        return x
    keep, scale = _keep_mask(x.shape, p, rng)

    def grad_fn(g):
        if x.requires_grad:
            x._accumulate(_apply_keep(g, keep, scale))

    return _node(_apply_keep(x.data, keep, scale), (x,), grad_fn)


def _keep_mask(shape: tuple, p: float, rng) -> tuple[np.ndarray, float]:
    """Boolean keep mask with P(keep) = 1 - p, and the 1/(1-p) rescale."""
    if rng is None:
        raise ValueError("dropout in train mode requires an rng stream")
    return rng.random(shape) >= p, 1.0 / (1.0 - p)


def _apply_keep(a: np.ndarray, keep: np.ndarray, scale: float) -> np.ndarray:
    # bitwise equal to a * (keep / (1 - p)), without a float mask
    out = a * scale
    out *= keep
    return out


def _split_heads(a: np.ndarray, axis: int, heads: int) -> np.ndarray:
    """View (B, N1, N2, E) as (B, G, heads, S, E/heads), S = N_axis.

    A view for C-contiguous `a`, so writing into it fills `a`.
    """
    b, n1, n2, e = a.shape
    a = a.reshape(b, n1, n2, heads, e // heads)
    return a.transpose((0, 2, 3, 1, 4) if axis == 1 else (0, 1, 3, 2, 4))


def _attention_core(q: Tensor, k: Tensor, v: Tensor, heads: int, axis: int,
                    key_bias: np.ndarray | None, p: float, rng,
                    train: bool) -> Tensor:
    """Fused multi-head dot-product attention along `axis` of (B, N1, N2, E).

    Computes dropout(softmax(q k^T / sqrt(E/heads) + key_bias)) v over
    axis 1 or 2, independently for each index of the other axis; E is
    split into `heads` inside, and the context comes back in the input
    layout. key_bias (B, S) is added to the scores of every query. The
    arithmetic is that of the unfused matmul/mul/add/softmax/dropout/matmul
    chain, but the backward keeps only q, k, v, the softmax weights and a
    boolean dropout mask.
    """
    axis %= 4
    if axis not in (1, 2):
        raise ValueError(f"attention runs over axis 1 or 2 of a 4-D input, got {axis}")
    b, s, e = q.shape[0], q.shape[axis], q.shape[3]
    scale = 1.0 / math.sqrt(e // heads)             # a Python float, like _INV_SQRT2
    q5, k5, v5 = (_split_heads(t.data, axis, heads) for t in (q, k, v))

    weights = q5 @ np.swapaxes(k5, -1, -2)          # (B, G, h, S, S)
    weights *= scale
    if key_bias is not None:
        weights += key_bias.astype(weights.dtype).reshape(b, 1, 1, 1, s)
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    keep = drop_scale = None
    if train and p > 0.0:
        keep, drop_scale = _keep_mask(weights.shape, p, rng)

    def dropped():
        return weights if keep is None else _apply_keep(weights, keep, drop_scale)

    ctx = np.empty(q.shape, q.data.dtype)
    np.matmul(dropped(), v5, out=_split_heads(ctx, axis, heads))

    def grad_fn(g):
        g5 = _split_heads(np.ascontiguousarray(g), axis, heads)
        if v.requires_grad:
            dv = np.empty(v.shape, v.data.dtype)
            np.matmul(np.swapaxes(dropped(), -1, -2), g5, out=_split_heads(dv, axis, heads))
            v._accumulate(dv)
        if not (q.requires_grad or k.requires_grad):
            return
        dw = g5 @ np.swapaxes(v5, -1, -2)
        if keep is not None:
            dw = _apply_keep(dw, keep, drop_scale)
        ds = weights * (dw - (dw * weights).sum(axis=-1, keepdims=True))
        ds *= scale
        for t, lhs, rhs in ((q, ds, k5), (k, np.swapaxes(ds, -1, -2), q5)):
            if t.requires_grad:
                grad = np.empty(t.shape, t.data.dtype)
                np.matmul(lhs, rhs, out=_split_heads(grad, axis, heads))
                t._accumulate(grad)

    return _node(ctx, (q, k, v), grad_fn)


# ---------------------------------------------------------------------------
# backward pass


class GradientTape:
    """Topologically ordered record of the operations below a root tensor."""

    def __init__(self, nodes: list):
        self.nodes = nodes

    @classmethod
    def from_root(cls, root: Tensor) -> "GradientTape":
        order: list[Tensor] = []
        visited: set[int] = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return cls(order)


def backward(loss: Tensor) -> None:
    """Accumulate into .grad of every leaf requires_grad tensor below `loss`.

    The loss must be a scalar. The tape is released while it is replayed:
    each recorded (non-leaf) node drops its `.grad`, backward closure and
    parent links as soon as it has passed its gradient on, so only leaves
    hold gradients afterwards and the intermediates' memory is returned
    during the pass. A recorded graph can therefore be backpropagated
    only once: a second backward through any of its nodes, from the same
    loss or from a new one built on top of it, raises RuntimeError
    before touching any gradient. Forwards run under `no_grad` record
    nothing and cannot be backpropagated at all.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._backward_done:
        raise RuntimeError(
            "backward was already run on this tensor; rebuild the forward pass first"
        )
    if not loss.requires_grad:
        loss._backward_done = True
        warnings.warn("backward on a tensor detached from any trainable input; "
                      "no gradients were produced")
        return
    nodes = GradientTape.from_root(loss).nodes
    if any(node._backward_done for node in nodes):
        raise RuntimeError(
            "backward reached a node already released by an earlier backward; "
            "a recorded graph is single-use, rebuild the forward pass first"
        )
    loss._accumulate(np.ones_like(loss.data))
    while nodes:
        node = nodes.pop()
        if node._grad_fn is None:
            continue
        if node.grad is not None:
            node._grad_fn(node.grad)
        node.grad = node._grad_fn = None
        node._parents = ()
        node._backward_done = True


# ---------------------------------------------------------------------------
# gradient checking


class GradCheckReport:
    """Per-parameter comparison of tape gradients against central differences."""

    def __init__(self):
        self.max_rel_error: dict[str, float] = {}
        self.nonfinite: dict[str, list] = {}
        self.tol: float = 0.0

    @property
    def passed(self) -> bool:
        if self.nonfinite:
            return False
        return all(e <= self.tol for e in self.max_rel_error.values())

    def worst(self) -> tuple[str, float]:
        name = max(self.max_rel_error, key=self.max_rel_error.get)
        return name, self.max_rel_error[name]

    def __repr__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"GradCheckReport({status}, worst={self.worst()}, tol={self.tol})"


def grad_check(f: Callable[[], Tensor], params: dict[str, Tensor],
               step: float = 1e-5, tol: float = 1e-3) -> GradCheckReport:
    """Compare tape gradients of `f()` against central finite differences.

    `f` must rebuild its forward pass on every call and read the current
    values of `params`. Relative error uses |a - b| / max(|a| + |b|, 1e-6)
    per coordinate. The check is a float64 oracle: a float32 loss or
    parameter raises TypeError, because central differences at the
    default step fall below float32 resolution.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise TypeError(f"grad_check needs float64 parameters; {name!r} is {p.data.dtype}")
    loss = f()
    if loss.data.dtype != np.float64:
        raise TypeError(f"grad_check needs a float64 loss, got {loss.data.dtype}")
    backward(loss)
    analytic = {}
    for name, p in params.items():
        if p.grad is None:
            raise RuntimeError(f"parameter {name!r} received no gradient")
        analytic[name] = p.grad.copy()

    report = GradCheckReport()
    report.tol = tol
    for name, p in params.items():
        flat = p.data.reshape(-1)
        fd = np.zeros_like(flat)
        bad = []
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = f().item()
            flat[i] = orig - step
            f_minus = f().item()
            flat[i] = orig
            fd[i] = (f_plus - f_minus) / (2.0 * step)
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                bad.append(i)
        a = analytic[name].reshape(-1)
        denom = np.maximum(np.abs(a) + np.abs(fd), 1e-6)
        report.max_rel_error[name] = float(np.max(np.abs(a - fd) / denom))
        if bad:
            report.nonfinite[name] = bad
    return report


# ---------------------------------------------------------------------------
# parameter checkpoint container
#
# Layout: magic, little-endian uint64 header length, JSON header, then the
# raw float64 buffers back to back. Contains no timestamps so identical
# contents produce identical bytes.

_CKPT_MAGIC = b"BAXPARMS"
_CKPT_VERSION = 1


def save_params(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named arrays (plus an optional JSON-able meta dict).

    Values are stored as float64, so float32 arrays round-trip exactly
    once cast back.
    """
    entries = []
    buffers = []
    offset = 0
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=np.float64, order="C")
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": arr.nbytes,
        })
        buffers.append(arr.tobytes())
        offset += arr.nbytes
    header = json.dumps(
        {"format_version": _CKPT_VERSION, "entries": entries, "meta": meta or {}},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for buf in buffers:
            fh.write(buf)


def load_params(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint written by save_params; values round-trip exactly."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a parameter checkpoint (bad magic)")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        if header.get("format_version") != _CKPT_VERSION:
            raise ValueError(
                f"{path}: unsupported checkpoint version {header.get('format_version')}"
            )
        blob = fh.read()
    arrays = {}
    for ent in header["entries"]:
        n = int(np.prod(ent["shape"])) if ent["shape"] else 1
        arr = np.frombuffer(
            blob, dtype=np.float64, count=n, offset=ent["offset"]
        ).reshape(ent["shape"])
        arrays[ent["name"]] = arr.copy()
    return arrays, header.get("meta", {})
