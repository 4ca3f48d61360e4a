"""Dense tensors with reverse-mode automatic differentiation.

The primitive set is small. The bi-axial transformer and its two losses
use elementwise arithmetic, affine, layer norm, gelu/sigmoid/log,
dropout, shape ops and reductions, plus one private fused attention core.
The reductions take only the forms the program uses: `sum_reduce(x)`
sums every element, and `mean_reduce(x, axis)` and `max_reduce(x, axis)`
drop one int axis.
`matmul`, `softmax` and `transpose` serve only as the tests' unfused
reference for that core, and `relu` has no caller. The ops are this
module's functions; `Tensor` has no operator overloads. Gradients are
accumulated by replaying a topologically ordered tape of the recorded
operations. The engine needs only numpy and reads and writes no files:
`training` owns the checkpoint format.

`gelu` is the exact erf form, x * Phi(x), computed by one blocked kernel
for both dtypes. Phi comes from the Abramowitz & Stegun 7.1.26 erf
(|error| <= 1.5e-7), so a GELU value is within 7.5e-8 * |x| of the exact
one, plus the dtype's rounding; the tests take `scipy.special.erf` as the
reference.

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
import math
import warnings
from typing import Callable, Iterable, Sequence

import numpy as np

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
]

# Python floats, not NumPy float64 scalars, which would promote float32
# arrays to float64 (NEP 50).
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# GELU's normal CDF: Abramowitz & Stegun 7.1.26 in the variable x, so p is
# scaled by 1/sqrt(2) and the a_i by -1/2 (see `_gelu_cdf`).
_GELU_P = 0.3275911 / math.sqrt(2.0)
_GELU_POLY = tuple(-0.5 * a for a in (0.254829592, -0.284496736, 1.421413741,
                                      -1.453152027, 1.061405429))
# Elements per pass of the GELU kernel: the input, output and scratch
# blocks (plus the gradient's in backward) stay within a core's L2.
_GELU_BLOCK = 1 << 15

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Create a leaf tensor."""
    return Tensor(data, requires_grad=requires_grad)


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
    """Matrix product with numpy's broadcasting over leading (stack) dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"matmul requires rank >= 2 operands, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions disagree: {a.shape} @ {b.shape}"
        )

    def grad_fn(g):
        if a.requires_grad:
            da = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(da, a.shape))
        if b.requires_grad:
            db = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(_unbroadcast(db, b.shape))

    return _node(a.data @ b.data, (a, b), grad_fn)


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


def sum_reduce(x: Tensor) -> Tensor:
    """The sum of every element, as a 0-d tensor."""
    out_data = x.data.sum()

    def grad_fn(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g, x.shape))

    return _node(out_data, (x,), grad_fn)


def mean_reduce(x: Tensor, axis: int) -> Tensor:
    axis %= x.ndim
    out_data = x.data.mean(axis=axis)
    count = x.shape[axis]

    def grad_fn(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(np.expand_dims(g, axis), x.shape) / count)

    return _node(out_data, (x,), grad_fn)


def max_reduce(x: Tensor, axis: int) -> Tensor:
    axis %= x.ndim
    out_data = x.data.max(axis=axis)

    def grad_fn(g):
        if x.requires_grad:
            mask = x.data == np.expand_dims(out_data, axis)
            x._accumulate(mask * np.expand_dims(g, axis))

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


def _gelu_cdf(x: np.ndarray, cdf: np.ndarray, e: np.ndarray) -> None:
    """Write Phi(x) into `cdf` and exp(-x^2/2) into `e`, for one block.

    Abramowitz & Stegun 7.1.26: for z = |x|/sqrt(2) and t = 1/(1 + p z),
    the upper tail q = 1 - Phi(|x|) = (a1 t + ... + a5 t^5) exp(-x^2/2) / 2,
    within 7.5e-8 (|erf error| <= 1.5e-7). `_GELU_POLY` holds the a_i
    times -1/2, so the polynomial times exp(-x^2/2) is -q, and
    Phi(x) = 1/2 + copysign(1/2 - q, x).
    """
    np.abs(x, out=e)
    e *= _GELU_P
    e += 1.0
    np.reciprocal(e, out=e)                          # t
    np.multiply(e, _GELU_POLY[-1], out=cdf)
    for a in _GELU_POLY[-2::-1]:                    # Horner, ending in * t
        cdf += a
        cdf *= e
    np.multiply(x, -0.5, out=e)
    e *= x
    np.exp(e, out=e)
    cdf *= e
    cdf += 0.5
    np.copysign(cdf, x, out=cdf)
    cdf += 0.5


def _gelu_blocks(x: np.ndarray):
    """Yield (flat block of x, its slice, scratch block) over x in order."""
    flat = x.reshape(-1)
    scratch = np.empty(min(flat.size, _GELU_BLOCK), x.dtype)
    for lo in range(0, flat.size, _GELU_BLOCK):
        part = slice(lo, lo + _GELU_BLOCK)
        block = flat[part]
        yield block, part, scratch[:block.size]


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU, x * Phi(x), with Phi from `_gelu_cdf`.

    Each block of `_GELU_BLOCK` elements goes through every pass before
    the next block starts, so the passes run in cache. Backward keeps only
    `x` and recomputes Phi: d/dx = Phi(x) + x * exp(-x^2/2) / sqrt(2 pi).
    """
    out_data = np.empty_like(x.data)
    out_flat = out_data.reshape(-1)
    for block, part, e in _gelu_blocks(x.data):
        out = out_flat[part]
        _gelu_cdf(block, out, e)
        out *= block

    def grad_fn(g):
        if not x.requires_grad:
            return
        dx = np.empty_like(x.data)
        dx_flat, g_flat = dx.reshape(-1), np.ascontiguousarray(g).reshape(-1)
        for block, part, e in _gelu_blocks(x.data):
            out = dx_flat[part]
            _gelu_cdf(block, out, e)
            e *= block
            e *= _INV_SQRT2PI
            out += e
            out *= g_flat[part]
        x._accumulate(dx)

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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    Row sums use `np.einsum`, faster than `.sum(-1)` on short rows; the
    gain and bias gradients keep `np.sum`'s pairwise column sums.
    """
    n = x.shape[-1]
    if gain.size != n or bias.size != n:
        raise ValueError(
            f"layer_norm gain/bias must have length {n}, got {gain.size} and {bias.size}"
        )
    xhat = x.data - (np.einsum("...i->...", x.data) / n)[..., None]
    var = np.einsum("...i,...i->...", xhat, xhat) / n
    inv = (1.0 / np.sqrt(var + eps))[..., None]
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data

    def grad_fn(g):
        other = tuple(range(x.ndim - 1))
        if gain.requires_grad:
            gain._accumulate((g * xhat).sum(axis=other))
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=other))
        if x.requires_grad:
            dx = g * gain.data
            m1 = np.einsum("...i->...", dx) / n
            m2 = np.einsum("...i,...i->...", dx, xhat) / n
            dx -= m1[..., None]
            dx -= xhat * m2[..., None]
            dx *= inv
            x._accumulate(dx)

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
    """Boolean keep mask with P(keep) = 1 - p, and the 1/(1-p) rescale.

    Element i is kept when 32-bit word i of the bit generator's raw output
    is at least round(p * 2**32): P(keep) = 1 - p within 2**-33.
    """
    if rng is None:
        raise ValueError("dropout in train mode requires an rng stream")
    n = math.prod(shape)
    words = rng.bit_generator.random_raw((n + 1) // 2).view(np.uint32)[:n]
    return (words >= round(p * 2.0 ** 32)).reshape(shape), 1.0 / (1.0 - p)


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
    scale = 1.0 / math.sqrt(e // heads)             # a Python float, like _INV_SQRT2PI
    q5, k5, v5 = (_split_heads(t.data, axis, heads) for t in (q, k, v))

    weights = q5 @ np.swapaxes(k5, -1, -2)          # (B, G, h, S, S)
    weights *= scale
    if key_bias is not None:
        weights += key_bias.astype(weights.dtype).reshape(b, 1, 1, 1, s)
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.einsum("...i->...", weights)[..., None]
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
        ds = g5 @ np.swapaxes(v5, -1, -2)           # dL/d(dropped weights)
        if keep is not None:
            ds = _apply_keep(ds, keep, drop_scale)
        ds -= np.einsum("...i,...i->...", ds, weights)[..., None]
        ds *= weights
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
