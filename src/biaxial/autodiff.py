"""Dense tensors with reverse-mode automatic differentiation.

The primitive set is small. The bi-axial transformer and its two losses
use elementwise arithmetic, affine, layer norm, gelu/sigmoid/log,
dropout, shape ops and reductions, plus one private fused attention core.
The reductions take only the forms the program uses: `sum_reduce(x)`
sums every element, and `mean_reduce(x, axis)` and `max_reduce(x, axis)`
drop one int axis. Row sums use `np.einsum`; so do column sums, and the
softmax max uses `np.maximum.reduceat`, both in numpy's own order, so
they stay bitwise equal to `np.sum` and `max` at less overhead.
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
reference. Its backward keeps no array of its own: it reads Phi back from
the output as h / x (exactly 1/2 where |x| < 1e-30) and computes one exp.

Memory is bounded by what one training step needs:

- A node keeps what its backward reads. An op returns a `Tensor` that
  holds its array; the tape records a `_Node` with the backward closure,
  the parents' nodes, the gradient, the shape and dtype, and a weak
  reference to the array. Each closure captures, at forward time, only
  the arrays its backward reads, so a result's array lives only while a
  caller or a saved closure holds it. add, sub, dropout, reshape and the
  sum and mean reductions read none, so residual sums, dropout outputs
  and the projections that feed only dropout are freed once consumed. A
  freed node's `.data` reads as a zero-stride view of its shape. Leaves
  (parameters and constants) are their own nodes; constants that no
  gradient needs are left off the tape.
- A layer norm's output and an attention core's context are rebuilt,
  not kept. The node remakes the array bitwise with the forward's own
  arithmetic (`_Node.array`): `xhat * gain + bias` for a norm, one
  batched matmul of the dropped softmax weights and v for the core. So
  the affines that read it for their weight gradient keep the node, and
  the array is freed once the forward moves on. The first of those
  affines to run its backward rebuilds it, and it stays until the op's
  own backward. This is the recomputation of Chen et al. (arXiv
  1604.06174), used only where the rebuild costs no projection GEMM and
  no GELU pass.
- `backward` writes into a gradient only where its node owns it. A
  contribution made fresh for one node (an affine's, a layer norm's or
  GELU's dx, the attention core's dq, dk and dv) is owned by it: later
  contributions are added into it in place, and backward hands it to
  the node's closure writable, so GELU multiplies its derivative into
  the gradient it receives. Every other gradient is handed over as a
  read-only view, since it may alias another node's.
- `backward` releases the tape as it goes. Once a recorded node has
  passed its gradient on to its parents, its gradient buffer, backward
  closure, rebuild closure, rebuilt array and parent links are dropped,
  so every saved array is freed as soon as no later step reads it. Only
  leaves keep `.grad`. A recorded graph is therefore single-use: a
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
import weakref
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
# Elements per pass of the GELU kernel, by measurement on a 2-core Xeon VM
# (2 MiB L2 per core): 2^16 float32 elements ran the forward 3-14% faster
# than 2^15 at training's FFN sizes, 1.2M and 4.7M; backward within noise.
_GELU_BLOCK = 1 << 16

# Switched by `no_grad` and `compute_dtype`; per process, like the rest of
# the tape state.
_grad_enabled = True
_compute_dtype = np.dtype(np.float64)
_COMPUTE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class _Vertex:
    """A node of the tape: a gradient buffer and the rule for adding to it."""

    __slots__ = ("grad", "_grad_owned", "_backward_done")

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        # The first contribution is kept by reference. It is owned when the
        # caller made it fresh for this vertex alone (`owned`); otherwise
        # it may alias another node's gradient or a read-only view and is
        # never mutated. A later contribution is added into an owned
        # buffer in place, or else forces one.
        if self.grad is None:
            self.grad = g
            self._grad_owned = owned
        elif self._grad_owned:
            self.grad += g
        else:
            self.grad = self.grad + g
            self._grad_owned = True


class Tensor(_Vertex):
    """A dense array in the compute dtype and its place on the tape.

    A leaf (a parameter or a constant) is its own tape node and keeps its
    `.grad`. A recorded op result holds its array plus a `_Node`, which
    keeps the backward closure and the gradient but only a weak reference
    to the array: the closure holds the arrays its backward reads, so the
    result's array lives only while a caller or such a closure holds it.
    """

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_compute_dtype, order="C")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None
        self._grad_owned = False
        self._backward_done = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def _grad_fn(self) -> Callable | None:
        return None if self._node is None else self._node._grad_fn

    @_grad_fn.setter
    def _grad_fn(self, fn: Callable) -> None:
        self._node._grad_fn = fn

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self) -> None:
        self.grad = None
        self._grad_owned = False

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node(_Vertex):
    """The tape's record of one op result: its backward closure, parent
    nodes, gradient, shape and dtype, a weak reference to its array and,
    for an op that can remake that array bitwise, the closure that does.

    `.data` is that array while anything holds it; once it is freed, a
    read-only zero-stride view of the result's shape and dtype.
    """

    __slots__ = ("_grad_fn", "_parents", "shape", "dtype", "_out", "_rebuild",
                 "_rebuilt")
    requires_grad = True

    def __init__(self, out: np.ndarray, parents: tuple, grad_fn: Callable,
                 rebuild: Callable | None):
        self.grad = None
        self._grad_owned = False
        self._backward_done = False
        self._grad_fn = grad_fn
        self._parents = parents
        self.shape = out.shape
        self.dtype = out.dtype
        self._out = weakref.ref(out)
        self._rebuild = rebuild
        self._rebuilt = None

    @property
    def data(self) -> np.ndarray:
        out = self._out()
        return np.broadcast_to(_FREED[self.dtype], self.shape) if out is None else out

    def array(self) -> np.ndarray:
        """The result's array: the live one, else rebuilt by `_rebuild`.

        A rebuilt array is kept until this node's backward releases it, so
        every reader that runs its backward before then shares one rebuild.
        """
        out = self._out()
        if out is None:
            out = self._rebuilt = self._rebuild()
            self._out = weakref.ref(out)
        return out


# The one buffer behind every freed result's `.data`, per dtype.
_FREED = {dtype: np.zeros((), dtype) for dtype in _COMPUTE_DTYPES}


def _target(t: Tensor) -> _Vertex | None:
    """Where `t`'s gradient accumulates: its node, or `t` itself for a leaf;
    None when `t` needs no gradient."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


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


def _node(data, targets: Iterable[_Vertex | None], grad_fn: Callable,
          rebuild: Callable | None = None) -> Tensor:
    """Wrap an op's result; record it when a parent needs a gradient.

    `targets` are the parents' `_target`s, and `grad_fn` must hold only
    them and the arrays and shapes its backward reads, never a Tensor.
    `rebuild()`, when given, remakes `data` bitwise from what the op's
    closures keep anyway, so that readers can keep the node instead.
    """
    if data.dtype != _compute_dtype:
        op = grad_fn.__qualname__.split(".")[0]
        raise TypeError(f"{op} computed in {data.dtype}, not the compute dtype "
                        f"{_compute_dtype}: an input or constant of another dtype")
    out = Tensor(data)
    if _grad_enabled:
        parents = tuple(filter(None, targets))     # drops the Nones: nodes are truthy
        if parents:
            out.requires_grad = True
            out._node = _Node(out.data, parents, grad_fn, rebuild)
    return out


def _saved(t: Tensor):
    """What a backward closure keeps to read `t`'s array: the node when it
    can rebuild the array (read it with `.array()`), else the array."""
    node = t._node
    return node if node is not None and node._rebuild is not None else t.data


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded, in one einsum."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    kept = [i for i in range(extra, g.ndim) if shape[i - extra] != 1 or g.shape[i] == 1]
    return np.einsum(g, range(g.ndim), kept).reshape(shape)


def _column_sums(a: np.ndarray) -> np.ndarray:
    # np.sum(a, axis=0) bitwise: rows in turn for n > 1, pairwise for one column
    return np.einsum("ij->j", a) if a.shape[1] > 1 else a.sum(axis=0)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    ta, tb = _target(a), _target(b)

    def grad_fn(g):
        if ta is not None:
            ta._accumulate(_unbroadcast(g, ta.shape))
        if tb is not None:
            tb._accumulate(_unbroadcast(g, tb.shape))

    return _node(a.data + b.data, (ta, tb), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    ta, tb = _target(a), _target(b)

    def grad_fn(g):
        if ta is not None:
            ta._accumulate(_unbroadcast(g, ta.shape))
        if tb is not None:
            tb._accumulate(_unbroadcast(-g, tb.shape))

    return _node(a.data - b.data, (ta, tb), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ta, tb = _target(a), _target(b)
    # each side's gradient reads the other side's array
    a_data = a.data if tb is not None else None
    b_data = b.data if ta is not None else None

    def grad_fn(g):
        if ta is not None:
            ta._accumulate(_unbroadcast(g * b_data, ta.shape))
        if tb is not None:
            tb._accumulate(_unbroadcast(g * a_data, tb.shape))

    return _node(a.data * b.data, (ta, tb), grad_fn)


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

    ta, tb = _target(a), _target(b)
    a_data = a.data if tb is not None else None
    b_data = b.data if ta is not None else None

    def grad_fn(g):
        if ta is not None:
            da = g @ np.swapaxes(b_data, -1, -2)
            ta._accumulate(_unbroadcast(da, ta.shape))
        if tb is not None:
            db = np.swapaxes(a_data, -1, -2) @ g
            tb._accumulate(_unbroadcast(db, tb.shape))

    return _node(a.data @ b.data, (ta, tb), grad_fn)


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
    tx, tw, tb = _target(x), _target(w), _target(b)
    x_saved = _saved(x) if tw is not None else None
    w_data = w.data if tx is not None else None

    def grad_fn(g):
        g2 = np.ascontiguousarray(g).reshape(-1, n)
        if tx is not None:
            tx._accumulate((g2 @ w_data.T).reshape(tx.shape), owned=True)
        if tw is not None:
            x_data = x_saved if isinstance(x_saved, np.ndarray) else x_saved.array()
            tw._accumulate(x_data.reshape(-1, k).T @ g2)
        if tb is not None:
            tb._accumulate(_column_sums(g2))

    return _node(out_data, (tx, tw, tb), grad_fn)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    tx = _target(x)

    def grad_fn(g):
        tx._accumulate(g.reshape(tx.shape))

    return _node(x.data.reshape(shape), (tx,), grad_fn)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    tx = _target(x)

    def grad_fn(g):
        tx._accumulate(g.transpose(inv))

    return _node(x.data.transpose(axes), (tx,), grad_fn)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])
    targets = [_target(p) for p in parts]

    def grad_fn(g):
        for t, lo, hi in zip(targets, offsets[:-1], offsets[1:]):
            if t is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _node(out_data, targets, grad_fn)


def sum_reduce(x: Tensor) -> Tensor:
    """The sum of every element, as a 0-d tensor."""
    tx = _target(x)

    def grad_fn(g):
        tx._accumulate(np.broadcast_to(g, tx.shape))

    return _node(x.data.sum(), (tx,), grad_fn)


def mean_reduce(x: Tensor, axis: int) -> Tensor:
    axis %= x.ndim
    count = x.shape[axis]
    tx = _target(x)

    def grad_fn(g):
        tx._accumulate(np.broadcast_to(np.expand_dims(g, axis), tx.shape) / count)

    return _node(x.data.mean(axis=axis), (tx,), grad_fn)


def max_reduce(x: Tensor, axis: int) -> Tensor:
    axis %= x.ndim
    x_data = x.data
    out_data = x_data.max(axis=axis)
    tx = _target(x)

    def grad_fn(g):
        mask = x_data == np.expand_dims(out_data, axis)
        tx._accumulate(mask * np.expand_dims(g, axis))

    return _node(out_data, (tx,), grad_fn)


def log(x: Tensor) -> Tensor:
    x_data = x.data
    tx = _target(x)

    def grad_fn(g):
        tx._accumulate(g / x_data)

    return _node(np.log(x_data), (tx,), grad_fn)


def sigmoid(x: Tensor) -> Tensor:
    e = np.exp(-np.abs(x.data))             # in (0, 1]: neither branch overflows
    out_data = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    tx = _target(x)

    def grad_fn(g):
        tx._accumulate(g * out_data * (1.0 - out_data))

    return _node(out_data, (tx,), grad_fn)


def relu(x: Tensor) -> Tensor:
    x_data = x.data
    tx = _target(x)

    def grad_fn(g):
        tx._accumulate(g * (x_data > 0))

    return _node(np.maximum(x_data, 0.0), (tx,), grad_fn)


def _gelu_cdf(x: np.ndarray, cdf: np.ndarray, e: np.ndarray) -> None:
    """Write Phi(x) into `cdf` for one block; `e` is scratch.

    Abramowitz & Stegun 7.1.26: for z = |x|/sqrt(2) and t = 1/(1 + p z),
    the upper tail q = 1 - Phi(|x|) = (a1 t + ... + a5 t^5) exp(-x^2/2) / 2,
    within 7.5e-8 (|erf error| <= 1.5e-7). `_GELU_POLY` holds the a_i
    times -1/2, so the polynomial times exp(-x^2/2) is -q, and
    Phi(x) = 1/2 + copysign(1/2 - q, x). As 1/2 - q >= 0, the copysign is
    an integer OR of x's sign bit into it, which is cheaper than np.copysign.
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
    bits = np.dtype(f"u{x.itemsize}")
    np.bitwise_and(x.view(bits), 1 << 8 * x.itemsize - 1, out=e.view(bits))
    np.bitwise_or(cdf.view(bits), e.view(bits), out=cdf.view(bits))
    cdf += 0.5


def _gelu_blocks(x: np.ndarray, scratch: int = 1):
    """Yield (flat block of x, its slice, *`scratch` scratch blocks) over x
    in order."""
    flat = x.reshape(-1)
    buffers = np.empty((scratch, min(flat.size, _GELU_BLOCK)), x.dtype)
    for lo in range(0, flat.size, _GELU_BLOCK):
        part = slice(lo, lo + _GELU_BLOCK)
        block = flat[part]
        yield (block, part, *buffers[:, :block.size])


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU, h = x * Phi(x), with Phi from `_gelu_cdf`.

    Each block of `_GELU_BLOCK` elements goes through every pass before
    the next block starts, so the passes run in cache. Backward reads Phi
    back from the output as h / x, or as 1/2 (exact to either dtype's
    rounding) where |x| < 1e-30, zeros and subnormals included, and needs
    one exp: d/dx = Phi(x) + x * exp(-x^2/2) / sqrt(2 pi). It multiplies
    d/dx into the incoming gradient when backward hands that over
    writable (this node owns it), else into a new buffer.
    """
    x_data = x.data
    out_data = np.empty_like(x_data)
    out_flat = out_data.reshape(-1)
    for block, part, e in _gelu_blocks(x_data):
        out = out_flat[part]
        _gelu_cdf(block, out, e)
        out *= block
    tx = _target(x)

    def grad_fn(g):
        dx = g if g.flags.writeable and g.flags.c_contiguous else np.empty_like(x_data)
        dx_flat, g_flat = dx.reshape(-1), np.ascontiguousarray(g).reshape(-1)
        with np.errstate(invalid="ignore"):              # 0 / 0, replaced below
            for block, part, e, d in _gelu_blocks(x_data, scratch=2):
                np.divide(out_flat[part], block, out=d)
                np.copyto(d, 0.5, where=np.abs(block, out=e) < 1e-30)
                np.multiply(block, -0.5, out=e)
                e *= block
                np.exp(e, out=e)
                e *= block
                e *= _INV_SQRT2PI
                d += e
                np.multiply(g_flat[part], d, out=dx_flat[part])
        tx._accumulate(dx, owned=True)

    return _node(out_data, (tx,), grad_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    axis = axis % x.ndim
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)
    tx = _target(x)

    def grad_fn(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        tx._accumulate(out_data * (g - inner))

    return _node(out_data, (tx,), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    n = x.shape[-1]
    if gain.size != n or bias.size != n:
        raise ValueError(
            f"layer_norm gain/bias must have length {n}, got {gain.size} and {bias.size}"
        )
    xhat = x.data - (np.einsum("...i->...", x.data) / n)[..., None]
    var = np.einsum("...i,...i->...", xhat, xhat) / n
    inv = (1.0 / np.sqrt(var + eps))[..., None]
    xhat *= inv
    gain_data, bias_data = gain.data, bias.data

    def rebuild():
        out = xhat * gain_data
        out += bias_data
        return out

    tx, tgain, tbias = _target(x), _target(gain), _target(bias)

    def grad_fn(g):
        if tgain is not None:
            tgain._accumulate(_column_sums((g * xhat).reshape(-1, n)))
        if tbias is not None:
            tbias._accumulate(_column_sums(g.reshape(-1, n)))
        if tx is not None:
            dx = g * gain_data
            m1 = np.einsum("...i->...", dx) / n
            m2 = np.einsum("...i,...i->...", dx, xhat) / n
            dx -= m1[..., None]
            dx -= xhat * m2[..., None]
            dx *= inv
            tx._accumulate(dx, owned=True)

    return _node(rebuild(), (tx, tgain, tbias), grad_fn, rebuild)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None,
            train: bool) -> Tensor:
    """Inverted dropout; identity in eval mode or at p == 0."""
    if not train or p <= 0.0:
        return x
    keep, scale = _keep_mask(x.shape, p, rng)
    tx = _target(x)

    def grad_fn(g):
        tx._accumulate(_apply_keep(g, keep, scale))

    return _node(_apply_keep(x.data, keep, scale), (tx,), grad_fn)


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
    boolean dropout mask. The context itself is not kept: the node
    rebuilds it bitwise from the dropped weights and v when the `wo`
    projection's backward reads it, and the core's backward then reuses
    those dropped weights for dv, so no extra dropout pass is run.
    """
    axis %= 4
    if axis not in (1, 2):
        raise ValueError(f"attention runs over axis 1 or 2 of a 4-D input, got {axis}")
    b, s, e = q.shape[0], q.shape[axis], q.shape[3]
    scale = 1.0 / math.sqrt(e // heads)             # a Python float, like _INV_SQRT2PI
    # the closure keeps the inputs' own arrays, so their nodes read as held
    q_data, k_data, v_data = q.data, k.data, v.data
    q5, k5, v5 = (_split_heads(a, axis, heads) for a in (q_data, k_data, v_data))

    weights = q5 @ np.swapaxes(k5, -1, -2)          # (B, G, h, S, S)
    weights *= scale
    if key_bias is not None:
        weights += key_bias.astype(weights.dtype).reshape(b, 1, 1, 1, s)
    row_max = np.maximum.reduceat(weights.reshape(-1), np.arange(0, weights.size, s))
    weights -= row_max.reshape(weights.shape[:-1] + (1,))
    np.exp(weights, out=weights)
    weights /= np.einsum("...i->...", weights)[..., None]
    keep = drop_scale = None
    if train and p > 0.0:
        keep, drop_scale = _keep_mask(weights.shape, p, rng)

    def dropped():
        return weights if keep is None else _apply_keep(weights, keep, drop_scale)

    def context(dropped_weights):
        out = np.empty(q_data.shape, q_data.dtype)
        np.matmul(dropped_weights, v5, out=_split_heads(out, axis, heads))
        return out

    rebuilt_weights = None          # the dropped weights of a rebuild, kept for dv

    def rebuild():
        nonlocal rebuilt_weights
        rebuilt_weights = dropped()
        return context(rebuilt_weights)

    tq, tk, tv = _target(q), _target(k), _target(v)

    def grad_fn(g):
        nonlocal rebuilt_weights
        shared, rebuilt_weights = rebuilt_weights, None
        q5, k5, v5 = (_split_heads(a, axis, heads) for a in (q_data, k_data, v_data))
        g5 = _split_heads(np.ascontiguousarray(g), axis, heads)
        if tv is not None:
            dv = np.empty(tv.shape, g.dtype)
            np.matmul(np.swapaxes(dropped() if shared is None else shared, -1, -2), g5,
                      out=_split_heads(dv, axis, heads))
            tv._accumulate(dv, owned=True)
        del shared                                  # freed before ds is made
        ds = g5 @ np.swapaxes(v5, -1, -2)           # dL/d(dropped weights)
        if keep is not None:
            ds = _apply_keep(ds, keep, drop_scale)
        ds -= np.einsum("...i,...i->...", ds, weights)[..., None]
        ds *= weights
        ds *= scale
        for t, lhs, rhs in ((tq, ds, k5), (tk, np.swapaxes(ds, -1, -2), q5)):
            if t is not None:
                grad = np.empty(t.shape, g.dtype)
                np.matmul(lhs, rhs, out=_split_heads(grad, axis, heads))
                t._accumulate(grad, owned=True)

    return _node(context(dropped()), (tq, tk, tv), grad_fn, rebuild)


# ---------------------------------------------------------------------------
# backward pass


class GradientTape:
    """Topologically ordered record of the operations below a root tensor:
    its `_Node`s and leaves, each before every node that reads it."""

    def __init__(self, nodes: list):
        self.nodes = nodes

    @classmethod
    def from_root(cls, root: Tensor) -> "GradientTape":
        order: list[_Vertex] = []
        visited: set[int] = set()
        stack = [(root if root._node is None else root._node, False)]
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
    nothing and cannot be backpropagated at all. A node's closure gets
    its gradient writable only when the node owns it (see `_accumulate`),
    else as a read-only view.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = loss if loss._node is None else loss._node
    if root._backward_done:
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
    root._accumulate(np.ones_like(loss.data))
    while nodes:
        node = nodes.pop()
        if node._grad_fn is None:
            continue
        g = node.grad
        if g is not None:
            if not node._grad_owned and g.flags.writeable:
                g = g.view()        # only a node's own buffer may be written
                g.flags.writeable = False
            node._grad_fn(g)
        node.grad = node._grad_fn = node._rebuild = node._rebuilt = None
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
